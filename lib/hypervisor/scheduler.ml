module Mask = struct
  (* One byte per domain id, plus the list of ids set since the last
     clear.  Domain ids are small sequential ints, so the Bytes buffer is a
     dense set with O(1) membership; but ids are process-global, so the
     buffer grows with every domain the process ever created, and [clear]
     resets only the touched bytes.  A tick's clear then costs what that
     tick added, not the process history.  The host reuses one mask for
     every dispatch tick, so the hot path never allocates. *)
  type t = {
    mutable bits : Bytes.t;
    mutable touched : int array; (* ids set since the last clear *)
    mutable n_touched : int;
  }

  let create () = { bits = Bytes.make 64 '\000'; touched = Array.make 16 0; n_touched = 0 }

  (* The buffers double O(log n) times as domain ids and per-tick
     exclusions grow; the per-tick add pays only the length tests. *)
  (* alloc: cold *)
  let[@inline never] grow t want =
    let cap = ref (Bytes.length t.bits) in
    while want >= !cap do
      cap := !cap * 2
    done;
    let bigger = Bytes.make !cap '\000' in
    Bytes.blit t.bits 0 bigger 0 (Bytes.length t.bits);
    t.bits <- bigger

  (* alloc: cold *)
  let[@inline never] grow_touched t =
    let bigger = Array.make (2 * Array.length t.touched) 0 in
    Array.blit t.touched 0 bigger 0 t.n_touched;
    t.touched <- bigger

  let clear t =
    for i = 0 to t.n_touched - 1 do
      Bytes.set t.bits t.touched.(i) '\000'
    done;
    t.n_touched <- 0

  let add t d =
    let id = Domain.id d in
    if id >= Bytes.length t.bits then grow t id;
    if Bytes.get t.bits id = '\000' then begin
      Bytes.set t.bits id '\001';
      if t.n_touched = Array.length t.touched then grow_touched t;
      t.touched.(t.n_touched) <- id;
      t.n_touched <- t.n_touched + 1
    end

  let mem t d =
    let id = Domain.id d in
    id < Bytes.length t.bits && Bytes.get t.bits id <> '\000'

  let of_list ds =
    let t = create () in
    List.iter (add t) ds;
    t
end

type slice = { domain : Domain.t; mutable max_slice : Sim_time.t }

type t = {
  name : string;
  domains : unit -> Domain.t list;
  pick : now:Sim_time.t -> remaining:Sim_time.t -> exclude:Mask.t -> slice option;
  charge : domain:Domain.t -> now:Sim_time.t -> used:Sim_time.t -> unit;
  on_account_period : now:Sim_time.t -> unit;
  set_effective_credit : Domain.t -> float -> unit;
  effective_credit : Domain.t -> float;
  observe_window : (now:Sim_time.t -> busy_fraction:float -> unit) option;
  window_period : Sim_time.t;
}

let make ~name ~domains ~pick ~charge ?(on_account_period = fun ~now:_ -> ())
    ?(set_effective_credit = fun _ _ -> ()) ?effective_credit ?observe_window
    ?(window_period = Sim_time.of_ms 100) () =
  let effective_credit =
    match effective_credit with Some f -> f | None -> Domain.initial_credit
  in
  {
    name;
    domains;
    pick;
    charge;
    on_account_period;
    set_effective_credit;
    effective_credit;
    observe_window;
    window_period;
  }

let excluded d exclude = Mask.mem exclude d
