(* A periodic event is one record re-armed after each firing, so one
   handle controls the whole chain; [period] is 0 for a one-shot. *)
type event = {
  mutable time : Sim_time.t;
  mutable seq : int;
  action : unit -> unit;
  period : Sim_time.t;
  mutable cancelled : bool;
  mutable queued : bool; (* currently sitting in the queue *)
}

type handle = event

(* A binary min-heap of events in [heap.(0 .. size - 1)], ordered by
   (time, seq); the slots past [size] are never read. *)
type t = {
  mutable clock : Sim_time.t;
  mutable next_seq : int;
  mutable heap : event array;
  mutable size : int;
  mutable dead : int; (* cancelled events still occupying queue slots *)
}

let inv_monotonic =
  Analysis.Invariant.register "sim.monotonic-time"
    ~doc:"the event queue never dispatches an event scheduled before the clock"

let create () = { clock = Sim_time.zero; next_seq = 0; heap = [||]; size = 0; dead = 0 }
let now t = t.clock

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

(* [Sim_time.t] is the int microsecond count: inline int compares. *)
let[@inline always] before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* Capacity doubling runs O(log n) times over a simulator's life. *)
(* alloc: cold *)
let[@inline never] grow t ev =
  let bigger = Array.make (Int.max 16 (2 * t.size)) ev in
  Array.blit t.heap 0 bigger 0 t.size;
  t.heap <- bigger

(* Hole-based sifts: the moving event is written once, at its final slot. *)
let rec sift_up h ev i =
  let parent = (i - 1) / 2 in
  if i > 0 && before ev h.(parent) then begin
    h.(i) <- h.(parent);
    sift_up h ev parent
  end
  else h.(i) <- ev

let rec sift_down h size ev i =
  let l = (2 * i) + 1 in
  let c = if l + 1 < size && before h.(l + 1) h.(l) then l + 1 else l in
  if c < size && before h.(c) ev then begin
    h.(i) <- h.(c);
    sift_down h size ev c
  end
  else h.(i) <- ev

(* alloc: none *)
let push t ev =
  if t.size = Array.length t.heap then grow t ev;
  ev.queued <- true;
  t.size <- t.size + 1;
  sift_up t.heap ev (t.size - 1)

(* The earliest event; the queue must not be empty. *)
(* alloc: none *)
let pop t =
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then sift_down t.heap t.size t.heap.(t.size) 0;
  top.queued <- false;
  top

let schedule t time period action =
  let ev = { time; seq = fresh_seq t; action; period; cancelled = false; queued = false } in
  push t ev;
  ev

let at t time action =
  if Sim_time.compare time t.clock < 0 then invalid_arg "Simulator.at: time is in the past";
  schedule t time Sim_time.zero action

let after t delay action = at t (Sim_time.add t.clock delay) action

let every t ?start period action =
  if Sim_time.equal period Sim_time.zero then invalid_arg "Simulator.every: zero period";
  let start = match start with Some s -> s | None -> Sim_time.add t.clock period in
  if Sim_time.compare start t.clock < 0 then invalid_arg "Simulator.every: start is in the past";
  schedule t start period action

(* Rebuild the queue without its cancelled entries once they dominate; keeps
   [pending] exact and stops long-lived simulations from dragging a tail of
   dead events through every pop. *)
let compact t =
  let events = Array.sub t.heap 0 t.size in
  t.size <- 0;
  t.dead <- 0;
  Array.iter (fun ev -> if ev.cancelled then ev.queued <- false else push t ev) events

let cancel t handle =
  if not handle.cancelled then begin
    handle.cancelled <- true;
    if handle.queued then begin
      t.dead <- t.dead + 1;
      if t.dead > 64 && 2 * t.dead > t.size then compact t
    end
  end

let pending t = t.size - t.dead

(* A periodic event is re-armed after its action, with the seq it takes
   then: whatever the action queued at the re-arm instant fires first. *)
let step t =
  if t.size = 0 then false
  else begin
    let ev = pop t in
    if ev.cancelled then t.dead <- t.dead - 1
    else begin
      if Analysis.Config.enabled () then
        Analysis.Check.run inv_monotonic ~time_s:(Sim_time.to_sec t.clock)
          ~component:"simulator"
          ~detail:(fun () ->
            Printf.sprintf "event scheduled at %s popped with clock at %s"
              (Sim_time.to_string ev.time) (Sim_time.to_string t.clock))
          (ev.time >= t.clock);
      t.clock <- Sim_time.max t.clock ev.time;
      ev.action ();
      if ev.period > 0 && not ev.cancelled then begin
        ev.time <- t.clock + ev.period;
        ev.seq <- fresh_seq t;
        push t ev
      end
    end;
    true
  end

let run_until t t_end =
  while t.size > 0 && t.heap.(0).time <= t_end do
    ignore (step t)
  done;
  t.clock <- Sim_time.max t.clock t_end

let run t = while step t do () done
