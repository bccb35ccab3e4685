type t = {
  name : string;
  advance : now:Sim_time.t -> dt:Sim_time.t -> unit;
  has_work : unit -> bool;
  execute : now:Sim_time.t -> cpu_time:Sim_time.t -> speed:float -> Sim_time.t;
}

(* The one default [advance]: every workload built without an [advance]
   shares this closure, so a host can tell by physical equality that
   advancing it would do nothing. *)
let no_advance ~now:_ ~dt:_ = ()

let make ~name ?(advance = no_advance) ~has_work ~execute () =
  { name; advance; has_work; execute }

let name t = t.name
let advance t ~now ~dt = t.advance ~now ~dt
let advances t = t.advance != no_advance
let has_work t = t.has_work ()

let execute t ~now ~cpu_time ~speed =
  if not (speed > 0.0) then invalid_arg "Workload.execute: speed must be positive";
  let used = t.execute ~now ~cpu_time ~speed in
  if Sim_time.compare used cpu_time > 0 then
    invalid_arg
      (Printf.sprintf "Workload.execute: %s consumed more time than offered" t.name);
  used

(* Shared by every [idle] workload, so a scheduler can tell by physical
   equality that asking it for work is pointless. *)
let no_work () = false
let may_work t = t.has_work != no_work

let idle () =
  make ~name:"idle" ~has_work:no_work
    ~execute:(fun ~now:_ ~cpu_time:_ ~speed:_ -> Sim_time.zero)
    ()

let busy_loop () =
  make ~name:"busy-loop" ~has_work:(fun () -> true)
    ~execute:(fun ~now:_ ~cpu_time ~speed:_ -> cpu_time)
    ()
