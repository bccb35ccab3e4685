(* Bumped by every real advance and flush of the deferring workloads that
   share it; see {!use_counter}. *)
type counter = { mutable count : int }

type t = {
  name : string;
  advance : now:Sim_time.t -> dt:Sim_time.t -> unit;
  has_work : unit -> bool;
  execute : now:Sim_time.t -> cpu_time:Sim_time.t -> speed:float -> Sim_time.t;
  due : now:Sim_time.t -> dt:Sim_time.t -> Sim_time.t;
  catch_up : now:Sim_time.t -> dt:Sim_time.t -> ticks:int -> unit;
  (* Deferral state; only a workload made with [~due] ever moves it.
     [Sim_time.t] is the int microsecond count, so the per-tick test below
     compares and adds immediates instead of calling across libraries. *)
  mutable due_at : Sim_time.t;
      (* first tick that must really advance; 0: the next; [never] without an [advance] *)
  mutable last : Sim_time.t; (* instant of the last tick seen, advanced or deferred *)
  mutable step : Sim_time.t; (* step of that tick; 0 before the first *)
  mutable pending : int; (* deferred ticks, the last at [last], [step] apart *)
  mutable version : int; (* bumped by every real advance, execute and flush *)
  mutable counter : counter; (* the owner's; bumped by every real advance and flush *)
}

(* The one default [advance]: every workload built without an [advance]
   shares this closure, so a host can tell by physical equality that
   advancing it would do nothing. *)
let no_advance ~now:_ ~dt:_ = ()

(* The [due] of a workload that never defers: shared, so physical
   equality tells a workload that must be advanced on every tick.  Never
   called. *)
let every_tick ~now ~dt = now + dt

let never = Sim_time.of_us max_int

(* The catch-up of a workload that never defers.  Never called. *)
let no_catch_up ~now:_ ~dt:_ ~ticks:_ = ()

let make ~name ?(advance = no_advance) ?(defer = (every_tick, no_catch_up)) ~has_work ~execute ()
    =
  let due, catch_up = defer in
  {
    name;
    advance;
    has_work;
    execute;
    due;
    catch_up;
    due_at = (if advance == no_advance then never else Sim_time.zero);
    last = Sim_time.zero;
    step = Sim_time.zero;
    pending = 0;
    version = 0;
    counter = { count = 0 };
  }

let name t = t.name
let advances t = t.advance != no_advance
let defers t = t.due != every_tick
let version t = t.version
let due_at t = t.due_at
let counter () = { count = 0 }
let count c = c.count
let use_counter t c = t.counter <- c
let has_work t = t.has_work ()

let replay t =
  let ticks = t.pending in
  t.pending <- 0;
  t.catch_up ~now:t.last ~dt:t.step ~ticks

(* A tick is deferred only when it directly follows the last one, with the
   same step, and comes before the due tick: [due] was computed under
   exactly that assumption.  Any other tick (the first, a gap, a repeated
   instant, a changed step, the due tick itself) catches up the deferred
   run and advances for real. *)
let advance t ~now ~dt =
  if t.due == every_tick then t.advance ~now ~dt
  else if now < t.due_at && dt = t.step && now = t.last + dt then begin
    t.pending <- t.pending + 1;
    t.last <- now
  end
  else begin
    if t.pending > 0 then replay t;
    t.advance ~now ~dt;
    t.last <- now;
    t.step <- dt;
    t.version <- t.version + 1;
    t.counter.count <- t.counter.count + 1;
    t.due_at <- t.due ~now ~dt
  end

(* The ticks in [(last, now]] are ones [advance] would have deferred: the
   caller skipped them because each came before [due_at], directly after
   the one before, with the step of the last real advance.  [last >= from]
   ties the run to the caller's own last advance of this workload. *)
let defer_through t ~from ~now ~dt =
  if t.due != every_tick && dt = t.step && t.last >= from && now > t.last then begin
    t.pending <- t.pending + ((now - t.last) / dt);
    t.last <- now
  end

let flush t =
  if t.pending > 0 then replay t;
  if t.due != every_tick then begin
    t.version <- t.version + 1;
    t.counter.count <- t.counter.count + 1;
    t.due_at <- Sim_time.zero
  end

(* [execute] may change what [due] would answer (a pi-app that drains its
   tokens must be advanced on the very next tick), so the due tick is
   recomputed from the last tick seen. *)
let execute t ~now ~cpu_time ~speed =
  if not (speed > 0.0) then invalid_arg "Workload.execute: speed must be positive";
  if t.pending > 0 then replay t;
  let used = t.execute ~now ~cpu_time ~speed in
  if Sim_time.compare used cpu_time > 0 then
    invalid_arg
      (Printf.sprintf "Workload.execute: %s consumed more time than offered" t.name);
  if t.due != every_tick then begin
    t.version <- t.version + 1;
    if t.step > Sim_time.zero then t.due_at <- t.due ~now:t.last ~dt:t.step
  end;
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
