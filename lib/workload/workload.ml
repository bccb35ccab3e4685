(* The owner's list of the workloads that really advanced or were flushed
   since it last looked, each at most once: [ids.(0 .. length - 1)] are
   listed, and [listed] marks them.  [none] has no room, so a workload
   reporting to it pushes nothing. *)
module Changes = struct
  type t = {
    ids : int array;
    mutable length : int; (* listed ids *)
    listed : Bytes.t; (* ['\001'] at a listed id *)
  }

  let none = { ids = [||]; length = 0; listed = Bytes.empty }
  let create n = { ids = Array.make n 0; length = 0; listed = Bytes.make n '\000' }

  let[@inline always] push c i =
    if i < Bytes.length c.listed && Bytes.unsafe_get c.listed i = '\000' then begin
      Bytes.unsafe_set c.listed i '\001';
      Array.unsafe_set c.ids c.length i;
      c.length <- c.length + 1
    end

  let pop c =
    if c.length = 0 then -1
    else begin
      c.length <- c.length - 1;
      let i = Array.unsafe_get c.ids c.length in
      Bytes.unsafe_set c.listed i '\000';
      i
    end

  let clear c =
    while pop c >= 0 do
      ()
    done
end

(* The array a host reads due ticks from; [no_dues] has no room, so a
   workload posting to it stores nothing. *)
let no_dues : Sim_time.t array = [||]

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
  mutable dues : Sim_time.t array; (* the host's, see {!post_due}; [due_at] is copied there *)
  mutable due_slot : int; (* this workload's entry in [dues] *)
  mutable changes : Changes.t; (* the owner's, see {!report_changes} *)
  mutable change_id : int; (* this workload's id there *)
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
    dues = no_dues;
    due_slot = 0;
    changes = Changes.none;
    change_id = 0;
  }

let name t = t.name
let advances t = t.advance != no_advance
let defers t = t.due != every_tick
let version t = t.version
let due_at t = t.due_at

let post_due t dues i =
  if i < 0 || i >= Array.length dues then invalid_arg "Workload.post_due: slot out of range";
  t.dues <- dues;
  t.due_slot <- i;
  dues.(i) <- t.due_at

let report_changes t c i =
  if i < 0 then invalid_arg "Workload.report_changes: negative id";
  t.changes <- c;
  t.change_id <- i

(* [due_at] and its copy in the host's array move together. *)
let[@inline always] set_due t d =
  t.due_at <- d;
  if t.due_slot < Array.length t.dues then Array.unsafe_set t.dues t.due_slot d

(* A real advance or a flush: [has_work] may have moved. *)
let[@inline always] changed t =
  t.version <- t.version + 1;
  Changes.push t.changes t.change_id

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
    changed t;
    set_due t (t.due ~now ~dt)
  end

(* The ticks in [(last, now]] are ones [advance] would have deferred: the
   caller skipped them because each came before [due_at], directly after
   the one before, with the step of the last real advance.  [last >= from]
   ties the run to the caller's own run of ticks.  Inlined into the host,
   so a workload that never defers, or one already ticked through [now],
   costs a few compares and no call. *)
let[@inline] defer_through t ~from ~now ~dt =
  if now > t.last && t.due != every_tick && dt = t.step && t.last >= from then begin
    t.pending <- t.pending + ((now - t.last) / dt);
    t.last <- now
  end

let flush t =
  if t.pending > 0 then replay t;
  if t.due != every_tick then begin
    changed t;
    set_due t Sim_time.zero
  end

(* The error path stays out of line: [execute] is inlined into the
   host's dispatch tick, which should not carry the [Printf] call. *)
(* alloc: cold *)
let[@inline never] overconsumed t =
  invalid_arg (Printf.sprintf "Workload.execute: %s consumed more time than offered" t.name)

(* [execute] may change what [due] would answer (a pi-app that drains its
   tokens must be advanced on the very next tick), so the due tick is
   recomputed from the last tick seen. *)
let execute t ~now ~cpu_time ~speed =
  if not (speed > 0.0) then invalid_arg "Workload.execute: speed must be positive";
  if t.pending > 0 then replay t;
  let used = t.execute ~now ~cpu_time ~speed in
  if Sim_time.compare used cpu_time > 0 then overconsumed t;
  if t.due != every_tick then begin
    t.version <- t.version + 1;
    if t.step > Sim_time.zero then set_due t (t.due ~now:t.last ~dt:t.step)
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
