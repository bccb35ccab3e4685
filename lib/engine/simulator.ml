(* A periodic event is one record re-armed after each firing, so one
   handle controls the whole chain; [period] is 0 for a one-shot.  The
   event's key lives in the heap, not here. *)
type event = {
  action : unit -> unit;
  period : Sim_time.t;
  mutable cancelled : bool;
  mutable queued : bool; (* in the queue and not running *)
}

type handle = event

(* What a free slot holds, so that the table keeps no fired or cancelled
   event, nor what its action captured (a stopped host, say), alive.
   Built once, at start-up. *)
(* alloc: cold *)
let no_event = { action = ignore; period = Sim_time.zero; cancelled = true; queued = false }

(* A binary min-heap over int triples: entry [i] is [keys.(3i)], the
   time, [keys.(3i + 1)], the seq, and [keys.(3i + 2)], the slot of its
   event in [slots].  Entries [0 .. size - 1] are the heap, ordered by
   (time, seq); the slot fields of the entries past [size] hold the free
   slots, so the slot fields are always a permutation of the slot
   indices.  A sift moves ints only: no write barrier.  [slots] is
   written once per [schedule]. *)
type t = {
  mutable clock : Sim_time.t;
  mutable next_seq : int;
  mutable keys : int array;
  mutable slots : event array;
  mutable size : int;
  mutable dead : int; (* cancelled events still occupying queue slots *)
  mutable running : int; (* 1 while a periodic action runs at the root *)
}

let inv_monotonic =
  Analysis.Invariant.register "sim.monotonic-time"
    ~doc:"the event queue never dispatches an event scheduled before the clock"

let create () =
  {
    clock = Sim_time.zero;
    next_seq = 0;
    keys = [||];
    slots = [||];
    size = 0;
    dead = 0;
    running = 0;
  }

let now t = t.clock

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

(* [Sim_time.t] is the int microsecond count: inline int compares. *)
let[@inline always] before (time : int) (seq : int) time' seq' =
  time < time' || (time = time' && seq < seq')

(* Capacity doubling runs O(log n) times over a simulator's life; the
   new slots join the free region. *)
(* alloc: cold *)
let[@inline never] grow t ev =
  let cap = Int.max 16 (2 * t.size) in
  let keys = Array.make (3 * cap) 0 in
  Array.blit t.keys 0 keys 0 (3 * t.size);
  for i = t.size to cap - 1 do
    keys.((3 * i) + 2) <- i
  done;
  let slots = Array.make cap ev in
  Array.blit t.slots 0 slots 0 t.size;
  t.keys <- keys;
  t.slots <- slots

let[@inline always] set (k : int array) i (time : int) (seq : int) (slot : int) =
  k.(3 * i) <- time;
  k.((3 * i) + 1) <- seq;
  k.((3 * i) + 2) <- slot

(* Hole-based sifts: the moving entry is written once, at its final place. *)
let rec sift_up (k : int array) time seq slot i =
  let p = (i - 1) / 2 in
  if i > 0 && before time seq k.(3 * p) k.((3 * p) + 1) then begin
    set k i k.(3 * p) k.((3 * p) + 1) k.((3 * p) + 2);
    sift_up k time seq slot p
  end
  else set k i time seq slot

let rec sift_down (k : int array) size time seq slot i =
  let l = (2 * i) + 1 in
  if l >= size then set k i time seq slot
  else begin
    let r = l + 1 in
    let c =
      if r < size && before k.(3 * r) k.((3 * r) + 1) k.(3 * l) k.((3 * l) + 1) then r else l
    in
    let ctime = k.(3 * c) and cseq = k.((3 * c) + 1) in
    if before ctime cseq time seq then begin
      set k i ctime cseq k.((3 * c) + 2);
      sift_down k size time seq slot c
    end
    else set k i time seq slot
  end

(* Queues [ev] under the key (time, seq) in the first free slot.  Only
   [schedule] calls it, after allocating the event, so no steady state
   runs it: the steady-state paths are [pop] and [rearm]. *)
let push t ev time seq =
  if t.size = Array.length t.slots then grow t ev;
  let i = t.size in
  let slot = t.keys.((3 * i) + 2) in
  t.slots.(slot) <- ev;
  ev.queued <- true;
  t.size <- i + 1;
  sift_up t.keys time seq slot i

(* Removes the earliest event and frees its slot; the queue must not be
   empty. *)
(* alloc: none *)
let pop t =
  let k = t.keys in
  let slot = k.(2) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then sift_down k n k.(3 * n) k.((3 * n) + 1) k.((3 * n) + 2) 0;
  k.((3 * n) + 2) <- slot;
  let ev = t.slots.(slot) in
  t.slots.(slot) <- no_event;
  ev.queued <- false;
  ev

(* Gives the earliest event the key (time, seq) in place: one sift. *)
(* alloc: none *)
let rearm t time seq =
  let k = t.keys in
  sift_down k t.size time seq k.(2) 0

let schedule t time period action =
  let ev = { action; period; cancelled = false; queued = false } in
  push t ev time (fresh_seq t);
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
   dead events through every pop.  The live entries are swapped to the
   front, in place, and re-heapified; a running periodic event stays at
   the root, cancelled or not, for [step] to finish. *)
let compact t =
  let k = t.keys in
  let live = ref 0 in
  for i = 0 to t.size - 1 do
    let slot = k.((3 * i) + 2) in
    let ev = t.slots.(slot) in
    if ev.cancelled && not (i = 0 && t.running = 1) then begin
      ev.queued <- false;
      t.slots.(slot) <- no_event
    end
    else begin
      let j = !live in
      if j < i then begin
        let time = k.(3 * j) and seq = k.((3 * j) + 1) and slot = k.((3 * j) + 2) in
        set k j k.(3 * i) k.((3 * i) + 1) k.((3 * i) + 2);
        set k i time seq slot
      end;
      live := j + 1
    end
  done;
  t.size <- !live;
  t.dead <- 0;
  for i = (!live / 2) - 1 downto 0 do
    sift_down k !live k.(3 * i) k.((3 * i) + 1) k.((3 * i) + 2) i
  done

(* The running event counts neither as queued nor toward the threshold. *)
let cancel t handle =
  if not handle.cancelled then begin
    handle.cancelled <- true;
    if handle.queued then begin
      t.dead <- t.dead + 1;
      let queued = t.size - t.running in
      if t.dead > 64 && 2 * t.dead > queued then compact t
    end
  end

let pending t = t.size - t.dead - t.running

(* A periodic event stays at the root while its action runs: whatever the
   action queues takes a larger seq at a time no earlier than the clock,
   so it orders after the running event.  The event then takes the seq
   of the re-arm instant, so what the action queued at that instant
   fires first, and is sifted down once. *)
let step t =
  if t.size = 0 then false
  else begin
    let k = t.keys in
    let ev = t.slots.(k.(2)) in
    if ev.cancelled then begin
      ignore (pop t);
      t.dead <- t.dead - 1
    end
    else begin
      let time = k.(0) in
      if Analysis.Config.enabled () then
        Analysis.Check.run inv_monotonic ~time_s:(Sim_time.to_sec t.clock)
          ~component:"simulator"
          ~detail:(fun () ->
            Printf.sprintf "event scheduled at %s popped with clock at %s"
              (Sim_time.to_string time) (Sim_time.to_string t.clock))
          (time >= t.clock);
      t.clock <- Sim_time.max t.clock time;
      if ev.period = 0 then begin
        ignore (pop t);
        ev.action ()
      end
      else begin
        ev.queued <- false;
        t.running <- 1;
        (match ev.action () with
        | () -> t.running <- 0
        | exception e ->
            t.running <- 0;
            ignore (pop t);
            raise e);
        if ev.cancelled then ignore (pop t)
        else begin
          ev.queued <- true;
          rearm t (t.clock + ev.period) (fresh_seq t)
        end
      end
    end;
    true
  end

let run_until t t_end =
  while t.size > 0 && t.keys.(0) <= t_end do
    ignore (step t)
  done;
  t.clock <- Sim_time.max t.clock t_end

let run t = while step t do () done
