type arrival = Deterministic | Poisson of Prng.t

(* The per-tick float counters live in an all-float sub-record so the
   advance/execute hot paths store into a flat float block instead of
   boxing a fresh float per update of a mixed record. *)
type acc = {
  mutable carry : float; (* fractional request accumulation (deterministic); at a walk's start *)
  mutable injected_work : float;
  mutable completed_work : float;
  mutable walk_step : float; (* the walk's per-tick addition *)
  mutable walk_last : float; (* the carry one tick before the walk's crossing *)
}

(* The FIFO work queue is a ring of parallel arrays — arrival instant and
   remaining absolute work per request — so injecting and serving requests
   moves ints and raw floats and allocates nothing outside the O(log n)
   capacity doublings. *)
type t = {
  request_work : float;
  arrival : arrival;
  timeout : Sim_time.t option;
  schedule : (Sim_time.t * float) array;
  mutable seg : int; (* schedule cursor: the segment of the last advance *)
  mutable arrived : Sim_time.t array; (* ring: arrival instant *)
  mutable remaining : float array; (* ring: absolute work still to serve *)
  mutable head : int; (* monotonic cursors; slot = cursor land (cap - 1) *)
  mutable tail : int;
  acc : acc;
  mutable next_due : Sim_time.t; (* [due]'s answer since the last advance; 0: none *)
  (* The walk record (see [walk]): while [walk_ticks > 0], the carry is
     [acc.carry] plus [walk_pos] additions of [acc.walk_step]. *)
  mutable walk_ticks : int; (* additions from the walk's start to its crossing; 0: no walk *)
  mutable walk_pos : int; (* additions made since the walk's start, not yet applied *)
  mutable walk_seg : int; (* the segment ... *)
  mutable walk_dt : Sim_time.t; (* ... and tick length that fix [walk_step] *)
  mutable injected : int;
  mutable completed : int;
  mutable timed_out : int;
  response : Stats.Running.t;
  scratch : Vec.Floats.cell; (* box-free response-time hand-off, reused *)
}

let validate_schedule schedule =
  let rec check = function
    | [] | [ _ ] -> ()
    | (t0, _) :: ((t1, _) :: _ as rest) ->
        if Sim_time.compare t0 t1 >= 0 then
          invalid_arg "Web_app.create: schedule must be sorted strictly by time";
        check rest
  in
  check schedule;
  List.iter
    (fun (_, r) -> if r < 0.0 then invalid_arg "Web_app.create: negative rate")
    schedule

let create ?(request_work = 0.005) ?(arrival = Deterministic) ?timeout ~rate_schedule () =
  if not (request_work > 0.0) then invalid_arg "Web_app.create: request_work must be positive";
  (match timeout with
  | Some d when Sim_time.equal d Sim_time.zero -> invalid_arg "Web_app.create: zero timeout"
  | Some _ | None -> ());
  validate_schedule rate_schedule;
  {
    request_work;
    arrival;
    timeout;
    schedule = Array.of_list rate_schedule;
    seg = -1;
    arrived = [||];
    remaining = [||];
    head = 0;
    tail = 0;
    acc =
      { carry = 0.0; injected_work = 0.0; completed_work = 0.0; walk_step = 0.0; walk_last = 0.0 };
    next_due = Sim_time.zero;
    walk_ticks = 0;
    walk_pos = 0;
    walk_seg = -1;
    walk_dt = Sim_time.zero;
    injected = 0;
    completed = 0;
    timed_out = 0;
    response = Stats.Running.create ();
    scratch = Vec.Floats.cell ();
  }

(* Local copies of [Sim_time.to_sec] and [Sim_time.of_sec_f] ([to_us] and
   [of_us] are the identity on the int representation, so the results are
   bit-identical); the cross-library calls would box a float on every tick
   in a [--profile dev] build, which compiles with -opaque (the shipped
   release build inlines across units). *)
let[@inline always] sec_of time = float_of_int (Sim_time.to_us time) /. 1e6

let[@inline always] of_sec_f s =
  if Float.is_nan s || s < 0.0 then invalid_arg "Sim_time.of_sec_f: negative";
  let x = s *. 1e6 in
  let n = int_of_float x in
  Sim_time.of_us (if x -. float_of_int n >= 0.5 then n + 1 else n)

(* Index of the schedule segment in force at [now] (the last entry whose
   time is not after it), or -1 before the first entry.  The schedule is
   sorted strictly by time, so the scan stops at the first later entry. *)
let rec segment_from schedule now i =
  if i < Array.length schedule && Sim_time.compare (fst schedule.(i)) now <= 0 then
    segment_from schedule now (i + 1)
  else i - 1

(* The segment at [now], scanning on from the cursor when [now] is not
   before the cursor's segment (ticks only move forward) and from the
   start otherwise, so any [now] gets the exact answer. *)
let segment_at t now =
  let i = t.seg in
  if i >= 0 && fst t.schedule.(i) <= now then
    segment_from t.schedule now (i + 1)
  else segment_from t.schedule now 0

let[@inline always] rate_of t seg = if seg < 0 then 0.0 else snd t.schedule.(seg)

let current_rate t ~now = rate_of t (segment_at t now)

let queue_length t = t.tail - t.head
let[@inline always] slot t cursor = cursor land (Array.length t.remaining - 1)

(* The ring starts empty (a guest that never receives a request costs
   nothing) and doubles O(log n) times over the queue's life; the
   steady-state enqueue pays only the occupancy test. *)
(* alloc: cold *)
let[@inline never] grow t =
  let cap = Array.length t.remaining in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let arrived = Array.make ncap Sim_time.zero in
  let remaining = Array.make ncap 0.0 in
  for i = 0 to cap - 1 do
    let j = (t.head + i) land (cap - 1) in
    arrived.(i) <- t.arrived.(j);
    remaining.(i) <- t.remaining.(j)
  done;
  t.arrived <- arrived;
  t.remaining <- remaining;
  t.head <- 0;
  t.tail <- cap

let inject t ~now n =
  for _ = 1 to n do
    if queue_length t = Array.length t.remaining then grow t;
    let i = slot t t.tail in
    t.arrived.(i) <- now;
    t.remaining.(i) <- t.request_work;
    t.tail <- t.tail + 1;
    t.injected <- t.injected + 1;
    t.acc.injected_work <- t.acc.injected_work +. t.request_work
  done

(* Poisson arrivals draw from the boxed-state Prng by construction. *)
(* alloc: cold *)
let[@inline never] inject_poisson t rng ~now ~expected =
  inject t ~now (Prng.poisson rng ~mean:expected)

(* Drop queued requests older than the timeout (httperf clients give up);
   the head of the queue may be in service, but a real client's abandonment
   aborts the request wherever it is. *)
let rec expire t ~now limit =
  if queue_length t > 0
     && Sim_time.compare (Sim_time.diff now t.arrived.(slot t t.head)) limit > 0
  then begin
    t.head <- t.head + 1;
    t.timed_out <- t.timed_out + 1;
    expire t ~now limit
  end

(* The walk record.  [due] finds the tick at which the carry next
   reaches 1 by adding the per-tick step until it does: [walk_ticks]
   additions, the last of them the crossing.  It keeps that count, the
   step and the carry one addition before the crossing, and leaves
   [acc.carry] at the walk's start.  Until the crossing, deferred and
   real ticks on the walk (same segment, same tick length) only count
   ([walk_pos]): with the carry below 1 nothing is injected and the
   carry's subtraction is [-. 0.0], the identity.  The crossing adds the
   step once to the recorded carry.  Reading the carry anywhere else
   replays the counted additions from the walk's start, float for float,
   so every value is the one the plain per-tick loop computes. *)

(* The carry [walk_pos] additions into the walk: the recorded value one
   before the crossing, else the additions from the walk's start.
   Inlined, so the float is never boxed. *)
let[@inline always] walk_carry t =
  let p = t.walk_pos in
  if p = t.walk_ticks - 1 then t.acc.walk_last
  else begin
    let step = t.acc.walk_step in
    let c = ref t.acc.carry in
    for _ = 1 to p do
      c := !c +. step
    done;
    !c
  end

(* Apply the counted additions and drop the record. *)
let end_walk t =
  if t.walk_ticks > 0 then begin
    t.acc.carry <- walk_carry t;
    t.walk_ticks <- 0;
    t.walk_pos <- 0
  end

let[@inline always] on_walk t seg dt = t.walk_ticks > 0 && seg = t.walk_seg && dt = t.walk_dt

(* alloc: none *)
let advance t ~now ~dt =
  t.next_due <- Sim_time.zero;
  (match t.timeout with None -> () | Some limit -> expire t ~now limit);
  let seg = segment_at t now in
  t.seg <- seg;
  if on_walk t seg dt then begin
    let p = t.walk_pos + 1 in
    if p < t.walk_ticks then t.walk_pos <- p
    else begin
      let c = t.acc.walk_last +. t.acc.walk_step in
      t.walk_ticks <- 0;
      t.walk_pos <- 0;
      let n = int_of_float c in
      t.acc.carry <- c -. float_of_int n;
      inject t ~now n
    end
  end
  else begin
    end_walk t;
    let rate = rate_of t seg in
    if rate > 0.0 then begin
      let expected = rate *. sec_of dt /. t.request_work in
      match t.arrival with
      | Deterministic ->
          t.acc.carry <- t.acc.carry +. expected;
          let n = int_of_float t.acc.carry in
          t.acc.carry <- t.acc.carry -. float_of_int n;
          inject t ~now n
      | Poisson rng -> inject_poisson t rng ~now ~expected
    end
  end

(* Deferred ticks lie before the due tick, so in one schedule segment,
   with no request injected or expired: each one only added [expected] to
   the carry.  On the walk they are counted; otherwise (a walk cut short
   by a lookahead or another caller) they are the loop below, float for
   float.  A Poisson arrival with a positive rate is never deferred. *)
(* alloc: none *)
let catch_up t ~now ~dt ~ticks =
  let seg = segment_at t now in
  t.seg <- seg;
  if on_walk t seg dt && t.walk_pos + ticks < t.walk_ticks then
    t.walk_pos <- t.walk_pos + ticks
  else begin
    let rate = rate_of t seg in
    if rate > 0.0 then begin
      end_walk t;
      let expected = rate *. sec_of dt /. t.request_work in
      let c = ref t.acc.carry in
      for _ = 1 to ticks do
        c := !c +. expected
      done;
      t.acc.carry <- !c
    end
  end

(* How far [due] looks for the carry's next crossing: a near-zero rate
   gets a real advance every [lookahead_ticks] ticks instead of a long
   count. *)
let lookahead_ticks = 4096

(* Record the walk from the current carry by [acc.walk_step], which the
   caller has set: the same float additions, in the same order, that
   [advance] will make (with no request injected, its subtraction is
   [carry -. 0.0], the identity). *)
(* alloc: none *)
let walk t ~seg ~dt =
  let step = t.acc.walk_step in
  let before = ref t.acc.carry and c = ref (t.acc.carry +. step) and k = ref 1 in
  while int_of_float !c < 1 && !k < lookahead_ticks do
    before := !c;
    c := !c +. step;
    incr k
  done;
  t.acc.walk_last <- !before;
  t.walk_ticks <- !k;
  t.walk_pos <- 0;
  t.walk_seg <- seg;
  t.walk_dt <- dt

(* The first tick [now + k * dt], k >= 1, at or after [at].  [Sim_time.t]
   is the int microsecond count, so the tick arithmetic here and in [due]
   works on it directly. *)
let[@inline always] first_tick ~now ~dt at =
  if at <= now + dt then now + dt else now + ((at - now + dt - 1) / dt * dt)

(* The earliest of: the next schedule edge (the rate changes), the head
   request's expiry, and the next request injection — the carry's
   crossing, or every tick while a Poisson arrival draws.  Until the next
   advance, the answer stands: catching up deferred ticks moves the carry
   along the very additions counted here, and [execute] only removes
   requests, which can make the expiry later, never earlier.  A walk
   already under way answers from its record. *)
(* alloc: none *)
let due t ~now ~dt =
  if t.next_due > now then t.next_due
  else if dt <= Sim_time.zero then now
  else begin
    let seg = segment_at t now in
    let edge =
      if seg + 1 < Array.length t.schedule then first_tick ~now ~dt (fst t.schedule.(seg + 1))
      else Workload.never
    in
    let expiry =
      match t.timeout with
      | Some limit when queue_length t > 0 ->
          first_tick ~now ~dt (t.arrived.(slot t t.head) + limit + 1)
      | Some _ | None -> Workload.never
    in
    let rate = rate_of t seg in
    let arrival =
      if not (rate > 0.0) then Workload.never
      else
        match t.arrival with
        | Deterministic ->
            if not (on_walk t seg dt) then begin
              end_walk t;
              t.acc.walk_step <- rate *. sec_of dt /. t.request_work;
              walk t ~seg ~dt
            end;
            now + ((t.walk_ticks - t.walk_pos) * dt)
        | Poisson _ -> now + dt
    in
    t.next_due <- Int.min edge (Int.min expiry arrival);
    t.next_due
  end

let has_work t () = queue_length t > 0

let execute t ~now ~cpu_time ~speed =
  let budget = ref (sec_of cpu_time *. speed) in
  let used_work = ref 0.0 in
  let continue = ref true in
  while !continue && queue_length t > 0 do
    let i = slot t t.head in
    let remaining = t.remaining.(i) in
    if remaining <= !budget then begin
      budget := !budget -. remaining;
      used_work := !used_work +. remaining;
      t.head <- t.head + 1;
      t.completed <- t.completed + 1;
      t.acc.completed_work <- t.acc.completed_work +. t.request_work;
      t.scratch.Vec.Floats.value <- sec_of now -. sec_of t.arrived.(i);
      Stats.Running.add_cell t.response t.scratch
    end
    else begin
      t.remaining.(i) <- remaining -. !budget;
      used_work := !used_work +. !budget;
      budget := 0.0;
      continue := false
    end
  done;
  Sim_time.min cpu_time (of_sec_f (!used_work /. speed))

let workload t =
  Workload.make ~name:"web-app" ~advance:(fun ~now ~dt -> advance t ~now ~dt)
    ~defer:((fun ~now ~dt -> due t ~now ~dt), fun ~now ~dt ~ticks -> catch_up t ~now ~dt ~ticks)
    ~has_work:(has_work t)
    ~execute:(fun ~now ~cpu_time ~speed -> execute t ~now ~cpu_time ~speed)
    ()

let queued_work t =
  let sum = ref 0.0 in
  for c = t.head to t.tail - 1 do
    sum := !sum +. t.remaining.(slot t c)
  done;
  !sum

let injected_requests t = t.injected
let completed_requests t = t.completed
let injected_work t = t.acc.injected_work
let completed_work t = t.acc.completed_work
let response_times t = t.response

let timed_out_requests t = t.timed_out
let carry t = walk_carry t
