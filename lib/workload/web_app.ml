type arrival = Deterministic | Poisson of Prng.t

(* The per-tick float counters live in an all-float sub-record so the
   advance/execute hot paths store into a flat float block instead of
   boxing a fresh float per update of a mixed record. *)
type acc = {
  mutable carry : float; (* fractional request accumulation (deterministic) *)
  mutable injected_work : float;
  mutable completed_work : float;
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
    acc = { carry = 0.0; injected_work = 0.0; completed_work = 0.0 };
    next_due = Sim_time.zero;
    injected = 0;
    completed = 0;
    timed_out = 0;
    response = Stats.Running.create ();
    scratch = Vec.Floats.cell ();
  }

(* Local copies of [Sim_time.to_sec] and [Sim_time.of_sec_f] ([to_us] and
   [of_us] are the identity on the int representation, so the results are
   bit-identical); the cross-library calls would box a float on every tick
   (dev builds compile with -opaque). *)
let[@inline always] sec_of time = float_of_int (Sim_time.to_us time) /. 1e6

let[@inline always] of_sec_f s =
  if Float.is_nan s || s < 0.0 then invalid_arg "Sim_time.of_sec_f: negative";
  Sim_time.of_us (int_of_float (Float.round (s *. 1e6)))

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

(* alloc: none *)
let advance t ~now ~dt =
  t.next_due <- Sim_time.zero;
  (match t.timeout with None -> () | Some limit -> expire t ~now limit);
  let seg = segment_at t now in
  t.seg <- seg;
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

(* Deferred ticks lie before the due tick, so in one schedule segment,
   with no request injected or expired: each one only added [expected] to
   the carry, which is the loop below, float for float.  A Poisson arrival
   with a positive rate is never deferred. *)
(* alloc: none *)
let catch_up t ~now ~dt ~ticks =
  let seg = segment_at t now in
  t.seg <- seg;
  let rate = rate_of t seg in
  if rate > 0.0 then begin
    let expected = rate *. sec_of dt /. t.request_work in
    let c = ref t.acc.carry in
    for _ = 1 to ticks do
      c := !c +. expected
    done;
    t.acc.carry <- !c
  end

(* How far [due] looks for the carry's next crossing: a near-zero rate
   gets a real advance every [lookahead_ticks] ticks instead of a long
   count. *)
let lookahead_ticks = 4096

(* Ticks until the carry reaches 1 when every tick adds [step]: the same
   float additions, in the same order, that [advance] will make (with no
   request injected, its subtraction is [carry -. 0.0], the identity). *)
let[@inline always] ticks_to_request t step =
  let c = ref (t.acc.carry +. step) and k = ref 1 in
  while int_of_float !c < 1 && !k < lookahead_ticks do
    c := !c +. step;
    incr k
  done;
  !k

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
   requests, which can make the expiry later, never earlier. *)
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
        | Deterministic -> now + (ticks_to_request t (rate *. sec_of dt /. t.request_work) * dt)
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
let carry t = t.acc.carry
