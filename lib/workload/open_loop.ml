(* Open-loop Poisson request source (an M/M/c station).  Arrival times are
   kept as exact floats (not quantised to the dispatch tick) and completion
   instants are reconstructed sub-tick from the work consumed, so measured
   sojourn times carry at most the one-tick visibility delay of the host
   loop — small enough for the validation rig's confidence intervals to
   absorb.

   Requests live in an int-indexed parallel-array pool ([arrived] and
   [remaining] are flat float arrays) instead of per-request heap records:
   the waiting line is a ring of pool indices and a server holds the index
   it is serving (-1 when idle), so the steady-state service paths ([step],
   [execute]) move ints and raw floats only and allocate nothing.
   Allocation is confined to arrival injection ([sync_arrivals], which
   draws from the boxed-state Prng by construction) and the O(log n)
   pool/ring capacity doublings. *)

(* All-float sub-record: stores into it are raw float moves, and it doubles
   as the box-free hand-off of the current instant into [sync_arrivals]
   (the [Series.cell] idiom applied to an argument). *)
type acc = {
  mutable next_arrival : float; (* exact instant of the next injection *)
  mutable busy : float; (* cumulative server-busy seconds, all servers *)
  mutable clock : float; (* now_s hand-off slot for [sync_arrivals] *)
}

type t = {
  rate : float;
  service_mean : float;
  service_rate : float; (* 1.0 /. service_mean, precomputed at creation *)
  servers : int;
  rng : Prng.t;
  mutable arrived : float array; (* pool: exact arrival instant, seconds *)
  mutable remaining : float array; (* pool: absolute work still to serve *)
  mutable free : int array; (* stack of free pool slots *)
  mutable free_top : int;
  mutable ring : int array; (* FIFO of waiting request indices *)
  mutable head : int; (* monotonic cursors; slot = cursor land (cap - 1) *)
  mutable tail : int;
  in_service : int array; (* station mode: pool index per server, -1 idle *)
  acc : acc;
  mutable arrivals : int;
  mutable completed : int;
  sojourn : Stats.Running.t;
  sojourn_log : Vec.Floats.t;
  seen : Stats.Running.t; (* number in system seen by each arrival *)
  seen_log : Vec.Floats.t;
  scratch : Vec.Floats.cell; (* box-free sample hand-off, reused *)
}

let pool_init = 16

let create ?(seed = 271828) ?(servers = 1) ~rate ~service_mean () =
  if not (rate > 0.0) then invalid_arg "Open_loop.create: rate must be positive";
  if not (service_mean > 0.0) then
    invalid_arg "Open_loop.create: service_mean must be positive";
  if servers < 1 then invalid_arg "Open_loop.create: servers must be positive";
  let rng = Prng.create ~seed in
  {
    rate;
    service_mean;
    service_rate = 1.0 /. service_mean;
    servers;
    rng;
    arrived = Array.make pool_init 0.0;
    remaining = Array.make pool_init 0.0;
    (* Stack top holds slot 0, so slots are first handed out in index
       order. *)
    free = Array.init pool_init (fun i -> pool_init - 1 - i);
    free_top = pool_init;
    ring = Array.make pool_init (-1);
    head = 0;
    tail = 0;
    in_service = Array.make servers (-1);
    acc = { next_arrival = Prng.exponential rng ~rate; busy = 0.0; clock = 0.0 };
    arrivals = 0;
    completed = 0;
    sojourn = Stats.Running.create ();
    sojourn_log = Vec.Floats.create ();
    seen = Stats.Running.create ();
    seen_log = Vec.Floats.create ();
    scratch = Vec.Floats.cell ();
  }

(* Local copy of [Sim_time.to_sec]'s expression ([to_us] is the identity on
   the int representation, so the result is bit-identical); keeps the float
   conversion in this unit instead of boxing at a cross-library call on
   every tick in a [--profile dev] build, which compiles with -opaque (the
   shipped release build inlines across units). *)
let[@inline always] sec_of time = float_of_int (Sim_time.to_us time) /. 1e6

let waiting t = t.tail - t.head

let in_service_count t =
  let n = ref 0 in
  for k = 0 to Array.length t.in_service - 1 do
    if t.in_service.(k) >= 0 then incr n
  done;
  !n

let in_system t = waiting t + in_service_count t

(* Ring doubling runs O(log n) times over the station's life; the
   steady-state enqueue pays only the occupancy test. *)
(* alloc: cold *)
let[@inline never] grow_ring t =
  let cap = Array.length t.ring in
  let nring = Array.make (cap * 2) (-1) in
  for i = 0 to cap - 1 do
    nring.(i) <- t.ring.((t.head + i) land (cap - 1))
  done;
  t.ring <- nring;
  t.head <- 0;
  t.tail <- cap

let enqueue t idx =
  if t.tail - t.head = Array.length t.ring then grow_ring t;
  t.ring.(t.tail land (Array.length t.ring - 1)) <- idx;
  t.tail <- t.tail + 1

let dequeue t =
  let idx = t.ring.(t.head land (Array.length t.ring - 1)) in
  t.head <- t.head + 1;
  idx

(* Pool doubling runs O(log n) times over the station's life. *)
(* alloc: cold *)
let[@inline never] grow_pool t =
  let cap = Array.length t.arrived in
  let narrived = Array.make (cap * 2) 0.0 in
  let nremaining = Array.make (cap * 2) 0.0 in
  Array.blit t.arrived 0 narrived 0 cap;
  Array.blit t.remaining 0 nremaining 0 cap;
  t.arrived <- narrived;
  t.remaining <- nremaining;
  let nfree = Array.make (cap * 2) 0 in
  Array.blit t.free 0 nfree 0 t.free_top;
  (* The new slots [cap, 2*cap) join the stack top-down so the lowest new
     index is handed out first. *)
  for i = 0 to cap - 1 do
    nfree.(t.free_top + i) <- (2 * cap) - 1 - i
  done;
  t.free <- nfree;
  t.free_top <- t.free_top + cap

let acquire t =
  if t.free_top = 0 then grow_pool t;
  t.free_top <- t.free_top - 1;
  t.free.(t.free_top)

(* Inject every arrival whose exact instant has been reached; [acc.clock]
   carries the current instant (stored by the caller as a raw float).  The
   number in system is sampled just before each arrival joins: by PASTA the
   mean of those samples estimates the time-average number in system L. *)
(* Arrival injection draws from the boxed-state Prng, which allocates per
   draw by construction; a drained station never enters the loop, so the
   service paths pay only the two flat-float loads of the test. *)
(* alloc: cold *)
let[@inline never] sync_arrivals t =
  while t.acc.next_arrival <= t.acc.clock do
    let seen = float_of_int (in_system t) in
    Stats.Running.add t.seen seen;
    Vec.Floats.push t.seen_log seen;
    let idx = acquire t in
    t.arrived.(idx) <- t.acc.next_arrival;
    t.remaining.(idx) <- Prng.exponential t.rng ~rate:t.service_rate;
    enqueue t idx;
    t.arrivals <- t.arrivals + 1;
    t.acc.next_arrival <- t.acc.next_arrival +. Prng.exponential t.rng ~rate:t.rate
  done

(* Completion samples travel through the scratch cell (the
   [Series.add_cell] idiom) so the service paths record without boxing;
   the pool slot returns to the free stack immediately. *)
let[@inline always] complete t idx ~finished =
  t.completed <- t.completed + 1;
  let c = t.scratch in
  c.Vec.Floats.value <- finished -. t.arrived.(idx);
  Stats.Running.add_cell t.sojourn c;
  Vec.Floats.push_cell t.sojourn_log c;
  t.free.(t.free_top) <- idx;
  t.free_top <- t.free_top + 1

let advance t ~now ~dt:_ =
  t.acc.clock <- sec_of now;
  sync_arrivals t

let has_work t () = t.tail - t.head > 0

(* Single-server FIFO service of the offered slice (workload mode); the
   ring head stays queued while in service, exactly like the old
   Queue.peek-based loop. *)
let execute t ~now ~cpu_time ~speed =
  let now_s = sec_of now in
  let budget = ref (sec_of cpu_time *. speed) in
  let used_work = ref 0.0 in
  let continue = ref true in
  while !continue && t.tail - t.head > 0 do
    let idx = t.ring.(t.head land (Array.length t.ring - 1)) in
    if t.remaining.(idx) <= !budget then begin
      budget := !budget -. t.remaining.(idx);
      used_work := !used_work +. t.remaining.(idx);
      t.head <- t.head + 1;
      complete t idx ~finished:(now_s +. (!used_work /. speed))
    end
    else begin
      t.remaining.(idx) <- t.remaining.(idx) -. !budget;
      used_work := !used_work +. !budget;
      budget := 0.0;
      continue := false
    end
  done;
  t.acc.busy <- t.acc.busy +. (!used_work /. speed);
  Sim_time.min cpu_time (Sim_time.of_sec_f (!used_work /. speed))

let workload t =
  if t.servers <> 1 then
    invalid_arg "Open_loop.workload: a multi-server station must be driven by step";
  Workload.make ~name:"open-loop"
    ~advance:(fun ~now ~dt -> advance t ~now ~dt)
    ~has_work:(has_work t)
    ~execute:(fun ~now ~cpu_time ~speed -> execute t ~now ~cpu_time ~speed)
    ()

(* Station mode: every server independently spends up to [dt] of wall time
   serving at [speed] work units per second, pulling the next waiting
   request whenever it frees mid-interval. *)
(* alloc: none *)
let step t ~now ~dt ~speed =
  if not (speed > 0.0) then invalid_arg "Open_loop.step: speed must be positive";
  let now_s = sec_of now in
  t.acc.clock <- now_s;
  sync_arrivals t;
  let dt_sec = sec_of dt in
  for k = 0 to t.servers - 1 do
    let budget = ref dt_sec in
    let continue = ref true in
    while !continue do
      let idx = t.in_service.(k) in
      if idx < 0 then begin
        if t.tail - t.head = 0 then continue := false
        else t.in_service.(k) <- dequeue t
      end
      else begin
        let possible = !budget *. speed in
        if t.remaining.(idx) <= possible then begin
          let spent = t.remaining.(idx) /. speed in
          budget := !budget -. spent;
          t.acc.busy <- t.acc.busy +. spent;
          t.in_service.(k) <- -1;
          complete t idx ~finished:(now_s +. (dt_sec -. !budget))
        end
        else begin
          t.remaining.(idx) <- t.remaining.(idx) -. possible;
          t.acc.busy <- t.acc.busy +. !budget;
          budget := 0.0;
          continue := false
        end
      end
    done
  done

let reset_stats t =
  t.arrivals <- 0;
  t.completed <- 0;
  t.acc.busy <- 0.0;
  Stats.Running.reset t.sojourn;
  Stats.Running.reset t.seen;
  Vec.Floats.clear t.sojourn_log;
  Vec.Floats.clear t.seen_log

let servers t = t.servers
let arrivals t = t.arrivals
let completed_requests t = t.completed
let busy_time t = t.acc.busy
let sojourn_times t = t.sojourn
let sojourn_samples t = Vec.Floats.to_array t.sojourn_log
let queue_seen t = t.seen
let queue_seen_samples t = Vec.Floats.to_array t.seen_log
