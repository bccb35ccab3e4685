(* Per-layer spans recorded from outside the library: the benchmark wraps
   the closures each layer exposes (scheduler, governor, workload,
   cluster rebalance) and bills every call's monotonic-clock time and
   minor-heap words to that layer.  Nothing here allocates per call, so a
   traced run perturbs timing but not the simulation. *)

module Scheduler = Hypervisor.Scheduler
module Workload = Workloads.Workload

type layer = Pick | Charge | Account | Pas_window | Gov_observe | Advance | Execute | Rebalance

let layers = [ Pick; Charge; Account; Pas_window; Gov_observe; Advance; Execute; Rebalance ]

let layer_name = function
  | Pick -> "sched.pick"
  | Charge -> "sched.charge"
  | Account -> "sched.account"
  | Pas_window -> "pas.window"
  | Gov_observe -> "governors.observe"
  | Advance -> "workload.advance"
  | Execute -> "workload.execute"
  | Rebalance -> "cluster.rebalance"

let index = function
  | Pick -> 0
  | Charge -> 1
  | Account -> 2
  | Pas_window -> 3
  | Gov_observe -> 4
  | Advance -> 5
  | Execute -> 6
  | Rebalance -> 7

type acc = { mutable calls : int; mutable ns : int; mutable words : int }
type t = acc array

let create () : t = Array.init (List.length layers) (fun _ -> { calls = 0; ns = 0; words = 0 })
let acc (t : t) layer = t.(index layer)

let copy (t : t) : t = Array.map (fun a -> { calls = a.calls; ns = a.ns; words = a.words }) t

let diff (later : t) (earlier : t) : t =
  Array.map2
    (fun a b -> { calls = a.calls - b.calls; ns = a.ns - b.ns; words = a.words - b.words })
    later earlier

let clock_ns () = Int64.to_int (Monotonic_clock.now ())

(* Words are read first and the clock last on entry (and the reverse on
   exit), so the clock reads sit inside the word window and the word reads
   outside the time window; both are constants the calibration removes. *)
let[@inline] enter_words () = int_of_float (Gc.minor_words ())

let[@inline] leave a ~t0 ~w0 =
  let t1 = clock_ns () in
  let w1 = int_of_float (Gc.minor_words ()) in
  a.calls <- a.calls + 1;
  a.ns <- a.ns + (t1 - t0);
  a.words <- a.words + (w1 - w0)

let scheduler t (s : Scheduler.t) ~window_layer =
  let pick_acc = acc t Pick and charge_acc = acc t Charge and account_acc = acc t Account in
  let window_acc = acc t window_layer in
  let pick ~now ~remaining ~exclude =
    let w0 = enter_words () in
    let t0 = clock_ns () in
    let r = s.Scheduler.pick ~now ~remaining ~exclude in
    leave pick_acc ~t0 ~w0;
    r
  in
  let charge ~domain ~now ~used =
    let w0 = enter_words () in
    let t0 = clock_ns () in
    s.Scheduler.charge ~domain ~now ~used;
    leave charge_acc ~t0 ~w0
  in
  let on_account_period ~now =
    let w0 = enter_words () in
    let t0 = clock_ns () in
    s.Scheduler.on_account_period ~now;
    leave account_acc ~t0 ~w0
  in
  let observe_window =
    Option.map
      (fun observe ~now ~busy_fraction ->
        let w0 = enter_words () in
        let t0 = clock_ns () in
        observe ~now ~busy_fraction;
        leave window_acc ~t0 ~w0)
      s.Scheduler.observe_window
  in
  { s with Scheduler.pick; charge; on_account_period; observe_window }

let governor t (g : Governors.Governor.t) =
  let a = acc t Gov_observe in
  let observe ~now ~busy_fraction =
    let w0 = enter_words () in
    let t0 = clock_ns () in
    g.Governors.Governor.observe ~now ~busy_fraction;
    leave a ~t0 ~w0
  in
  { g with Governors.Governor.observe }

let workload t w =
  let advance_acc = acc t Advance and execute_acc = acc t Execute in
  let advance ~now ~dt =
    let w0 = enter_words () in
    let t0 = clock_ns () in
    Workload.advance w ~now ~dt;
    leave advance_acc ~t0 ~w0
  in
  let execute ~now ~cpu_time ~speed =
    let w0 = enter_words () in
    let t0 = clock_ns () in
    let used = Workload.execute w ~now ~cpu_time ~speed in
    leave execute_acc ~t0 ~w0;
    used
  in
  Workload.make ~name:(Workload.name w) ~advance
    ~has_work:(fun () -> Workload.has_work w)
    ~execute ()

let call t layer f =
  let a = acc t layer in
  let w0 = enter_words () in
  let t0 = clock_ns () in
  f ();
  leave a ~t0 ~w0

(* Calibration of the wrapper itself: [span_ns] is what a wrapped no-op
   bills to its layer (subtracted from every call's net time), [cost_ns]
   is everything the wrapper adds to the run (subtracted from the traced
   chunk time).  Medians of several rounds ride out scheduler noise. *)
type calibration = { span_ns : float; cost_ns : float; span_words : float }

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let calibrate () =
  let n = 200_000 in
  let noop = Sys.opaque_identity (fun ~now:_ ~dt:_ -> ()) in
  let round () =
    let t = create () in
    let plain = Workload.make ~name:"noop" ~advance:noop ~has_work:(fun () -> false)
        ~execute:(fun ~now:_ ~cpu_time:_ ~speed:_ -> 0) ()
    in
    let wrapped = workload t plain in
    let time w =
      let t0 = clock_ns () in
      for i = 1 to n do
        Workload.advance w ~now:i ~dt:1
      done;
      float_of_int (clock_ns () - t0)
    in
    let base = time plain in
    let traced = time wrapped in
    let a = acc t Advance in
    ( float_of_int a.ns /. float_of_int n,
      (traced -. base) /. float_of_int n,
      float_of_int a.words /. float_of_int n )
  in
  let rounds = List.init 7 (fun _ -> round ()) in
  {
    span_ns = median (List.map (fun (s, _, _) -> s) rounds);
    cost_ns = median (List.map (fun (_, c, _) -> c) rounds);
    span_words = median (List.map (fun (_, _, w) -> w) rounds);
  }
