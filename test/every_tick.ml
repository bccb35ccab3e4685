(* The every-tick reference for deferring workloads.  [wrap w] flushes [w]
   before each advance, so every tick is a real advance of [w]'s own
   closure at the true instant, and it has no [~defer] of its own: hosts and
   schedulers treat it as they treat any workload without one.  A
   deferring workload must be indistinguishable from its wrapped twin. *)

module Workload = Workloads.Workload

let wrap w =
  Workload.make ~name:(Workload.name w)
    ~advance:(fun ~now ~dt ->
      Workload.flush w;
      Workload.advance w ~now ~dt)
    ~has_work:(fun () -> Workload.has_work w)
    ~execute:(fun ~now ~cpu_time ~speed -> Workload.execute w ~now ~cpu_time ~speed)
    ()
