module Domain = Hypervisor.Domain
module Host = Hypervisor.Host
module Processor = Cpu_model.Processor

let pinned_processor arch freq =
  let freq =
    match freq with
    | Some f -> f
    | None -> Cpu_model.Frequency.max_freq arch.Cpu_model.Arch.freq_table
  in
  Processor.create ~init_freq:freq arch

let pi_to_completion ~now ~run_for ~chunk ~limit ~failure pi =
  let rec loop () =
    if Workloads.Pi_app.finished pi then ()
    else if Sim_time.compare (now ()) limit >= 0 then failwith failure
    else begin
      run_for chunk;
      loop ()
    end
  in
  loop ();
  match Workloads.Pi_app.execution_time pi with
  | Some t -> t
  (* unreachable: the loop above runs until the pi app finishes. *)
  | None -> assert false

let run_pi ?(arch = Cpu_model.Arch.optiplex_755) ?freq ?(credit = 100.0) ?(duty_cycle = 1.0)
    ?(max_sim_time = Sim_time.of_sec 20_000) ~work () =
  let sim = Simulator.create () in
  let processor = pinned_processor arch freq in
  let pi = Workloads.Pi_app.create ~duty_cycle ~work () in
  let vm = Domain.create ~name:"vm" ~credit_pct:credit (Workloads.Pi_app.workload pi) in
  let dom0 = Domain.create ~is_dom0:true ~name:"Dom0" ~credit_pct:10.0 (Workloads.Workload.idle ()) in
  let scheduler = Sched_credit.create [ dom0; vm ] in
  let host = Host.create ~sim ~processor ~scheduler () in
  Sim_time.to_sec
    (pi_to_completion
       ~now:(fun () -> Host.now host)
       ~run_for:(Host.run_for host) ~chunk:(Sim_time.of_sec 10) ~limit:max_sim_time
       ~failure:"Rig.run_pi: job did not finish in time" pi)

let measure_load ?(arch = Cpu_model.Arch.optiplex_755) ?freq ?(warmup = Sim_time.of_sec 60)
    ?(measure = Sim_time.of_sec 240) ~rate () =
  let sim = Simulator.create () in
  let processor = pinned_processor arch freq in
  let app = Workloads.Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate) () in
  let vm = Domain.create ~name:"vm" ~credit_pct:0.0 (Workloads.Web_app.workload app) in
  let dom0 = Domain.create ~is_dom0:true ~name:"Dom0" ~credit_pct:10.0 (Workloads.Workload.idle ()) in
  let scheduler = Sched_credit.create [ dom0; vm ] in
  let host = Host.create ~sim ~processor ~scheduler () in
  Host.run_for host warmup;
  let probe = Host.utilization_probe host in
  ignore (probe ());
  Host.run_for host measure;
  probe ()

let measure_cf ?(arch = Cpu_model.Arch.optiplex_755) ?(rate = 0.15) freq =
  let table = arch.Cpu_model.Arch.freq_table in
  let l_max = measure_load ~arch ~freq:(Cpu_model.Frequency.max_freq table) ~rate () in
  let l_i = measure_load ~arch ~freq ~rate () in
  let ratio = Cpu_model.Frequency.ratio table freq in
  l_max /. (l_i *. ratio)
