(* One repetition of a workload: set-up, the measured run driven one
   simulated second at a time, and the output checks whose failures feed
   [error_rate]. *)

module Simulator = Sim_engine.Simulator
module Sim_time = Sim_engine.Sim_time
module Series = Sim_engine.Series
module Host = Hypervisor.Host
module Domain = Hypervisor.Domain
module Scheduler = Hypervisor.Scheduler
module Processor = Cpu_model.Processor
module Workload = Workloads.Workload
module Web_app = Workloads.Web_app
module Manager = Cluster.Manager
module Vm = Cluster.Vm

let wall () = float_of_int (Probe.clock_ns ()) /. 1e9

(* Largest |delivered absolute load - C_init| (percentage points) a PAS
   workload may show on a thrashing capped guest over a probe window.  PAS
   follows a load change only once its three-window average has caught up
   (about 300 ms); until then a guest can be short of up to its whole cap.
   Two neighbour phase changes inside a 40 s window at a 13 % credit cost
   2 x 13 x 0.3 / 40, about 0.2 pct-pt. *)
let sla_epsilon_pct = 0.25

type span = { unit_index : int; chunk : int; layer : Probe.layer; acc : Probe.acc }

type rep = {
  mutable ops : int;
  mutable failed : int;
  mutable failures : string list;  (** newest first *)
  mutable parse_s : float;
  mutable build_s : float;
  mutable wall_s : float;
  mutable events : int;
  mutable words : float;
  mutable per_event_ns : float list;  (** chunk CPU ns / events fired in it *)
  mutable chunk_ms : float list;  (** chunk CPU time *)
  mutable chunk_clock_s : float;  (** all chunks, monotonic clock *)
  mutable chains : (int list * int * int) list;
      (** per simulator: periodic chains (us), copies, events — for the
          engine calibration *)
  mutable sla_err_pct : float list;
  mutable transitions : int;
  mutable pas_decisions : int;
  mutable dispatch_ticks : int;
  mutable samples : int;
  mutable migrations : int;
  mutable active_nodes : float list;
  mutable alloc_mb : float;
  mutable job_s : (string * float) list;
  mutable pool : int;
  mutable spans : span list;  (** traced run: per (unit, chunk, layer) *)
  layers : Probe.t;
  digest : Buffer.t;
}

let new_rep () =
  {
    ops = 0;
    failed = 0;
    failures = [];
    parse_s = 0.0;
    build_s = 0.0;
    wall_s = 0.0;
    events = 0;
    words = 0.0;
    per_event_ns = [];
    chunk_ms = [];
    chunk_clock_s = 0.0;
    chains = [];
    sla_err_pct = [];
    transitions = 0;
    pas_decisions = 0;
    dispatch_ticks = 0;
    samples = 0;
    migrations = 0;
    active_nodes = [];
    alloc_mb = 0.0;
    job_s = [];
    pool = 0;
    spans = [];
    layers = Probe.create ();
    digest = Buffer.create 256;
  }

let setup_s rep = rep.parse_s +. rep.build_s
let digest rep = Digest.to_hex (Digest.string (Buffer.contents rep.digest))

(* One checked operation (a host, a job, a cluster run): it fails, once,
   when [f] raises or reports any problem through the callback it gets. *)
let op rep ~name f =
  rep.ops <- rep.ops + 1;
  let problems = ref [] in
  let problem m = problems := m :: !problems in
  (try f problem with e -> problem (Printexc.to_string e));
  if !problems <> [] then begin
    rep.failed <- rep.failed + 1;
    List.iter (fun m -> rep.failures <- (name ^ ": " ^ m) :: rep.failures) (List.rev !problems)
  end

(* -- engine calibration -------------------------------------------- *)

(* The calendar's cost per event with the handlers taken out: a simulator
   carrying the same periodic chains ([copies] hosts' worth) firing into
   no-op handlers.  Cached per chain set; the xen-stock rotation has four. *)
type engine_cache = ((int list * int) * float) list ref

let engine_cache () : engine_cache = ref []

let noop_ns_per_event (cache : engine_cache) ~periods ~copies =
  match List.assoc_opt (periods, copies) !cache with
  | Some ns -> ns
  | None ->
      let measure () =
        let sim = Simulator.create () in
        for _ = 1 to copies do
          List.iter (fun p -> ignore (Simulator.every sim (Sim_time.of_us p) ignore)) periods
        done;
        for _ = 1 to 20_000 do
          ignore (Simulator.step sim)
        done;
        let n = 200_000 in
        let c0 = Sys.time () in
        for _ = 1 to n do
          ignore (Simulator.step sim)
        done;
        (Sys.time () -. c0) *. 1e9 /. float_of_int n
      in
      let ns = Probe.median (List.init 3 (fun _ -> measure ())) in
      cache := ((periods, copies), ns) :: !cache;
      ns

(* Calendar time of the whole repetition: events x calibrated cost. *)
let engine_self_s cache rep =
  List.fold_left
    (fun acc (periods, copies, events) ->
      acc +. (float_of_int events *. noop_ns_per_event cache ~periods ~copies /. 1e9))
    0.0 rep.chains

(* -- building hosts ------------------------------------------------- *)

(* Domconfig's workload construction, repeated so the traced run (and the
   cluster, whose VMs Domconfig does not build) can wrap each workload. *)
let build_workload ?tracer (spec : Domconfig.domain_spec) =
  let workload, app =
    match spec.workload with
    | Domconfig.Idle -> (Workload.idle (), Domconfig.App_none)
    | Domconfig.Busy -> (Workload.busy_loop (), Domconfig.App_none)
    | Domconfig.Web { rate; from_s; until_s; timeout_s; request_work } ->
        let schedule =
          match (from_s, until_s) with
          | None, None -> Workloads.Phases.constant ~rate
          | from_s, until_s ->
              let active_from =
                Sim_time.max (Sim_time.of_us 1)
                  (Sim_time.of_sec_f (Option.value from_s ~default:0.0))
              in
              let active_until = Sim_time.of_sec_f (Option.value until_s ~default:1e9) in
              Workloads.Phases.three_phase ~active_from ~active_until ~rate
        in
        let app =
          Web_app.create ~request_work ~timeout:(Sim_time.of_sec_f timeout_s)
            ~rate_schedule:schedule ()
        in
        (Web_app.workload app, Domconfig.App_web app)
    | Domconfig.Pi { work; duty } ->
        let app = Workloads.Pi_app.create ~duty_cycle:duty ~work () in
        (Workloads.Pi_app.workload app, Domconfig.App_pi app)
  in
  ((match tracer with Some t -> Probe.workload t workload | None -> workload), app)

let governor_of (spec : Domconfig.gov_spec) processor =
  match spec with
  | Domconfig.Performance -> Some (Governors.Governor.performance processor)
  | Domconfig.Powersave -> Some (Governors.Governor.powersave processor)
  | Domconfig.Ondemand -> Some (Governors.Ondemand.create processor)
  | Domconfig.Stable -> Some (Governors.Stable_ondemand.create processor)
  | Domconfig.Conservative -> Some (Governors.Conservative.create processor)
  | Domconfig.No_governor -> None

(* [Domconfig.build], with every layer closure wrapped by [tracer] when
   there is one.  Tests keep this copy honest: without a tracer it must
   give [Domconfig.build]'s digests on every generated config, the
   cluster's VM list included, and a traced run the untraced run's. *)
let build ?tracer (cfg : Domconfig.t) : Domconfig.built =
  let sim = Simulator.create () in
  let processor = Processor.create cfg.arch in
  let domains =
    List.map
      (fun (spec : Domconfig.domain_spec) ->
        let workload, app = build_workload ?tracer spec in
        ( spec,
          Domain.create ~weight:spec.weight ~is_dom0:spec.dom0 ~vcpus:spec.vcpus ~name:spec.name
            ~credit_pct:spec.credit workload,
          app ))
      cfg.domains
  in
  let plain = List.map (fun (_, d, _) -> d) domains in
  let scheduler, pas =
    match cfg.scheduler with
    | Domconfig.Credit -> (Sched_credit.create plain, None)
    | Domconfig.Sedf -> (Sched_sedf.create plain, None)
    | Domconfig.Credit2 -> (Sched_credit2.create plain, None)
    | Domconfig.Pas_sched ->
        let p = Pas.Pas_sched.create ~processor plain in
        (Pas.Pas_sched.scheduler p, Some p)
  in
  let scheduler, governor =
    match tracer with
    | Some t ->
        ( Probe.scheduler t scheduler ~window_layer:Probe.Pas_window,
          Option.map (Probe.governor t) (governor_of cfg.governor processor) )
    | None -> (scheduler, governor_of cfg.governor processor)
  in
  let host = Host.create ~sim ~processor ~scheduler ?governor () in
  { Domconfig.sim; host; domains; pas; duration = Sim_time.of_sec_f cfg.duration_s }

(* The host's periodic chains in microseconds: tick, accounting, sampling,
   then the PAS window or the governor's sampling period. *)
let host_periods (cfg : Domconfig.t) host =
  let c = Host.config host in
  let s = Host.scheduler host in
  let window = if Option.is_some s.Scheduler.observe_window then [ s.Scheduler.window_period ] else [] in
  let gov =
    match governor_of cfg.governor (Processor.create cfg.arch) with
    | Some g -> [ g.Governors.Governor.period ]
    | None -> []
  in
  List.map Sim_time.to_us ([ c.Host.quantum; c.Host.account_period; c.Host.sample_period ] @ window @ gov)

(* -- the chunked driver --------------------------------------------- *)

(* Runs [sim] to [duration_s] in chunks of one simulated second.  Each
   boundary is a marker event; between markers the driver steps the
   simulator itself, which yields an exact event count and a CPU time per
   chunk.  Markers only add events, so the final [run_until] leaves the
   state exactly where [Host.run_for] would.  Returns the events fired. *)
let drive rep ~unit_index ~tracer sim ~duration_s ~on_second =
  let prev = ref (Option.map Probe.copy tracer) in
  let fired = ref false in
  let marker () = fired := true in
  let step_to_marker at =
    fired := false;
    ignore (Simulator.at sim at marker);
    let n = ref 0 in
    while not !fired do
      ignore (Simulator.step sim);
      incr n
    done;
    !n - 1
  in
  let total = ref 0 in
  for k = 1 to duration_s do
    let at = Sim_time.of_sec k in
    let clock0 = Probe.clock_ns () in
    let c0 = Sys.time () in
    let events = step_to_marker at in
    (* On the last chunk, a second marker queued at the same instant fires
       after every event still due then. *)
    let events = if k = duration_s then events + step_to_marker at else events in
    let cpu_s = Sys.time () -. c0 in
    rep.chunk_clock_s <- rep.chunk_clock_s +. (float_of_int (Probe.clock_ns () - clock0) /. 1e9);
    total := !total + events;
    rep.chunk_ms <- (cpu_s *. 1e3) :: rep.chunk_ms;
    if events > 0 then rep.per_event_ns <- (cpu_s *. 1e9 /. float_of_int events) :: rep.per_event_ns;
    (match (tracer, !prev) with
    | Some t, Some before ->
        let now = Probe.copy t in
        let d = Probe.diff now before in
        List.iter
          (fun layer ->
            let acc = d.(Probe.index layer) in
            if acc.Probe.calls > 0 then rep.spans <- { unit_index; chunk = k; layer; acc } :: rep.spans)
          Probe.layers;
        prev := Some now
    | _ -> ());
    on_second k
  done;
  Simulator.run_until sim (Sim_time.of_sec duration_s);
  rep.events <- rep.events + !total;
  !total

(* -- SLA ------------------------------------------------------------ *)

(* The paper's claim: under PAS a saturating VM receives exactly the
   absolute capacity C_init it paid for, at any frequency.  A probe is a
   thrashing capped guest over its active window less 10 s margins (a
   quarter of a short window), which keep phase-switch transients out. *)
let sla_window ~from_s ~until_s =
  let m = min 10 ((until_s - from_s) / 4) in
  if until_s - from_s - (2 * m) >= 1 then Some (from_s + m, until_s - m) else None

let thrashing (spec : Domconfig.domain_spec) =
  match spec.workload with
  | Domconfig.Web { rate; _ } -> spec.credit > 0.0 && rate > spec.credit /. 100.0 *. 1.5
  | Domconfig.Idle | Domconfig.Busy | Domconfig.Pi _ -> false

let active_window (spec : Domconfig.domain_spec) ~duration_s =
  match spec.workload with
  | Domconfig.Web { from_s; until_s; _ } ->
      ( int_of_float (Option.value from_s ~default:0.0),
        min duration_s (int_of_float (Option.value until_s ~default:1e9)) )
  | Domconfig.Idle | Domconfig.Busy | Domconfig.Pi _ -> (0, 0)

(* On a host: the mean of the host's own per-second absolute-load samples
   of the guest over the probe window, against its credit. *)
let host_sla (b : Domconfig.built) ~duration_s =
  List.filter_map
    (fun ((spec : Domconfig.domain_spec), d, _) ->
      if not (thrashing spec) then None
      else
        let from_s, until_s = active_window spec ~duration_s in
        Option.map
          (fun (t0, t1) ->
            let s = Host.series_domain_absolute_load b.host d in
            Float.abs (Series.mean_between s (Sim_time.of_sec (t0 + 1)) (Sim_time.of_sec t1) -. spec.credit))
          (sla_window ~from_s ~until_s))
    b.Domconfig.domains

(* -- host workloads ------------------------------------------------- *)

let digest_host buf (b : Domconfig.built) =
  Buffer.add_string buf (Digest.to_hex (Digest.string (Series.Frame.to_csv (Host.frame b.host))));
  Printf.bprintf buf " %h" (Host.energy_joules b.host);
  List.iter (fun (_, d, _) -> Printf.bprintf buf " %d" (Sim_time.to_us (Domain.cpu_time d))) b.domains;
  Buffer.add_char buf '\n'

(* Counts, digest and checks of a host that has run its course. *)
let check_host rep ~problem (cfg : Domconfig.t) (b : Domconfig.built) ~events =
  let duration_s = int_of_float cfg.duration_s in
  rep.chains <- (host_periods cfg b.host, 1, events) :: rep.chains;
  let c = Host.config b.host in
  let elapsed = Sim_time.to_us b.duration in
  rep.dispatch_ticks <- rep.dispatch_ticks + (elapsed / Sim_time.to_us c.Host.quantum);
  rep.samples <- rep.samples + (elapsed / Sim_time.to_us c.Host.sample_period);
  rep.transitions <- rep.transitions + Cpu_model.Cpufreq.transitions (Processor.cpufreq (Host.processor b.host));
  Option.iter (fun p -> rep.pas_decisions <- rep.pas_decisions + Pas.Pas_sched.frequency_decisions p) b.pas;
  digest_host rep.digest b;
  let used = List.fold_left (fun acc (_, d, _) -> acc + Sim_time.to_us (Domain.cpu_time d)) 0 b.domains in
  if used > elapsed then Printf.ksprintf problem "domains used %d us of CPU in %d us" used elapsed;
  let energy = Host.energy_joules b.host in
  if not (Float.is_finite energy && energy >= 0.0) then Printf.ksprintf problem "energy %g J" energy;
  let sla = host_sla b ~duration_s in
  rep.sla_err_pct <- sla @ rep.sla_err_pct;
  match cfg.scheduler with
  | Domconfig.Pas_sched ->
      List.iter
        (fun err ->
          if err > sla_epsilon_pct then
            Printf.ksprintf problem "PAS delivered C_init %.3f pct-pt off (epsilon %g)" err sla_epsilon_pct)
        sla
  | Domconfig.Credit | Domconfig.Sedf | Domconfig.Credit2 -> ()

let catch f = try Ok (f ()) with e -> Error (Printexc.to_string e)

(* The measured phase runs every host back to back; digests and checks
   come after it, so neither its time nor its words include them. *)
let hosts rep ~tracer texts =
  let t0 = wall () in
  let parsed = List.map Domconfig.parse texts in
  let t1 = wall () in
  let build cfg = match tracer with Some _ -> build ?tracer cfg | None -> Domconfig.build cfg in
  let built = List.map (Result.map (fun cfg -> (cfg, catch (fun () -> build cfg)))) parsed in
  rep.parse_s <- t1 -. t0;
  rep.build_s <- wall () -. t1;
  fun () ->
    let g0 = Gc.minor_words () in
    let w0 = wall () in
    let ran =
      List.mapi
        (fun index r ->
          Result.bind r (fun ((cfg : Domconfig.t), b) ->
              Result.bind b (fun (b : Domconfig.built) ->
                  catch (fun () ->
                      let duration_s = int_of_float cfg.duration_s in
                      (cfg, b, drive rep ~unit_index:index ~tracer b.sim ~duration_s ~on_second:ignore)))))
        built
    in
    rep.wall_s <- wall () -. w0;
    rep.words <- Gc.minor_words () -. g0;
    List.iteri
      (fun index r ->
        op rep ~name:(Printf.sprintf "host %d" index) (fun problem ->
            match r with Error msg -> problem msg | Ok (cfg, b, events) -> check_host rep ~problem cfg b ~events))
      ran

(* -- cluster -------------------------------------------------------- *)

(* The manager builds its hosts internally, so a VM's delivered absolute
   work is metered at its workload: CPU time used times the speed it ran
   at.  The meter sits on every cluster run, traced or not. *)
type meter = { mutable absolute_s : float }

let metered m w =
  Workload.make ~name:(Workload.name w)
    ~advance:(fun ~now ~dt -> Workload.advance w ~now ~dt)
    ~has_work:(fun () -> Workload.has_work w)
    ~execute:(fun ~now ~cpu_time ~speed ->
      let used = Workload.execute w ~now ~cpu_time ~speed in
      m.absolute_s <- m.absolute_s +. (float_of_int (Sim_time.to_us used) /. 1e6 *. speed);
      used)
    ()

type vm_in = {
  spec : Domconfig.domain_spec;
  vm : Vm.t;
  meter : meter;
  web : Web_app.t option;
  from_s : int;
  until_s : int;
}

(* A thrashing VM's epoch (the span between two rebalances) counts only
   when its node could honour every credit placed on it for the whole
   epoch: the credits of the node's VMs active at any point of the epoch
   sum within the manager's 90 % budget.  Beyond that, under-delivery is
   the packing policy's doing, not PAS's. *)
let cluster_budget_pct = 90.0

let cluster_sla (vms : vm_in array) ~nodes:node_count ~placements ~marks ~rebalance_s ~duration_s =
  List.concat_map
    (fun (e, nodes) ->
      match sla_window ~from_s:e ~until_s:(e + rebalance_s) with
      | Some (t0, t1) when e + rebalance_s <= duration_s -> (
          match (marks.(t0), marks.(t1)) with
          | Some w0, Some w1 ->
              let committed = Array.make node_count 0.0 in
              Array.iteri
                (fun j v ->
                  if v.from_s < e + rebalance_s && v.until_s > e then
                    committed.(nodes.(j)) <- committed.(nodes.(j)) +. v.spec.Domconfig.credit)
                vms;
              List.filter_map
                (fun i ->
                  let v = vms.(i) in
                  if
                    thrashing v.spec && v.from_s <= t0 && v.until_s >= t1
                    && committed.(nodes.(i)) <= cluster_budget_pct
                  then
                    Some
                      (Float.abs
                         ((100.0 *. (w1.(i) -. w0.(i)) /. float_of_int (t1 - t0)) -. v.spec.credit))
                  else None)
                (List.init (Array.length vms) Fun.id)
          | _ -> [])
      | _ -> [])
    placements

let digest_cluster buf ~mgr (vms : vm_in array) =
  Printf.bprintf buf "%d %d %h\n" (Manager.migrations mgr) (Manager.active_nodes mgr)
    (Manager.energy_joules mgr);
  Array.iter
    (fun v ->
      Printf.bprintf buf "%s %d %d %d\n" v.spec.name (Manager.node_of_vm mgr v.vm)
        (Sim_time.to_us (Domain.cpu_time (Vm.domain v.vm)))
        (match v.web with Some a -> Web_app.completed_requests a | None -> 0))
    vms

(* A PAS node's chains: tick, accounting, sampling, PAS window. *)
let pas_node_periods =
  let c = Host.default_config in
  List.map Sim_time.to_us [ c.Host.quantum; c.Host.account_period; c.Host.sample_period; Sim_time.of_ms 100 ]

let cluster_run rep ~tracer (c : Gen.cluster) (cfg : Domconfig.t) (vms : vm_in array) =
  let duration_s = int_of_float cfg.duration_s in
  let sim = Simulator.create () in
  let mgr =
    Manager.create ~arch:cfg.arch ~policy:Manager.Pas_nodes ~sim ~nodes:c.nodes
      (Array.to_list (Array.map (fun v -> v.vm) vms))
  in
  (* The same single [every] chain [Manager.auto_rebalance] arms, armed
     here so a traced run can time each rebalance and every epoch's
     placement is recorded. *)
  let placement () = Array.map (fun v -> Manager.node_of_vm mgr v.vm) vms in
  let placements = ref [ (0, placement ()) ] in
  let rebalance () =
    (match tracer with
    | Some t -> Probe.call t Probe.Rebalance (fun () -> Manager.rebalance mgr)
    | None -> Manager.rebalance mgr);
    placements := (Sim_time.to_us (Simulator.now sim) / 1_000_000, placement ()) :: !placements
  in
  ignore (Simulator.every sim (Sim_time.of_sec c.rebalance_s) rebalance);
  let marks = Array.make (duration_s + 1) None in
  let marked k =
    match sla_window ~from_s:0 ~until_s:c.rebalance_s with
    | Some (t0, t1) -> k mod c.rebalance_s = t0 || k mod c.rebalance_s = t1
    | None -> false
  in
  let on_second k =
    rep.active_nodes <- float_of_int (Manager.active_nodes mgr) :: rep.active_nodes;
    if marked k then marks.(k) <- Some (Array.map (fun v -> v.meter.absolute_s) vms)
  in
  fun problem ->
    let g0 = Gc.minor_words () in
    let w0 = wall () in
    let events = drive rep ~unit_index:0 ~tracer sim ~duration_s ~on_second in
    rep.wall_s <- wall () -. w0;
    rep.words <- Gc.minor_words () -. g0;
    let mean_active =
      List.fold_left ( +. ) 0.0 rep.active_nodes /. float_of_int (max 1 (List.length rep.active_nodes))
    in
    rep.chains <- [ (pas_node_periods, max 1 (int_of_float (Float.round mean_active)), events) ];
    rep.dispatch_ticks <- int_of_float (Float.round (mean_active *. float_of_int duration_s *. 1000.0));
    rep.samples <- int_of_float (Float.round (mean_active *. float_of_int duration_s));
    rep.migrations <- Manager.migrations mgr;
    rep.sla_err_pct <-
      cluster_sla vms ~nodes:c.nodes ~placements:!placements ~marks ~rebalance_s:c.rebalance_s ~duration_s;
    digest_cluster rep.digest ~mgr vms;
    let used = Array.fold_left (fun acc v -> acc + Sim_time.to_us (Domain.cpu_time (Vm.domain v.vm))) 0 vms in
    if used > duration_s * 1_000_000 * c.nodes then
      Printf.ksprintf problem "VMs used %d us of CPU on %d nodes in %d s" used c.nodes duration_s;
    let energy = Manager.energy_joules mgr in
    if not (Float.is_finite energy && energy >= 0.0) then Printf.ksprintf problem "energy %g J" energy;
    if rep.sla_err_pct = [] then problem "no thrashing VM epoch to check the SLA on";
    List.iter
      (fun err ->
        if err > sla_epsilon_pct then
          Printf.ksprintf problem "PAS delivered C_init %.3f pct-pt off (epsilon %g)" err sla_epsilon_pct)
      rep.sla_err_pct

let cluster rep ~tracer (c : Gen.cluster) =
  let t0 = wall () in
  let parsed = Domconfig.parse c.vms in
  let t1 = wall () in
  let vm_of ~duration_s (spec : Domconfig.domain_spec) =
    let workload, app = build_workload spec in
    let meter = { absolute_s = 0.0 } in
    let workload = metered meter workload in
    let workload = match tracer with Some t -> Probe.workload t workload | None -> workload in
    (* 1 GB each: a 16 GB node holds 16, so credits, not memory, drive the packing. *)
    let vm = Vm.create ~name:spec.name ~credit_pct:spec.credit ~memory_mb:1024 workload in
    let from_s, until_s = active_window spec ~duration_s in
    let web = match app with Domconfig.App_web a -> Some a | Domconfig.App_none | Domconfig.App_pi _ -> None in
    { spec; vm; meter; web; from_s; until_s }
  in
  let prepared =
    Result.bind parsed (fun cfg ->
        let duration_s = int_of_float cfg.duration_s in
        catch (fun () -> cluster_run rep ~tracer c cfg (Array.of_list (List.map (vm_of ~duration_s) cfg.domains))))
  in
  rep.parse_s <- t1 -. t0;
  rep.build_s <- wall () -. t1;
  fun () ->
    op rep ~name:"cluster" (fun problem ->
        match prepared with Ok go -> go problem | Error msg -> problem msg)

(* -- paper-regen ---------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Naive substring search; goldens are a few kilobytes. *)
let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.equal (String.sub s i m) sub || at (i + 1)) in
  at 0

let golden_path ~root id = Filename.concat root (Filename.concat "test/golden" (id ^ ".expected"))

let registry rep ~root ~ids ~scale ~pool =
  let t0 = wall () in
  let goldens =
    List.map (fun id -> (id, try Ok (read_file (golden_path ~root id)) with Sys_error msg -> Error msg)) ids
  in
  let experiments = List.filter_map Experiments.Registry.find ids in
  rep.parse_s <- wall () -. t0;
  fun () ->
    let w0 = wall () in
    let report = Runner.run_all ~pool_size:pool ~scale ~experiments () in
    rep.wall_s <- wall () -. w0;
    rep.pool <- report.Runner.pool_size;
    (* lint:ignore float-fold-order: goldens is in the requested id order, not completion order *) List.iter
      (fun (id, golden) ->
        op rep ~name:id (fun problem ->
            match List.find_opt (fun (j : Runner.job) -> String.equal j.id id) report.Runner.jobs with
            | None -> problem "not in the registry"
            | Some { status = Runner.Failed msg; _ } -> problem msg
            | Some j -> (
                rep.job_s <- rep.job_s @ [ (id, j.seconds) ];
                rep.alloc_mb <- rep.alloc_mb +. j.alloc_mb;
                Buffer.add_string rep.digest (Digest.to_hex (Digest.string j.rendered));
                match golden with
                | Error msg -> problem msg
                | Ok g -> if not (contains ~sub:g j.rendered) then problem "output differs from its golden")))
      goldens

(* Set-up happens here; the returned closure is the measured phase. *)
let prepare ~root ~traced (input : Gen.input) =
  let rep = new_rep () in
  let tracer = if traced then Some rep.layers else None in
  let go =
    match input with
    | Gen.Registry { ids; scale; pool } -> registry rep ~root ~ids ~scale ~pool
    | Gen.Hosts texts -> hosts rep ~tracer texts
    | Gen.Cluster c -> cluster rep ~tracer c
  in
  (rep, go)

let run ~root ~traced input =
  let rep, go = prepare ~root ~traced input in
  go ();
  rep
