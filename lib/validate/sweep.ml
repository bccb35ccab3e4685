module Processor = Cpu_model.Processor
module Arch = Cpu_model.Arch
module Frequency = Cpu_model.Frequency
module Calibration = Cpu_model.Calibration
module Vm = Hypervisor.Domain
module Host = Hypervisor.Host
module Open_loop = Workloads.Open_loop

type policy = Performance | Powersave

let policy_name = function Performance -> "performance" | Powersave -> "powersave"

type point = {
  rate : float;
  service_mean : float;
  servers : int;
  policy : policy;
}

let point_key p =
  Printf.sprintf "validate/%.6g/%.6g/%d/%s" p.rate p.service_mean p.servers
    (policy_name p.policy)

(* The paper's main testbed; cf = 1 there, so the effective speed at the
   minimum frequency is exactly the frequency ratio 1600/2667 = 0.6. *)
let arch = Arch.optiplex_755

let freq_of_policy = function
  | Performance -> Frequency.max_freq arch.Arch.freq_table
  | Powersave -> Frequency.min_freq arch.Arch.freq_table

let speed_of_policy policy =
  Calibration.effective_speed arch.Arch.calibration arch.Arch.freq_table
    (freq_of_policy policy)

let point ~rho ~service_mean ~servers ~policy =
  if not (rho > 0.0 && rho < 1.0) then
    invalid_arg "Sweep.point: rho must be in (0, 1)";
  let speed = speed_of_policy policy in
  {
    rate = rho *. speed *. float_of_int servers /. service_mean;
    service_mean;
    servers;
    policy;
  }

type measurement = {
  util : Ci.t;
  sojourn : Ci.t;
  n_sys : Ci.t;
  completed : int;
}

let util_windows = 32

let measure ?(horizon = 300.0) ?(warmup = 30.0) p =
  if not (horizon > 0.0) then invalid_arg "Sweep.measure: horizon must be positive";
  if not (warmup >= 0.0) then invalid_arg "Sweep.measure: warmup must be non-negative";
  let seed = Prng.derive_seed ~key:(point_key p) in
  let sim = Simulator.create () in
  let source =
    Open_loop.create ~seed ~servers:p.servers ~rate:p.rate
      ~service_mean:p.service_mean ()
  in
  let util_log = Vec.Floats.create () in
  let window = horizon /. float_of_int util_windows in
  if p.servers = 1 then begin
    (* Through the whole stack: VM on a credit-scheduled host whose
       governor pins the policy's frequency, so service passes the
       paper's ratio*cf capacity law. *)
    let freq = freq_of_policy p.policy in
    let processor = Processor.create ~init_freq:freq arch in
    let governor =
      match p.policy with
      | Performance -> Governors.Governor.performance processor
      | Powersave -> Governors.Governor.powersave processor
    in
    let vm = Vm.create ~name:"open-loop" ~credit_pct:0.0 (Open_loop.workload source) in
    let scheduler = Sched_credit.create [ vm ] in
    let host = Host.create ~sim ~processor ~scheduler ~governor () in
    Host.run_for host (Sim_time.of_sec_f warmup);
    Open_loop.reset_stats source;
    let probe = Host.utilization_probe host in
    ignore
      (Simulator.every sim (Sim_time.of_sec_f window) (fun () ->
           Vec.Floats.push util_log (probe ())));
    Host.run_for host (Sim_time.of_sec_f horizon)
  end
  else begin
    (* Station mode: the host model is single-core, so multi-server points
       tick the station directly on the event queue at the host's dispatch
       quantum, with the policy's effective speed applied uniformly. *)
    let speed = speed_of_policy p.policy in
    let quantum = Sim_time.of_ms 1 in
    ignore
      (Simulator.every sim quantum (fun () ->
           Open_loop.step source ~now:(Simulator.now sim) ~dt:quantum ~speed));
    Simulator.run_until sim (Sim_time.of_sec_f warmup);
    Open_loop.reset_stats source;
    let served = ref 0.0 in
    ignore
      (Simulator.every sim (Sim_time.of_sec_f window) (fun () ->
           let busy = Open_loop.busy_time source in
           Vec.Floats.push util_log
             ((busy -. !served) /. (window *. float_of_int p.servers));
           served := busy));
    Simulator.run_until sim (Sim_time.of_sec_f (warmup +. horizon))
  end;
  {
    util = Ci.batch_means ~batches:8 (Vec.Floats.to_array util_log);
    sojourn = Ci.batch_means (Open_loop.sojourn_samples source);
    n_sys = Ci.batch_means (Open_loop.queue_seen_samples source);
    completed = Open_loop.completed_requests source;
  }

type tolerance = {
  sigma : float;
  rel : float;
  util_floor : float;
  time_floor : float;
}

(* [time_floor] absorbs the dispatch-tick quantisation: arrivals become
   visible to the server only at 1 ms boundaries, adding up to one tick of
   deterministic delay to every sojourn (and [rate * time_floor] phantom
   requests to the queue seen at arrivals). *)
let default_tolerance =
  { sigma = 3.0; rel = 0.05; util_floor = 0.015; time_floor = 0.004 }

type verdict = {
  metric : string;
  measured : float;
  half_width : float;
  oracle : float;
  ok : bool;
}

type result = {
  point : point;
  speed : float;
  completed : int;
  verdicts : verdict list;
  pass : bool;
}

let check tol ~metric ~floor (ci : Ci.t) ~target =
  let slack = (tol.sigma *. ci.Ci.half_width) +. (tol.rel *. Float.abs target) +. floor in
  {
    metric;
    measured = ci.Ci.mean;
    half_width = ci.Ci.half_width;
    oracle = target;
    ok = Float.abs (ci.Ci.mean -. target) <= slack;
  }

let assess ?(tolerance = default_tolerance) ?(mu_scale = 1.0) p (m : measurement) =
  let speed = speed_of_policy p.policy in
  let mu = mu_scale *. speed /. p.service_mean in
  let o = Oracle.mmc ~lambda:p.rate ~mu ~servers:p.servers in
  let verdicts =
    [
      check tolerance ~metric:"util" ~floor:tolerance.util_floor m.util
        ~target:o.Oracle.rho;
      check tolerance ~metric:"sojourn" ~floor:tolerance.time_floor m.sojourn
        ~target:o.Oracle.sojourn;
      check tolerance ~metric:"n_sys"
        ~floor:((p.rate *. tolerance.time_floor) +. 0.03)
        m.n_sys ~target:o.Oracle.n_sys;
    ]
  in
  {
    point = p;
    speed;
    completed = m.completed;
    verdicts;
    pass = List.for_all (fun v -> v.ok) verdicts;
  }

let run_point ?horizon ?warmup ?tolerance ?mu_scale p =
  assess ?tolerance ?mu_scale p (measure ?horizon ?warmup p)

let quick_grid =
  [
    point ~rho:0.5 ~service_mean:0.1 ~servers:1 ~policy:Performance;
    (* The DVFS case: at the minimum frequency the oracle's service rate
       is scaled by ratio*cf = 0.6, so a capacity-law bug shows up as a
       queueing-delay mismatch here. *)
    point ~rho:0.6 ~service_mean:0.1 ~servers:1 ~policy:Powersave;
    point ~rho:0.5 ~service_mean:0.05 ~servers:3 ~policy:Performance;
  ]

let default_grid =
  List.concat_map
    (fun rho ->
      List.concat_map
        (fun service_mean ->
          List.concat_map
            (fun servers ->
              List.map
                (fun policy -> point ~rho ~service_mean ~servers ~policy)
                [ Performance; Powersave ])
            [ 1; 2; 4 ])
        [ 0.05; 0.1 ])
    [ 0.3; 0.5; 0.7 ]

let run_grid ?(jobs = 1) ?horizon ?warmup ?tolerance ?mu_scale points =
  if jobs < 1 then invalid_arg "Sweep.run_grid: jobs must be positive";
  (* Results in grid order for any pool size, and each point's seed is a
     pure function of its parameters. *)
  Pool.map ~jobs (run_point ?horizon ?warmup ?tolerance ?mu_scale) points

let failures results = List.filter (fun r -> not r.pass) results

let verdict_of r metric =
  match List.find_opt (fun v -> String.equal v.metric metric) r.verdicts with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Sweep.verdict_of: no %s verdict" metric)

let table results =
  let t =
    Table.create
      ~columns:
        [
          ("arrivals/s", Table.Right);
          ("service (ms)", Table.Right);
          ("c", Table.Right);
          ("policy", Table.Left);
          ("speed", Table.Right);
          ("util", Table.Right);
          ("util*", Table.Right);
          ("W (ms)", Table.Right);
          ("W* (ms)", Table.Right);
          ("L", Table.Right);
          ("L*", Table.Right);
          ("requests", Table.Right);
          ("verdict", Table.Left);
        ]
  in
  List.iter
    (fun r ->
      let util_v = verdict_of r "util" in
      let sojourn_v = verdict_of r "sojourn" in
      let n_sys_v = verdict_of r "n_sys" in
      Table.add_row t
        [
          Printf.sprintf "%.2f" r.point.rate;
          Printf.sprintf "%.1f" (r.point.service_mean *. 1000.0);
          string_of_int r.point.servers;
          policy_name r.point.policy;
          Printf.sprintf "%.3f" r.speed;
          Printf.sprintf "%.3f" util_v.measured;
          Printf.sprintf "%.3f" util_v.oracle;
          Printf.sprintf "%.1f" (sojourn_v.measured *. 1000.0);
          Printf.sprintf "%.1f" (sojourn_v.oracle *. 1000.0);
          Printf.sprintf "%.2f" n_sys_v.measured;
          Printf.sprintf "%.2f" n_sys_v.oracle;
          string_of_int r.completed;
          (if r.pass then "agrees" else "DISAGREES");
        ])
    results;
  t

let csv_header =
  "rate,service_mean,servers,policy,speed,completed,util,util_hw,util_oracle,sojourn,sojourn_hw,sojourn_oracle,n_sys,n_sys_hw,n_sys_oracle,pass"

let to_csv results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      let util_v = verdict_of r "util" in
      let sojourn_v = verdict_of r "sojourn" in
      let n_sys_v = verdict_of r "n_sys" in
      Buffer.add_string buf
        (Printf.sprintf
           "%.6g,%.6g,%d,%s,%.6g,%d,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%b\n"
           r.point.rate r.point.service_mean r.point.servers
           (policy_name r.point.policy)
           r.speed r.completed util_v.measured util_v.half_width util_v.oracle
           sojourn_v.measured sojourn_v.half_width sojourn_v.oracle
           n_sys_v.measured n_sys_v.half_width n_sys_v.oracle r.pass))
    results;
  Buffer.contents buf
