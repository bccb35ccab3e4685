module Domain = Hypervisor.Domain
module Host = Hypervisor.Host

type load_kind = Exact | Thrashing

type spec = {
  sched : Domconfig.sched_spec;
  gov : Domconfig.gov_spec;
  load : load_kind;
  scale : float;
}

let spec ?(sched = Domconfig.Credit) ?(gov = Domconfig.Stable) ?(load = Exact) ?(scale = 1.0) () =
  if not (scale > 0.0) then invalid_arg "Scenario.spec: scale must be positive";
  { sched; gov; load; scale }

type phase = A | B | C

type result = {
  built : Domconfig.built;
  v20 : Domain.t;
  v70 : Domain.t;
  dom0 : Domain.t;
  scale : float;
}

(* The thrashing injection rate: well beyond any compensated credit so the
   VM's queue never drains (factor 5 over the exact rate). *)
let thrashing_factor = 5.0

(* The paper-length timeline, in seconds before scaling. *)
let v20_window = (500.0, 5000.0)
let v70_window = (2500.0, 7000.0)
let total = 7500.0

let window = function
  | A -> (fst v20_window, fst v70_window)
  | B -> (fst v70_window, snd v20_window)
  | C -> (snd v20_window, snd v70_window)

let config s =
  let web ?(dom0 = false) name credit ~rate (from_s, until_s) =
    (* httperf clients give up after 10 s, so an overloaded phase's backlog
       dies with the phase instead of bleeding into the next one. *)
    let timeout_s = 10.0 and request_work = 0.005 in
    let workload = Domconfig.Web { rate; from_s; until_s; timeout_s; request_work } in
    { Domconfig.name; credit; weight = 256; dom0; vcpus = 1; workload }
  in
  let phased name credit (lo, hi) =
    let exact = Workloads.Phases.exact_rate ~credit_pct:credit in
    let rate = match s.load with Exact -> exact | Thrashing -> exact *. thrashing_factor in
    web name credit ~rate (Some (lo *. s.scale), Some (hi *. s.scale))
  in
  {
    Domconfig.arch = Cpu_model.Arch.optiplex_755;
    scheduler = s.sched;
    governor = s.gov;
    duration_s = total *. s.scale;
    domains =
      [
        web ~dom0:true "Dom0" 10.0 ~rate:0.01 (None, None);
        phased "V20" 20.0 v20_window;
        phased "V70" 70.0 v70_window;
      ];
  }

let run s =
  let built = Domconfig.build (config s) in
  Host.run_for built.host built.duration;
  let domain name =
    let named ((d : Domconfig.domain_spec), _, _) = d.name = name in
    let _, d, _ = List.find named built.domains in
    d
  in
  { built; v20 = domain "V20"; v70 = domain "V70"; dom0 = domain "Dom0"; scale = s.scale }

let host r = r.built.host
let v20 r = r.v20
let v70 r = r.v70
let dom0 r = r.dom0
let pas r = r.built.pas
let duration r = r.built.duration

(* Trim 10 % off both ends of a window so phase-switch transients (queue
   drain, governor settling) do not pollute the means. *)
let inner (lo, hi) =
  let span = Sim_time.to_us (Sim_time.sub hi lo) in
  let margin = span / 10 in
  (Sim_time.add lo (Sim_time.of_us margin), Sim_time.sub hi (Sim_time.of_us margin))

(* The inner part of a paper-second window, on the run's scaled clock. *)
let scaled_inner r (lo, hi) =
  inner (Sim_time.of_sec_f (lo *. r.scale), Sim_time.of_sec_f (hi *. r.scale))

let phase_bounds r p = scaled_inner r (window p)

let phase_mean r p series =
  let lo, hi = phase_bounds r p in
  Series.mean_between series lo hi

let v20_load r = Host.series_domain_load r.built.host r.v20
let v70_load r = Host.series_domain_load r.built.host r.v70
let v20_absolute r = Host.series_domain_absolute_load r.built.host r.v20
let v70_absolute r = Host.series_domain_absolute_load r.built.host r.v70
let frequency r = Host.series_frequency r.built.host

let mean_frequency r p = phase_mean r p (frequency r)

let deficit_between host d lo hi =
  let abs_series = Host.series_domain_absolute_load host d in
  let credit = Domain.initial_credit d in
  let times = Series.times abs_series and values = Series.values abs_series in
  let sum = ref 0.0 and n = ref 0 in
  Array.iteri
    (fun i time ->
      if Sim_time.compare time lo >= 0 && Sim_time.compare time hi <= 0 then begin
        sum := !sum +. Float.max 0.0 (credit -. values.(i));
        incr n
      end)
    times;
  if !n = 0 then 0.0 else !sum /. float_of_int !n

let sla_deficit r d =
  let lo, hi = scaled_inner r (if Domain.equal d r.v20 then v20_window else v70_window) in
  deficit_between r.built.host d lo hi

let run_switch ~switch ~duration ~build_host =
  let web name credit rate_schedule =
    let app = Workloads.Web_app.create ~rate_schedule () in
    Domain.create ~name ~credit_pct:credit (Workloads.Web_app.workload app)
  in
  let v20 = web "V20" 20.0 (Workloads.Phases.constant ~rate:1.0) in
  let v70 =
    web "V70" 70.0
      (Workloads.Phases.three_phase ~active_from:(Sim_time.of_us 1) ~active_until:switch
         ~rate:0.70)
  in
  let dom0 = Domain.create ~is_dom0:true ~name:"Dom0" ~credit_pct:10.0 (Workloads.Workload.idle ()) in
  let host = build_host [ dom0; v20; v70 ] in
  Host.run_for host duration;
  (host, v20)
