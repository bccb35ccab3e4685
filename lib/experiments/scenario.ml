module Domain = Hypervisor.Domain
module Host = Hypervisor.Host
module Processor = Cpu_model.Processor

type sched_kind = Credit | Sedf | Credit2 | Pas_scheduler
type gov_kind = Performance | Stock_ondemand | Stable_ondemand | Powersave | No_governor
type load_kind = Exact | Thrashing

type spec = { sched : sched_kind; gov : gov_kind; load : load_kind; scale : float }

let spec ?(sched = Credit) ?(gov = Stable_ondemand) ?(load = Exact) ?(scale = 1.0) () =
  if not (scale > 0.0) then invalid_arg "Scenario.spec: scale must be positive";
  { sched; gov; load; scale }

type phase = A | B | C

type result = {
  host : Host.t;
  v20 : Domain.t;
  v70 : Domain.t;
  dom0 : Domain.t;
  pas : Pas.Pas_sched.t option;
  duration : Sim_time.t;
  v20_window : Sim_time.t * Sim_time.t;
  v70_window : Sim_time.t * Sim_time.t;
  phases : (phase * (Sim_time.t * Sim_time.t)) list;
}

(* The thrashing injection rate: well beyond any compensated credit so the
   VM's queue never drains (factor 5 over the exact rate). *)
let thrashing_factor = 5.0

let run s =
  let t sec = Sim_time.of_sec_f (sec *. s.scale) in
  let v20_from = t 500.0 and v20_until = t 5000.0 in
  let v70_from = t 2500.0 and v70_until = t 7000.0 in
  let duration = t 7500.0 in
  let rate_for credit =
    let exact = Workloads.Phases.exact_rate ~credit_pct:credit in
    match s.load with Exact -> exact | Thrashing -> exact *. thrashing_factor
  in
  let web active_from active_until credit =
    (* httperf clients give up after 10 s, so an overloaded phase's backlog
       dies with the phase instead of bleeding into the next one. *)
    Workloads.Web_app.create ~timeout:(Sim_time.of_sec 10)
      ~rate_schedule:
        (Workloads.Phases.three_phase ~active_from ~active_until ~rate:(rate_for credit))
      ()
  in
  let v20_app = web v20_from v20_until 20.0 in
  let v70_app = web v70_from v70_until 70.0 in
  let dom0_app =
    Workloads.Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:0.01) ()
  in
  let v20 =
    Domain.create ~name:"V20" ~credit_pct:20.0 (Workloads.Web_app.workload v20_app)
  in
  let v70 =
    Domain.create ~name:"V70" ~credit_pct:70.0 (Workloads.Web_app.workload v70_app)
  in
  let dom0 =
    Domain.create ~is_dom0:true ~name:"Dom0" ~credit_pct:10.0
      (Workloads.Web_app.workload dom0_app)
  in
  let domains = [ dom0; v20; v70 ] in
  let sim = Simulator.create () in
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let scheduler, pas =
    match s.sched with
    | Credit -> (Sched_credit.create domains, None)
    | Sedf -> (Sched_sedf.create domains, None)
    | Credit2 -> (Sched_credit2.create domains, None)
    | Pas_scheduler ->
        let p = Pas.Pas_sched.create ~processor domains in
        (Pas.Pas_sched.scheduler p, Some p)
  in
  let governor =
    match s.gov with
    | Performance -> Some (Governors.Governor.performance processor)
    | Stock_ondemand -> Some (Governors.Ondemand.create processor)
    | Stable_ondemand -> Some (Governors.Stable_ondemand.create processor)
    | Powersave -> Some (Governors.Governor.powersave processor)
    | No_governor -> None
  in
  let host = Host.create ~sim ~processor ~scheduler ?governor () in
  Host.run_for host duration;
  let phases =
    [
      (A, (v20_from, v70_from)); (B, (v70_from, v20_until)); (C, (v20_until, v70_until));
    ]
  in
  {
    host;
    v20;
    v70;
    dom0;
    pas;
    duration;
    v20_window = (v20_from, v20_until);
    v70_window = (v70_from, v70_until);
    phases;
  }

let host r = r.host
let v20 r = r.v20
let v70 r = r.v70
let dom0 r = r.dom0
let pas r = r.pas
let duration r = r.duration

(* Trim 10 % off both ends of a window so phase-switch transients (queue
   drain, governor settling) do not pollute the means. *)
let inner (lo, hi) =
  let span = Sim_time.to_us (Sim_time.sub hi lo) in
  let margin = span / 10 in
  (Sim_time.add lo (Sim_time.of_us margin), Sim_time.sub hi (Sim_time.of_us margin))

let phase_bounds r p = inner (List.assoc p r.phases)

let phase_mean r p series =
  let lo, hi = phase_bounds r p in
  Series.mean_between series lo hi

let v20_load r = Host.series_domain_load r.host r.v20
let v70_load r = Host.series_domain_load r.host r.v70
let v20_absolute r = Host.series_domain_absolute_load r.host r.v20
let v70_absolute r = Host.series_domain_absolute_load r.host r.v70
let frequency r = Host.series_frequency r.host

let mean_frequency r p = phase_mean r p (frequency r)

let sla_deficit r d =
  let window = if Domain.equal d r.v20 then r.v20_window else r.v70_window in
  let lo, hi = inner window in
  let abs_series = Host.series_domain_absolute_load r.host d in
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
