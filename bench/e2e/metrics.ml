(* Metric definitions and their aggregation over repetitions.  Timings are
   host time; [pas_sla_err_pct] and every count are simulated quantities. *)

type tier = End_to_end | Per_layer | Diagnostic

type t = { name : string; unit_ : string; value : float; n : int; bound : string; tier : tier }

(* The metrics BENCHMARK.json lists, in its order, with the end-to-end
   bounds (the share of the parent's median a metric may worsen by; see
   README.md for where each comes from).  Every simulator workload
   reports all of them; a test keeps this and the file in step. *)
let contract_bounds =
  [ ("wall_s", 0.25); ("ns_per_event", 0.2); ("words_per_event", 0.08); ("peak_rss_mb", 0.1); ("setup_s", 0.25) ]

let contract_end_to_end = List.map fst contract_bounds
let bound name = Printf.sprintf "%g%%" (100.0 *. List.assoc name contract_bounds)

let contract_per_layer =
  [
    "pas_sla_err_pct";
    "engine.events";
    "engine.ns_per_event_noop";
    "engine.self_s";
    "hypervisor.self_s";
    "workload.advance.calls";
    "workload.advance.ns";
    "workload.advance.words";
    "workload.execute.calls";
    "workload.execute.ns";
    "workload.execute.words";
    "domconfig.parse_s";
    "domconfig.build_s";
  ]

let median xs = Probe.median xs

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan else a.(max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

let sum xs = List.fold_left ( +. ) 0.0 xs

(* VmHWM: the process's peak resident set, which is why each repetition
   runs in a process of its own. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | status ->
      List.find_map
        (fun line -> try Scanf.sscanf line "VmHWM: %f kB" (fun kb -> Some (kb /. 1024.0)) with _ -> None)
        (String.split_on_char '\n' status)
      |> Option.value ~default:Float.nan

let m tier ?(n = 1) ?(bound = "-") name unit_ value = { name; unit_; value; n; bound; tier }

let fastest xs = List.fold_left Float.min Float.infinity xs

(* The timings are the fastest repetition's.  On a shared machine noise
   only adds time, and it comes in spells that can cover most of a run:
   over ten runs of one seed the median repetition's wall time spread by
   up to 21 % between runs, the fastest one's by up to 9 %. *)
let end_to_end workload ~(setups : float list) ~(reps : Run.rep list) ~(peak_rss : float list) ~attempted ~failed =
  let e = m End_to_end in
  let nreps = List.length reps in
  let common =
    [
      e "setup_s" "s" (median setups) ~n:(List.length setups) ~bound:(bound "setup_s");
      e "wall_s" "s" (fastest (List.map (fun (r : Run.rep) -> r.wall_s) reps)) ~n:nreps ~bound:(bound "wall_s");
      e "peak_rss_mb" "MB" (median peak_rss) ~n:(List.length peak_rss) ~bound:(bound "peak_rss_mb");
      e "error_rate" "fraction"
        (float_of_int failed /. float_of_int (max 1 attempted))
        ~n:attempted ~bound:"any increase";
    ]
  in
  match workload with
  | Gen.Paper_regen ->
      common
      @ [ e "alloc_mb" "MB" (median (List.map (fun (r : Run.rep) -> r.alloc_mb) reps)) ~n:nreps ~bound:"1%" ]
  | Gen.Xen_stock | Gen.Dense_pas | Gen.Cluster_churn ->
      let per_event = List.map (fun (r : Run.rep) -> r.per_event_ns) reps in
      let chunks = List.concat_map (fun (r : Run.rep) -> r.chunk_ms) reps in
      let events = List.fold_left (fun acc (r : Run.rep) -> acc + r.events) 0 reps in
      let sla = match reps with r :: _ -> r.sla_err_pct | [] -> [] in
      common
      @ [
          e "ns_per_event" "ns"
            (fastest (List.map median per_event))
            ~n:(List.length (List.concat per_event)) ~bound:(bound "ns_per_event");
          e "words_per_event" "words"
            (sum (List.map (fun (r : Run.rep) -> r.words) reps) /. float_of_int (max 1 events))
            ~n:events ~bound:(bound "words_per_event");
          e "pas_sla_err_pct" "pct-pt" (List.fold_left Float.max 0.0 sla) ~n:(List.length sla)
            ~bound:(Printf.sprintf "<= %g (checked on PAS workloads)" Run.sla_epsilon_pct);
          m Diagnostic "chunk_ms.p99" "ms" (percentile 0.99 chunks) ~n:(List.length chunks);
        ]

(* Per-layer figures of the traced repetition, net of the calibrated
   wrapper cost.  The untraced chunk time is the measured figure they must
   account for; what the wrapped layers and the calendar leave of it is the
   hypervisor's own time. *)
type breakdown = {
  measured_s : float;  (** untraced chunk time, median repetition *)
  children_s : float;  (** wrapped layers' net time *)
  engine_s : float;
  residual_s : float;  (** hypervisor self time *)
  traced_s : float;  (** traced chunk time less the wrapper cost *)
  overhead : float;  (** traced / untraced wall - 1 *)
}

let layer_set = function
  | Gen.Xen_stock | Gen.Dense_pas ->
      Probe.[ Pick; Charge; Account; Pas_window; Gov_observe; Advance; Execute ]
  | Gen.Cluster_churn -> Probe.[ Advance; Execute; Rebalance ]
  | Gen.Paper_regen -> []

let net (cal : Probe.calibration) (a : Probe.acc) =
  let calls = float_of_int a.calls in
  (float_of_int a.ns -. (calls *. cal.span_ns), float_of_int a.words -. (calls *. cal.span_words))

let breakdown workload (cal : Probe.calibration) ~engine_s ~(untraced : Run.rep list) (traced : Run.rep) =
  let layers = layer_set workload in
  let calls = List.fold_left (fun acc l -> acc + (Probe.acc traced.layers l).calls) 0 layers in
  let children_s = sum (List.map (fun l -> fst (net cal (Probe.acc traced.layers l)) /. 1e9) layers) in
  let measured_s = median (List.map (fun (r : Run.rep) -> r.chunk_clock_s) untraced) in
  {
    measured_s;
    children_s;
    engine_s;
    residual_s = measured_s -. children_s -. engine_s;
    traced_s = traced.chunk_clock_s -. (float_of_int calls *. cal.cost_ns /. 1e9);
    overhead = (traced.wall_s /. median (List.map (fun (r : Run.rep) -> r.wall_s) untraced)) -. 1.0;
  }

(* A traced repetition with the wrapper calibration and the calendar time
   (events x calibrated no-op cost) that go with it. *)
type traced = { rep : Run.rep; cal : Probe.calibration; engine_s : float }

let per_layer workload ~(untraced : Run.rep list) (traced : traced option) =
  let l = m Per_layer in
  let med f = median (List.map f untraced) in
  let nreps = List.length untraced in
  let setup =
    [
      l "domconfig.parse_s" "s" (med (fun (r : Run.rep) -> r.parse_s)) ~n:nreps;
      l "domconfig.build_s" "s" (med (fun (r : Run.rep) -> r.build_s)) ~n:nreps;
    ]
  in
  match (workload, traced) with
  | Gen.Paper_regen, _ ->
      let job_ids = match untraced with r :: _ -> List.map fst r.job_s | [] -> [] in
      let busy (r : Run.rep) =
        (* lint:ignore float-fold-order: job_s is in registry order, not completion order *)
        List.fold_left (fun acc (_, s) -> acc +. s) 0.0 r.job_s
      in
      let capacity (r : Run.rep) = float_of_int r.pool *. r.wall_s in
      [
        l "runner.pool_efficiency" "fraction" (med (fun r -> busy r /. capacity r)) ~n:nreps;
        l "runner.idle_s" "s" (med (fun r -> capacity r -. busy r)) ~n:nreps;
      ]
      @ List.map
          (fun id ->
            l ("experiments." ^ id ^ ".s") "s"
              (med (fun (r : Run.rep) -> Option.value (List.assoc_opt id r.job_s) ~default:Float.nan))
              ~n:nreps)
          job_ids
  | _, None -> setup
  | (Gen.Xen_stock | Gen.Dense_pas | Gen.Cluster_churn), Some { rep = t; cal; engine_s } ->
      let b = breakdown workload cal ~engine_s ~untraced t in
      let events = float_of_int t.events in
      let layer_metrics layer =
        let a = Probe.acc t.layers layer in
        let ns, words = net cal a in
        let per x = if a.calls = 0 then 0.0 else x /. float_of_int a.calls in
        let name = Probe.layer_name layer in
        [
          l (name ^ ".calls") "count" (float_of_int a.calls);
          l (name ^ ".ns") "ns" (per ns) ~n:a.calls;
          l (name ^ ".words") "words" (per words) ~n:a.calls;
        ]
      in
      [
        l "engine.events" "count" events;
        l "engine.ns_per_event_noop" "ns" (b.engine_s *. 1e9 /. events) ~n:(List.length t.chains);
        l "engine.self_s" "s" b.engine_s;
        l "hypervisor.self_s" "s" b.residual_s;
        l "hypervisor.dispatch_ticks" "count" (float_of_int t.dispatch_ticks);
        l "hypervisor.samples" "count" (float_of_int t.samples);
      ]
      @ List.concat_map layer_metrics (layer_set workload)
      @ setup
      @ (match workload with
        | Gen.Cluster_churn ->
            [
              l "cluster.migrations" "count" (float_of_int t.migrations);
              l "cluster.active_nodes_mean" "count"
                (sum t.active_nodes /. float_of_int (max 1 (List.length t.active_nodes)))
                ~n:(List.length t.active_nodes);
            ]
        | _ ->
            [
              l "pas.freq_decisions" "count" (float_of_int t.pas_decisions);
              l "cpu.transitions" "count" (float_of_int t.transitions);
            ])
      @ [
          m Diagnostic "trace.overhead" "fraction" b.overhead;
          m Diagnostic "trace.measured_chunk_s" "s" b.measured_s;
          m Diagnostic "trace.traced_chunk_s" "s" b.traced_s;
          m Diagnostic "trace.coverage" "fraction" ((b.children_s +. b.engine_s) /. b.measured_s);
        ]

(* -- output --------------------------------------------------------- *)

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"
let json_string s = Printf.sprintf "%S" s

(* The metrics called [names], in that order, of those reported. *)
let select names metrics =
  List.filter_map (fun name -> List.find_opt (fun x -> String.equal x.name name) metrics) names

(* The benchmark's last stdout line. *)
let contract_line listed ~attempted ~failed =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name) (json_float x.value)
              (json_string x.unit_))
          listed))

let tier_name = function End_to_end -> "end_to_end" | Per_layer -> "per_layer" | Diagnostic -> "diagnostic"

let report_json ~workload ~seed ~attempted ~failed ~failures metrics =
  Printf.sprintf
    "{\"workload\": %s, \"seed\": %d, \"attempted\": %d, \"failed\": %d, \"failures\": [%s], \"metrics\": [\n%s\n]}\n"
    (json_string (Gen.name workload)) seed attempted failed
    (String.concat ", " (List.map json_string failures))
    (String.concat ",\n"
       (List.map
          (fun x ->
            Printf.sprintf
              "  {\"name\": %s, \"unit\": %s, \"value\": %s, \"n\": %d, \"bound\": %s, \"tier\": %s}"
              (json_string x.name) (json_string x.unit_) (json_float x.value) x.n (json_string x.bound)
              (json_string (tier_name x.tier)))
          metrics))

let pp ppf x =
  Format.fprintf ppf "%-12s %-34s %14.6g %-8s n=%-8d bound=%s"
    (tier_name x.tier) x.name x.value x.unit_ x.n x.bound
