(* Tests of the end-to-end benchmark's own machinery: seeded inputs, the
   chunked driver, the output checks and the reported metric names.  Run
   from _build/default/bench/e2e, so the repository root is two levels up. *)

open E2e_bench

let root = "../.."
let sim_workloads = Gen.[ Xen_stock; Dense_pas; Cluster_churn ]

let parse_exn text =
  match Domconfig.parse text with Ok cfg -> cfg | Error msg -> Alcotest.failf "parse: %s" msg

let same_spec (a : Domconfig.t) (b : Domconfig.t) =
  String.equal a.arch.Cpu_model.Arch.name b.arch.Cpu_model.Arch.name
  && a.scheduler = b.scheduler && a.governor = b.governor
  && Float.equal a.duration_s b.duration_s
  && a.domains = b.domains

let test_round_trip () =
  List.iter
    (fun w ->
      List.iter
        (fun (size, seed) ->
          List.iteri
            (fun i text ->
              let cfg = parse_exn text in
              let again = parse_exn (Format.asprintf "%a" Domconfig.pp_spec cfg) in
              if not (same_spec cfg again) then
                Alcotest.failf "%s %s seed %d config %d changes through pp_spec" (Gen.name w)
                  (Gen.size_name size) seed i)
            (Gen.configs (Gen.generate w size ~seed)))
        [ (Gen.Smoke, 1); (Gen.Full, 1); (Gen.Full, 7) ])
    sim_workloads

let test_seeded () =
  List.iter
    (fun w ->
      let configs seed = Gen.configs (Gen.generate w Gen.Full ~seed) in
      Alcotest.(check (list string)) (Gen.name w ^ " same seed") (configs 3) (configs 3);
      if configs 3 = configs 4 then Alcotest.failf "%s ignores its seed" (Gen.name w))
    sim_workloads

(* The marker/step driver, and the benchmark's copy of Domconfig's
   builder, must each leave every host exactly where [Host.run_for] on
   [Domconfig.build] does.  The cluster's VM list runs as one host, which
   puts the copy's web-phase construction against Domconfig's. *)
let test_driver_and_builder_match () =
  List.iter
    (fun w ->
      List.iter
        (fun text ->
          let cfg = parse_exn text in
          let digest build run =
            let b = build cfg in
            run b;
            let buf = Buffer.create 64 in
            Run.digest_host buf b;
            Buffer.contents buf
          in
          let run_for (b : Domconfig.built) = Hypervisor.Host.run_for b.host b.duration in
          let plain = digest Domconfig.build run_for in
          let driven =
            digest Domconfig.build (fun b ->
                ignore
                  (Run.drive (Run.new_rep ()) ~unit_index:0 ~tracer:None b.Domconfig.sim
                     ~duration_s:(int_of_float cfg.duration_s) ~on_second:ignore))
          in
          Alcotest.(check string) (Gen.name w ^ " driver") plain driven;
          Alcotest.(check string) (Gen.name w ^ " builder copy") plain (digest (fun cfg -> Run.build cfg) run_for))
        (Gen.configs (Gen.generate w Gen.Smoke ~seed:1)))
    sim_workloads

let test_traced_build_matches () =
  List.iter
    (fun w ->
      let input = Gen.generate w Gen.Smoke ~seed:2 in
      let plain = Run.run ~root ~traced:false input and traced = Run.run ~root ~traced:true input in
      Alcotest.(check string) (Gen.name w) (Run.digest plain) (Run.digest traced);
      Alcotest.(check int) (Gen.name w ^ " failures") 0 (plain.failed + traced.failed))
    sim_workloads

let with_temp_root f =
  let dir = Filename.temp_file "e2e" "root" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Sys.mkdir (Filename.concat dir "test") 0o755;
  Sys.mkdir (Filename.concat dir "test/golden") 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ])))
    (fun () -> f dir)

let test_planted_golden () =
  let input = Gen.Registry { ids = [ "ablation-boost" ]; scale = 0.1; pool = 1 } in
  let good = Run.run ~root ~traced:false input in
  Alcotest.(check (pair int int)) "real golden" (1, 0) (good.ops, good.failed);
  with_temp_root (fun dir ->
      Out_channel.with_open_bin (Filename.concat dir "test/golden/ablation-boost.expected") (fun oc ->
          output_string oc "not the experiment's output\n");
      let bad = Run.run ~root:dir ~traced:false input in
      Alcotest.(check (pair int int)) "planted golden" (1, 1) (bad.ops, bad.failed))

let test_planted_digest () =
  let failed problems = List.length (List.filter Option.is_some problems) in
  Alcotest.(check int) "matching" 0 (failed (Measure.check_digests ~expected:(Some "aa") ~seed:1 [ "aa"; "aa" ]));
  Alcotest.(check int) "planted" 2 (failed (Measure.check_digests ~expected:(Some "bb") ~seed:1 [ "aa"; "aa" ]));
  Alcotest.(check int) "rerun differs" 1 (failed (Measure.check_digests ~expected:None ~seed:5 [ "aa"; "ab" ]));
  Alcotest.(check int) "default seed needs a digest" 1
    (failed (Measure.check_digests ~expected:None ~seed:Gen.default_seed [ "aa" ]));
  with_temp_root (fun dir ->
      Sys.mkdir (Filename.concat dir "bench") 0o755;
      Sys.mkdir (Filename.concat dir "bench/e2e") 0o755;
      Out_channel.with_open_text (Filename.concat dir Measure.digests_file) (fun oc ->
          output_string oc "dense-pas smoke 1 00000000000000000000000000000000\n");
      let o =
        Measure.workload ~root:dir ~seed:1 ~size:Gen.Smoke ~seconds:0.0 ~traced:false Gen.Dense_pas
      in
      Alcotest.(check (pair int int)) "one host, one digest, the digest fails" (2, 1) (o.attempted, o.failed))

(* The values of [field] in BENCHMARK.json, in order: those listed under
   [key], or the top-level one.  A plain scan, since the file's layout is
   fixed. *)
let benchmark_values ?key field =
  let text = In_channel.with_open_text (Filename.concat root "BENCHMARK.json") In_channel.input_all in
  let find_from i sub =
    let n = String.length text and m = String.length sub in
    let rec go i = if i + m > n then None else if String.equal (String.sub text i m) sub then Some i else go (i + 1) in
    go i
  in
  let start, stop =
    match key with
    | Some key ->
        let start = Option.get (find_from 0 (Printf.sprintf "%S" key)) in
        (start, Option.get (find_from start "]"))
    | None -> (0, String.length text)
  in
  let needle = Printf.sprintf "%S: " field in
  let rec values i acc =
    match find_from i needle with
    | Some j when j < stop ->
        let k = j + String.length needle in
        let e = ref k in
        while not (List.mem text.[!e] [ ','; '}' ]) do incr e done;
        values !e (String.trim (String.sub text k (!e - k)) :: acc)
    | _ -> List.rev acc
  in
  values start []

let test_benchmark_json () =
  let names key = List.map (fun s -> String.sub s 1 (String.length s - 2)) (benchmark_values ~key "name") in
  Alcotest.(check (list string)) "end_to_end" Metrics.contract_end_to_end (names "end_to_end");
  Alcotest.(check (list (float 0.0))) "bounds"
    (List.map snd Metrics.contract_bounds)
    (List.map float_of_string (benchmark_values ~key:"end_to_end" "bound"));
  Alcotest.(check (list string)) "per_layer" Metrics.contract_per_layer (names "per_layer");
  Alcotest.(check (list string)) "workloads" (List.map Gen.name Gen.listed) (names "workloads");
  Alcotest.(check (list string)) "run_seconds"
    [ string_of_int Measure.default_seconds ]
    (benchmark_values "run_seconds")

(* Every metric the README names appears in the JSON report of its
   workload, and the last-line JSON carries every metric BENCHMARK.json
   lists. *)
let test_json_names () =
  let end_to_end =
    [ "setup_s"; "wall_s"; "ns_per_event"; "words_per_event"; "peak_rss_mb"; "error_rate"; "pas_sla_err_pct" ]
  in
  let layer prefixes = List.concat_map (fun p -> List.map (( ^ ) p) [ ".calls"; ".ns"; ".words" ]) prefixes in
  let host_layers =
    [
      "engine.events"; "engine.ns_per_event_noop"; "engine.self_s"; "hypervisor.self_s";
      "hypervisor.dispatch_ticks"; "hypervisor.samples"; "pas.freq_decisions"; "cpu.transitions";
      "domconfig.parse_s"; "domconfig.build_s";
    ]
    @ layer
        [ "sched.pick"; "sched.charge"; "sched.account"; "pas.window"; "governors.observe"; "workload.advance";
          "workload.execute" ]
  in
  let cluster_layers =
    [ "cluster.rebalance.calls"; "cluster.rebalance.ns"; "cluster.migrations"; "cluster.active_nodes_mean" ]
  in
  let check w expected ~contract =
    let o = Measure.workload ~root ~seed:3 ~size:Gen.Smoke ~seconds:0.0 ~traced:true w in
    let json =
      Metrics.report_json ~workload:w ~seed:3 ~attempted:o.attempted ~failed:o.failed ~failures:o.failures
        o.metrics
    in
    List.iter
      (fun name ->
        if not (Run.contains ~sub:(Printf.sprintf "\"name\": %S" name) json) then
          Alcotest.failf "%s: no %s" (Gen.name w) name)
      expected;
    List.iter
      (fun names ->
        let line = Metrics.contract_line (Metrics.select names o.metrics) ~attempted:o.attempted ~failed:o.failed in
        List.iter
          (fun name ->
            if not (Run.contains ~sub:(Printf.sprintf "%S: {\"value\": " name) line) then
              Alcotest.failf "%s: %s not in %s" (Gen.name w) name line)
          names)
      contract
  in
  let contract = [ Metrics.contract_end_to_end; Metrics.contract_per_layer ] in
  check Gen.Xen_stock (end_to_end @ host_layers) ~contract;
  check Gen.Dense_pas (end_to_end @ host_layers) ~contract;
  check Gen.Cluster_churn (end_to_end @ cluster_layers) ~contract;
  check Gen.Paper_regen
    ([ "setup_s"; "wall_s"; "alloc_mb"; "peak_rss_mb"; "error_rate"; "runner.pool_efficiency"; "runner.idle_s" ]
    @ List.map (fun id -> "experiments." ^ id ^ ".s") Gen.smoke_experiments)
    ~contract:[]

let () =
  Alcotest.run "e2e"
    [
      ( "inputs",
        [
          Alcotest.test_case "configs round-trip through pp_spec" `Quick test_round_trip;
          Alcotest.test_case "inputs are a function of the seed" `Quick test_seeded;
        ] );
      ( "driver",
        [
          Alcotest.test_case "marker driver and builder copy match Host.run_for" `Quick
            test_driver_and_builder_match;
          Alcotest.test_case "traced build matches untraced" `Quick test_traced_build_matches;
        ] );
      ( "checks",
        [
          Alcotest.test_case "planted golden fails an operation" `Quick test_planted_golden;
          Alcotest.test_case "planted digest fails an operation" `Quick test_planted_digest;
        ] );
      ( "output",
        [
          Alcotest.test_case "BENCHMARK.json lists the contract metrics" `Quick test_benchmark_json;
          Alcotest.test_case "JSON names every metric" `Quick test_json_names;
        ] );
    ]
