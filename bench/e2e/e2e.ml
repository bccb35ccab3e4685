(* End-to-end benchmark of the simulator.

     e2e.exe [run] [--workload W|all] [--seed N] [--seconds S] [--trace 0|1|FILE]
             [--json FILE] [--dump-inputs DIR]
     e2e.exe --smoke

   Run from the repository root.  Without --workload it runs the
   workloads BENCHMARK.json lists; "all" adds paper-regen.  --seconds
   defaults to BENCHMARK.json's run_seconds.  --trace 1 adds a traced
   repetition; --trace FILE does too and writes its spans to FILE.  The
   last stdout line is one JSON object {correct, attempted, failed,
   metrics}: the end-to-end metrics BENCHMARK.json lists, or with tracing
   the per-layer ones; over several workloads each name is prefixed with
   its workload's.  Exit status 1 when any output check failed. *)

open E2e_bench

type opts = {
  workloads : Gen.workload list;
  seed : int;
  seconds : float;
  trace : bool;
  spans : string option;
  json : string option;
  dump : string option;
  smoke : bool;
}

let root = "."

let usage () =
  prerr_endline
    "usage: e2e.exe [run] [--workload paper-regen|xen-stock|dense-pas|cluster-churn|all] [--seed N]\n\
    \               [--seconds S] [--trace 0|1|FILE] [--json FILE] [--dump-inputs DIR]\n\
    \       e2e.exe --smoke";
  exit 2

let rec parse o = function
  | [] -> o
  | "run" :: rest -> parse o rest
  | "--smoke" :: rest -> parse { o with smoke = true } rest
  | "--workload" :: "all" :: rest -> parse { o with workloads = Gen.all } rest
  | "--workload" :: w :: rest -> (
      match Gen.of_name w with Some w -> parse { o with workloads = [ w ] } rest | None -> usage ())
  | "--seed" :: n :: rest -> (
      match int_of_string_opt n with Some seed -> parse { o with seed } rest | None -> usage ())
  | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some seconds when seconds >= 0.0 -> parse { o with seconds } rest
      | Some _ | None -> usage ())
  | "--trace" :: "0" :: rest -> parse { o with trace = false; spans = None } rest
  | "--trace" :: "1" :: rest -> parse { o with trace = true; spans = None } rest
  | "--trace" :: f :: rest -> parse { o with trace = true; spans = Some f } rest
  | "--json" :: f :: rest -> parse { o with json = Some f } rest
  | "--dump-inputs" :: d :: rest -> parse { o with dump = Some d } rest
  | _ -> usage ()

let write_file path contents = Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let dump_inputs dir workload input =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iteri
    (fun i text ->
      let path = Filename.concat dir (Printf.sprintf "%s-%02d.cfg" (Gen.name workload) i) in
      write_file path text;
      Printf.printf "wrote %s\n" path)
    (Gen.configs input)

let write_spans path workload (t : Run.rep) =
  let lines =
    List.rev_map
      (fun (s : Run.span) ->
        Printf.sprintf
          "{\"workload\": %S, \"unit\": %d, \"chunk\": %d, \"layer\": %S, \"calls\": %d, \"ns\": %d, \"words\": %d}\n"
          (Gen.name workload) s.unit_index s.chunk (Probe.layer_name s.layer) s.acc.calls s.acc.ns s.acc.words)
      t.spans
  in
  write_file path (String.concat "" lines);
  Printf.printf "wrote %d spans to %s\n" (List.length lines) path

(* FILE for one workload, FILE.<workload>.ext when a run covers several. *)
let file_for o path workload =
  match o.workloads with
  | [ _ ] -> path
  | _ -> Filename.remove_extension path ^ "." ^ Gen.name workload ^ Filename.extension path

let measure o workload =
  let size = if o.smoke then Gen.Smoke else Gen.Full in
  Option.iter (fun dir -> dump_inputs dir workload (Gen.generate workload size ~seed:o.seed)) o.dump;
  let outcome =
    Measure.workload ~root ~seed:o.seed ~size
      ~seconds:(if o.smoke then 0.0 else o.seconds)
      ~traced:(o.trace || o.smoke) workload
  in
  (match (o.spans, outcome.traced) with
  | Some path, Some t -> write_spans (file_for o path workload) workload t
  | _ -> ());
  Printf.printf "%s seed %d (%s): %d timed rep(s) [%s]%s, digest %s\n" (Gen.name workload) o.seed
    (Gen.size_name size) (List.length outcome.reps)
    (String.concat " " (List.map (fun (r : Run.rep) -> Printf.sprintf "%.3fs" r.wall_s) outcome.reps))
    (if Option.is_some outcome.traced then " + 1 traced" else "")
    (match outcome.reps with r :: _ -> Run.digest r | [] -> "-");
  outcome

(* Sum of calls x net ns per layer, next to the measured chunk time. *)
let print_breakdown workload (metrics : Metrics.t list) =
  let value name =
    Option.map (fun (x : Metrics.t) -> x.value) (List.find_opt (fun (x : Metrics.t) -> String.equal x.name name) metrics)
  in
  match value "trace.measured_chunk_s" with
  | None -> ()
  | Some measured ->
      let v name = Option.value (value name) ~default:Float.nan in
      Printf.printf "predicted vs measured chunk time (%s):\n" (Gen.name workload);
      List.iter
        (fun layer ->
          let name = Probe.layer_name layer in
          let calls = v (name ^ ".calls") and ns = v (name ^ ".ns") in
          Printf.printf "  %-20s %11.0f calls x %8.1f ns = %8.4f s\n" name calls ns (calls *. ns /. 1e9))
        (Metrics.layer_set workload);
      Printf.printf "  %-20s %48.4f s\n" "engine.self_s" (v "engine.self_s");
      Printf.printf "  %-20s %48.4f s (residual)\n" "hypervisor.self_s" (v "hypervisor.self_s");
      Printf.printf "  measured (untraced) %49.4f s\n" measured;
      Printf.printf "  wrapped layers + engine account for %.1f %% of it\n" (100.0 *. v "trace.coverage");
      Printf.printf "  traced chunks less calibrated wrapper cost: %.4f s\n" (v "trace.traced_chunk_s");
      Printf.printf "  tracing overhead: %.1f %% of wall\n" (100.0 *. v "trace.overhead")

(* Prints one workload's metrics and returns the ones its JSON line
   carries. *)
let report o workload (outcome : Measure.outcome) =
  List.iter (fun f -> Printf.eprintf "FAILED %s: %s\n" (Gen.name workload) f) outcome.failures;
  List.iter (fun x -> Format.printf "%a@." Metrics.pp x) outcome.metrics;
  print_breakdown workload outcome.metrics;
  Option.iter
    (fun path ->
      write_file (file_for o path workload)
        (Metrics.report_json ~workload ~seed:o.seed ~attempted:outcome.attempted ~failed:outcome.failed
           ~failures:outcome.failures outcome.metrics))
    o.json;
  let names =
    match workload with
    | Gen.Paper_regen ->
        List.filter_map
          (fun (x : Metrics.t) ->
            if (x.tier = Metrics.Per_layer) = o.trace && x.tier <> Metrics.Diagnostic then Some x.name else None)
          outcome.metrics
    | Gen.Xen_stock | Gen.Dense_pas | Gen.Cluster_churn ->
        if o.trace then Metrics.contract_per_layer else Metrics.contract_end_to_end
  in
  Metrics.select names outcome.metrics

let () =
  let o =
    parse
      {
        workloads = Gen.listed;
        seed = Gen.default_seed;
        seconds = float_of_int Measure.default_seconds;
        trace = false;
        spans = None;
        json = None;
        dump = None;
        smoke = false;
      }
      (List.tl (Array.to_list Sys.argv))
  in
  let ok =
    if o.smoke then
      List.for_all Fun.id
        (List.map
           (fun w ->
             let outcome : Measure.outcome = measure o w in
             List.iter (fun f -> Printf.eprintf "FAILED %s: %s\n" (Gen.name w) f) outcome.failures;
             outcome.failed = 0)
           Gen.all)
    else
      (* Each workload in a child of its own, which returns only its
         summary: the repetitions' processes it forks then start from the
         same small process whichever workloads ran before, and so report
         the same peak RSS. *)
      let results =
        List.map
          (fun w ->
            match
              Measure.in_child (fun () ->
                  let outcome = measure o w in
                  (outcome.attempted, outcome.failed, report o w outcome))
            with
            | Some (attempted, failed, listed) -> (w, attempted, failed, listed)
            | None ->
                Printf.eprintf "FAILED %s: its process died\n" (Gen.name w);
                (w, 1, 1, []))
          o.workloads
      in
      let attempted = List.fold_left (fun acc (_, a, _, _) -> acc + a) 0 results in
      let failed = List.fold_left (fun acc (_, _, f, _) -> acc + f) 0 results in
      let metrics =
        match results with
        | [ (_, _, _, listed) ] -> listed
        | _ ->
            List.concat_map
              (fun (w, _, failed, listed) ->
                Printf.eprintf "%-14s %s\n" (Gen.name w) (if failed = 0 then "ok" else "FAILED");
                List.map (fun (x : Metrics.t) -> { x with name = Gen.name w ^ "." ^ x.name }) listed)
              results
      in
      print_endline (Metrics.contract_line metrics ~attempted ~failed);
      failed = 0
  in
  exit (if ok then 0 else 1)
