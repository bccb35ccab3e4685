(* Reader and differ for the BENCH_*.json trajectory manifests, read
   through {!Json}. *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let json_of_string text =
  match Json.parse text with Ok v -> v | Error e -> raise (Parse_error (Json.error_to_string e))

(* ------------------------------------------------------------------ *)
(* Manifest extraction *)

type experiment = {
  id : string;
  status : string;
  seconds : float;
  alloc_mb : float;
  minor_words : float; (* 0 in schema /1 manifests *)
  major_words : float; (* 0 in schema /1 manifests *)
  rows : int;
}

type t = {
  schema : string;
  scale : float;
  jobs : int;
  host_domains : int;
  total_seconds : float;
  analyze_seconds : float; (* 0 when the manifest has no analyzer timing *)
  experiments : experiment list;
}

let str_field ?default obj key =
  match (Json.member key obj, default) with
  | Some (Json.Str s), _ -> s
  | Some _, _ -> parse_error "field %S is not a string" key
  | None, Some d -> d
  | None, None -> parse_error "missing field %S" key

let num_field ?default obj key =
  match (Json.member key obj, default) with
  | Some (Json.Num f), _ -> f
  | Some _, _ -> parse_error "field %S is not a number" key
  | None, Some d -> d
  | None, None -> parse_error "missing field %S" key

let supported_schemas = [ "dvfs-bench-manifest/1"; "dvfs-bench-manifest/2" ]

let of_string text =
  let root = json_of_string text in
  let schema = str_field root "schema" in
  if not (List.mem schema supported_schemas) then
    parse_error "unsupported schema %S (expected one of: %s)" schema
      (String.concat ", " supported_schemas);
  let experiments =
    match Json.member "experiments" root with
    | Some (Json.Arr items) ->
        List.map
          (fun item ->
            {
              id = str_field item "id";
              status = str_field item "status";
              seconds = num_field item "seconds";
              (* Manifests written before the runner stopped recording a
                 per-experiment "cpu_seconds" (a process-wide CPU-clock
                 delta, so wrong under the pool) still carry it; it is
                 ignored. *)
              alloc_mb = num_field item "alloc_mb";
              (* Schema /1 predates the word counters; read them as 0 so
                 old trajectory files stay loadable. *)
              minor_words = num_field ~default:0.0 item "minor_words";
              major_words = num_field ~default:0.0 item "major_words";
              rows = int_of_float (num_field ~default:0.0 item "rows");
            })
          items
    | Some _ -> parse_error "field \"experiments\" is not an array"
    | None -> parse_error "missing field \"experiments\""
  in
  {
    schema;
    scale = num_field ~default:1.0 root "scale";
    jobs = int_of_float (num_field ~default:1.0 root "jobs");
    host_domains = int_of_float (num_field ~default:1.0 root "host_domains");
    total_seconds = num_field ~default:0.0 root "total_seconds";
    (* Optional in both schemas: a manifest written without @analyze
       timing (older trajectory files, manual runs) loads as 0. *)
    analyze_seconds = num_field ~default:0.0 root "analyze_seconds";
    experiments;
  }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load path = of_string (read_file path)

(* The analyzer timing side-file written by [analyze_main --timing]. *)
let read_analyze_timing path =
  let root = json_of_string (read_file path) in
  let schema = str_field root "schema" in
  if not (String.equal schema "dvfs-analyze-timing/1") then
    parse_error "unsupported analyze-timing schema %S" schema;
  num_field root "analyze_seconds"

let total_alloc_mb t =
  List.fold_left (fun acc e -> acc +. e.alloc_mb) 0.0 t.experiments

(* ------------------------------------------------------------------ *)
(* Regression diff *)

type regression = {
  exp_id : string;
  metric : string;
  baseline : float;
  current : float;
  ratio : float;
}

(* Below these floors a metric is dominated by measurement noise and is
   not worth gating on. *)
let seconds_floor = 0.05
let alloc_floor_mb = 1.0

let diff ?(tolerance = 1.5) ~baseline ~current () =
  if not (tolerance >= 1.0) then invalid_arg "Manifest.diff: tolerance must be >= 1.0";
  let regressions = ref [] in
  let check exp_id metric ~floor ~old_v ~new_v =
    if old_v > floor && new_v > old_v *. tolerance then
      regressions :=
        { exp_id; metric; baseline = old_v; current = new_v; ratio = new_v /. old_v }
        :: !regressions
  in
  check "(total)" "total_seconds" ~floor:seconds_floor ~old_v:baseline.total_seconds
    ~new_v:current.total_seconds;
  check "(total)" "analyze_seconds" ~floor:seconds_floor
    ~old_v:baseline.analyze_seconds ~new_v:current.analyze_seconds;
  List.iter
    (fun (b : experiment) ->
      match List.find_opt (fun e -> String.equal e.id b.id) current.experiments with
      | None -> ()
      | Some c ->
          if String.equal b.status "ok" && String.equal c.status "ok" then begin
            check b.id "seconds" ~floor:seconds_floor ~old_v:b.seconds ~new_v:c.seconds;
            check b.id "alloc_mb" ~floor:alloc_floor_mb ~old_v:b.alloc_mb ~new_v:c.alloc_mb
          end)
    baseline.experiments;
  List.rev !regressions

let pp_regression ppf r =
  Format.fprintf ppf "%s %s: %.3f -> %.3f (%.2fx)" r.exp_id r.metric r.baseline r.current
    r.ratio
