(* Reader and differ for the BENCH_*.json trajectory manifests.

   The writer ({!Runner.manifest_json}) emits a deliberately flat schema,
   so a small hand-rolled JSON parser keeps the repo dependency-free.  The
   parser handles the full JSON value grammar (minus \u surrogate pairs,
   decoded as '?') — enough for any manifest plus headroom for schema
   growth. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type cursor = { text : string; mutable pos : int }

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.text
    && match c.text.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> parse_error "expected %c at offset %d, found %c" ch c.pos x
  | None -> parse_error "expected %c at offset %d, found end of input" ch c.pos

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else parse_error "invalid literal at offset %d" c.pos

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    if c.pos >= String.length c.text then parse_error "unterminated string";
    let ch = c.text.[c.pos] in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> Buffer.contents buf
    | '\\' -> (
        if c.pos >= String.length c.text then parse_error "unterminated escape";
        let esc = c.text.[c.pos] in
        c.pos <- c.pos + 1;
        (match esc with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
            if c.pos + 4 > String.length c.text then parse_error "truncated \\u escape";
            let hex = String.sub c.text c.pos 4 in
            c.pos <- c.pos + 4;
            let code =
              match int_of_string_opt ("0x" ^ hex) with
              | Some v -> v
              | None -> parse_error "bad \\u escape %S" hex
            in
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else Buffer.add_char buf '?'
        | _ -> parse_error "bad escape \\%c" esc);
        loop ())
    | ch -> Buffer.add_char buf ch; loop ()
  in
  loop ()

let parse_number c =
  let start = c.pos in
  let numeric ch =
    match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while c.pos < String.length c.text && numeric c.text.[c.pos] do
    c.pos <- c.pos + 1
  done;
  let s = String.sub c.text start (c.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> parse_error "bad number %S at offset %d" s start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> parse_error "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
      expect c '{';
      skip_ws c;
      if peek c = Some '}' then begin expect c '}'; Obj [] end
      else begin
        let rec members acc =
          skip_ws c;
          let key = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' -> expect c ','; members ((key, v) :: acc)
          | Some '}' -> expect c '}'; Obj (List.rev ((key, v) :: acc))
          | _ -> parse_error "expected , or } at offset %d" c.pos
        in
        members []
      end
  | Some '[' ->
      expect c '[';
      skip_ws c;
      if peek c = Some ']' then begin expect c ']'; Arr [] end
      else begin
        let rec elements acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' -> expect c ','; elements (v :: acc)
          | Some ']' -> expect c ']'; Arr (List.rev (v :: acc))
          | _ -> parse_error "expected , or ] at offset %d" c.pos
        in
        elements []
      end
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let parse_json text =
  let c = { text; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length text then parse_error "trailing input at offset %d" c.pos;
  v

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

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let str_field ?default obj key =
  match (member key obj, default) with
  | Some (Str s), _ -> s
  | Some _, _ -> parse_error "field %S is not a string" key
  | None, Some d -> d
  | None, None -> parse_error "missing field %S" key

let num_field ?default obj key =
  match (member key obj, default) with
  | Some (Num f), _ -> f
  | Some _, _ -> parse_error "field %S is not a number" key
  | None, Some d -> d
  | None, None -> parse_error "missing field %S" key

let supported_schemas = [ "dvfs-bench-manifest/1"; "dvfs-bench-manifest/2" ]

let of_string text =
  let root = parse_json text in
  let schema = str_field root "schema" in
  if not (List.mem schema supported_schemas) then
    parse_error "unsupported schema %S (expected one of: %s)" schema
      (String.concat ", " supported_schemas);
  let experiments =
    match member "experiments" root with
    | Some (Arr items) ->
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

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

(* The analyzer timing side-file written by [analyze_main --timing]. *)
let read_analyze_timing path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let root = parse_json text in
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
