module Domain = Hypervisor.Domain
module Host = Hypervisor.Host
module Processor = Cpu_model.Processor

type workload_spec =
  | Idle
  | Busy
  | Web of {
      rate : float;
      from_s : float option;
      until_s : float option;
      timeout_s : float;
      request_work : float;
    }
  | Pi of { work : float; duty : float }

type domain_spec = {
  name : string;
  credit : float;
  weight : int;
  dom0 : bool;
  vcpus : int;
  workload : workload_spec;
}

type sched_spec = Credit | Sedf | Credit2 | Pas_sched
type gov_spec = Performance | Powersave | Ondemand | Stable | Conservative | No_governor

type t = {
  arch : Cpu_model.Arch.t;
  scheduler : sched_spec;
  governor : gov_spec;
  duration_s : float;
  domains : domain_spec list;
}

(* ------------------------------------------------------------------ *)
(* Parsing *)

let ( let* ) = Result.bind

(* The CLI and config names, each spelled once; parsing and printing both
   read these tables, and a value's first name is the one printed. *)
let schedulers = [ ("credit", Credit); ("sedf", Sedf); ("credit2", Credit2); ("pas", Pas_sched) ]

let governors =
  [
    ("performance", Performance);
    ("powersave", Powersave);
    ("ondemand", Ondemand);
    ("stable", Stable);
    ("stable-ondemand", Stable);
    ("conservative", Conservative);
    ("none", No_governor);
  ]

let name_in table v = fst (List.find (fun (_, x) -> x = v) table)
let sched_name = name_in schedulers
let gov_name = name_in governors

(* Times are whole microseconds; capping every time key keeps the
   conversion far from overflow, and is also an open window's end. *)
let max_seconds = 1e9

(* The active window of a phased web workload as [build] schedules it:
   the start is at least 1 us, an open end is [max_seconds]. *)
let active_window from_s until_s =
  ( Sim_time.max (Sim_time.of_us 1) (Sim_time.of_sec_f (Option.value from_s ~default:0.0)),
    Sim_time.of_sec_f (Option.value until_s ~default:max_seconds) )

let fail lineno fmt = Printf.ksprintf (fun msg -> Error (Printf.sprintf "line %d: %s" lineno msg)) fmt

let split_pairs lineno tokens =
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | token :: rest -> (
        match String.index_opt token '=' with
        | Some i when i > 0 ->
            let key = String.sub token 0 i in
            let value = String.sub token (i + 1) (String.length token - i - 1) in
            loop ((key, value) :: acc) rest
        | Some _ | None -> fail lineno "expected key=value, got %S" token)
  in
  loop [] tokens

(* String keys are compared with [String.equal]: [List.assoc_opt] and
   [List.mem] would call the polymorphic compare, a C call per key, on
   every lookup of a parse. *)
let rec assoc key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else assoc key rest

let rec mem key = function [] -> false | k :: rest -> String.equal k key || mem key rest

let lookup pairs key = assoc key pairs

(* A finite number for which [ok] holds, else a range error naming what
   the key accepts: [build] must never see a value its constructors
   reject. *)
let float_in lineno key ~what ok value =
  match float_of_string_opt value with
  | None -> fail lineno "key %s: %S is not a number" key value
  | Some f when Float.is_finite f && ok f -> Ok f
  | Some _ -> fail lineno "key %s: %S is out of range (allowed: %s)" key value what

let int_in lineno key ~what ok value =
  match int_of_string_opt value with
  | None -> fail lineno "key %s: %S is not an integer" key value
  | Some i when ok i -> Ok i
  | Some _ -> fail lineno "key %s: %S is out of range (allowed: %s)" key value what

let seconds lineno key =
  float_in lineno key ~what:"[0, 1e9] s" (fun s -> s >= 0.0 && s <= max_seconds)
let positive lineno key = float_in lineno key ~what:"> 0" (fun x -> x > 0.0)

let bool_of lineno key value =
  match String.lowercase_ascii value with
  | "true" | "yes" | "1" -> Ok true
  | "false" | "no" | "0" -> Ok false
  | _ -> fail lineno "key %s: %S is not a boolean" key value

let opt_default parse default = function None -> Ok default | Some v -> parse v
let opt_map parse = function None -> Ok None | Some v -> Result.map Option.some (parse v)

let required lineno what parse = function
  | Some v -> parse v
  | None -> fail lineno "%s" what

let check_known lineno allowed pairs =
  match List.find_opt (fun (k, _) -> not (mem k allowed)) pairs with
  | Some (k, _) -> fail lineno "unknown key %S (allowed: %s)" k (String.concat ", " allowed)
  | None -> Ok ()

let arch_of lineno value =
  (* Tokens cannot contain spaces, so underscores stand for them in full
     catalog names (pp_spec prints that form). *)
  let despaced = String.map (function '_' -> ' ' | c -> c) value in
  let shorthand =
    match String.lowercase_ascii value with
    | "optiplex-755" | "optiplex" -> Some Cpu_model.Arch.optiplex_755
    | "elite-8300" | "i7-3770" -> Some Cpu_model.Arch.elite_8300
    | _ -> ( match Cpu_model.Arch.find value with
             | Some a -> Some a
             | None -> Cpu_model.Arch.find despaced)
  in
  match shorthand with
  | Some a -> Ok a
  | None -> fail lineno "unknown architecture %S" value

let of_name lineno what table value =
  match assoc (String.lowercase_ascii value) table with
  | Some v -> Ok v
  | None -> fail lineno "unknown %s %S" what value

let parse_host lineno pairs host =
  let* () =
    check_known lineno [ "arch"; "scheduler"; "governor"; "duration" ] pairs
  in
  let* arch = opt_default (arch_of lineno) host.arch (lookup pairs "arch") in
  let* scheduler =
    opt_default (of_name lineno "scheduler" schedulers) host.scheduler (lookup pairs "scheduler")
  in
  let* governor =
    opt_default (of_name lineno "governor" governors) host.governor (lookup pairs "governor")
  in
  let* duration_s =
    opt_default
      (float_in lineno "duration" ~what:"(0, 1e9] s" (fun s ->
           s > 0.0 && s <= max_seconds))
      host.duration_s (lookup pairs "duration")
  in
  Ok { host with arch; scheduler; governor; duration_s }

let parse_workload lineno pairs =
  match Option.map String.lowercase_ascii (lookup pairs "workload") with
  | None | Some "idle" -> Ok Idle
  | Some "busy" -> Ok Busy
  | Some "web" ->
      let* rate =
        required lineno "web workload requires rate="
          (float_in lineno "rate" ~what:">= 0" (fun r -> r >= 0.0))
          (lookup pairs "rate")
      in
      let* from_s = opt_map (seconds lineno "from") (lookup pairs "from") in
      let* until_s = opt_map (seconds lineno "until") (lookup pairs "until") in
      let* () =
        match (from_s, until_s) with
        | None, None -> Ok ()
        | _ ->
            let lo, hi = active_window from_s until_s in
            if Sim_time.compare lo hi < 0 then Ok ()
            else fail lineno "empty active window: until must come after from (and after 1 us)"
      in
      let* timeout_s =
        opt_default
          (float_in lineno "timeout" ~what:"[1e-6, 1e9] s" (fun s -> s >= 1e-6 && s <= max_seconds))
          10.0 (lookup pairs "timeout")
      in
      let* request_work =
        opt_default (positive lineno "request_work") 0.005 (lookup pairs "request_work")
      in
      Ok (Web { rate; from_s; until_s; timeout_s; request_work })
  | Some "pi" ->
      let* work =
        required lineno "pi workload requires work=" (positive lineno "work") (lookup pairs "work")
      in
      let* duty =
        opt_default
          (float_in lineno "duty" ~what:"(0, 1]" (fun d -> d > 0.0 && d <= 1.0))
          1.0 (lookup pairs "duty")
      in
      Ok (Pi { work; duty })
  | Some other -> fail lineno "unknown workload %S" other

let parse_domain lineno pairs =
  let* () =
    check_known lineno
      [ "name"; "credit"; "weight"; "dom0"; "vcpus"; "workload"; "rate"; "from"; "until";
        "timeout"; "request_work"; "work"; "duty" ]
      pairs
  in
  let* name = required lineno "domain requires name=" Result.ok (lookup pairs "name") in
  let* credit =
    required lineno "domain requires credit="
      (float_in lineno "credit" ~what:"[0, 100]" (fun c -> c >= 0.0 && c <= 100.0))
      (lookup pairs "credit")
  in
  let at_least_one key = int_in lineno key ~what:">= 1" (fun i -> i >= 1) in
  let* weight = opt_default (at_least_one "weight") 256 (lookup pairs "weight") in
  let* dom0 = opt_default (bool_of lineno "dom0") false (lookup pairs "dom0") in
  let* vcpus = opt_default (at_least_one "vcpus") 1 (lookup pairs "vcpus") in
  let* workload = parse_workload lineno pairs in
  Ok { name; credit; weight; dom0; vcpus; workload }

let default_host =
  {
    arch = Cpu_model.Arch.optiplex_755;
    scheduler = Credit;
    governor = Stable;
    duration_s = 600.0;
    domains = [];
  }

let rec named name = function
  | [] -> false
  | (d : domain_spec) :: rest -> String.equal d.name name || named name rest

let parse text =
  let rec loop lineno host domains = function
    | [] -> (
        match domains with
        | [] -> fail (lineno - 1) "no domain directives found"
        | _ -> Ok { host with domains = List.rev domains })
    | line :: rest -> (
        let line = match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let tokens =
          String.split_on_char ' ' (String.trim line)
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun s -> s <> "")
        in
        match tokens with
        | [] -> loop (lineno + 1) host domains rest
        | "host" :: pairs_tokens ->
            let* pairs = split_pairs lineno pairs_tokens in
            let* host = parse_host lineno pairs host in
            loop (lineno + 1) host domains rest
        | "domain" :: pairs_tokens ->
            let* pairs = split_pairs lineno pairs_tokens in
            let* dom = parse_domain lineno pairs in
            if named dom.name domains then
              fail lineno "duplicate domain name %S" dom.name
            else loop (lineno + 1) host (dom :: domains) rest
        | directive :: _ -> fail lineno "unknown directive %S" directive)
  in
  loop 1 default_host [] (String.split_on_char '\n' text)

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Building *)

type app = App_none | App_web of Workloads.Web_app.t | App_pi of Workloads.Pi_app.t

type built = {
  sim : Simulator.t;
  host : Hypervisor.Host.t;
  domains : (domain_spec * Hypervisor.Domain.t * app) list;
  pas : Pas.Pas_sched.t option;
  duration : Sim_time.t;
}

let build_workload spec =
  match spec.workload with
  | Idle -> (Workloads.Workload.idle (), App_none)
  | Busy -> (Workloads.Workload.busy_loop (), App_none)
  | Web { rate; from_s; until_s; timeout_s; request_work } ->
      let schedule =
        match (from_s, until_s) with
        | None, None -> Workloads.Phases.constant ~rate
        | from_s, until_s ->
            let active_from, active_until = active_window from_s until_s in
            Workloads.Phases.three_phase ~active_from ~active_until ~rate
      in
      let app =
        Workloads.Web_app.create ~request_work ~timeout:(Sim_time.of_sec_f timeout_s)
          ~rate_schedule:schedule ()
      in
      (Workloads.Web_app.workload app, App_web app)
  | Pi { work; duty } ->
      let app = Workloads.Pi_app.create ~duty_cycle:duty ~work () in
      (Workloads.Pi_app.workload app, App_pi app)

let build ?(wrap = Fun.id) t =
  let sim = Simulator.create () in
  let processor = Processor.create t.arch in
  let domains =
    List.map
      (fun spec ->
        let workload, app = build_workload spec in
        ( spec,
          Domain.create ~weight:spec.weight ~is_dom0:spec.dom0 ~vcpus:spec.vcpus
            ~name:spec.name ~credit_pct:spec.credit (wrap workload),
          app ))
      t.domains
  in
  let plain = List.map (fun (_, d, _) -> d) domains in
  let scheduler, pas =
    match t.scheduler with
    | Credit -> (Sched_credit.create plain, None)
    | Sedf -> (Sched_sedf.create plain, None)
    | Credit2 -> (Sched_credit2.create plain, None)
    | Pas_sched ->
        let p = Pas.Pas_sched.create ~processor plain in
        (Pas.Pas_sched.scheduler p, Some p)
  in
  let governor =
    match t.governor with
    | Performance -> Some (Governors.Governor.performance processor)
    | Powersave -> Some (Governors.Governor.powersave processor)
    | Ondemand -> Some (Governors.Ondemand.create processor)
    | Stable -> Some (Governors.Stable_ondemand.create processor)
    | Conservative -> Some (Governors.Conservative.create processor)
    | No_governor -> None
  in
  let host = Host.create ~sim ~processor ~scheduler ?governor () in
  { sim; host; domains; pas; duration = Sim_time.of_sec_f t.duration_s }

(* ------------------------------------------------------------------ *)
(* Printing *)

(* Floats print so that they read back exactly (see Json.float_to_string). *)
let pp_float ppf f = Format.pp_print_string ppf (Json.float_to_string f)

let pp_workload ppf = function
  | Idle -> Format.fprintf ppf "workload=idle"
  | Busy -> Format.fprintf ppf "workload=busy"
  | Web { rate; from_s; until_s; timeout_s; request_work } ->
      Format.fprintf ppf "workload=web rate=%a" pp_float rate;
      Option.iter (Format.fprintf ppf " from=%a" pp_float) from_s;
      Option.iter (Format.fprintf ppf " until=%a" pp_float) until_s;
      Format.fprintf ppf " timeout=%a request_work=%a" pp_float timeout_s pp_float request_work
  | Pi { work; duty } ->
      Format.fprintf ppf "workload=pi work=%a duty=%a" pp_float work pp_float duty

let pp_spec ppf t =
  let arch_token = String.map (function ' ' -> '_' | c -> c) t.arch.Cpu_model.Arch.name in
  Format.fprintf ppf "host arch=%s scheduler=%s governor=%s duration=%a@."
    arch_token (sched_name t.scheduler) (gov_name t.governor) pp_float t.duration_s;
  List.iter
    (fun d ->
      Format.fprintf ppf "domain name=%s credit=%a weight=%d%s vcpus=%d %a@." d.name pp_float
        d.credit d.weight
        (if d.dom0 then " dom0=true" else "")
        d.vcpus pp_workload d.workload)
    t.domains

(* ------------------------------------------------------------------ *)
(* Host-environment reads, once at startup.

   Domconfig is the blessed config loader: the determinism effect pass
   lets it read the host so nothing simulation-reachable has to.  Both
   values are captured at module initialization — before any worker
   domain spawns — so the pool sizing of a run is a constant of that
   run, not a per-call environment read. *)

let jobs_env_var = "DVFS_JOBS"
let jobs_env_raw = Sys.getenv_opt jobs_env_var
let machine_domain_count = Stdlib.Domain.recommended_domain_count ()

let default_jobs () =
  match jobs_env_raw with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf "Runner: %s must be a positive integer, got %S" jobs_env_var s))
  | None -> machine_domain_count
