(* Tests for the xl.cfg-style configuration parser and builder. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float_eps eps = Alcotest.(check (float eps))

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected parse error: %s" msg

let err = function
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error msg -> msg

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1)) in
  nn = 0 || loop 0

let sample =
  {|
# a comment
host arch=optiplex-755 scheduler=pas governor=none duration=120

domain name=Dom0 credit=10 dom0=true workload=idle
domain name=V20  credit=20 workload=web rate=0.2 from=10 until=100
domain name=V70  credit=70 workload=pi work=5 duty=0.5
|}

let parse_full_config () =
  let cfg = ok (Domconfig.parse sample) in
  check_int "three domains" 3 (List.length cfg.Domconfig.domains);
  check_bool "pas scheduler" true (cfg.Domconfig.scheduler = Domconfig.Pas_sched);
  check_bool "no governor" true (cfg.Domconfig.governor = Domconfig.No_governor);
  check_float_eps 1e-9 "duration" 120.0 cfg.Domconfig.duration_s;
  let v70 = List.nth cfg.Domconfig.domains 2 in
  check_bool "pi workload" true
    (match v70.Domconfig.workload with Domconfig.Pi { work = 5.0; duty = 0.5 } -> true | _ -> false)

let parse_defaults () =
  let cfg = ok (Domconfig.parse "domain name=a credit=50") in
  check_bool "default scheduler credit" true (cfg.Domconfig.scheduler = Domconfig.Credit);
  check_bool "default governor stable" true (cfg.Domconfig.governor = Domconfig.Stable);
  let d = List.hd cfg.Domconfig.domains in
  check_int "default weight" 256 d.Domconfig.weight;
  check_int "default vcpus" 1 d.Domconfig.vcpus;
  check_bool "default workload idle" true (d.Domconfig.workload = Domconfig.Idle)

let error_cases () =
  let check_error name input fragment =
    let msg = err (Domconfig.parse input) in
    check_bool (name ^ ": " ^ msg) true (contains msg fragment)
  in
  check_error "empty" "" "no domain";
  check_error "bad directive" "frobnicate name=x" "unknown directive";
  check_error "bad pair" "domain name" "key=value";
  check_error "unknown key" "domain name=a credit=10 colour=red" "unknown key";
  check_error "missing name" "domain credit=10" "requires name";
  check_error "missing credit" "domain name=a" "requires credit";
  check_error "bad number" "domain name=a credit=lots" "not a number";
  check_error "bad scheduler" "host scheduler=cfs\ndomain name=a credit=1" "unknown scheduler";
  check_error "bad governor" "host governor=warp\ndomain name=a credit=1" "unknown governor";
  check_error "bad arch" "host arch=z80\ndomain name=a credit=1" "unknown architecture";
  check_error "duplicate domain" "domain name=a credit=1\ndomain name=a credit=2" "duplicate";
  check_error "duplicate at its second line"
    "domain name=a credit=1\ndomain name=b credit=1\n\ndomain name=a credit=2"
    "line 4: duplicate domain name \"a\"";
  check_error "web needs rate" "domain name=a credit=1 workload=web" "requires rate";
  check_error "pi needs work" "domain name=a credit=1 workload=pi" "requires work";
  check_error "bad duration" "host duration=-5\ndomain name=a credit=1" "duration";
  check_error "empty config is located" "# only\n\n" "line 3: no domain"

(* Every value [build] would reject is refused at its line. *)
let range_errors () =
  List.iter
    (fun (line, key) ->
      let msg = err (Domconfig.parse ("domain name=ok credit=1\n" ^ line)) in
      let expected =
        if key = "window" then "line 2: empty active window" else "line 2: key " ^ key
      in
      check_bool (line ^ ": " ^ msg) true (contains msg expected))
    [
      ("domain name=a credit=nan", "credit");
      ("domain name=a credit=100.5", "credit");
      ("domain name=a credit=-1", "credit");
      ("domain name=a credit=1 weight=0", "weight");
      ("domain name=a credit=1 vcpus=0", "vcpus");
      ("domain name=a credit=1 workload=web rate=-1", "rate");
      ("domain name=a credit=1 workload=web rate=inf", "rate");
      ("domain name=a credit=1 workload=web rate=1 from=-5", "from");
      ("domain name=a credit=1 workload=web rate=1 until=1e300", "until");
      ("domain name=a credit=1 workload=web rate=1 from=20 until=10", "window");
      ("domain name=a credit=1 workload=web rate=1 until=0", "window");
      ("domain name=a credit=1 workload=web rate=1 timeout=0", "timeout");
      ("domain name=a credit=1 workload=web rate=1 request_work=0", "request_work");
      ("domain name=a credit=1 workload=pi work=0", "work");
      ("domain name=a credit=1 workload=pi work=1 duty=0", "duty");
      ("domain name=a credit=1 workload=pi work=1 duty=1.5", "duty");
      ("host duration=nan", "duration");
      ("host duration=2e9", "duration");
    ]

let error_line_numbers () =
  let msg = err (Domconfig.parse "domain name=a credit=1\n\ndomain name=b credit=oops") in
  check_bool "points at line 3" true (contains msg "line 3")

let roundtrip_pp () =
  let cfg = ok (Domconfig.parse sample) in
  let rendered = Format.asprintf "%a" Domconfig.pp_spec cfg in
  let reparsed = ok (Domconfig.parse rendered) in
  check_int "same domain count" (List.length cfg.Domconfig.domains)
    (List.length reparsed.Domconfig.domains);
  check_bool "same scheduler" true (reparsed.Domconfig.scheduler = cfg.Domconfig.scheduler);
  let cfg =
    ok (Domconfig.parse "domain name=a credit=33.333333333333336 workload=web rate=0.1234567")
  in
  let rendered = Format.asprintf "%a" Domconfig.pp_spec cfg in
  check_bool ("floats print exactly: " ^ rendered) true
    (contains rendered "credit=33.333333333333336 " && contains rendered "rate=0.1234567 ");
  check_bool "and short where they can" true (contains rendered "duration=600\n")

(* The paper's scenario is a plain configuration: it prints, parses back
   unchanged and therefore replays under experiments_main xl. *)
let scenario_config () =
  let spec = Experiments.Scenario.spec ~sched:Domconfig.Pas_sched ~load:Thrashing ~scale:0.1 () in
  let cfg = Experiments.Scenario.config spec in
  let again = ok (Domconfig.parse (Format.asprintf "%a" Domconfig.pp_spec cfg)) in
  check_bool "same domains" true (again.Domconfig.domains = cfg.Domconfig.domains);
  check_bool "same scheduler" true (again.Domconfig.scheduler = Domconfig.Pas_sched);
  check_float_eps 0.0 "same duration" cfg.Domconfig.duration_s again.Domconfig.duration_s

let build_and_run () =
  let cfg = ok (Domconfig.parse sample) in
  let built = Domconfig.build cfg in
  Hypervisor.Host.run_for built.Domconfig.host built.Domconfig.duration;
  check_bool "pas exposed" true (built.Domconfig.pas <> None);
  let _, v20, _ =
    List.find (fun (s, _, _) -> s.Domconfig.name = "V20") built.Domconfig.domains
  in
  (* Active 90 s at 0.2 abs/s on a PAS host: 18 abs-seconds of work run
     under compensation -> ~90 s of wall-clock at 20% absolute. *)
  check_bool "V20 ran" true (Sim_time.to_sec (Hypervisor.Domain.cpu_time v20) > 20.0);
  let _, _, pi_app =
    List.find (fun (s, _, _) -> s.Domconfig.name = "V70") built.Domconfig.domains
  in
  match pi_app with
  | Domconfig.App_pi pi -> check_bool "pi finished" true (Workloads.Pi_app.finished pi)
  | _ -> Alcotest.fail "expected a pi handle"

let parse_file_missing () =
  match Domconfig.parse_file "/nonexistent/path.cfg" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error _ -> ()

(* Deferral at the host level: one random scenario built twice, plainly
   and with every workload wrapped for every-tick advance
   ({!Every_tick.wrap}, which also keeps Credit polling each guest), must
   run identically — every series, the energy to the bit, each domain's
   CPU time and each application's counters. *)
let random_scenario seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n and chance p = Random.State.float rng 1.0 < p in
  let pick l = List.nth l (int (List.length l)) in
  let buf = Buffer.create 512 in
  let duration = 4 + int 10 in
  Printf.bprintf buf "host arch=%s scheduler=%s governor=%s duration=%d\n"
    (pick [ "optiplex-755"; "elite-8300" ])
    (pick [ "credit"; "credit"; "pas"; "pas"; "sedf"; "credit2" ])
    (pick [ "none"; "ondemand"; "stable"; "conservative"; "performance" ])
    duration;
  Buffer.add_string buf "domain name=Dom0 credit=10 dom0=true workload=idle\n";
  for i = 0 to int 9 do
    let credit = 1 + int 10 in
    Printf.bprintf buf "domain name=G%d credit=%d " i credit;
    (match int 5 with
    | 0 | 1 ->
        Printf.bprintf buf "workload=web rate=%g timeout=%g request_work=%g"
          (float_of_int credit /. 100.0 *. (0.2 +. (0.1 *. float_of_int (int 30))))
          (pick [ 0.05; 0.3; 2.0; 10.0 ])
          (pick [ 0.001; 0.005; 0.0123 ]);
        if chance 0.6 then begin
          let from = int duration in
          Printf.bprintf buf " from=%d until=%d" from (from + 1 + int duration)
        end
    | 2 | 3 ->
        Printf.bprintf buf "workload=pi work=%g duty=%g"
          (0.01 *. float_of_int (1 + int 100))
          (0.05 *. float_of_int (1 + int 20))
    | _ -> Buffer.add_string buf (if chance 0.5 then "workload=idle" else "workload=busy"));
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let host_fingerprint (b : Domconfig.built) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Series.Frame.to_csv (Hypervisor.Host.frame b.host));
  Printf.bprintf buf "energy %h\n" (Hypervisor.Host.energy_joules b.host);
  List.iter
    (fun ((spec : Domconfig.domain_spec), d, app) ->
      Printf.bprintf buf "%s cpu=%d" spec.name (Sim_time.to_us (Hypervisor.Domain.cpu_time d));
      (match app with
      | Domconfig.App_web w ->
          let module W = Workloads.Web_app in
          let rt = W.response_times w in
          Printf.bprintf buf " injected=%d completed=%d timed_out=%d queue=%d rt=%d/%h/%h/%h"
            (W.injected_requests w) (W.completed_requests w) (W.timed_out_requests w)
            (W.queue_length w) (Stats.Running.count rt) (Stats.Running.mean rt)
            (Stats.Running.variance rt) (Stats.Running.max rt)
      | Domconfig.App_pi p ->
          let module P = Workloads.Pi_app in
          Printf.bprintf buf " remaining=%h finish=%s" (P.remaining_work p)
            (match P.finish_time p with Some t -> string_of_int (Sim_time.to_us t) | None -> "-")
      | Domconfig.App_none -> ());
      Buffer.add_char buf '\n')
    b.domains;
  Buffer.contents buf

let host_deferral_run seed =
  let text = random_scenario seed in
  let cfg = ok (Domconfig.parse text) in
  let run ?wrap () =
    let b = Domconfig.build ?wrap cfg in
    Hypervisor.Host.run_for b.host b.duration;
    host_fingerprint b
  in
  let plain = run () and reference = run ~wrap:Every_tick.wrap () in
  if not (String.equal plain reference) then
    QCheck.Test.fail_reportf "seed %d: deferring run differs from every-tick run\n%s" seed text;
  true

let host_deferral =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25 ~name:"deferring host run matches every-tick run"
       QCheck.(int_bound 1_000_000)
       host_deferral_run)

(* Any input: a located error, or a configuration that prints and parses
   back exactly and builds.  Inputs are arbitrary bytes and the sample
   configurations with values, characters and lines mutated. *)
let located msg =
  match String.index_opt msg ':' with
  | Some i when i > 5 && String.sub msg 0 5 = "line " ->
      String.for_all (function '0' .. '9' -> true | _ -> false) (String.sub msg 5 (i - 5))
  | _ -> false

let same_config (a : Domconfig.t) (b : Domconfig.t) =
  String.equal a.arch.Cpu_model.Arch.name b.arch.Cpu_model.Arch.name
  && a.scheduler = b.scheduler && a.governor = b.governor
  && Float.equal a.duration_s b.duration_s
  && a.domains = b.domains

let input_robust text =
  (match Domconfig.parse text with
  | exception e -> QCheck.Test.fail_reportf "parse raised %s" (Printexc.to_string e)
  | Error msg -> if not (located msg) then QCheck.Test.fail_reportf "unlocated error %S" msg
  | Ok cfg -> (
      let printed = Format.asprintf "%a" Domconfig.pp_spec cfg in
      (match Domconfig.parse printed with
      | Ok again when same_config cfg again -> ()
      | Ok _ -> QCheck.Test.fail_reportf "changes through pp_spec:\n%s" printed
      | Error msg -> QCheck.Test.fail_reportf "printed form rejected (%s):\n%s" msg printed);
      match Domconfig.build cfg with
      | exception e -> QCheck.Test.fail_reportf "build raised %s" (Printexc.to_string e)
      | _ -> ()));
  true

let gen_input =
  let open QCheck.Gen in
  let value =
    oneof
      [
        oneofl
          [ "-1"; "0"; "-0"; "1e-9"; "1e-6"; "1e300"; "nan"; "inf"; "1e9"; "100.5"; "0x10";
            "x"; ""; "true"; "pas"; "web"; "pi"; "busy" ];
        map (Printf.sprintf "%.17g") (float_range 0.0 150.0);
        map string_of_int (int_range (-2) 300);
      ]
  in
  let keys =
    [ "credit"; "weight"; "dom0"; "vcpus"; "workload"; "rate"; "from"; "until"; "timeout";
      "request_work"; "work"; "duty"; "duration"; "scheduler"; "governor"; "name" ]
  in
  let mutate text =
    let lines = Array.of_list (String.split_on_char '\n' text) in
    let n = Array.length lines in
    let* i = int_bound (n - 1) in
    let line = lines.(i) in
    let* edit =
      oneof
        [
          (let* key = oneofl keys and* v = value in
           return (line ^ " " ^ key ^ "=" ^ v));
          (let* key = oneofl keys and* v = value in
           let set tok = if String.starts_with ~prefix:(key ^ "=") tok then key ^ "=" ^ v else tok in
           return (String.concat " " (List.map set (String.split_on_char ' ' line))));
          (let* c = char and* j = int_bound (String.length line) in
           let len = String.length line in
           return (String.sub line 0 j ^ String.make 1 c ^ String.sub line j (len - j)));
          (if line = "" then return line
           else
             let* j = int_bound (String.length line - 1) in
             return (String.sub line 0 j ^ String.sub line (j + 1) (String.length line - j - 1)));
          return (line ^ "\n" ^ line);
          return "";
        ]
    in
    lines.(i) <- edit;
    return (String.concat "\n" (Array.to_list lines))
  in
  let rec mutations k text = if k = 0 then return text else mutate text >>= mutations (k - 1) in
  let base =
    oneofl
      [
        sample;
        random_scenario 1;
        Format.asprintf "%a" Domconfig.pp_spec
          (Experiments.Scenario.config (Experiments.Scenario.spec ~scale:0.01 ()));
      ]
  in
  oneof
    [
      string_size ~gen:char (int_bound 200);
      (let* k = int_range 0 3 and* text = base in
       mutations k text);
    ]

let input_robustness =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"any input: located error, or exact round trip and build"
       (QCheck.make ~print:(Printf.sprintf "%S") gen_input)
       input_robust)

let () =
  Alcotest.run "domconfig"
    [
      ( "parse",
        [
          Alcotest.test_case "full config" `Quick parse_full_config;
          Alcotest.test_case "defaults" `Quick parse_defaults;
          Alcotest.test_case "error cases" `Quick error_cases;
          Alcotest.test_case "error line numbers" `Quick error_line_numbers;
          Alcotest.test_case "range errors" `Quick range_errors;
          Alcotest.test_case "pp roundtrip" `Quick roundtrip_pp;
          Alcotest.test_case "scenario config" `Quick scenario_config;
          input_robustness;
          Alcotest.test_case "parse_file missing" `Quick parse_file_missing;
        ] );
      ("build", [ Alcotest.test_case "build and run" `Quick build_and_run; host_deferral ]);
    ]
