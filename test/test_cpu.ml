(* Tests for the CPU model: frequency tables, calibration, cpufreq driver,
   power model, processor facade, architecture catalog. *)

module Frequency = Cpu_model.Frequency
module Calibration = Cpu_model.Calibration
module Arch = Cpu_model.Arch
module Cpufreq = Cpu_model.Cpufreq
module Power = Cpu_model.Power
module Processor = Cpu_model.Processor

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let optiplex_levels = [ 1600; 1867; 2133; 2400; 2667 ]

(* ------------------------------------------------------------------ *)
(* Frequency *)

let freq_create_sorts () =
  let t = Frequency.create [ 2400; 1600; 2400; 2667 ] in
  Alcotest.(check (array int)) "sorted dedup" [| 1600; 2400; 2667 |] (Frequency.levels t);
  check_int "count" 3 (Frequency.count t);
  check_int "min" 1600 (Frequency.min_freq t);
  check_int "max" 2667 (Frequency.max_freq t)

let freq_create_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Frequency.create: empty table") (fun () ->
      ignore (Frequency.create []));
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Frequency.create: non-positive frequency") (fun () ->
      ignore (Frequency.create [ 0; 1600 ]))

let freq_ratio () =
  let t = Frequency.create optiplex_levels in
  check_float "max" 1.0 (Frequency.ratio t 2667);
  check_float_eps 1e-6 "min" (1600.0 /. 2667.0) (Frequency.ratio t 1600);
  Alcotest.check_raises "not a level" Not_found (fun () -> ignore (Frequency.ratio t 2000))

let freq_lookup () =
  let t = Frequency.create optiplex_levels in
  check_int "index_of" 2 (Frequency.index_of t 2133);
  check_int "nth" 2133 (Frequency.nth t 2);
  check_bool "mem" true (Frequency.mem t 2400);
  check_bool "not mem" false (Frequency.mem t 2000);
  Alcotest.check_raises "nth oob" (Invalid_argument "Frequency.nth: out of range") (fun () ->
      ignore (Frequency.nth t 9))

let freq_closest () =
  let t = Frequency.create optiplex_levels in
  check_int "exact" 2133 (Frequency.closest t 2133);
  check_int "round up" 2133 (Frequency.closest t 2100);
  check_int "tie goes low" 2000 (Frequency.closest (Frequency.create [ 2000; 2200 ]) 2100);
  check_int "below range" 1600 (Frequency.closest t 100);
  check_int "above range" 2667 (Frequency.closest t 9999)

let freq_steps () =
  let t = Frequency.create optiplex_levels in
  check_int "up" 2400 (Frequency.next_up t 2133);
  check_int "up saturates" 2667 (Frequency.next_up t 2667);
  check_int "down" 1867 (Frequency.next_down t 2133);
  check_int "down saturates" 1600 (Frequency.next_down t 1600)

(* ------------------------------------------------------------------ *)
(* Calibration *)

let cal_ideal () =
  let t = Frequency.create optiplex_levels in
  List.iter
    (fun f -> check_float "cf=1" 1.0 (Calibration.cf Calibration.ideal t f))
    optiplex_levels

let cal_exponent_max_is_one () =
  let t = Frequency.create optiplex_levels in
  check_float "cf at fmax" 1.0 (Calibration.cf (Calibration.exponent 0.5) t 2667)

let cal_alpha_roundtrip =
  qtest "alpha_of_cf_min recovers cf_min"
    QCheck.(float_range 0.5 1.0)
    (fun cf_min ->
      let t = Frequency.create [ 1200; 2000 ] in
      let alpha = Calibration.alpha_of_cf_min ~freq_table:t ~cf_min in
      let c = Calibration.exponent alpha in
      Float.abs (Calibration.cf c t 1200 -. cf_min) < 1e-9)

let cal_table_fallback () =
  let t = Frequency.create optiplex_levels in
  let c = Calibration.table [ (1600, 0.9) ] in
  check_float "listed" 0.9 (Calibration.cf c t 1600);
  check_float "fallback" 1.0 (Calibration.cf c t 2400)

let cal_invalid () =
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Calibration.exponent: negative exponent") (fun () ->
      ignore (Calibration.exponent (-1.0)));
  Alcotest.check_raises "bad cf" (Invalid_argument "Calibration.table: non-positive cf")
    (fun () -> ignore (Calibration.table [ (1600, 0.0) ]));
  let t = Frequency.create optiplex_levels in
  Alcotest.check_raises "cf_min range"
    (Invalid_argument "Calibration.alpha_of_cf_min: cf_min must be in (0, 1]") (fun () ->
      ignore (Calibration.alpha_of_cf_min ~freq_table:t ~cf_min:1.5))

let cal_effective_speed () =
  let t = Frequency.create [ 1200; 2400 ] in
  let c = Calibration.exponent 1.0 in
  (* ratio 0.5, cf = 0.5 -> speed 0.25 *)
  check_float "speed" 0.25 (Calibration.effective_speed c t 1200)

(* ------------------------------------------------------------------ *)
(* Arch catalog *)

let arch_paper_cf_values () =
  let expect =
    [
      (Arch.xeon_x3440, 0.94867);
      (Arch.xeon_l5420, 0.99903);
      (Arch.xeon_e5_2620, 0.80338);
      (Arch.opteron_6164_he, 0.99508);
      (Arch.elite_8300, 0.86206);
      (Arch.optiplex_755, 1.0);
    ]
  in
  List.iter
    (fun (arch, cf) -> check_float_eps 1e-5 arch.Arch.name cf (Arch.cf_min arch))
    expect

let arch_find () =
  check_bool "found" true (Arch.find "intel xeon e5-2620" <> None);
  check_bool "missing" true (Arch.find "z80" = None);
  check_int "table1 machines" 5 (List.length Arch.table1_machines);
  check_int "all" 6 (List.length Arch.all)

(* ------------------------------------------------------------------ *)
(* Cpufreq *)

let table () = Frequency.create optiplex_levels

let cpufreq_basic () =
  let d = Cpufreq.create ~freq_table:(table ()) ~init:2667 in
  check_int "init" 2667 (Cpufreq.current d);
  Cpufreq.set d ~now:(Sim_time.of_sec 1) 1600;
  check_int "set" 1600 (Cpufreq.current d);
  check_int "one transition" 1 (Cpufreq.transitions d);
  Cpufreq.set d ~now:(Sim_time.of_sec 2) 1600;
  check_int "no-op not counted" 1 (Cpufreq.transitions d)

let cpufreq_clamps () =
  let d = Cpufreq.create ~freq_table:(table ()) ~init:2667 in
  Cpufreq.set d ~now:Sim_time.zero 2100;
  check_int "clamped to level" 2133 (Cpufreq.current d)

let cpufreq_invalid_init () =
  Alcotest.check_raises "bad init" (Invalid_argument "Cpufreq.create: init is not a supported level")
    (fun () -> ignore (Cpufreq.create ~freq_table:(table ()) ~init:2_000))

let cpufreq_residency () =
  let d = Cpufreq.create ~freq_table:(table ()) ~init:2667 in
  Cpufreq.set d ~now:(Sim_time.of_sec 10) 1600;
  Cpufreq.set d ~now:(Sim_time.of_sec 30) 2667;
  let res = Cpufreq.residency d ~now:(Sim_time.of_sec 40) in
  check_int "at 1600" 20_000_000 (Sim_time.to_us (List.assoc 1600 res));
  check_int "at 2667" 20_000_000 (Sim_time.to_us (List.assoc 2667 res));
  let total = List.fold_left (fun acc (_, d) -> Sim_time.add acc d) Sim_time.zero res in
  check_int "sums to now" 40_000_000 (Sim_time.to_us total);
  check_float "ratio" 0.5 (Cpufreq.residency_ratio d ~now:(Sim_time.of_sec 40) 1600);
  check_float_eps 1e-6 "mean freq" ((2667.0 +. 1600.0) /. 2.0)
    (Cpufreq.mean_frequency d ~now:(Sim_time.of_sec 40))

let cpufreq_backwards () =
  let d = Cpufreq.create ~freq_table:(table ()) ~init:2667 in
  Cpufreq.set d ~now:(Sim_time.of_sec 5) 1600;
  Alcotest.check_raises "backwards" (Invalid_argument "Cpufreq: time moved backwards")
    (fun () -> Cpufreq.set d ~now:(Sim_time.of_sec 1) 2667)

(* ------------------------------------------------------------------ *)
(* Power *)

let power_bounds () =
  let m = Power.model ~idle_watts:40.0 ~max_watts:100.0 () in
  let t = table () in
  check_float "idle" 40.0 (Power.watts m t ~freq:1600 ~util:0.0);
  check_float "max" 100.0 (Power.watts m t ~freq:2667 ~util:1.0);
  check_bool "monotone in util" true
    (Power.watts m t ~freq:2667 ~util:0.5 < Power.watts m t ~freq:2667 ~util:0.9);
  check_bool "monotone in freq" true
    (Power.watts m t ~freq:1600 ~util:1.0 < Power.watts m t ~freq:2667 ~util:1.0);
  check_bool "util clamped" true
    (Power.watts m t ~freq:2667 ~util:2.0 = Power.watts m t ~freq:2667 ~util:1.0)

let power_invalid () =
  Alcotest.check_raises "bad range" (Invalid_argument "Power.model: bad power range")
    (fun () -> ignore (Power.model ~idle_watts:50.0 ~max_watts:40.0 ()))

let power_meter () =
  let m = Power.model ~idle_watts:40.0 ~max_watts:100.0 () in
  let t = table () in
  let meter = Power.Meter.create m t in
  Power.Meter.record meter ~dt:(Sim_time.of_sec 10) ~freq:2667 ~util:1.0;
  check_float "joules" 1000.0 (Power.Meter.joules meter);
  check_int "elapsed" 10_000_000 (Sim_time.to_us (Power.Meter.elapsed meter));
  check_float "mean watts" 100.0 (Power.Meter.mean_watts meter)

(* [record_busy] adds a stored increment on idle and fully busy ticks.
   Over random ticks (frequency level, tick length, idle/full/partial
   busy time) the total must be bit-equal to accumulating, on every
   tick, [watts] at [util = busy / dt] times [dt]. *)
type tick = { level : int; dt_us : int; busy : [ `Idle | `Full | `Part of int ] }

let gen_tick =
  QCheck.Gen.(
    map3
      (fun level dt_us busy -> { level; dt_us; busy })
      (int_range 0 7)
      (frequency [ (8, return 1_000); (1, return 500); (1, return 2_000); (1, int_range 1 30_000) ])
      (frequency
         [
           (4, return `Idle);
           (4, return `Full);
           (2, map (fun x -> `Part x) (int_range 1 1_000_000));
         ]))

let arbitrary_ticks =
  QCheck.make
    QCheck.Gen.(pair bool (list_size (int_range 1 400) gen_tick))
    ~print:(fun (elite, ticks) ->
      Printf.sprintf "%s: %s"
        (if elite then "elite-8300" else "optiplex-755")
        (String.concat "; "
           (List.map
              (fun t ->
                Printf.sprintf "(%d, %d, %s)" t.level t.dt_us
                  (match t.busy with
                  | `Idle -> "idle"
                  | `Full -> "full"
                  | `Part x -> Printf.sprintf "part %d" x))
              ticks)))

let meter_memo_matches_division (elite, ticks) =
  let arch = if elite then Arch.elite_8300 else Arch.optiplex_755 in
  let table = arch.Arch.freq_table in
  let levels = Frequency.levels table in
  let model = Power.of_arch arch in
  let meter = Power.Meter.create model table in
  let sec t = float_of_int (Sim_time.to_us t) /. 1e6 in
  let reference = ref 0.0 in
  List.for_all
    (fun t ->
      let freq = levels.(t.level mod Array.length levels) in
      let dt = Sim_time.of_us t.dt_us in
      let busy =
        match t.busy with
        | `Idle -> Sim_time.zero
        | `Full -> dt
        | `Part x -> Sim_time.of_us (1 + (x mod t.dt_us))
      in
      Power.Meter.record_busy meter ~dt ~busy ~freq;
      let util = sec busy /. sec dt in
      reference := !reference +. (Power.watts model table ~freq ~util *. sec dt);
      let got = Printf.sprintf "%h" (Power.Meter.joules meter)
      and want = Printf.sprintf "%h" !reference in
      if got <> want then QCheck.Test.fail_reportf "joules %s, reference %s" got want;
      true)
    ticks

(* ------------------------------------------------------------------ *)
(* Processor *)

let processor_speed () =
  let p = Processor.create Arch.optiplex_755 in
  check_int "init at max" 2667 (Processor.current_freq p);
  check_float "speed at max" 1.0 (Processor.speed p);
  Processor.set_freq p ~now:Sim_time.zero 1600;
  check_float_eps 1e-6 "speed at min" (1600.0 /. 2667.0) (Processor.speed p);
  check_float_eps 1e-6 "work_in" (1600.0 /. 2667.0 *. 2.0)
    (Processor.work_in p (Sim_time.of_sec 2))

let processor_nonlinear_arch () =
  let p = Processor.create Arch.elite_8300 in
  Processor.set_freq p ~now:Sim_time.zero 1600;
  check_float_eps 1e-5 "cf matches paper" 0.86206 (Processor.cf p);
  check_float_eps 1e-5 "speed = ratio*cf" (1600.0 /. 3400.0 *. 0.86206) (Processor.speed p)

let processor_energy () =
  let p = Processor.create Arch.optiplex_755 in
  Processor.record_power p ~dt:(Sim_time.of_sec 5) ~util:1.0;
  check_float "energy" (95.0 *. 5.0) (Processor.energy_joules p);
  check_float "mean watts" 95.0 (Processor.mean_watts p)

let processor_init_freq () =
  let p = Processor.create ~init_freq:2133 Arch.optiplex_755 in
  check_int "init" 2133 (Processor.current_freq p)

let () =
  Alcotest.run "cpu_model"
    [
      ( "frequency",
        [
          Alcotest.test_case "create sorts" `Quick freq_create_sorts;
          Alcotest.test_case "create invalid" `Quick freq_create_invalid;
          Alcotest.test_case "ratio" `Quick freq_ratio;
          Alcotest.test_case "lookup" `Quick freq_lookup;
          Alcotest.test_case "closest" `Quick freq_closest;
          Alcotest.test_case "steps" `Quick freq_steps;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "ideal" `Quick cal_ideal;
          Alcotest.test_case "exponent at fmax" `Quick cal_exponent_max_is_one;
          cal_alpha_roundtrip;
          Alcotest.test_case "table fallback" `Quick cal_table_fallback;
          Alcotest.test_case "invalid" `Quick cal_invalid;
          Alcotest.test_case "effective speed" `Quick cal_effective_speed;
        ] );
      ( "arch",
        [
          Alcotest.test_case "paper cf values" `Quick arch_paper_cf_values;
          Alcotest.test_case "find/catalog" `Quick arch_find;
        ] );
      ( "cpufreq",
        [
          Alcotest.test_case "basic" `Quick cpufreq_basic;
          Alcotest.test_case "clamps" `Quick cpufreq_clamps;
          Alcotest.test_case "invalid init" `Quick cpufreq_invalid_init;
          Alcotest.test_case "residency" `Quick cpufreq_residency;
          Alcotest.test_case "backwards time" `Quick cpufreq_backwards;
        ] );
      ( "power",
        [
          Alcotest.test_case "bounds" `Quick power_bounds;
          Alcotest.test_case "invalid" `Quick power_invalid;
          Alcotest.test_case "meter" `Quick power_meter;
          qtest "memoized ticks equal the division" arbitrary_ticks meter_memo_matches_division;
        ] );
      ( "processor",
        [
          Alcotest.test_case "speed" `Quick processor_speed;
          Alcotest.test_case "nonlinear arch" `Quick processor_nonlinear_arch;
          Alcotest.test_case "energy" `Quick processor_energy;
          Alcotest.test_case "init freq" `Quick processor_init_freq;
        ] );
    ]
