(* Tests for the DVFS governors. *)

module Processor = Cpu_model.Processor
module Frequency = Cpu_model.Frequency
module Governor = Governors.Governor

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let ms = Sim_time.of_ms

let processor ?init_freq () = Processor.create ?init_freq Cpu_model.Arch.optiplex_755

let observe gov ~now util = gov.Governor.observe ~now ~busy_fraction:util

let performance_pins_max () =
  let p = processor ~init_freq:1600 () in
  let gov = Governor.performance p in
  observe gov ~now:(ms 1) 0.0;
  check_int "max" 2667 (Processor.current_freq p)

let powersave_pins_min () =
  let p = processor () in
  let gov = Governor.powersave p in
  observe gov ~now:(ms 1) 1.0;
  check_int "min" 1600 (Processor.current_freq p)

let make_zero_period () =
  Alcotest.check_raises "zero period" (Invalid_argument "Governor.make: zero period")
    (fun () ->
      ignore (Governor.make ~name:"x" ~period:Sim_time.zero ~observe:(fun ~now:_ ~busy_fraction:_ -> ())))

(* ------------------------------------------------------------------ *)
(* Ondemand *)

let ondemand_jumps_to_max () =
  let p = processor ~init_freq:1600 () in
  let gov = Governors.Ondemand.create p in
  observe gov ~now:(ms 1) 0.95;
  check_int "jumped" 2667 (Processor.current_freq p)

let ondemand_descends_on_low_load () =
  let p = processor () in
  let gov = Governors.Ondemand.create p in
  observe gov ~now:(ms 1) 0.10;
  check_int "down to min" 1600 (Processor.current_freq p)

let ondemand_picks_sufficient_level () =
  let p = processor () in
  let gov = Governors.Ondemand.create p in
  (* absolute load 0.65 at max: lowest level with speed*0.8 >= 0.65 is
     2400 (0.9*0.8 = 0.72). *)
  observe gov ~now:(ms 1) 0.65;
  check_int "mid level" 2400 (Processor.current_freq p)

let ondemand_floor_respected () =
  let p = processor () in
  let gov = Governors.Ondemand.create ~floor:2133 p in
  observe gov ~now:(ms 1) 0.01;
  check_int "floored" 2133 (Processor.current_freq p);
  observe gov ~now:(ms 2) 0.95;
  check_int "still jumps" 2667 (Processor.current_freq p)

let ondemand_threshold_validated () =
  let p = processor () in
  Alcotest.check_raises "threshold" (Invalid_argument "Ondemand.create: up_threshold out of (0, 1]")
    (fun () -> ignore (Governors.Ondemand.create ~up_threshold:1.5 p))

(* ------------------------------------------------------------------ *)
(* Stable ondemand *)

let stable_requires_agreement () =
  let p = processor () in
  let gov = Governors.Stable_ondemand.create ~stability:3 p in
  (* Very low load asks for the minimum; it must take 3 windows to move. *)
  observe gov ~now:(ms 100) 0.05;
  check_int "no move yet" 2667 (Processor.current_freq p);
  observe gov ~now:(ms 200) 0.05;
  check_int "still waiting" 2667 (Processor.current_freq p);
  observe gov ~now:(ms 300) 0.05;
  check_int "one step only" 2400 (Processor.current_freq p)

let stable_steps_one_level () =
  let p = processor () in
  let gov = Governors.Stable_ondemand.create ~stability:1 p in
  observe gov ~now:(ms 100) 0.01;
  check_int "single step down" 2400 (Processor.current_freq p);
  observe gov ~now:(ms 200) 0.01;
  check_int "second step" 2133 (Processor.current_freq p)

let stable_reaches_equilibrium () =
  let p = processor () in
  let gov = Governors.Stable_ondemand.create p in
  (* Feed a steady 20% utilization: the governor should settle at the
     minimum frequency and stay there. *)
  let util = ref 0.2 in
  for i = 1 to 100 do
    observe gov ~now:(ms (100 * i)) !util;
    (* utilization rises as frequency drops (capped VM time share fixed at
       20%, but keep it simple: constant busy fraction). *)
    util := 0.2
  done;
  check_int "settled at min" 1600 (Processor.current_freq p);
  let transitions = Cpu_model.Cpufreq.transitions (Processor.cpufreq p) in
  check_bool "stable (few transitions)" true (transitions <= 5)

let stable_validation () =
  let p = processor () in
  Alcotest.check_raises "stability" (Invalid_argument "Stable_ondemand.create: stability must be >= 1")
    (fun () -> ignore (Governors.Stable_ondemand.create ~stability:0 p))

(* ------------------------------------------------------------------ *)
(* Conservative *)

let conservative_steps () =
  let p = processor ~init_freq:2133 () in
  let gov = Governors.Conservative.create p in
  observe gov ~now:(ms 80) 0.9;
  check_int "one up" 2400 (Processor.current_freq p);
  observe gov ~now:(ms 160) 0.1;
  check_int "one down" 2133 (Processor.current_freq p);
  observe gov ~now:(ms 240) 0.5;
  check_int "dead zone holds" 2133 (Processor.current_freq p)

let conservative_saturates () =
  let p = processor () in
  let gov = Governors.Conservative.create p in
  observe gov ~now:(ms 80) 0.99;
  check_int "at max already" 2667 (Processor.current_freq p)

let conservative_thresholds_validated () =
  let p = processor () in
  Alcotest.check_raises "thresholds"
    (Invalid_argument "Conservative.create: thresholds must satisfy 0 < down < up <= 1")
    (fun () -> ignore (Governors.Conservative.create ~up_threshold:0.2 ~down_threshold:0.5 p))

(* ------------------------------------------------------------------ *)
(* Schedutil *)

let schedutil_proportional () =
  let p = processor () in
  let gov = Governors.Schedutil.create p in
  (* util 0.4 at max: target = 1.25 * 0.4 * 2667 = 1333 -> lowest level
     above it is 1600. *)
  observe gov ~now:(ms 10) 0.4;
  check_int "proportional target" 1600 (Processor.current_freq p);
  observe gov ~now:(ms 20) 0.9;
  (* Frequency-invariant: util is now measured at 1600 (speed 0.6):
     target = 1.25 * 0.9 * 0.6 * 2667 = 1800 -> 1867. *)
  check_int "scales back up" 1867 (Processor.current_freq p)

let schedutil_saturates () =
  let p = processor ~init_freq:1600 () in
  let gov = Governors.Schedutil.create p in
  observe gov ~now:(ms 10) 1.0;
  (* target = 1.25 * 0.6 * 2667 = 2000 -> 2133, stepping toward max. *)
  check_int "climbs" 2133 (Processor.current_freq p);
  observe gov ~now:(ms 20) 1.0;
  observe gov ~now:(ms 30) 1.0;
  check_int "reaches max" 2667 (Processor.current_freq p)

let schedutil_margin_validated () =
  let p = processor () in
  Alcotest.check_raises "margin" (Invalid_argument "Schedutil.create: margin must be >= 1")
    (fun () -> ignore (Governors.Schedutil.create ~margin:0.5 p))

(* ------------------------------------------------------------------ *)
(* Userspace *)

let userspace_applies_request () =
  let p = processor () in
  let us = Governors.Userspace.create p in
  let gov = Governors.Userspace.governor us in
  Governors.Userspace.request us 1867;
  check_bool "pending" true (Governors.Userspace.requested us = Some 1867);
  check_int "not yet applied" 2667 (Processor.current_freq p);
  observe gov ~now:(ms 10) 0.0;
  check_int "applied" 1867 (Processor.current_freq p);
  check_bool "cleared" true (Governors.Userspace.requested us = None)

let userspace_clamps () =
  let p = processor () in
  let us = Governors.Userspace.create p in
  let gov = Governors.Userspace.governor us in
  Governors.Userspace.request us 1_000;
  observe gov ~now:(ms 10) 0.0;
  check_int "clamped to closest level" 1600 (Processor.current_freq p)

(* ------------------------------------------------------------------ *)
(* The allocation-free observe bodies against the reference bodies in
   window_reference.ml, bit for bit after every window. *)

module Reference = Window_reference

(* Each governor as shipped and as the reference, with its options; the
   floor sits on the table's second level. *)
let second_level p =
  let table = Processor.freq_table p in
  Frequency.next_up table (Frequency.min_freq table)

let variants =
  [
    ("ondemand", (fun p -> Governors.Ondemand.create p), fun p -> Reference.ondemand p);
    ( "ondemand up 0.6",
      (fun p -> Governors.Ondemand.create ~up_threshold:0.6 p),
      fun p -> Reference.ondemand ~up_threshold:0.6 p );
    ( "ondemand floor",
      (fun p -> Governors.Ondemand.create ~floor:(second_level p) p),
      fun p -> Reference.ondemand ~floor:(second_level p) p );
    ( "stable-ondemand",
      (fun p -> Governors.Stable_ondemand.create p),
      fun p -> Reference.stable_ondemand p );
    ( "stable-ondemand 1",
      (fun p -> Governors.Stable_ondemand.create ~stability:1 p),
      fun p -> Reference.stable_ondemand ~stability:1 p );
    ( "conservative",
      (fun p -> Governors.Conservative.create p),
      fun p -> Reference.conservative p );
  ]

let governors_match_reference (i, samples) =
  let arch = Reference.arches.(i) in
  List.iter
    (fun (name, shipped, reference) ->
      let p = Processor.create arch and ref_p = Processor.create arch in
      let gov = shipped p and ref_observe = reference ref_p in
      List.iteri
        (fun k busy_fraction ->
          let now = ms (10 * (k + 1)) in
          let got = Reference.outcome (fun () -> observe gov ~now busy_fraction) in
          let want = Reference.outcome (fun () -> ref_observe ~now ~busy_fraction) in
          if got <> want then QCheck.Test.fail_reportf "%s, window %d: outcome differs" name k;
          if Processor.current_freq p <> Processor.current_freq ref_p then
            QCheck.Test.fail_reportf "%s, window %d: frequency %d, reference %d" name k
              (Processor.current_freq p) (Processor.current_freq ref_p);
          (* the processor's per-level values, against a fresh computation *)
          if
            not
              (Reference.bits_equal (Processor.ratio p) (Reference.ratio ref_p)
              && Reference.bits_equal (Processor.cf p) (Reference.cf ref_p)
              && Reference.bits_equal (Processor.speed p) (Reference.speed ref_p))
          then QCheck.Test.fail_reportf "%s, window %d: ratio/cf/speed differ" name k)
        samples)
    variants;
  true

(* At full speed a window of 0.4 is exactly the 1000 MHz level's 0.5 x 0.8
   of the "tie" architecture, which ondemand's [>=] takes. *)
let ondemand_on_threshold () =
  let p = Processor.create (Reference.arch "tie") in
  observe (Governors.Ondemand.create p) ~now:(ms 5) 0.4;
  check_int "taken at equality" 1000 (Processor.current_freq p)

let () =
  Alcotest.run "governors"
    [
      ( "trivial",
        [
          Alcotest.test_case "performance" `Quick performance_pins_max;
          Alcotest.test_case "powersave" `Quick powersave_pins_min;
          Alcotest.test_case "zero period" `Quick make_zero_period;
        ] );
      ( "ondemand",
        [
          Alcotest.test_case "jumps to max" `Quick ondemand_jumps_to_max;
          Alcotest.test_case "descends" `Quick ondemand_descends_on_low_load;
          Alcotest.test_case "sufficient level" `Quick ondemand_picks_sufficient_level;
          Alcotest.test_case "floor" `Quick ondemand_floor_respected;
          Alcotest.test_case "threshold validated" `Quick ondemand_threshold_validated;
        ] );
      ( "stable ondemand",
        [
          Alcotest.test_case "requires agreement" `Quick stable_requires_agreement;
          Alcotest.test_case "steps one level" `Quick stable_steps_one_level;
          Alcotest.test_case "equilibrium" `Quick stable_reaches_equilibrium;
          Alcotest.test_case "validation" `Quick stable_validation;
        ] );
      ( "conservative",
        [
          Alcotest.test_case "steps" `Quick conservative_steps;
          Alcotest.test_case "saturates" `Quick conservative_saturates;
          Alcotest.test_case "thresholds" `Quick conservative_thresholds_validated;
        ] );
      ( "schedutil",
        [
          Alcotest.test_case "proportional" `Quick schedutil_proportional;
          Alcotest.test_case "saturates" `Quick schedutil_saturates;
          Alcotest.test_case "margin validated" `Quick schedutil_margin_validated;
        ] );
      ( "userspace",
        [
          Alcotest.test_case "applies request" `Quick userspace_applies_request;
          Alcotest.test_case "clamps" `Quick userspace_clamps;
        ] );
      ( "window",
        [
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:300 ~name:"match the reference bodies bit for bit"
               Reference.arb_windows governors_match_reference);
          Alcotest.test_case "ondemand on a level's threshold" `Quick ondemand_on_threshold;
        ] );
    ]
