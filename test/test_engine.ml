(* Tests for the discrete-event engine: time, PRNG, simulator, vectors,
   statistics, series, tables, traces. *)

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Sim_time *)

let time_conversions () =
  check_int "us" 42 (Sim_time.to_us (Sim_time.of_us 42));
  check_int "ms" 5_000 (Sim_time.to_us (Sim_time.of_ms 5));
  check_int "sec" 3_000_000 (Sim_time.to_us (Sim_time.of_sec 3));
  check_float "to_sec" 1.5 (Sim_time.to_sec (Sim_time.of_ms 1500));
  check_float "to_ms" 2.5 (Sim_time.to_ms (Sim_time.of_us 2500))

let time_of_sec_f () =
  check_int "round down" 1_500_000 (Sim_time.to_us (Sim_time.of_sec_f 1.5));
  check_int "round nearest" 1 (Sim_time.to_us (Sim_time.of_sec_f 1.4e-6));
  check_int "zero" 0 (Sim_time.to_us (Sim_time.of_sec_f 0.0))

(* The truncating rounding against [Float.round]: halves (k + 0.5 rounds
   up), the largest double below one half (which [floor (x + 0.5)] would
   round up), values around 2^52 where doubles become integers, and
   random values across the range, directly and through [of_sec_f]. *)
let reference_round x = int_of_float (Float.round x)

let rounding_specials =
  let two52 = 4503599627370496.0 in
  [ 0.0; 0.5; 1.5; 2.5; 1e6 +. 0.5; 0.49999999999999994; 1.0 -. epsilon_float;
    0.5 +. epsilon_float; Float.pred 0.5; Float.succ 0.5; two52; Float.pred two52;
    Float.succ two52; two52 -. 0.5; two52 -. 1.5; (two52 /. 2.0) +. 0.5;
    Float.pred ((two52 /. 2.0) +. 0.5); 2.0 *. two52; 3e17 ]

let time_round_half_away () =
  List.iter
    (fun x ->
      check_int (Printf.sprintf "%h" x) (reference_round x) (Sim_time.round_half_away x);
      check_int (Printf.sprintf "of_sec_f %h" (x /. 1e6))
        (reference_round (x /. 1e6 *. 1e6))
        (Sim_time.of_sec_f (x /. 1e6)))
    rounding_specials;
  for k = 0 to 10_000 do
    let x = float_of_int k +. 0.5 in
    check_int (Printf.sprintf "%d.5" k) (k + 1) (Sim_time.round_half_away x)
  done

let round_half_away_prop =
  let gen =
    QCheck.Gen.(
      oneof
        [
          map (fun (k, f) -> float_of_int k +. f) (pair (int_bound 1_000_000_000) (float_bound_inclusive 1.0));
          map (fun e -> Float.ldexp 1.0 e) (int_range 0 60);
          map (fun (e, d) -> Float.ldexp 1.0 e +. float_of_int d) (pair (int_range 50 54) (int_range (-8) 8));
          map (fun k -> float_of_int k +. 0.5) (int_bound 1_000_000_000);
          float_bound_inclusive 1e12;
        ])
  in
  qtest ~count:2000 "round_half_away and of_sec_f equal Float.round"
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    (fun x ->
      Sim_time.round_half_away x = reference_round x
      && Sim_time.of_sec_f (x /. 1e6) = reference_round (x /. 1e6 *. 1e6))

let time_arithmetic () =
  let a = Sim_time.of_ms 10 and b = Sim_time.of_ms 4 in
  check_int "add" 14_000 (Sim_time.to_us (Sim_time.add a b));
  check_int "sub" 6_000 (Sim_time.to_us (Sim_time.sub a b));
  check_int "diff sym" 6_000 (Sim_time.to_us (Sim_time.diff b a));
  check_bool "compare" true (Sim_time.compare a b > 0);
  check_int "min" 4_000 (Sim_time.to_us (Sim_time.min a b));
  check_int "max" 10_000 (Sim_time.to_us (Sim_time.max a b))

let time_invalid () =
  Alcotest.check_raises "negative" (Invalid_argument "Sim_time.of_us: negative duration")
    (fun () -> ignore (Sim_time.of_us (-1)));
  Alcotest.check_raises "sub underflow" (Invalid_argument "Sim_time.sub: negative result")
    (fun () -> ignore (Sim_time.sub (Sim_time.of_us 1) (Sim_time.of_us 2)))

let time_pp () =
  check_string "seconds" "2.500s" (Sim_time.to_string (Sim_time.of_ms 2500));
  check_string "millis" "3.000ms" (Sim_time.to_string (Sim_time.of_ms 3));
  check_string "micros" "7us" (Sim_time.to_string (Sim_time.of_us 7))

(* ------------------------------------------------------------------ *)
(* Prng *)

let prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let prng_split_independent () =
  let a = Prng.create ~seed:1 in
  let b = Prng.split a in
  check_bool "diverged" true (Prng.next_int64 a <> Prng.next_int64 b)

let prng_copy () =
  let a = Prng.create ~seed:7 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next_int64 a) (Prng.next_int64 b)

let prng_derive_deterministic () =
  let a = Prng.derive ~key:"experiment/fig5" and b = Prng.derive ~key:"experiment/fig5" in
  for _ = 1 to 10 do
    Alcotest.(check int64) "same key, same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done;
  let c = Prng.derive ~key:"experiment/fig6" in
  check_bool "distinct keys diverge" true (Prng.next_int64 a <> Prng.next_int64 c);
  Alcotest.(check int)
    "derive_seed stable" (Prng.derive_seed ~key:"x") (Prng.derive_seed ~key:"x")

let prng_derive_order_independent =
  (* The contract the parallel runner rests on: the stream behind a key does
     not depend on how many other derivations or draws happened first, nor
     on the order keys are derived in. *)
  qtest "derive independent of call order"
    QCheck.(pair (small_list small_string) small_string)
    (fun (keys, extra) ->
      let fingerprint key =
        let rng = Prng.derive ~key in
        List.init 4 (fun _ -> Prng.next_int64 rng)
      in
      let fresh = List.map fingerprint keys in
      (* Interleave: derive in reverse order, with unrelated derivations and
         draws in between, then compare per-key fingerprints. *)
      let noisy =
        let acc =
          List.rev_map
            (fun key ->
              ignore (Prng.next_int64 (Prng.derive ~key:(extra ^ key)));
              ignore (Prng.derive_seed ~key:extra);
              (key, fingerprint key))
            keys
        in
        List.map (fun key -> List.assoc key acc) keys
      in
      fresh = noisy)

let prng_float_bounds =
  qtest "float in [0, bound)"
    QCheck.(pair small_int (float_bound_exclusive 1000.0))
    (fun (seed, bound) ->
      QCheck.assume (bound > 0.0);
      let rng = Prng.create ~seed in
      let x = Prng.float rng bound in
      x >= 0.0 && x < bound)

let prng_int_bounds =
  qtest "int in [0, bound)"
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Prng.create ~seed in
      let x = Prng.int rng bound in
      x >= 0 && x < bound)

let prng_exponential_mean () =
  let rng = Prng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential rng ~rate:2.0
  done;
  check_float_eps 0.02 "mean ~ 1/rate" 0.5 (!sum /. float_of_int n)

let prng_poisson_mean () =
  let rng = Prng.create ~seed:13 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Prng.poisson rng ~mean:3.5
  done;
  check_float_eps 0.1 "mean" 3.5 (float_of_int !sum /. float_of_int n)

let prng_poisson_large_mean () =
  let rng = Prng.create ~seed:17 in
  let n = 2_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Prng.poisson rng ~mean:80.0
  done;
  check_float_eps 2.0 "normal approximation regime" 80.0 (float_of_int !sum /. float_of_int n)

let prng_gaussian_moments () =
  let rng = Prng.create ~seed:19 in
  let n = 20_000 in
  let stats = Stats.Running.create () in
  for _ = 1 to n do
    Stats.Running.add stats (Prng.gaussian rng ~mean:10.0 ~stddev:2.0)
  done;
  check_float_eps 0.1 "mean" 10.0 (Stats.Running.mean stats);
  check_float_eps 0.1 "stddev" 2.0 (Stats.Running.stddev stats)

let prng_shuffle_permutation =
  qtest "shuffle is a permutation"
    QCheck.(pair small_int (list small_int))
    (fun (seed, xs) ->
      let a = Array.of_list xs in
      Prng.shuffle (Prng.create ~seed) a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Simulator *)

let sim_ordering () =
  let sim = Simulator.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  ignore (Simulator.at sim (Sim_time.of_ms 30) (record "c"));
  ignore (Simulator.at sim (Sim_time.of_ms 10) (record "a"));
  ignore (Simulator.at sim (Sim_time.of_ms 20) (record "b"));
  Simulator.run sim;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log)

let sim_same_time_fifo () =
  let sim = Simulator.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  ignore (Simulator.at sim (Sim_time.of_ms 5) (record "first"));
  ignore (Simulator.at sim (Sim_time.of_ms 5) (record "second"));
  Simulator.run sim;
  Alcotest.(check (list string)) "fifo" [ "first"; "second" ] (List.rev !log)

let sim_past_raises () =
  let sim = Simulator.create () in
  ignore (Simulator.at sim (Sim_time.of_ms 10) (fun () -> ()));
  Simulator.run sim;
  Alcotest.check_raises "past" (Invalid_argument "Simulator.at: time is in the past")
    (fun () -> ignore (Simulator.at sim (Sim_time.of_ms 5) (fun () -> ())))

let sim_cancel () =
  let sim = Simulator.create () in
  let fired = ref false in
  let h = Simulator.at sim (Sim_time.of_ms 1) (fun () -> fired := true) in
  Simulator.cancel sim h;
  Simulator.run sim;
  check_bool "not fired" false !fired

let sim_every () =
  let sim = Simulator.create () in
  let count = ref 0 in
  ignore (Simulator.every sim (Sim_time.of_ms 10) (fun () -> incr count));
  Simulator.run_until sim (Sim_time.of_ms 100);
  check_int "ten firings" 10 !count

let sim_every_cancel_stops () =
  let sim = Simulator.create () in
  let count = ref 0 in
  let handle = ref None in
  let h =
    Simulator.every sim (Sim_time.of_ms 10) (fun () ->
        incr count;
        if !count = 3 then match !handle with Some h -> Simulator.cancel sim h | None -> ())
  in
  handle := Some h;
  Simulator.run_until sim (Sim_time.of_ms 200);
  check_int "stopped after three" 3 !count

let sim_every_start () =
  let sim = Simulator.create () in
  let first = ref None in
  ignore
    (Simulator.every sim ~start:(Sim_time.of_ms 5) (Sim_time.of_ms 50) (fun () ->
         if !first = None then first := Some (Simulator.now sim)));
  Simulator.run_until sim (Sim_time.of_ms 20);
  Alcotest.(check (option int)) "starts at 5ms" (Some 5_000) (Option.map Sim_time.to_us !first)

let sim_run_until_clock () =
  let sim = Simulator.create () in
  Simulator.run_until sim (Sim_time.of_sec 3);
  check_int "clock advanced" 3_000_000 (Sim_time.to_us (Simulator.now sim))

let sim_nested_schedule () =
  let sim = Simulator.create () in
  let log = ref [] in
  ignore
    (Simulator.at sim (Sim_time.of_ms 1) (fun () ->
         log := "outer" :: !log;
         ignore (Simulator.after sim (Sim_time.of_ms 1) (fun () -> log := "inner" :: !log))));
  Simulator.run sim;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  check_int "clock" 2_000 (Sim_time.to_us (Simulator.now sim))

let sim_zero_period_every () =
  let sim = Simulator.create () in
  Alcotest.check_raises "zero period" (Invalid_argument "Simulator.every: zero period")
    (fun () -> ignore (Simulator.every sim Sim_time.zero (fun () -> ())))

(* ------------------------------------------------------------------ *)
(* Vec *)

let vec_basic () =
  let v = Vec.create () in
  check_int "empty" 0 (Vec.length v);
  Vec.push v "a";
  Vec.push v "b";
  check_int "len" 2 (Vec.length v);
  check_string "get" "b" (Vec.get v 1);
  Vec.set v 0 "z";
  check_string "set" "z" (Vec.get v 0);
  Alcotest.(check (option string)) "last" (Some "b") (Vec.last v);
  Alcotest.(check (array string)) "to_array" [| "z"; "b" |] (Vec.to_array v);
  Vec.clear v;
  check_int "cleared" 0 (Vec.length v)

let vec_bounds () =
  let v = Vec.of_array [| 1; 2 |] in
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v 2))

let vec_fold_iter () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  check_int "fold" 6 (Vec.fold_left ( + ) 0 v);
  let seen = ref [] in
  Vec.iteri (fun i x -> seen := (i, x) :: !seen) v;
  check_int "iteri count" 3 (List.length !seen)

let vec_floats () =
  let v = Vec.Floats.create () in
  Vec.Floats.push v 1.5;
  Vec.Floats.push v 2.5;
  check_float "sum" 4.0 (Vec.Floats.sum v);
  check_float "mean" 2.0 (Vec.Floats.mean v);
  check_float "get" 2.5 (Vec.Floats.get v 1);
  check_int "len" 2 (Vec.Floats.length v)

let vec_growth =
  qtest "vec preserves order across growth"
    QCheck.(list int)
    (fun xs ->
      let v = Vec.create () in
      List.iter (Vec.push v) xs;
      Array.to_list (Vec.to_array v) = xs)

(* ------------------------------------------------------------------ *)
(* Stats *)

let stats_running () =
  let s = Stats.Running.create () in
  List.iter (Stats.Running.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_int "count" 8 (Stats.Running.count s);
  check_float "mean" 5.0 (Stats.Running.mean s);
  check_float_eps 1e-9 "variance" (32.0 /. 7.0) (Stats.Running.variance s);
  check_float "min" 2.0 (Stats.Running.min s);
  check_float "max" 9.0 (Stats.Running.max s)

let stats_running_empty () =
  let s = Stats.Running.create () in
  check_float "mean 0" 0.0 (Stats.Running.mean s);
  check_float "var 0" 0.0 (Stats.Running.variance s);
  check_bool "min nan" true (Float.is_nan (Stats.Running.min s))

let stats_merge () =
  let a = Stats.Running.create () and b = Stats.Running.create () and all = Stats.Running.create () in
  let xs = [ 1.0; 2.0; 3.0 ] and ys = [ 10.0; 20.0; 30.0; 40.0 ] in
  List.iter (Stats.Running.add a) xs;
  List.iter (Stats.Running.add b) ys;
  List.iter (Stats.Running.add all) (xs @ ys);
  let m = Stats.Running.merge a b in
  check_int "count" (Stats.Running.count all) (Stats.Running.count m);
  check_float_eps 1e-9 "mean" (Stats.Running.mean all) (Stats.Running.mean m);
  check_float_eps 1e-9 "variance" (Stats.Running.variance all) (Stats.Running.variance m)

let stats_ci95 () =
  let s = Stats.Running.create () in
  check_bool "empty: no claim" true (Stats.Running.ci95 s = infinity);
  Stats.Running.add s 1.0;
  check_bool "single sample: no claim" true (Stats.Running.ci95 s = infinity);
  List.iter (Stats.Running.add s) [ 2.0; 3.0; 4.0; 5.0 ];
  (* 1..5: mean 3, sd = sqrt(2.5); 1.96 * sd / sqrt 5 = 1.3859. *)
  check_float_eps 1e-4 "half width" 1.3859 (Stats.Running.ci95 s)

let stats_reset () =
  let s = Stats.Running.create () in
  List.iter (Stats.Running.add s) [ 5.0; 7.0; 9.0 ];
  Stats.Running.reset s;
  check_int "count 0" 0 (Stats.Running.count s);
  check_float "mean 0" 0.0 (Stats.Running.mean s);
  check_float "variance 0" 0.0 (Stats.Running.variance s);
  check_bool "min nan again" true (Float.is_nan (Stats.Running.min s));
  (* Behaves as freshly created: refilling gives the fresh statistics. *)
  List.iter (Stats.Running.add s) [ 2.0; 4.0 ];
  check_float "refilled mean" 3.0 (Stats.Running.mean s);
  check_float "refilled min" 2.0 (Stats.Running.min s)

let stats_percentiles () =
  let sorted = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "p0" 1.0 (Stats.Summary.percentile sorted 0.0);
  check_float "p50" 3.0 (Stats.Summary.percentile sorted 50.0);
  check_float "p100" 5.0 (Stats.Summary.percentile sorted 100.0);
  check_float "p25 interp" 2.0 (Stats.Summary.percentile sorted 25.0)

let stats_quantile_unsorted =
  qtest "quantile_of_unsorted = percentile on the sorted copy"
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_range (-100.0) 100.0)) (float_range 0.0 100.0))
    (fun (samples, p) ->
      let arr = Array.of_list samples in
      let before = Array.copy arr in
      let q = Stats.Summary.quantile_of_unsorted arr p in
      let sorted = Array.copy arr in
      Array.sort Float.compare sorted;
      (* The input must be left untouched, and the result must match the
         documented percentile on sorted data. *)
      before = arr && Float.abs (q -. Stats.Summary.percentile sorted p) < 1e-9)

let stats_summary () =
  let s = Stats.Summary.of_array [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "min" 1.0 s.Stats.Summary.min;
  check_float "max" 5.0 s.Stats.Summary.max;
  check_float "p50" 3.0 s.Stats.Summary.p50;
  check_int "count" 5 s.Stats.Summary.count

let stats_summary_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.Summary.of_array: empty array")
    (fun () -> ignore (Stats.Summary.of_array [||]))

let stats_histogram () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 2.5; 9.9; -3.0; 42.0 ];
  let counts = Stats.Histogram.counts h in
  check_int "bin0 includes underflow" 3 counts.(0);
  check_int "bin1" 1 counts.(1);
  check_int "bin4 includes overflow" 2 counts.(4);
  check_int "total" 6 (Stats.Histogram.total h);
  let lo, hi = Stats.Histogram.bin_bounds h 1 in
  check_float "bounds lo" 2.0 lo;
  check_float "bounds hi" 4.0 hi

(* ------------------------------------------------------------------ *)
(* Series *)

let series_basic () =
  let s = Series.create ~name:"x" in
  Series.add s (Sim_time.of_sec 1) 10.0;
  Series.add s (Sim_time.of_sec 2) 20.0;
  Series.add s (Sim_time.of_sec 4) 40.0;
  check_int "length" 3 (Series.length s);
  check_string "name" "x" (Series.name s);
  Alcotest.(check (option (float 1e-9))) "last" (Some 40.0) (Series.last_value s);
  check_float "mean" (70.0 /. 3.0) (Series.mean s)

let series_monotonic () =
  let s = Series.create ~name:"x" in
  Series.add s (Sim_time.of_sec 2) 1.0;
  Alcotest.check_raises "backwards" (Invalid_argument "Series.add: non-monotonic time")
    (fun () -> Series.add s (Sim_time.of_sec 1) 2.0)

let series_value_at () =
  let s = Series.create ~name:"x" in
  Series.add s (Sim_time.of_sec 1) 10.0;
  Series.add s (Sim_time.of_sec 3) 30.0;
  Alcotest.(check (option (float 1e-9))) "before first" None (Series.value_at s Sim_time.zero);
  Alcotest.(check (option (float 1e-9))) "exact" (Some 10.0) (Series.value_at s (Sim_time.of_sec 1));
  Alcotest.(check (option (float 1e-9))) "step" (Some 10.0) (Series.value_at s (Sim_time.of_sec 2));
  Alcotest.(check (option (float 1e-9))) "after last" (Some 30.0) (Series.value_at s (Sim_time.of_sec 9))

let series_mean_between () =
  let s = Series.create ~name:"x" in
  List.iteri (fun i v -> Series.add s (Sim_time.of_sec i) v) [ 0.0; 10.0; 20.0; 30.0 ];
  check_float "window" 15.0 (Series.mean_between s (Sim_time.of_sec 1) (Sim_time.of_sec 2));
  check_float "empty window" 0.0
    (Series.mean_between s (Sim_time.of_sec 10) (Sim_time.of_sec 20))

let series_map_values () =
  let s = Series.create ~name:"x" in
  Series.add s Sim_time.zero 1.0;
  Series.add s (Sim_time.of_sec 1) 2.0;
  let doubled = Series.map_values (fun v -> v *. 2.0) s in
  Alcotest.(check (array (float 1e-9))) "doubled" [| 2.0; 4.0 |] (Series.values doubled)

let frame_csv () =
  let a = Series.create ~name:"a" and b = Series.create ~name:"b" in
  Series.add a (Sim_time.of_sec 1) 1.0;
  Series.add a (Sim_time.of_sec 2) 2.0;
  Series.add b (Sim_time.of_sec 2) 20.0;
  let f = Series.Frame.create () in
  Series.Frame.add_series f a;
  Series.Frame.add_series f b;
  let csv = Series.Frame.to_csv f in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "rows" 3 (List.length lines);
  check_string "header" "time_s,a,b" (List.nth lines 0);
  check_bool "empty cell before b's first sample" true
    (String.length (List.nth lines 1) < String.length (List.nth lines 2))

(* ------------------------------------------------------------------ *)
(* Table *)

let table_render () =
  let t = Table.create ~columns:[ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_rule t;
  Table.add_row t [ "b"; "22" ];
  let out = Table.render t in
  check_bool "has header" true (String.length out > 0);
  let lines = String.split_on_char '\n' (String.trim out) in
  check_int "lines" 5 (List.length lines);
  check_string "aligned row" "alpha |     1" (List.nth lines 2)

let table_arity () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: wrong number of cells")
    (fun () -> Table.add_row t [ "x"; "y" ])

let table_empty_columns () =
  Alcotest.check_raises "no columns" (Invalid_argument "Table.create: no columns") (fun () ->
      ignore (Table.create ~columns:[]))

let table_row_count () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  check_int "empty" 0 (Table.row_count t);
  Table.add_row t [ "1" ];
  Table.add_rule t;
  Table.add_row t [ "2" ];
  check_int "rules not counted" 2 (Table.row_count t)

(* ------------------------------------------------------------------ *)
(* Trace *)

let trace_basic () =
  let t = Trace.create () in
  Trace.record t ~time:Sim_time.zero ~source:"a" "one";
  Trace.recordf t ~time:(Sim_time.of_sec 1) ~source:"b" "two %d" 2;
  check_int "length" 2 (Trace.length t);
  check_int "dropped" 0 (Trace.dropped t);
  (match Trace.entries t with
  | [ e1; e2 ] ->
      check_string "first" "one" e1.Trace.message;
      check_string "second" "two 2" e2.Trace.message
  | _ -> Alcotest.fail "expected two entries");
  check_int "find" 1 (List.length (Trace.find t ~source:"b"))

let trace_eviction () =
  let t = Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Trace.record t ~time:(Sim_time.of_sec i) ~source:"s" (string_of_int i)
  done;
  check_int "capped" 3 (Trace.length t);
  check_int "dropped" 2 (Trace.dropped t);
  (match Trace.entries t with
  | e :: _ -> check_string "oldest kept" "3" e.Trace.message
  | [] -> Alcotest.fail "empty");
  Trace.clear t;
  check_int "cleared" 0 (Trace.length t)

let trace_capacity_boundary () =
  (* Filling to exactly capacity evicts nothing; the next record evicts
     exactly one. *)
  let cap = 4 in
  let t = Trace.create ~capacity:cap () in
  for i = 1 to cap do
    Trace.record t ~time:(Sim_time.of_sec i) ~source:"s" (string_of_int i)
  done;
  check_int "full, nothing dropped" 0 (Trace.dropped t);
  check_int "full length" cap (Trace.length t);
  Trace.record t ~time:(Sim_time.of_sec (cap + 1)) ~source:"s" "over";
  check_int "one dropped" 1 (Trace.dropped t);
  check_int "length stays at capacity" cap (Trace.length t);
  (match Trace.entries t with
  | e :: _ -> check_string "entry 1 evicted" "2" e.Trace.message
  | [] -> Alcotest.fail "empty");
  (* [dropped] keeps counting past the first eviction. *)
  for i = 1 to 10 do
    Trace.record t ~time:(Sim_time.of_sec (cap + 1 + i)) ~source:"s" "x"
  done;
  check_int "dropped accumulates" 11 (Trace.dropped t);
  (* [clear] resets the eviction counter too. *)
  Trace.clear t;
  check_int "dropped reset" 0 (Trace.dropped t)

let trace_find_after_wraparound () =
  let t = Trace.create ~capacity:4 () in
  (* 10 records, alternating sources: entries 7..10 survive. *)
  for i = 1 to 10 do
    let source = if i mod 2 = 0 then "even" else "odd" in
    Trace.record t ~time:(Sim_time.of_sec i) ~source (string_of_int i)
  done;
  check_int "dropped" 6 (Trace.dropped t);
  (match Trace.find t ~source:"even" with
  | [ e8; e10 ] ->
      check_string "surviving even entries, oldest first" "8" e8.Trace.message;
      check_string "newest even entry" "10" e10.Trace.message
  | l -> Alcotest.failf "expected [8; 10], got %d entries" (List.length l));
  (match Trace.find t ~source:"odd" with
  | [ e7; e9 ] ->
      check_string "surviving odd entries" "7" e7.Trace.message;
      check_string "newest odd entry" "9" e9.Trace.message
  | l -> Alcotest.failf "expected [7; 9], got %d entries" (List.length l));
  check_int "find misses evicted source" 0 (List.length (Trace.find t ~source:"gone"))

let trace_invalid_capacity () =
  Alcotest.check_raises "capacity" (Invalid_argument "Trace.create: capacity must be positive")
    (fun () -> ignore (Trace.create ~capacity:0 ()))

(* ------------------------------------------------------------------ *)
(* Plot *)

let plot_smoke () =
  let s = Series.create ~name:"load" in
  for i = 0 to 10 do
    Series.add s (Sim_time.of_sec i) (float_of_int (i * 10))
  done;
  let p = Plot.create ~y_min:0.0 ~y_max:100.0 ~title:"demo" () in
  Plot.add p s;
  let out = Plot.render p in
  check_bool "has title" true (String.length out > 4 && String.sub out 0 4 = "demo");
  check_bool "has marker" true (String.contains out '*')

let () =
  Alcotest.run "sim_engine"
    [
      ( "sim_time",
        [
          Alcotest.test_case "conversions" `Quick time_conversions;
          Alcotest.test_case "of_sec_f" `Quick time_of_sec_f;
          Alcotest.test_case "round half away" `Quick time_round_half_away;
          round_half_away_prop;
          Alcotest.test_case "arithmetic" `Quick time_arithmetic;
          Alcotest.test_case "invalid" `Quick time_invalid;
          Alcotest.test_case "pp" `Quick time_pp;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick prng_deterministic;
          Alcotest.test_case "split" `Quick prng_split_independent;
          Alcotest.test_case "copy" `Quick prng_copy;
          Alcotest.test_case "derive" `Quick prng_derive_deterministic;
          prng_derive_order_independent;
          prng_float_bounds;
          prng_int_bounds;
          Alcotest.test_case "exponential mean" `Quick prng_exponential_mean;
          Alcotest.test_case "poisson mean" `Quick prng_poisson_mean;
          Alcotest.test_case "poisson large mean" `Quick prng_poisson_large_mean;
          Alcotest.test_case "gaussian moments" `Quick prng_gaussian_moments;
          prng_shuffle_permutation;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "ordering" `Quick sim_ordering;
          Alcotest.test_case "same-time fifo" `Quick sim_same_time_fifo;
          Alcotest.test_case "past raises" `Quick sim_past_raises;
          Alcotest.test_case "cancel" `Quick sim_cancel;
          Alcotest.test_case "every" `Quick sim_every;
          Alcotest.test_case "every cancel" `Quick sim_every_cancel_stops;
          Alcotest.test_case "every start" `Quick sim_every_start;
          Alcotest.test_case "run_until clock" `Quick sim_run_until_clock;
          Alcotest.test_case "nested" `Quick sim_nested_schedule;
          Alcotest.test_case "zero period" `Quick sim_zero_period_every;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick vec_basic;
          Alcotest.test_case "bounds" `Quick vec_bounds;
          Alcotest.test_case "fold/iter" `Quick vec_fold_iter;
          Alcotest.test_case "floats" `Quick vec_floats;
          vec_growth;
        ] );
      ( "stats",
        [
          Alcotest.test_case "running" `Quick stats_running;
          Alcotest.test_case "running empty" `Quick stats_running_empty;
          Alcotest.test_case "merge" `Quick stats_merge;
          Alcotest.test_case "ci95" `Quick stats_ci95;
          Alcotest.test_case "reset" `Quick stats_reset;
          Alcotest.test_case "percentiles" `Quick stats_percentiles;
          stats_quantile_unsorted;
          Alcotest.test_case "summary" `Quick stats_summary;
          Alcotest.test_case "summary empty" `Quick stats_summary_empty;
          Alcotest.test_case "histogram" `Quick stats_histogram;
        ] );
      ( "series",
        [
          Alcotest.test_case "basic" `Quick series_basic;
          Alcotest.test_case "monotonic" `Quick series_monotonic;
          Alcotest.test_case "value_at" `Quick series_value_at;
          Alcotest.test_case "mean_between" `Quick series_mean_between;
          Alcotest.test_case "map_values" `Quick series_map_values;
          Alcotest.test_case "frame csv" `Quick frame_csv;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick table_render;
          Alcotest.test_case "arity" `Quick table_arity;
          Alcotest.test_case "empty columns" `Quick table_empty_columns;
          Alcotest.test_case "row count" `Quick table_row_count;
        ] );
      ( "trace",
        [
          Alcotest.test_case "basic" `Quick trace_basic;
          Alcotest.test_case "eviction" `Quick trace_eviction;
          Alcotest.test_case "capacity boundary" `Quick trace_capacity_boundary;
          Alcotest.test_case "find after wraparound" `Quick trace_find_after_wraparound;
          Alcotest.test_case "invalid capacity" `Quick trace_invalid_capacity;
        ] );
      ("plot", [ Alcotest.test_case "smoke" `Quick plot_smoke ]);
    ]
