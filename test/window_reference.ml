(* Test-side references for the window observers: PAS's evaluation window
   and the ondemand, stable-ondemand and conservative governors, written as
   they were before their bodies were made allocation-free.  They go
   through [Equations] and the per-call [Frequency]/[Calibration] lookups,
   and recompute the processor's ratio, cf and speed from its current
   level, as the processor's caches once did at every level change.  The
   shipped observers must match them bit for bit (test_pas.ml and
   test_governors.ml drive both sides). *)

module Arch = Cpu_model.Arch
module Calibration = Cpu_model.Calibration
module Frequency = Cpu_model.Frequency
module Processor = Cpu_model.Processor
module Equations = Pas.Equations

let ratio p = Processor.ratio_at p (Processor.current_freq p)
let cf p = Processor.cf_at p (Processor.current_freq p)
let speed p = Processor.speed_at p (Processor.current_freq p)

let lowest_sufficient p ~threshold ~absolute_load =
  let table = Processor.freq_table p in
  let rec from i =
    if i >= Frequency.count table then Frequency.max_freq table
    else begin
      let f = Frequency.nth table i in
      if Processor.speed_at p f *. threshold >= absolute_load then f else from (i + 1)
    end
  in
  from 0

(* PAS's window over its own Credit scheduler (sanitizer checks left out:
   the tests run with the sanitizer off). *)
module Pas_window = struct
  type t = {
    processor : Processor.t;
    credit : Sched_credit.t;
    window : float array;
    mutable filled : int;
    mutable next : int;
    mutable evaluations : int;
    mutable frequency_decisions : int;
    mutable last_absolute_load : float;
  }

  let create ~processor domains =
    {
      processor;
      credit = Sched_credit.make domains;
      window = Array.make 3 0.0;
      filled = 0;
      next = 0;
      evaluations = 0;
      frequency_decisions = 0;
      last_absolute_load = 0.0;
    }

  let global_load t =
    let n = max 1 t.filled in
    let sum = ref 0.0 in
    for i = 0 to t.filled - 1 do
      sum := !sum +. t.window.(i)
    done;
    !sum /. float_of_int n *. 100.0

  let evaluate t ~now ~busy_fraction =
    t.window.(t.next) <- busy_fraction;
    t.next <- (t.next + 1) mod Array.length t.window;
    if t.filled < Array.length t.window then t.filled <- t.filled + 1;
    t.evaluations <- t.evaluations + 1;
    let table = Processor.freq_table t.processor in
    let calibration = (Processor.arch t.processor).Arch.calibration in
    let absolute_load =
      Equations.absolute_load ~global_load:(global_load t) ~ratio:(ratio t.processor)
        ~cf:(cf t.processor)
    in
    t.last_absolute_load <- absolute_load;
    let new_freq = Equations.compute_new_freq table calibration ~absolute_load in
    let ratio = Frequency.ratio table new_freq in
    let cf = Calibration.cf calibration table new_freq in
    Sched_credit.rescale_capped t.credit
      ~divisor:{ Vec.Floats.value = Equations.compensation_divisor ~ratio ~cf };
    if new_freq <> Processor.current_freq t.processor then
      t.frequency_decisions <- t.frequency_decisions + 1;
    Processor.set_freq t.processor ~now new_freq

  let scheduler t = Sched_credit.scheduler t.credit
end

let ondemand ?(up_threshold = 0.8) ?floor processor =
  let table = Processor.freq_table processor in
  let clamp f = match floor with None -> f | Some fl -> max f (Frequency.closest table fl) in
  fun ~now ~busy_fraction ->
    if busy_fraction >= up_threshold then
      Processor.set_freq processor ~now (Frequency.max_freq table)
    else begin
      let absolute_load = busy_fraction *. speed processor in
      Processor.set_freq processor ~now
        (clamp (lowest_sufficient processor ~threshold:up_threshold ~absolute_load))
    end

type stable = {
  window : float array;
  mutable filled : int;
  mutable next : int;
  mutable agreement : int;
  mutable wanted : Frequency.mhz;
}

let stable_ondemand ?(up_threshold = 0.8) ?(stability = 3) processor =
  let table = Processor.freq_table processor in
  let st =
    {
      window = Array.make 3 0.0;
      filled = 0;
      next = 0;
      agreement = 0;
      wanted = Processor.current_freq processor;
    }
  in
  let mean_util () =
    let n = max 1 st.filled in
    let sum = ref 0.0 in
    for i = 0 to st.filled - 1 do
      sum := !sum +. st.window.(i)
    done;
    !sum /. float_of_int n
  in
  fun ~now ~busy_fraction ->
    st.window.(st.next) <- busy_fraction;
    st.next <- (st.next + 1) mod Array.length st.window;
    if st.filled < Array.length st.window then st.filled <- st.filled + 1;
    let absolute_load = mean_util () *. speed processor in
    let desired = lowest_sufficient processor ~threshold:up_threshold ~absolute_load in
    let current = Processor.current_freq processor in
    if desired = current then begin
      st.agreement <- 0;
      st.wanted <- current
    end
    else begin
      if desired = st.wanted then st.agreement <- st.agreement + 1
      else begin
        st.wanted <- desired;
        st.agreement <- 1
      end;
      if st.agreement >= stability then begin
        let step =
          if desired > current then Frequency.next_up table current
          else Frequency.next_down table current
        in
        Processor.set_freq processor ~now step;
        st.agreement <- 0
      end
    end

let conservative ?(up_threshold = 0.8) ?(down_threshold = 0.3) processor =
  let table = Processor.freq_table processor in
  fun ~now ~busy_fraction ->
    let current = Processor.current_freq processor in
    if busy_fraction > up_threshold then
      Processor.set_freq processor ~now (Frequency.next_up table current)
    else if busy_fraction < down_threshold then
      Processor.set_freq processor ~now (Frequency.next_down table current)

(* Every shipped architecture, then synthetic calibrations: a [tie] whose
   lower level's Listing 1.1 capacity is exactly 50 %, a table and an
   exponent law that are not the fitted ones, and [invalid], whose lower
   level has a cf so small that [ratio * cf] rounds to 0, so PAS raises
   [Invalid_speed] when it picks that level (an idle window). *)
let synthetic name freqs calibration =
  { Arch.optiplex_755 with Arch.name; freq_table = Frequency.create freqs; calibration }

let arches =
  Array.of_list
    (Arch.all
    @ [
        synthetic "tie" [ 1000; 2000 ] Calibration.ideal;
        synthetic "table" [ 1200; 1800; 2400; 3000 ]
          (Calibration.table [ (1200, 0.7); (1800, 1.3); (3000, 1.0) ]);
        synthetic "exponent" [ 800; 1300; 2100; 2900; 3600 ] (Calibration.exponent 0.37);
        synthetic "invalid" [ 1000; 2000 ] (Calibration.table [ (1000, Int64.float_of_bits 1L) ]);
      ])

let arch name = List.find (fun a -> String.equal a.Arch.name name) (Array.to_list arches)

(* Busy fractions on a level's boundary, with their float neighbours: [b]
   with [b *. 100.0] at Listing 1.1's capacity [ratio *. 100.0 *. cf] (the
   first PAS window at the maximum frequency compares exactly that), and
   the ondemand family's [speed *. 0.8] (its test at full speed). *)
let boundary_samples arch =
  let table = arch.Arch.freq_table and cal = arch.Arch.calibration in
  Array.to_list (Frequency.levels table)
  |> List.concat_map (fun f ->
         let ratio = Frequency.ratio table f and cf = Calibration.cf cal table f in
         let b = ratio *. 100.0 *. cf /. 100.0 and s = ratio *. cf *. 0.8 in
         [ b; Float.pred b; Float.succ b; s; Float.pred s; Float.succ s ])
  |> List.filter (fun b -> b >= 0.0 && b <= 1.0)

(* A window sequence on one of [arches]: 0, 1, uniform draws and boundary
   values. *)
let gen_windows =
  let open QCheck.Gen in
  int_bound (Array.length arches - 1) >>= fun i ->
  let boundary = Array.of_list (boundary_samples arches.(i)) in
  let sample =
    frequency
      [ (2, return 0.0); (2, return 1.0); (3, float_range 0.0 1.0); (4, oneofa boundary) ]
  in
  list_size (int_range 1 40) sample >|= fun samples -> (i, samples)

let arb_windows =
  QCheck.make gen_windows ~print:(fun (i, samples) ->
      Printf.sprintf "%s: [%s]" arches.(i).Arch.name
        (String.concat "; " (List.map (Printf.sprintf "%h") samples)))

(* An observer's outcome, compared bit for bit: [Invalid_speed] by the
   bits of its ratio and cf, anything else by its printed form. *)
type outcome = Returned | Invalid_speed of int64 * int64 | Raised of string

let outcome f =
  match f () with
  | () -> Returned
  | exception Equations.Invalid_speed { ratio; cf } ->
      Invalid_speed (Int64.bits_of_float ratio, Int64.bits_of_float cf)
  | exception e -> Raised (Printexc.to_string e)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
