module Processor = Cpu_model.Processor
module Domain = Hypervisor.Domain
module Scheduler = Hypervisor.Scheduler

let inv_conservation =
  Analysis.Invariant.register "pas.credit-conservation" ~equation:"Eq. 4"
    ~doc:
      "after an evaluation, the sum of capped effective credits is exactly the sum of \
       initial credits scaled by 1/(ratio*cf)"

let inv_freq_member =
  Analysis.Invariant.register "pas.freq-in-table" ~equation:"Listing 1.1"
    ~doc:"the processor frequency is always a level of its P-state table"

let inv_busy_fraction =
  Analysis.Invariant.register "pas.busy-fraction"
    ~doc:"utilization samples fed to the evaluation window fall in [0, 1]"

let inv_credit_bounds =
  Analysis.Invariant.register "pas.effective-credit-bounds" ~equation:"Eq. 4"
    ~doc:"every effective credit is finite and non-negative"

(* [tests] and [divisors] hold, per level of the ascending table,
   Listing 1.1's capacity [ratio *. 100.0 *. cf] and Eq. 4's divisor
   [ratio *. cf].  They are computed once at [create] in flat float
   arrays, in the operation order of {!Equations.can_absorb} and
   {!Equations.compensation_divisor}, so an evaluation reads the very
   bits those functions compute — without calling across modules, which
   would box every float.  The two cells carry the floats a window
   stores or hands on, unboxed. *)
type t = {
  processor : Processor.t;
  credit_state : Sched_credit.t; (* the underlying Credit scheduler... *)
  credit : Scheduler.t; (* ...and its plug-in record *)
  domains : Domain.t list;
  tests : float array;
  divisors : float array;
  window : float array; (* ring of the last 3 utilization samples *)
  mutable filled : int;
  mutable next : int;
  mutable evaluations : int;
  mutable frequency_decisions : int;
  absolute_load : Vec.Floats.cell; (* the latest evaluation's, in percent *)
  divisor : Vec.Floats.cell; (* scratch for Sched_credit.rescale_capped *)
  mutable scheduler : Scheduler.t option;
}

(* Post-conditions of an evaluation, checkable at any quiescent point: the
   chosen frequency is a table level, and Listing 1.2 preserved absolute
   capacity — Σ effective = Σ initial / (ratio·cf) over the capped domains
   (Eq. 4 summed).  Public so tests can drive it against corrupted state.
   Cold: its reports are built only while the sanitizer is on. *)
(* alloc: cold *)
let check_invariants t ~now =
  if Analysis.Config.enabled () then begin
    let time_s = Sim_time.to_sec now in
    let table = Processor.freq_table t.processor in
    let freq = Processor.current_freq t.processor in
    Analysis.Check.run inv_freq_member ~time_s ~component:"pas"
      ~detail:(fun () ->
        (* lint:ignore hot-path-printf: cold sanitizer report *) Printf.sprintf
          "current frequency %d MHz is not a table level" freq)
      (Cpu_model.Frequency.mem table freq);
    if Cpu_model.Frequency.mem table freq then begin
      let ratio = Processor.ratio t.processor and cf = Processor.cf t.processor in
      let sum_initial = ref 0.0 and sum_effective = ref 0.0 in
      List.iter
        (fun d ->
          let initial = Domain.initial_credit d in
          if initial > 0.0 then begin
            let eff = t.credit.Scheduler.effective_credit d in
            Analysis.Check.run inv_credit_bounds ~time_s ~component:"pas"
              ~detail:(fun () ->
                (* lint:ignore hot-path-printf: cold sanitizer report *) Printf.sprintf
                  "domain %s effective credit %.9g" (Domain.name d) eff)
              (Float.is_finite eff && eff >= 0.0);
            sum_initial := !sum_initial +. initial;
            sum_effective := !sum_effective +. eff
          end)
        t.domains;
      let expected = !sum_initial /. (ratio *. cf) in
      Analysis.Check.run inv_conservation ~time_s ~component:"pas"
        ~detail:(fun () ->
          (* lint:ignore hot-path-printf: cold sanitizer report *) Printf.sprintf
            "sum of effective credits %.9g, expected %.9g (= %.9g / (%.6g * %.6g))"
            !sum_effective expected !sum_initial ratio cf)
        (Float.abs (!sum_effective -. expected) <= 1e-9 *. Float.max 1.0 expected)
    end
  end

(* alloc: cold *)
let check_busy_fraction ~now busy_fraction =
  Analysis.Check.within inv_busy_fraction ~time_s:(Sim_time.to_sec now) ~component:"pas"
    ~what:"busy_fraction" ~lo:0.0 ~hi:1.0 busy_fraction

(* [Equations.compensation_divisor]'s exception, with the level's ratio
   and cf as it computes them. *)
(* alloc: cold *)
let invalid_speed t level =
  let table = Processor.freq_table t.processor in
  let f = Cpu_model.Frequency.nth table level in
  let calibration = (Processor.arch t.processor).Cpu_model.Arch.calibration in
  raise
    (Equations.Invalid_speed
       {
         ratio = Cpu_model.Frequency.ratio table f;
         cf = Cpu_model.Calibration.cf calibration table f;
       })

(* One PAS evaluation: Listing 1.1 then Listing 1.2. *)
(* alloc: none *)
let evaluate t ~now ~busy_fraction =
  if Analysis.Config.enabled () then check_busy_fraction ~now busy_fraction;
  t.window.(t.next) <- busy_fraction;
  t.next <- (t.next + 1) mod Array.length t.window;
  if t.filled < Array.length t.window then t.filled <- t.filled + 1;
  t.evaluations <- t.evaluations + 1;
  (* The Global load (footnote 5), then {!Equations.absolute_load}. *)
  let sum = ref 0.0 in
  for i = 0 to t.filled - 1 do
    sum := !sum +. t.window.(i)
  done;
  let global_load = !sum /. float_of_int (max 1 t.filled) *. 100.0 in
  let absolute_load =
    global_load *. Processor.ratio t.processor *. Processor.cf t.processor
  in
  t.absolute_load.value <- absolute_load;
  (* Listing 1.1 ({!Equations.compute_new_freq}): the lowest level that
     absorbs the load, the highest if none does. *)
  let last = Array.length t.tests - 1 in
  let scan = ref 0 in
  while !scan < last && not (t.tests.(!scan) > absolute_load) do
    incr scan
  done;
  let level = !scan in
  if not (t.divisors.(level) > 0.0) then invalid_speed t level;
  (* Listing 1.2 over every capped domain, in one pass over the Credit
     scheduler's states: [initial /. divisor] is Eq. 4's
     [compensated_credit] to the bit. *)
  t.divisor.value <- t.divisors.(level);
  Sched_credit.rescale_capped t.credit_state ~divisor:t.divisor;
  let new_freq = Cpu_model.Frequency.nth (Processor.freq_table t.processor) level in
  if new_freq <> Processor.current_freq t.processor then
    t.frequency_decisions <- t.frequency_decisions + 1;
  Processor.set_freq t.processor ~now new_freq;
  check_invariants t ~now

let create ?(window = Sim_time.of_ms 100) ?(account_period = Sim_time.of_ms 30) ~processor
    domains =
  let credit_state = Sched_credit.make ~account_period domains in
  let credit = Sched_credit.scheduler credit_state in
  let table = Processor.freq_table processor in
  let calibration = (Processor.arch processor).Cpu_model.Arch.calibration in
  let levels = Cpu_model.Frequency.levels table in
  let ratios = Array.map (Cpu_model.Frequency.ratio table) levels in
  let cfs = Array.map (Cpu_model.Calibration.cf calibration table) levels in
  let t =
    {
      processor;
      credit_state;
      credit;
      domains;
      tests = Array.mapi (fun i ratio -> ratio *. 100.0 *. cfs.(i)) ratios;
      divisors = Array.mapi (fun i ratio -> ratio *. cfs.(i)) ratios;
      window = Array.make 3 0.0;
      filled = 0;
      next = 0;
      evaluations = 0;
      frequency_decisions = 0;
      absolute_load = Vec.Floats.cell ();
      divisor = Vec.Floats.cell ();
      scheduler = None;
    }
  in
  let sched =
    Scheduler.make ~name:"pas" ~domains:credit.Scheduler.domains ~pick:credit.Scheduler.pick
      ~charge:credit.Scheduler.charge ~on_account_period:credit.Scheduler.on_account_period
      ~set_effective_credit:credit.Scheduler.set_effective_credit
      ~effective_credit:credit.Scheduler.effective_credit
      ~observe_window:(fun ~now ~busy_fraction -> evaluate t ~now ~busy_fraction)
      ~window_period:window ()
  in
  t.scheduler <- Some sched;
  t

(* unreachable: [create] installs the scheduler before returning. *)
let scheduler t = match t.scheduler with Some s -> s | None -> assert false
let evaluations t = t.evaluations
let frequency_decisions t = t.frequency_decisions
let last_absolute_load t = t.absolute_load.value
let effective_credit t d = t.credit.Scheduler.effective_credit d
