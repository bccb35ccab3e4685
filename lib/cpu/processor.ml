(* [levels] holds, per level of the table in ascending order, the
   frequency's [ratio], [cf] and [speed] ([ratio *. cf]), computed once at
   creation; [level] is the entry of the current frequency.  The floats of
   this mixed record are boxed once, here, so [ratio]/[cf]/[speed] hand out
   a shared box by pointer and a frequency change only moves [level]:
   neither the dispatch tick nor a governor's level change allocates. *)
type level = { freq : Frequency.mhz; ratio : float; cf : float; speed : float }

type t = {
  arch : Arch.t;
  cores : int;
  cpufreq : Cpufreq.t;
  meter : Power.Meter.t;
  levels : level array;
  mutable level : level;
}

let freq_table t = t.arch.Arch.freq_table
let current_freq t = Cpufreq.current t.cpufreq
let ratio_at t f = Frequency.ratio (freq_table t) f
let cf_at t f = Calibration.cf t.arch.Arch.calibration (freq_table t) f

let speed_in arch f =
  let table = arch.Arch.freq_table in
  Frequency.ratio table f *. Calibration.cf arch.Arch.calibration table f

let speed_at t f = speed_in t.arch f

let create ?init_freq ?(cores = 1) ?power arch =
  if cores < 1 then invalid_arg "Processor.create: cores must be >= 1";
  let table = arch.Arch.freq_table in
  let init = match init_freq with Some f -> f | None -> Frequency.max_freq table in
  let cpufreq = Cpufreq.create ~freq_table:table ~init in
  let levels =
    Array.map
      (fun freq ->
        {
          freq;
          ratio = Frequency.ratio table freq;
          cf = Calibration.cf arch.Arch.calibration table freq;
          speed = speed_in arch freq;
        })
      (Frequency.levels table)
  in
  {
    arch;
    cores;
    cpufreq;
    meter =
      Power.Meter.create ~cores
        (match power with Some m -> m | None -> Power.of_arch arch)
        table;
    levels;
    level = levels.(Frequency.index_of table init);
  }

let arch t = t.arch
let cores t = t.cores
let cpufreq t = t.cpufreq

(* [Cpufreq.set] clamps the request to the table, so [level] must follow
   the read-back frequency, never the argument. *)
let set_freq t ~now f =
  Cpufreq.set t.cpufreq ~now f;
  let f = current_freq t in
  if f <> t.level.freq then t.level <- t.levels.(Frequency.index_of (freq_table t) f)

(* The load arrives in a flat cell so that the caller's freshly computed
   float does not have to be boxed to cross into this module. *)
let rec lowest_from t ~threshold ~(absolute_load : Vec.Floats.cell) i =
  if i >= Array.length t.levels then Frequency.max_freq (freq_table t)
  else if t.levels.(i).speed *. threshold >= absolute_load.value then t.levels.(i).freq
  else lowest_from t ~threshold ~absolute_load (i + 1)

let lowest_sufficient t ~threshold ~absolute_load = lowest_from t ~threshold ~absolute_load 0

let ratio t = t.level.ratio
let cf t = t.level.cf
let speed t = t.level.speed
let work_in t dt = speed t *. Sim_time.to_sec dt

let record_power t ~dt ~util =
  Power.Meter.record t.meter ~dt ~freq:(current_freq t) ~util

let record_busy t ~dt ~busy =
  Power.Meter.record_busy t.meter ~dt ~busy ~freq:(current_freq t)

let energy_joules t = Power.Meter.joules t.meter
let mean_watts t = Power.Meter.mean_watts t.meter
