(* [cached_ratio]/[cached_cf]/[cached_speed] are derived from
   [cached_freq] and refreshed when [set_freq] leaves the processor on
   another level.  Caching
   them as mutable fields of this mixed record means each float is boxed
   once per frequency change; the dispatch hot path then reads the shared
   box by pointer instead of recomputing (and re-boxing) the performance
   law every tick.  [level_speeds] holds [speed_at] of every level, in
   table order, as a flat float array for the governors' level search. *)
type t = {
  arch : Arch.t;
  cpufreq : Cpufreq.t;
  meter : Power.Meter.t;
  level_speeds : float array;
  mutable cached_freq : Frequency.mhz;
  mutable cached_ratio : float;
  mutable cached_cf : float;
  mutable cached_speed : float;
}

let freq_table t = t.arch.Arch.freq_table
let current_freq t = Cpufreq.current t.cpufreq
let ratio_at t f = Frequency.ratio (freq_table t) f
let cf_at t f = Calibration.cf t.arch.Arch.calibration (freq_table t) f

let speed_in arch f =
  let table = arch.Arch.freq_table in
  Frequency.ratio table f *. Calibration.cf arch.Arch.calibration table f

let speed_at t f = speed_in t.arch f

let refresh_caches t =
  let f = current_freq t in
  t.cached_freq <- f;
  t.cached_ratio <- ratio_at t f;
  t.cached_cf <- cf_at t f;
  t.cached_speed <- speed_at t f

let create ?init_freq arch =
  let table = arch.Arch.freq_table in
  let init = match init_freq with Some f -> f | None -> Frequency.max_freq table in
  let t =
    {
      arch;
      cpufreq = Cpufreq.create ~freq_table:table ~init;
      meter = Power.Meter.create (Power.of_arch arch) table;
      level_speeds = Array.map (speed_in arch) (Frequency.levels table);
      cached_freq = init;
      cached_ratio = 0.0;
      cached_cf = 0.0;
      cached_speed = 0.0;
    }
  in
  refresh_caches t;
  t

let arch t = t.arch
let cpufreq t = t.cpufreq

(* [Cpufreq.set] clamps the request to the table, so the caches must be
   rebuilt from the read-back frequency, never from the argument.  They
   depend on nothing else, so a level they already describe keeps them. *)
let set_freq t ~now f =
  Cpufreq.set t.cpufreq ~now f;
  if current_freq t <> t.cached_freq then refresh_caches t

let rec lowest_from t ~threshold ~absolute_load i =
  if i >= Array.length t.level_speeds then Frequency.max_freq (freq_table t)
  else if t.level_speeds.(i) *. threshold >= absolute_load then Frequency.nth (freq_table t) i
  else lowest_from t ~threshold ~absolute_load (i + 1)

let lowest_sufficient t ~threshold ~absolute_load = lowest_from t ~threshold ~absolute_load 0

let ratio t = t.cached_ratio
let cf t = t.cached_cf
let speed t = t.cached_speed
let work_in t dt = speed t *. Sim_time.to_sec dt

let record_power t ~dt ~util =
  Power.Meter.record t.meter ~dt ~freq:(current_freq t) ~util

let record_busy t ~dt ~busy =
  Power.Meter.record_busy t.meter ~dt ~busy ~freq:(current_freq t)

let energy_joules t = Power.Meter.joules t.meter
let mean_watts t = Power.Meter.mean_watts t.meter
