type leakage = Constant | Voltage_scaled

type model = {
  v_min : float;
  v_max : float;
  idle_watts : float;
  max_watts : float;
  leakage : leakage;
  reading_period : Sim_time.t; (* zero: every recorded interval is priced alone *)
}

let model ?(v_min = 0.8) ?(v_max = 1.2) ?(leakage = Constant)
    ?(reading_period = Sim_time.zero) ~idle_watts ~max_watts () =
  if not (v_min > 0.0 && v_max >= v_min) then invalid_arg "Power.model: bad voltage range";
  if max_watts < idle_watts || idle_watts < 0.0 then
    invalid_arg "Power.model: bad power range";
  if Sim_time.compare reading_period Sim_time.zero < 0 then
    invalid_arg "Power.model: negative reading period";
  { v_min; v_max; idle_watts; max_watts; leakage; reading_period }

let of_arch ?leakage ?reading_period (a : Arch.t) =
  model ?leakage ?reading_period ~idle_watts:a.Arch.idle_watts ~max_watts:a.Arch.max_watts ()

(* [voltage] and [watts] are inlined into the per-tick meter paths so their
   float intermediates stay in registers instead of boxing at the call
   boundary. *)
let[@inline always] voltage m table freq =
  let fmin = float_of_int (Frequency.min_freq table)
  and fmax = float_of_int (Frequency.max_freq table) in
  if fmax = fmin then m.v_max
  else m.v_min +. ((m.v_max -. m.v_min) *. (float_of_int freq -. fmin) /. (fmax -. fmin))

let[@inline always] watts m table ~freq ~util =
  (* Clamp with plain comparisons: [Float.max]/[Float.min] are out-of-line
     calls that box the (freshly computed) utilization on every tick. *)
  let util = if util < 0.0 then 0.0 else if util > 1.0 then 1.0 else util in
  let v = voltage m table freq in
  let dyn_scale =
    v *. v *. float_of_int freq /. (m.v_max *. m.v_max *. float_of_int (Frequency.max_freq table))
  in
  let static =
    match m.leakage with
    | Constant -> m.idle_watts
    | Voltage_scaled -> m.idle_watts *. (v /. m.v_max)
  in
  static +. ((m.max_watts -. m.idle_watts) *. util *. dyn_scale)

(* Local copy of [Sim_time.to_sec]'s expression ([to_us] is the identity on
   the int representation, so the result is bit-identical).  Keeps the float
   conversion in this compilation unit: the cross-library call would return
   a freshly boxed float on every metering tick when cross-module inlining
   is off, as in a [--profile dev] build, which compiles with -opaque (the
   shipped release build inlines across units). *)
let[@inline always] sec_of t = float_of_int (Sim_time.to_us t) /. 1e6

module Meter = struct
  (* The running energy total and the memoized increments live in an
     all-float sub-record: stores into a flat float block are unboxed, so
     the per-tick accumulation allocates nothing. *)
  type acc = {
    mutable joules : float;
    mutable idle_inc : float; (* energy of an idle tick at [memo_freq], [memo_dt] *)
    mutable full_inc : float; (* ... and of a fully busy one *)
  }

  type t = {
    model : model;
    table : Frequency.table;
    cores : int;
    acc : acc;
    mutable elapsed : Sim_time.t;
    mutable memo_freq : Frequency.mhz; (* -1 before the first tick *)
    mutable memo_dt : Sim_time.t;
    mutable memo_full : Sim_time.t; (* [cores * memo_dt]: a fully busy tick *)
    mutable clock : Sim_time.t; (* time recorded so far, read by a periodic meter *)
    mutable unread : Sim_time.t; (* busy time since a periodic meter's last reading *)
  }

  let create ?(cores = 1) model table =
    {
      model;
      table;
      cores;
      acc = { joules = 0.0; idle_inc = 0.0; full_inc = 0.0 };
      elapsed = Sim_time.zero;
      memo_freq = -1;
      memo_dt = Sim_time.zero;
      memo_full = Sim_time.zero;
      clock = Sim_time.zero;
      unread = Sim_time.zero;
    }

  let record t ~dt ~freq ~util =
    let p = watts t.model t.table ~freq ~util in
    t.acc.joules <- t.acc.joules +. (p *. sec_of dt);
    t.elapsed <- Sim_time.add t.elapsed dt

  (* On one core [sec_of dt *. 1.0] is [sec_of dt] to the bit. *)
  let[@inline always] busy_energy t ~dt ~busy ~freq =
    let util = sec_of busy /. (sec_of dt *. float_of_int t.cores) in
    watts t.model t.table ~freq ~util *. sec_of dt

  (* Runs when the frequency or the tick length changes: the same
     expression as a partial tick's, so the stored increments are
     bit-identical to computing them on every tick. *)
  let[@inline never] remember t ~dt ~freq =
    let full = Sim_time.of_us (Sim_time.to_us dt * t.cores) in
    t.acc.idle_inc <- busy_energy t ~dt ~busy:Sim_time.zero ~freq;
    t.acc.full_inc <- busy_energy t ~dt ~busy:full ~freq;
    t.memo_freq <- freq;
    t.memo_dt <- dt;
    t.memo_full <- full

  (* A periodic meter: at every multiple of the reading period of recorded
     time, before taking the interval that starts there, it prices the
     busy time since its previous reading at [freq], the frequency it
     reads at that instant. *)
  let[@inline never] record_reading t ~dt ~busy ~freq =
    let period = t.model.reading_period in
    t.clock <- Sim_time.add t.clock dt;
    if Sim_time.to_us t.clock mod Sim_time.to_us period = 0 then begin
      t.acc.joules <- t.acc.joules +. busy_energy t ~dt:period ~busy:t.unread ~freq;
      t.elapsed <- Sim_time.add t.elapsed period;
      t.unread <- Sim_time.zero
    end;
    t.unread <- Sim_time.add t.unread busy

  (* Idle and fully busy ticks, nearly all of a run's, add a stored
     increment; only a partial tick divides. *)
  (* alloc: none *)
  let record_busy t ~dt ~busy ~freq =
    if t.model.reading_period <> Sim_time.zero then record_reading t ~dt ~busy ~freq
    else begin
      if freq <> t.memo_freq || dt <> t.memo_dt then remember t ~dt ~freq;
      let inc =
        if busy = Sim_time.zero then t.acc.idle_inc
        else if busy = t.memo_full then t.acc.full_inc
        else busy_energy t ~dt ~busy ~freq
      in
      t.acc.joules <- t.acc.joules +. inc;
      t.elapsed <- Sim_time.add t.elapsed dt
    end

  let joules t = t.acc.joules
  let elapsed t = t.elapsed

  let mean_watts t =
    let secs = Sim_time.to_sec t.elapsed in
    if secs = 0.0 (* lint:ignore float-eq: exact zero guards the division *) then 0.0
    else t.acc.joules /. secs
end
