type model = { v_min : float; v_max : float; idle_watts : float; max_watts : float }

let model ?(v_min = 0.8) ?(v_max = 1.2) ~idle_watts ~max_watts () =
  if not (v_min > 0.0 && v_max >= v_min) then invalid_arg "Power.model: bad voltage range";
  if max_watts < idle_watts || idle_watts < 0.0 then
    invalid_arg "Power.model: bad power range";
  { v_min; v_max; idle_watts; max_watts }

let of_arch (a : Arch.t) = model ~idle_watts:a.Arch.idle_watts ~max_watts:a.Arch.max_watts ()

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
  m.idle_watts +. ((m.max_watts -. m.idle_watts) *. util *. dyn_scale)

let voltage_ratio m table freq = voltage m table freq /. m.v_max

(* Local copy of [Sim_time.to_sec]'s expression ([to_us] is the identity on
   the int representation, so the result is bit-identical).  Keeps the float
   conversion in this compilation unit: the cross-library call would return
   a freshly boxed float on every metering tick when cross-module inlining
   is off, as in a [--profile dev] build, which compiles with -opaque (the
   shipped release build inlines across units). *)
let[@inline always] sec_of t = float_of_int (Sim_time.to_us t) /. 1e6

module Meter = struct
  (* The running energy total lives in an all-float sub-record: stores into
     a flat float block are unboxed, so the per-tick accumulation allocates
     nothing. *)
  type acc = { mutable joules : float }

  type t = {
    model : model;
    table : Frequency.table;
    acc : acc;
    mutable elapsed : Sim_time.t;
  }

  let create model table =
    { model; table; acc = { joules = 0.0 }; elapsed = Sim_time.zero }

  let record t ~dt ~freq ~util =
    let p = watts t.model t.table ~freq ~util in
    t.acc.joules <- t.acc.joules +. (p *. sec_of dt);
    t.elapsed <- Sim_time.add t.elapsed dt

  let record_busy t ~dt ~busy ~freq =
    let util = sec_of busy /. sec_of dt in
    let p = watts t.model t.table ~freq ~util in
    t.acc.joules <- t.acc.joules +. (p *. sec_of dt);
    t.elapsed <- Sim_time.add t.elapsed dt

  let joules t = t.acc.joules
  let elapsed t = t.elapsed

  let mean_watts t =
    let secs = Sim_time.to_sec t.elapsed in
    if secs = 0.0 (* lint:ignore float-eq: exact zero guards the division *) then 0.0
    else t.acc.joules /. secs
end
