module Processor = Cpu_model.Processor
module Frequency = Cpu_model.Frequency

(* The lowest level at or above [target] MHz; the maximum if none is. *)
let rec first_at_least table ~target i =
  if i >= Frequency.count table then Frequency.max_freq table
  else begin
    let f = Frequency.nth table i in
    if float_of_int f >= target then f else first_at_least table ~target (i + 1)
  end

let create ?(period = Sim_time.of_ms 10) ?(margin = 1.25) processor =
  if margin < 1.0 then invalid_arg "Schedutil.create: margin must be >= 1";
  let table = Processor.freq_table processor in
  let observe ~now ~busy_fraction =
    (* Frequency-invariant utilization: busy time weighted by the current
       speed, relative to the maximum-frequency capacity. *)
    let util_abs = busy_fraction *. Processor.speed processor in
    let target = margin *. util_abs *. float_of_int (Frequency.max_freq table) in
    Processor.set_freq processor ~now (first_at_least table ~target 0);
    Governor.check_freq ~name:"schedutil" processor ~now
  in
  Governor.make ~name:"schedutil" ~period ~observe
