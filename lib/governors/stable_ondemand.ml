module Processor = Cpu_model.Processor
module Frequency = Cpu_model.Frequency

type t = {
  processor : Processor.t;
  table : Frequency.table;
  up_threshold : float;
  stability : int;
  window : float array; (* ring of the last [n] utilization samples *)
  mutable filled : int;
  mutable next : int;
  mutable agreement : int; (* consecutive evaluations requesting [wanted] *)
  mutable wanted : Frequency.mhz;
  load : Vec.Floats.cell; (* scratch: the absolute load handed to the level search *)
}

(* alloc: none *)
let observe t ~now ~busy_fraction =
  t.window.(t.next) <- busy_fraction;
  t.next <- (t.next + 1) mod Array.length t.window;
  if t.filled < Array.length t.window then t.filled <- t.filled + 1;
  let sum = ref 0.0 in
  for i = 0 to t.filled - 1 do
    sum := !sum +. t.window.(i)
  done;
  let mean_util = !sum /. float_of_int (max 1 t.filled) in
  t.load.value <- mean_util *. Processor.speed t.processor;
  let desired =
    Processor.lowest_sufficient t.processor ~threshold:t.up_threshold ~absolute_load:t.load
  in
  let current = Processor.current_freq t.processor in
  if desired = current then begin
    t.agreement <- 0;
    t.wanted <- current
  end
  else begin
    if desired = t.wanted then t.agreement <- t.agreement + 1
    else begin
      t.wanted <- desired;
      t.agreement <- 1
    end;
    if t.agreement >= t.stability then begin
      let step =
        if desired > current then Frequency.next_up t.table current
        else Frequency.next_down t.table current
      in
      Processor.set_freq t.processor ~now step;
      t.agreement <- 0
    end
  end;
  Governor.check_freq ~name:"stable-ondemand" t.processor ~now

let create ?(period = Sim_time.of_ms 100) ?(up_threshold = 0.8) ?(stability = 3) processor =
  if not (up_threshold > 0.0 && up_threshold <= 1.0) then
    invalid_arg "Stable_ondemand.create: up_threshold out of (0, 1]";
  if stability < 1 then invalid_arg "Stable_ondemand.create: stability must be >= 1";
  let t =
    {
      processor;
      table = Processor.freq_table processor;
      up_threshold;
      stability;
      window = Array.make 3 0.0;
      filled = 0;
      next = 0;
      agreement = 0;
      wanted = Processor.current_freq processor;
      load = Vec.Floats.cell ();
    }
  in
  Governor.make ~name:"stable-ondemand" ~period ~observe:(observe t)
