module Processor = Cpu_model.Processor
module Frequency = Cpu_model.Frequency

type t = {
  processor : Processor.t;
  table : Frequency.table;
  up_threshold : float;
  floor : Frequency.mhz option;
  load : Vec.Floats.cell; (* scratch: the absolute load handed to the level search *)
}

let clamp t f =
  match t.floor with None -> f | Some fl -> Int.max f (Frequency.closest t.table fl)

(* alloc: none *)
let observe t ~now ~busy_fraction =
  if busy_fraction >= t.up_threshold then
    Processor.set_freq t.processor ~now (Frequency.max_freq t.table)
  else begin
    (* Convert the windowed utilization into an absolute load before
       choosing the target level, like cpufreq's frequency-invariant
       load tracking. *)
    t.load.value <- busy_fraction *. Processor.speed t.processor;
    Processor.set_freq t.processor ~now
      (clamp t
         (Processor.lowest_sufficient t.processor ~threshold:t.up_threshold
            ~absolute_load:t.load))
  end;
  Governor.check_freq ~name:"ondemand" t.processor ~now

let create ?(period = Sim_time.of_ms 5) ?(up_threshold = 0.8) ?floor processor =
  if not (up_threshold > 0.0 && up_threshold <= 1.0) then
    invalid_arg "Ondemand.create: up_threshold out of (0, 1]";
  let t =
    {
      processor;
      table = Processor.freq_table processor;
      up_threshold;
      floor;
      load = Vec.Floats.cell ();
    }
  in
  Governor.make ~name:"ondemand" ~period ~observe:(observe t)
