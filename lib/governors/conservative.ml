module Processor = Cpu_model.Processor
module Frequency = Cpu_model.Frequency

type t = {
  processor : Processor.t;
  table : Frequency.table;
  up_threshold : float;
  down_threshold : float;
}

(* alloc: none *)
let observe t ~now ~busy_fraction =
  let current = Processor.current_freq t.processor in
  if busy_fraction > t.up_threshold then
    Processor.set_freq t.processor ~now (Frequency.next_up t.table current)
  else if busy_fraction < t.down_threshold then
    Processor.set_freq t.processor ~now (Frequency.next_down t.table current);
  Governor.check_freq ~name:"conservative" t.processor ~now

let create ?(period = Sim_time.of_ms 80) ?(up_threshold = 0.8) ?(down_threshold = 0.3)
    processor =
  if not (0.0 < down_threshold && down_threshold < up_threshold && up_threshold <= 1.0) then
    invalid_arg "Conservative.create: thresholds must satisfy 0 < down < up <= 1";
  let t = { processor; table = Processor.freq_table processor; up_threshold; down_threshold } in
  Governor.make ~name:"conservative" ~period ~observe:(observe t)
