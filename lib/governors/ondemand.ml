module Processor = Cpu_model.Processor
module Frequency = Cpu_model.Frequency

let create ?(period = Sim_time.of_ms 5) ?(up_threshold = 0.8) ?floor processor =
  if not (up_threshold > 0.0 && up_threshold <= 1.0) then
    invalid_arg "Ondemand.create: up_threshold out of (0, 1]";
  let table = Processor.freq_table processor in
  let clamp f = match floor with None -> f | Some fl -> max f (Frequency.closest table fl) in
  let observe ~now ~busy_fraction =
    if busy_fraction >= up_threshold then
      Processor.set_freq processor ~now (Frequency.max_freq table)
    else begin
      (* Convert the windowed utilization into an absolute load before
         choosing the target level, like cpufreq's frequency-invariant
         load tracking. *)
      let absolute_load = busy_fraction *. Processor.speed processor in
      Processor.set_freq processor ~now
        (clamp (Processor.lowest_sufficient processor ~threshold:up_threshold ~absolute_load))
    end;
    Governor.check_freq ~name:"ondemand" processor ~now
  in
  Governor.make ~name:"ondemand" ~period ~observe
