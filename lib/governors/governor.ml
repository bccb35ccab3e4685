module Processor = Cpu_model.Processor
module Frequency = Cpu_model.Frequency

let inv_busy_fraction =
  Analysis.Invariant.register "governor.busy-fraction"
    ~doc:"utilization samples handed to a governor fall in [0, 1]"

let inv_freq_member =
  Analysis.Invariant.register "governor.freq-in-table" ~equation:"Listing 1.1"
    ~doc:"a governor decision leaves the processor on a P-state table level"

type t = {
  name : string;
  period : Sim_time.t;
  observe : now:Sim_time.t -> busy_fraction:float -> unit;
}

(* Sanitizer hook shared by every governor: call after a frequency decision
   to assert the processor still sits on a table level.  Cold: it builds its
   report only while the sanitizer is on. *)
(* alloc: cold *)
let check_freq ~name processor ~now =
  if Analysis.Config.enabled () then begin
    let freq = Processor.current_freq processor in
    Analysis.Check.run inv_freq_member ~time_s:(Sim_time.to_sec now) ~component:name
      ~detail:(fun () -> Printf.sprintf "frequency %d MHz is not a table level" freq)
      (Frequency.mem (Processor.freq_table processor) freq)
  end

let make ~name ~period ~observe =
  if Sim_time.equal period Sim_time.zero then invalid_arg "Governor.make: zero period";
  (* Every governor shares the [0, 1] busy-fraction invariant, so it is
     enforced here rather than in each implementation. *)
  let observe ~now ~busy_fraction =
    if Analysis.Config.enabled () then
      Analysis.Check.within inv_busy_fraction ~time_s:(Sim_time.to_sec now) ~component:name
        ~what:"busy_fraction" ~lo:0.0 ~hi:1.0 busy_fraction;
    observe ~now ~busy_fraction
  in
  { name; period; observe }

let pinned name processor target =
  make ~name ~period:(Sim_time.of_sec 1) ~observe:(fun ~now ~busy_fraction:_ ->
      Processor.set_freq processor ~now target)

let performance processor =
  pinned "performance" processor (Frequency.max_freq (Processor.freq_table processor))

let powersave processor =
  pinned "powersave" processor (Frequency.min_freq (Processor.freq_table processor))
