module Processor = Cpu_model.Processor
module Frequency = Cpu_model.Frequency

type state = {
  window : float array; (* ring of the last [n] utilization samples *)
  mutable filled : int;
  mutable next : int;
  mutable agreement : int; (* consecutive evaluations requesting [wanted] *)
  mutable wanted : Frequency.mhz;
}

let create ?(period = Sim_time.of_ms 100) ?(up_threshold = 0.8) ?(stability = 3) processor =
  if not (up_threshold > 0.0 && up_threshold <= 1.0) then
    invalid_arg "Stable_ondemand.create: up_threshold out of (0, 1]";
  if stability < 1 then invalid_arg "Stable_ondemand.create: stability must be >= 1";
  let table = Processor.freq_table processor in
  let st =
    {
      window = Array.make 3 0.0;
      filled = 0;
      next = 0;
      agreement = 0;
      wanted = Processor.current_freq processor;
    }
  in
  let mean_util () =
    let n = max 1 st.filled in
    let sum = ref 0.0 in
    for i = 0 to st.filled - 1 do
      sum := !sum +. st.window.(i)
    done;
    !sum /. float_of_int n
  in
  let observe ~now ~busy_fraction =
    st.window.(st.next) <- busy_fraction;
    st.next <- (st.next + 1) mod Array.length st.window;
    if st.filled < Array.length st.window then st.filled <- st.filled + 1;
    let absolute_load = mean_util () *. Processor.speed processor in
    let desired =
      Processor.lowest_sufficient processor ~threshold:up_threshold ~absolute_load
    in
    let current = Processor.current_freq processor in
    if desired = current then begin
      st.agreement <- 0;
      st.wanted <- current
    end
    else begin
      if desired = st.wanted then st.agreement <- st.agreement + 1
      else begin
        st.wanted <- desired;
        st.agreement <- 1
      end;
      if st.agreement >= stability then begin
        let step =
          if desired > current then Frequency.next_up table current
          else Frequency.next_down table current
        in
        Processor.set_freq processor ~now step;
        st.agreement <- 0
      end
    end;
    Governor.check_freq ~name:"stable-ondemand" processor ~now
  in
  Governor.make ~name:"stable-ondemand" ~period ~observe
