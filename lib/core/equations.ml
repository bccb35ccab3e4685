module Frequency = Cpu_model.Frequency
module Calibration = Cpu_model.Calibration

let frequency_ratio = Frequency.ratio

exception Invalid_speed of { ratio : float; cf : float }

let () =
  Printexc.register_printer (function
    | Invalid_speed { ratio; cf } ->
        Some
          (Printf.sprintf
             "Pas.Equations.Invalid_speed: ratio (%g) * cf (%g) must be positive and finite"
             ratio cf)
    | _ -> None)

(* The negated comparison also rejects NaN, so a poisoned ratio or cf can
   never turn a credit division into inf/NaN silently. *)
let check_speed ratio cf = if not (ratio *. cf > 0.0) then raise (Invalid_speed { ratio; cf })

let absolute_load ~global_load ~ratio ~cf = global_load *. ratio *. cf

let load_at ~absolute_load ~ratio ~cf =
  check_speed ratio cf;
  absolute_load /. (ratio *. cf)

let time_at ~t_max ~ratio ~cf =
  check_speed ratio cf;
  t_max /. (ratio *. cf)

let time_with_credit ~t_init ~c_init ~c_new =
  if not (c_init > 0.0 && c_new > 0.0) then
    invalid_arg "Equations.time_with_credit: credits must be positive";
  t_init *. c_init /. c_new

let compensation_divisor ~ratio ~cf =
  check_speed ratio cf;
  ratio *. cf

let compensated_credit ~initial ~ratio ~cf = initial /. compensation_divisor ~ratio ~cf

let can_absorb table calibration freq ~absolute_load =
  let ratio = Frequency.ratio table freq in
  let cf = Calibration.cf calibration table freq in
  ratio *. 100.0 *. cf > absolute_load

(* Listing 1.1, iterating the frequency table in ascending order. *)
let rec first_absorbing table calibration ~absolute_load i =
  if i >= Frequency.count table then Frequency.max_freq table
  else begin
    let f = Frequency.nth table i in
    if can_absorb table calibration f ~absolute_load then f
    else first_absorbing table calibration ~absolute_load (i + 1)
  end

let compute_new_freq table calibration ~absolute_load =
  first_absorbing table calibration ~absolute_load 0
