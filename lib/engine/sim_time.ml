type t = int

let zero = 0

let of_us n =
  if n < 0 then invalid_arg "Sim_time.of_us: negative duration";
  n

let of_ms n = of_us (n * 1_000)
let of_sec n = of_us (n * 1_000_000)

(* [int_of_float (Float.round x)] without the libm call: for
   0 <= x < 2^52 the truncation [n] and the fraction [x - n] are exact,
   and from 2^52 on [x] is an integer, so the fraction is 0. *)
let[@inline] round_half_away x =
  let n = int_of_float x in
  if x -. float_of_int n >= 0.5 then n + 1 else n

let of_sec_f s =
  if Float.is_nan s || s < 0.0 then invalid_arg "Sim_time.of_sec_f: negative";
  round_half_away (s *. 1e6)

let to_us t = t
let[@inline] to_ms t = float_of_int t /. 1e3
let[@inline] to_sec t = float_of_int t /. 1e6
let add a b = a + b

let sub a b =
  if a < b then invalid_arg "Sim_time.sub: negative result";
  a - b

let diff a b = abs (a - b)
let ( + ) = add
let ( - ) = sub
let compare = Int.compare
let equal = Int.equal
let[@inline] min (a : t) b = if a <= b then a else b
let[@inline] max (a : t) b = if a >= b then a else b

let pp ppf t =
  if t >= 1_000_000 then Format.fprintf ppf "%.3fs" (to_sec t)
  else if t >= 1_000 then Format.fprintf ppf "%.3fms" (to_ms t)
  else Format.fprintf ppf "%dus" t

let to_string t = Format.asprintf "%a" pp t
