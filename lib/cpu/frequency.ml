type mhz = int
type table = { levels : mhz array }

let create freqs =
  if freqs = [] then invalid_arg "Frequency.create: empty table";
  List.iter
    (fun f -> if f <= 0 then invalid_arg "Frequency.create: non-positive frequency")
    freqs;
  let levels = List.sort_uniq Int.compare freqs in
  { levels = Array.of_list levels }

(* [levels] hands out a copy so callers cannot corrupt the table; lookups
   inside this module walk [t.levels] with top-level loops, so a governor
   or PAS evaluation allocates neither a copy nor a closure. *)
let levels t = Array.copy t.levels
let count t = Array.length t.levels
let min_freq t = t.levels.(0)
let max_freq t = t.levels.(Array.length t.levels - 1)

(* The loops name their array [lv]: a parameter called [levels] would read,
   to the allocation prover's call graph, as a reference to [levels] above. *)
let rec mem_from lv f i = i < Array.length lv && (lv.(i) = f || mem_from lv f (i + 1))

let mem t f = mem_from t.levels f 0

let rec index_from lv f i =
  if i >= Array.length lv then raise Not_found
  else if lv.(i) = f then i
  else index_from lv f (i + 1)

let index_of t f = index_from t.levels f 0

let nth t i =
  if i < 0 || i >= Array.length t.levels then invalid_arg "Frequency.nth: out of range";
  t.levels.(i)

let ratio t f =
  if not (mem t f) then raise Not_found;
  float_of_int f /. float_of_int (max_freq t)

let rec closest_from lv f best i =
  if i >= Array.length lv then best
  else begin
    let level = lv.(i) in
    let d = abs (level - f) and bd = abs (best - f) in
    let best = if d < bd || (d = bd && level < best) then level else best in
    closest_from lv f best (i + 1)
  end

let closest t f = closest_from t.levels f t.levels.(0) 0

let next_up t f =
  let i = index_of t f in
  t.levels.(min (i + 1) (Array.length t.levels - 1))

let next_down t f =
  let i = index_of t f in
  t.levels.(max (i - 1) 0)

let pp ppf t =
  Format.fprintf ppf "{%a} MHz"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_int)
    t.levels
