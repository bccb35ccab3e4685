type t = Mhz | Credits | Pct | Frac | Seconds | Joules | Watts

let to_string = function
  | Mhz -> "MHz"
  | Credits -> "credits"
  | Pct -> "percent"
  | Frac -> "fraction in [0,1]"
  | Seconds -> "seconds"
  | Joules -> "joules"
  | Watts -> "watts"

(* Credits are percentages of full-speed capacity (Eq. 4), so the two mix
   freely; everything else is pairwise incompatible. *)
let compatible a b =
  a = b
  || match (a, b) with Credits, Pct | Pct, Credits -> true | _ -> false

(* Longest suffixes first, so [_seconds] wins over [_s]. *)
let suffixes =
  [
    ("_credits", Credits);
    ("_credit", Credits);
    ("_percent", Pct);
    ("_pct", Pct);
    ("_fraction", Frac);
    ("_frac", Frac);
    ("_seconds", Seconds);
    ("_secs", Seconds);
    ("_sec", Seconds);
    ("_mhz", Mhz);
    ("_freq", Mhz);
    ("_joules", Joules);
    ("_watts", Watts);
    ("_s", Seconds);
    ("_j", Joules);
    ("_w", Watts);
  ]

let words =
  [
    ("mhz", Mhz);
    ("freq", Mhz);
    ("credit", Credits);
    ("credits", Credits);
    ("pct", Pct);
    ("frac", Frac);
    ("ratio", Frac);
    ("cf", Frac);
    ("joules", Joules);
    ("watts", Watts);
  ]

let ends_with ~suffix s =
  let n = String.length s and m = String.length suffix in
  m <= n && String.sub s (n - m) m = suffix

let of_ident name =
  let name = String.lowercase_ascii name in
  match List.assoc_opt name words with
  | Some u -> Some u
  | None ->
      List.find_map
        (fun (suffix, u) -> if ends_with ~suffix name then Some u else None)
        suffixes

(* ------------------------------------------------------------------ *)

type entry = {
  path : string list;
  labels : (string * t) list;
  positional : (int * t) list;
  result : t option;
}

type registry = entry list

(* Merging, with the existing (seeded) entry winning on conflicts, so a
   suffix-less [.mli] declaration can never erase a hand-seeded unit. *)
let add registry entry =
  match List.partition (fun e -> e.path = entry.path) registry with
  | [], _ -> entry :: registry
  | old :: _, rest ->
      let keep_new assoc old_assoc =
        List.filter (fun (k, _) -> not (List.mem_assoc k old_assoc)) assoc
      in
      {
        path = entry.path;
        labels = old.labels @ keep_new entry.labels old.labels;
        positional = old.positional @ keep_new entry.positional old.positional;
        result = (match old.result with Some _ -> old.result | None -> entry.result);
      }
      :: rest

(* [entry.path] must be a suffix of the call path: a call can be more
   qualified than the entry ([Pas.Equations.load_at] matches
   [Equations.load_at]) but never less, so a bare [set] in unrelated code
   does not match [Cpufreq.set]. *)
let path_matches ~entry ~call =
  let rec prefix = function
    | [], _ -> true
    | _ :: _, [] -> false
    | x :: xs, y :: ys -> String.equal x y && prefix (xs, ys)
  in
  prefix (List.rev entry, List.rev call)

let find_call registry call =
  List.find_opt (fun e -> path_matches ~entry:e.path ~call) registry

let e ?(labels = []) ?(positional = []) ?result path =
  { path; labels; positional; result }

(* Eq. (1)–(4) and the entry points that feed them.  Label names like
   [~initial] or [~t_max] carry no suffix, so these units cannot be
   inferred and must be seeded. *)
let builtin =
  [
    (* lib/core/equations.mli — the paper's proportionality model *)
    e [ "Equations"; "absolute_load" ]
      ~labels:[ ("global_load", Pct); ("ratio", Frac); ("cf", Frac) ]
      ~result:Pct;
    e [ "Equations"; "load_at" ]
      ~labels:[ ("absolute_load", Pct); ("ratio", Frac); ("cf", Frac) ]
      ~result:Pct;
    e [ "Equations"; "time_at" ]
      ~labels:[ ("t_max", Seconds); ("ratio", Frac); ("cf", Frac) ]
      ~result:Seconds;
    e [ "Equations"; "time_with_credit" ]
      ~labels:[ ("t_init", Seconds); ("c_init", Credits); ("c_new", Credits) ]
      ~result:Seconds;
    e [ "Equations"; "compensated_credit" ]
      ~labels:[ ("initial", Credits); ("ratio", Frac); ("cf", Frac) ]
      ~result:Credits;
    e [ "Equations"; "can_absorb" ]
      ~labels:[ ("absolute_load", Pct) ]
      ~positional:[ (2, Mhz) ];
    e [ "Equations"; "compute_new_freq" ]
      ~labels:[ ("absolute_load", Pct) ]
      ~result:Mhz;
    e [ "Equations"; "frequency_ratio" ] ~positional:[ (1, Mhz) ] ~result:Frac;
    (* lib/cpu/frequency.mli *)
    e [ "Frequency"; "ratio" ] ~positional:[ (1, Mhz) ] ~result:Frac;
    e [ "Frequency"; "min_freq" ] ~result:Mhz;
    e [ "Frequency"; "max_freq" ] ~result:Mhz;
    e [ "Frequency"; "nth" ] ~result:Mhz;
    e [ "Frequency"; "closest" ] ~positional:[ (1, Mhz) ] ~result:Mhz;
    e [ "Frequency"; "next_up" ] ~positional:[ (1, Mhz) ] ~result:Mhz;
    e [ "Frequency"; "next_down" ] ~positional:[ (1, Mhz) ] ~result:Mhz;
    (* lib/cpu/calibration.mli *)
    e [ "Calibration"; "cf" ] ~positional:[ (2, Mhz) ] ~result:Frac;
    e [ "Calibration"; "effective_speed" ] ~positional:[ (2, Mhz) ] ~result:Frac;
    e [ "Calibration"; "alpha_of_cf_min" ] ~labels:[ ("cf_min", Frac) ];
    (* lib/cpu/cpufreq.mli *)
    e [ "Cpufreq"; "current" ] ~result:Mhz;
    e [ "Cpufreq"; "set" ] ~positional:[ (1, Mhz) ];
    e [ "Cpufreq"; "mean_frequency" ] ~result:Mhz;
    e [ "Cpufreq"; "residency_ratio" ] ~positional:[ (1, Mhz) ] ~result:Frac;
    (* lib/core/pas_sched.mli *)
    e [ "Pas_sched"; "last_absolute_load" ] ~result:Pct;
    e [ "Pas_sched"; "effective_credit" ] ~result:Credits;
    (* lib/cpu/power.mli *)
    e [ "Power"; "model" ] ~labels:[ ("idle_watts", Watts); ("max_watts", Watts) ];
    e [ "Power"; "watts" ] ~labels:[ ("freq", Mhz); ("util", Frac) ] ~result:Watts;
    e [ "Meter"; "record" ] ~labels:[ ("freq", Mhz); ("util", Frac) ];
    e [ "Meter"; "joules" ] ~result:Joules;
    e [ "Meter"; "mean_watts" ] ~result:Watts;
    (* lib/engine/sim_time.mli *)
    e [ "Sim_time"; "to_sec" ] ~result:Seconds;
    e [ "Sim_time"; "of_sec_f" ] ~positional:[ (0, Seconds) ];
    (* lib/experiments/rig.mli — scalar measurement rigs; run_pi returns
       the measured execution time (Table 2's "T (s)" columns) *)
    e [ "Rig"; "run_pi" ] ~result:Seconds;
  ]

(* ------------------------------------------------------------------ *)
(* Registry entries from an interface: walk every [val] declaration's
   arrow spine; labels declare their unit by name, the result declares
   its unit by the value's name. *)

let rec arrow_labels acc n ty =
  match ty.Parsetree.ptyp_desc with
  | Parsetree.Ptyp_arrow (label, _, rest) ->
      let acc, n =
        match label with
        | Asttypes.Labelled l | Asttypes.Optional l -> (
            match of_ident l with
            | Some u -> ((l, u) :: acc, n)
            | None -> (acc, n))
        | Asttypes.Nolabel -> (acc, n + 1)
      in
      arrow_labels acc n rest
  | _ -> acc

let of_interface ~module_name signature =
  List.filter_map
    (fun item ->
      match item.Parsetree.psig_desc with
      | Parsetree.Psig_value vd ->
          let name = vd.Parsetree.pval_name.Asttypes.txt in
          let labels = List.rev (arrow_labels [] 0 vd.Parsetree.pval_type) in
          (* [of_pct]-style constructors return the abstract type, not the
             unit their name mentions; only [to_…]/plain accessors count. *)
          let result =
            if String.length name >= 3 && String.sub name 0 3 = "of_" then None
            else of_ident name
          in
          if labels = [] && result = None then None
          else Some { path = [ module_name; name ]; labels; positional = []; result }
      | _ -> None)
    signature
