(* One workload, measured: a warm-up, timed repetitions each in a process
   of its own, an optional traced repetition, and every output check. *)

(* The length of one measured run, in seconds, when none is given; the
   same value as [run_seconds] in BENCHMARK.json (a test keeps the two in
   step), so the bare command measures what the bounds were set from. *)
let default_seconds = 25

(* -- digests -------------------------------------------------------- *)

let digests_file = "bench/e2e/expected_digests.txt"

(* Lines of [digests_file]: workload, size, seed, hex digest. *)
let expected_digest ~root workload size ~seed =
  match In_channel.with_open_text (Filename.concat root digests_file) In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      List.find_map
        (fun line ->
          match String.split_on_char ' ' (String.trim line) with
          | [ w; s; n; hex ]
            when String.equal w (Gen.name workload)
                 && String.equal s (Gen.size_name size)
                 && int_of_string_opt n = Some seed ->
              Some hex
          | _ -> None)
        (String.split_on_char '\n' text)

(* Each repetition's digest is one more checked operation: against the
   committed digest when there is one, else against the first repetition,
   so the traced build and every rerun must reproduce it.  At the default
   seed a committed digest is required.  [Some problem] per failed check. *)
let check_digests ~expected ~seed digests =
  let reference, to_check =
    match (expected, digests) with
    | Some hex, _ -> (Some hex, digests)
    | None, first :: rest when seed <> Gen.default_seed -> (Some first, rest)
    | None, _ -> (None, digests)
  in
  List.map
    (fun d ->
      match reference with
      | Some r when String.equal r d -> None
      | Some r -> Some (Printf.sprintf "digest %s differs from %s" d r)
      | None -> Some (Printf.sprintf "no committed digest at the default seed in %s" digests_file))
    to_check

(* -- one repetition, in a child process ----------------------------- *)

(* [f ()] in a forked child, its result marshalled back through a pipe;
   [None] when the child died before sending it.  Every repetition starts
   from the same process state this way.  That matters beyond the heap:
   domain ids come from one process-wide counter, and a host clears a
   byte per id up to its largest one on every dispatch tick
   ([Scheduler.Mask]), so in one long-lived process each repetition
   would run slower than the one before it. *)
let in_child (f : unit -> 'a) : 'a option =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let code =
        match f () with
        | v ->
            Marshal.to_channel oc v [];
            0
        | exception _ -> 1
      in
      flush_all ();
      close_out oc;
      Unix._exit code
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v = try Some (Marshal.from_channel ic : 'a) with End_of_file | Failure _ -> None in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      v

type sample = { rep : Run.rep; peak_rss : float; setups : float list }

(* One repetition from a collected heap, then its process's peak RSS, then
   three set-up samples, each the mean of five back-to-back set-ups (one
   is sub-millisecond).  The set-ups come after the run so the domains
   they create do not raise the ids the run sees. *)
let sample ~root ~traced input =
  Gc.full_major ();
  let rep = Run.run ~root ~traced input in
  let peak_rss = Metrics.peak_rss_mb () in
  let setup () = Run.setup_s (fst (Run.prepare ~root ~traced:false input)) in
  let setups =
    List.init 3 (fun _ ->
        Gc.full_major ();
        List.fold_left ( +. ) 0.0 (List.init 5 (fun _ -> setup ())) /. 5.0)
  in
  { rep; peak_rss; setups }

(* -- one workload ---------------------------------------------------- *)

type outcome = {
  attempted : int;
  failed : int;
  failures : string list;
  metrics : Metrics.t list;
  reps : Run.rep list;
  traced : Run.rep option;
}

(* At [Full] size one toy-size warm-up repetition comes first.  Then timed
   repetitions until [seconds] have passed, at least three at [Full] size
   and one at [Smoke] size; [traced] adds one instrumented repetition.
   Every repetition, warm-up included, runs in a child of its own, so this
   process builds no domain.  A child that dies is a failed operation.
   Peak RSS is the first timed child's: a child's resident set includes
   the pages it shares with this process, which grows as results come
   back, so later children would report more the longer the run. *)
let workload ~root ~seed ~size ~seconds ~traced workload =
  let input = Gen.generate workload size ~seed in
  let full = size = Gen.Full in
  let crashed = ref [] in
  let child ~traced input =
    let s = in_child (fun () -> sample ~root ~traced input) in
    if Option.is_none s then crashed := "a repetition's process died" :: !crashed;
    s
  in
  if full then ignore (child ~traced:false (Gen.generate workload Gen.Smoke ~seed));
  let min_reps = if full then 3 else 1 in
  let t0 = Run.wall () in
  let rec timed n acc =
    if n >= min_reps && Run.wall () -. t0 >= seconds then List.rev acc
    else timed (n + 1) (Option.to_list (child ~traced:false input) @ acc)
  in
  let samples = timed 0 [] in
  let reps = List.map (fun s -> s.rep) samples in
  let traced = if traced then Option.map (fun s -> s.rep) (child ~traced:true input) else None in
  let all_reps = reps @ Option.to_list traced in
  let digest_problems =
    check_digests ~expected:(expected_digest ~root workload size ~seed) ~seed (List.map Run.digest all_reps)
  in
  let attempted =
    List.fold_left (fun acc (r : Run.rep) -> acc + r.ops) 0 all_reps
    + List.length digest_problems + List.length !crashed
  in
  let failed =
    List.fold_left (fun acc (r : Run.rep) -> acc + r.failed) 0 all_reps
    + List.length (List.filter Option.is_some digest_problems)
    + List.length !crashed
  in
  let failures =
    List.concat_map (fun (r : Run.rep) -> List.rev r.failures) all_reps
    @ List.filter_map Fun.id digest_problems @ !crashed
  in
  let metrics =
    Metrics.end_to_end workload
      ~setups:(List.concat_map (fun s -> s.setups) samples)
      ~reps
      ~peak_rss:(match samples with first :: _ -> [ first.peak_rss ] | [] -> [])
      ~attempted ~failed
    @ Metrics.per_layer workload ~untraced:reps
        (Option.map
           (fun rep ->
             { Metrics.rep; cal = Probe.calibrate (); engine_s = Run.engine_self_s (Run.engine_cache ()) rep })
           traced)
  in
  { attempted; failed; failures; metrics; reps; traced }
