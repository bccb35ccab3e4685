(* Model-based test of the simulator's event queue.

   A reference scheduler — a plain unordered list scanned for the minimal
   (time, seq) entry, with the same fresh-seq discipline as [Simulator] —
   is driven through the same random interleavings of schedule / cancel /
   recurring / run_until operations.  Recurring actions act on the queue
   too: they queue one-shots (at the current instant among others),
   cancel other events (enough to compact the queue while they run),
   cancel their own chain and log [pending].  The log and the [pending]
   count must match exactly: the heap layout, the in-place periodic
   re-arm and cancelled-event compaction are all implementation detail
   the model must not be able to observe. *)

let check_int = Alcotest.(check int)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Reference model *)

module Model = struct
  type entry = {
    mutable time : int; (* microseconds *)
    mutable seq : int;
    period : int option; (* Some p for recurring entries *)
    mutable cancelled : bool;
    action : unit -> unit;
  }

  type t = {
    mutable clock : int;
    mutable next_seq : int;
    mutable entries : entry list; (* queued, unordered *)
  }

  let create () = { clock = 0; next_seq = 0; entries = [] }

  let fresh_seq m =
    let s = m.next_seq in
    m.next_seq <- s + 1;
    s

  let schedule m ~time ~period action =
    let e = { time; seq = fresh_seq m; period; cancelled = false; action } in
    m.entries <- e :: m.entries;
    e

  (* Cancelling an entry that already fired (and was removed) is a no-op,
     as in [Simulator.cancel]. *)
  let cancel e = e.cancelled <- true

  let pending m = List.length (List.filter (fun e -> not e.cancelled) m.entries)

  (* Next live entry at or before [horizon] in (time, seq) order. *)
  let next_due m horizon =
    List.fold_left
      (fun best e ->
        if e.cancelled || e.time > horizon then best
        else
          match best with
          | Some b when (b.time, b.seq) <= (e.time, e.seq) -> best
          | _ -> Some e)
      None m.entries

  (* A firing entry leaves the list while its action runs, so [pending]
     does not count it; a recurring one still live after its action comes
     back one period after the fire instant, with the seq taken then. *)
  let run_until m horizon =
    let rec loop () =
      match next_due m horizon with
      | None -> ()
      | Some e ->
          m.clock <- max m.clock e.time;
          m.entries <- List.filter (fun x -> x != e) m.entries;
          e.action ();
          (match e.period with
          | Some p when not e.cancelled ->
              e.time <- m.clock + p;
              e.seq <- fresh_seq m;
              m.entries <- e :: m.entries
          | Some _ | None -> ());
          loop ()
    in
    loop ();
    m.clock <- max m.clock horizon
end

(* ------------------------------------------------------------------ *)
(* Operation sequences *)

(* What a recurring chain's action does on each firing, besides logging
   its id. *)
type chain = {
  spawn : int option; (* queue a one-shot this many µs on; 0 = the current instant *)
  cancel_others : int; (* cancel the latest handles other than its own, up to this many *)
  self_cancel_at : int option; (* cancel its own chain on this firing, first *)
  log_pending : bool; (* log [pending] as the action sees it *)
}

type op =
  | Schedule of int (* delay in µs from current clock *)
  | Burst of int * int (* that many one-shots, spread over a delay in µs *)
  | Recur of int * chain (* period in µs, >= 1 *)
  | Cancel of int (* index into the handle table, mod its size *)
  | RunFor of int (* advance the clock by this many µs *)

let gen_chain =
  QCheck.Gen.(
    map4
      (fun spawn cancel_others self_cancel_at log_pending ->
        { spawn; cancel_others; self_cancel_at; log_pending })
      (frequency
         [ (3, return None); (1, return (Some 0)); (1, map Option.some (int_range 1 3_000)) ])
      (frequency [ (4, return 0); (1, int_range 1 3); (1, int_range 60 150) ])
      (frequency [ (3, return None); (1, map Option.some (int_range 1 4)) ])
      bool)

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (frequency
         [
           (* Delays up to 5 s mix far one-shots with the short periodic
              chains. *)
           (5, map (fun d -> Schedule d) (int_range 0 5_000_000));
           (1, map2 (fun n d -> Burst (n, d)) (int_range 1 150) (int_range 0 200_000));
           (2, map2 (fun p c -> Recur (p, c)) (int_range 1 10_000) gen_chain);
           (3, map (fun i -> Cancel i) (int_range 0 200));
           (3, map (fun d -> RunFor d) (int_range 0 50_000));
         ]))

let pp_chain c =
  Printf.sprintf "{spawn=%s; cancel_others=%d; self_cancel_at=%s; log_pending=%b}"
    (match c.spawn with Some d -> string_of_int d | None -> "-")
    c.cancel_others
    (match c.self_cancel_at with Some n -> string_of_int n | None -> "-")
    c.log_pending

let pp_op = function
  | Schedule d -> Printf.sprintf "Schedule %d" d
  | Burst (n, d) -> Printf.sprintf "Burst (%d, %d)" n d
  | Recur (p, c) -> Printf.sprintf "Recur (%d, %s)" p (pp_chain c)
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | RunFor d -> Printf.sprintf "RunFor %d" d

let arbitrary_ops =
  QCheck.make gen_ops ~print:(fun ops -> String.concat "; " (List.map pp_op ops))

(* One side of the differential: the simulator or the model behind the
   same few operations, with its own log, handle table and id counter.
   Chain actions run inside each side's own [run_until], so the two
   sides agree only if they fire the same events in the same order. *)
type 'h side = {
  now : unit -> int;
  at : int -> (unit -> unit) -> 'h; (* absolute µs *)
  every : int -> int -> (unit -> unit) -> 'h; (* first firing, period *)
  cancel : 'h -> unit;
  pending : unit -> int;
  run_until : int -> unit;
  mutable log : string list; (* newest first *)
  mutable handles : (int * 'h) list; (* newest first *)
  mutable recurring : 'h list;
  mutable next_id : int;
}

let sim_side () =
  let sim = Simulator.create () in
  {
    now = (fun () -> Sim_time.to_us (Simulator.now sim));
    at = (fun time f -> Simulator.at sim (Sim_time.of_us time) f);
    every =
      (fun start period f ->
        Simulator.every sim ~start:(Sim_time.of_us start) (Sim_time.of_us period) f);
    cancel = Simulator.cancel sim;
    pending = (fun () -> Simulator.pending sim);
    run_until = (fun t -> Simulator.run_until sim (Sim_time.of_us t));
    log = [];
    handles = [];
    recurring = [];
    next_id = 0;
  }

let model_side () =
  let m = Model.create () in
  let schedule time period f = Model.schedule m ~time ~period f in
  {
    now = (fun () -> m.Model.clock);
    at = (fun time f -> schedule time None f);
    every = (fun start period f -> schedule start (Some period) f);
    cancel = Model.cancel;
    pending = (fun () -> Model.pending m);
    run_until = Model.run_until m;
    log = [];
    handles = [];
    recurring = [];
    next_id = 0;
  }

let fresh_id side =
  let id = side.next_id in
  side.next_id <- id + 1;
  id

let schedule_one_shot side time =
  let id = fresh_id side in
  let h = side.at time (fun () -> side.log <- string_of_int id :: side.log) in
  side.handles <- (id, h) :: side.handles

let chain_action side ~id chain self =
  let fires = ref 0 in
  fun () ->
    incr fires;
    side.log <- string_of_int id :: side.log;
    if chain.log_pending then
      side.log <- Printf.sprintf "pending@%d=%d" id (side.pending ()) :: side.log;
    Option.iter (fun d -> schedule_one_shot side (side.now () + d)) chain.spawn;
    if chain.self_cancel_at = Some !fires then Option.iter side.cancel !self;
    let rec cancel_latest n = function
      | [] -> ()
      | _ when n = 0 -> ()
      | (other, h) :: rest ->
          if other <> id then side.cancel h;
          cancel_latest (if other <> id then n - 1 else n) rest
    in
    cancel_latest chain.cancel_others side.handles

let apply side op =
  match op with
  | Schedule delay -> schedule_one_shot side (side.now () + delay)
  | Burst (n, spread) ->
      for i = 0 to n - 1 do
        schedule_one_shot side (side.now () + (i * 7919 mod (spread + 1)))
      done
  | Recur (period, chain) ->
      let id = fresh_id side in
      let self = ref None in
      let h = side.every (side.now () + period) period (chain_action side ~id chain self) in
      self := Some h;
      side.handles <- (id, h) :: side.handles;
      side.recurring <- h :: side.recurring
  | Cancel i ->
      let n = List.length side.handles in
      if n > 0 then side.cancel (snd (List.nth side.handles (i mod n)))
  | RunFor delay -> side.run_until (side.now () + delay)

let queue_matches_model ops =
  let sim = sim_side () and model = model_side () in
  let check_point label =
    if sim.pending () <> model.pending () then
      QCheck.Test.fail_reportf "pending mismatch after %s: queue %d, model %d" label
        (sim.pending ()) (model.pending ());
    if sim.log <> model.log then
      QCheck.Test.fail_reportf "log mismatch after %s: queue [%s], model [%s]" label
        (String.concat ";" (List.rev sim.log))
        (String.concat ";" (List.rev model.log))
  in
  List.iter
    (fun op ->
      apply sim op;
      apply model op;
      check_point (pp_op op))
    ops;
  (* Final drain: stop the recurring chains (they never terminate), then run
     far enough past the largest schedulable delay that every surviving
     one-shot fires through both schedulers. *)
  let drain side =
    List.iter side.cancel side.recurring;
    side.run_until (side.now () + 6_000_000)
  in
  drain sim;
  drain model;
  check_point "final drain";
  true

(* A chain cancels a burst of queued one-shots from its action, enough to
   compact the queue while it runs, and logs [pending]; in the second
   case it has cancelled its own chain first.  The fixed cases the
   generator reaches at random. *)
let compaction_inside_a_chain () =
  List.iter
    (fun self_cancel_at ->
      let chain = { spawn = Some 0; cancel_others = 150; self_cancel_at; log_pending = true } in
      let ops = [ Burst (150, 100_000); Recur (1_000, chain); Schedule 500; RunFor 5_000 ] in
      Alcotest.(check bool) (pp_chain chain) true (queue_matches_model ops))
    [ None; Some 1 ]

(* ------------------------------------------------------------------ *)
(* Regression: a recurring timer must survive queue compaction.  Mass
   cancellation trips the cancelled>live rebuild inside [cancel]; the
   re-armed cell of an active [every] chain must be carried over. *)

let every_survives_compact () =
  let sim = Simulator.create () in
  let fires = ref 0 in
  let timer = Simulator.every sim (Sim_time.of_ms 1) (fun () -> incr fires) in
  (* Fire a few times so the cell sitting in the queue is a re-armed one. *)
  Simulator.run_until sim (Sim_time.of_ms 3);
  check_int "fires before compaction" 3 !fires;
  let handles =
    List.init 200 (fun i ->
        Simulator.at sim (Sim_time.of_ms (100 + i)) (fun () -> ()))
  in
  check_int "live before cancellation" 201 (Simulator.pending sim);
  (* 200 dead vs 1 live: far past the dead > 64 && 2*dead > length
     threshold, so the cancellations force the in-place rebuild. *)
  List.iter (fun h -> Simulator.cancel sim h) handles;
  check_int "compaction keeps the live cell" 1 (Simulator.pending sim);
  Simulator.run_until sim (Sim_time.of_ms 10);
  check_int "timer still fires after compaction" 10 !fires;
  (* The handle still controls the surviving chain, not a stale cell. *)
  Simulator.cancel sim timer;
  Simulator.run_until sim (Sim_time.of_ms 20);
  check_int "cancelled after compaction stays silent" 10 !fires;
  check_int "queue drains clean" 0 (Simulator.pending sim)

(* A periodic action that cancels its own chain: the firing in progress
   completes, nothing is re-armed, and the queue holds no dead entry. *)
let every_cancelled_by_own_action () =
  let sim = Simulator.create () in
  let fires = ref 0 in
  let self = ref None in
  let timer =
    Simulator.every sim (Sim_time.of_ms 1) (fun () ->
        incr fires;
        if !fires = 3 then Option.iter (Simulator.cancel sim) !self)
  in
  self := Some timer;
  Simulator.run_until sim (Sim_time.of_ms 10);
  check_int "fires up to the cancelling one" 3 !fires;
  check_int "nothing re-armed" 0 (Simulator.pending sim);
  check_int "no step left over" 0 (if Simulator.step sim then 1 else 0)

(* A one-shot that a periodic action queues at the instant its chain
   re-arms to fires first: the chain takes its seq after the action has run. *)
let one_shot_at_rearm_instant () =
  let sim = Simulator.create () in
  let log = ref [] in
  let period = Sim_time.of_ms 2 in
  let n = ref 0 in
  let timer =
    Simulator.every sim period (fun () ->
        incr n;
        log := Printf.sprintf "tick%d" !n :: !log;
        if !n = 1 then
          ignore
            (Simulator.at sim
               (Sim_time.add (Simulator.now sim) period)
               (fun () -> log := "one-shot" :: !log)))
  in
  Simulator.run_until sim (Sim_time.of_ms 6);
  Simulator.cancel sim timer;
  Alcotest.(check (list string))
    "FIFO at the re-arm instant" [ "tick1"; "one-shot"; "tick2"; "tick3" ] (List.rev !log)

(* The queue must not keep a fired or cancelled event alive, nor what its
   action captured: a cluster stops and rebuilds hosts whose chains hold
   the whole host. *)
let[@inline never] one_shot sim weak i time =
  let payload = ref i in
  Weak.set weak i (Some payload);
  Simulator.at sim time (fun () -> incr payload)

let[@inline never] cancelled_one_shot sim weak i time =
  Simulator.cancel sim (one_shot sim weak i time)

let finished_events_are_released () =
  let sim = Simulator.create () in
  let weak = Weak.create 102 in
  ignore (one_shot sim weak 0 (Sim_time.of_ms 1));
  cancelled_one_shot sim weak 1 (Sim_time.of_ms 2);
  ignore (Simulator.every sim (Sim_time.of_ms 1) (fun () -> ()));
  (* The 65th cancellation compacts the first 65 away; the rest stay
     queued, dead, until their instants. *)
  for i = 0 to 99 do
    cancelled_one_shot sim weak (2 + i) (Sim_time.of_ms (50 + i))
  done;
  Simulator.run_until sim (Sim_time.of_ms 10);
  Gc.full_major ();
  Alcotest.(check bool) "fired one-shot released" false (Weak.check weak 0);
  Alcotest.(check bool) "cancelled one-shot released" false (Weak.check weak 1);
  Alcotest.(check bool) "compacted one-shot released" false (Weak.check weak 2);
  check_int "the chain is still queued" 1 (Simulator.pending sim)

let () =
  Alcotest.run "queue_model"
    [
      ( "model",
        [
          qtest "calendar queue matches sorted-list reference" arbitrary_ops
            queue_matches_model;
          Alcotest.test_case "compaction inside a chain's action" `Quick
            compaction_inside_a_chain;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "every survives compact" `Quick every_survives_compact;
          Alcotest.test_case "every cancelled by its own action" `Quick
            every_cancelled_by_own_action;
          Alcotest.test_case "one-shot at the re-arm instant" `Quick one_shot_at_rearm_instant;
          Alcotest.test_case "finished events are released" `Quick finished_events_are_released;
        ] );
    ]
