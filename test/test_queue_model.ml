(* Model-based test of the simulator's event queue.

   A reference scheduler — a plain unordered list scanned for the minimal
   (time, seq) entry, with the same fresh-seq discipline as [Simulator] —
   is driven through the same random interleavings of schedule / cancel /
   recurring / run_until operations.  The firing order and the [pending]
   count must match exactly: the heap layout, the periodic re-arm and
   cancelled-event compaction are all implementation detail the model must
   not be able to observe. *)

let check_int = Alcotest.(check int)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Reference model *)

module Model = struct
  type entry = {
    id : int;
    mutable time : int; (* microseconds *)
    mutable seq : int;
    period : int option; (* Some p for recurring entries *)
    mutable cancelled : bool;
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

  let schedule m ~id ~time ~period =
    let e = { id; time; seq = fresh_seq m; period; cancelled = false } in
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

  let run_until m horizon log =
    let rec loop () =
      match next_due m horizon with
      | None -> ()
      | Some e ->
          m.clock <- max m.clock e.time;
          log e.id;
          (match e.period with
          | Some p ->
              (* Mirror [Simulator.every]'s re-arm: the same entry is kept,
                 with a fresh seq, one period after the fire instant. *)
              e.time <- m.clock + p;
              e.seq <- fresh_seq m
          | None -> m.entries <- List.filter (fun x -> x != e) m.entries);
          loop ()
    in
    loop ();
    m.clock <- max m.clock horizon
end

(* ------------------------------------------------------------------ *)
(* Operation sequences *)

type op =
  | Schedule of int (* delay in µs from current clock *)
  | Recur of int (* period in µs, >= 1 *)
  | Cancel of int (* index into the handle table, mod its size *)
  | RunFor of int (* advance the clock by this many µs *)

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (frequency
         [
           (* Delays up to 5 s mix far one-shots with the short periodic
              chains. *)
           (5, map (fun d -> Schedule d) (int_range 0 5_000_000));
           (2, map (fun p -> Recur p) (int_range 1 10_000));
           (3, map (fun i -> Cancel i) (int_range 0 200));
           (3, map (fun d -> RunFor d) (int_range 0 50_000));
         ]))

let pp_op = function
  | Schedule d -> Printf.sprintf "Schedule %d" d
  | Recur p -> Printf.sprintf "Recur %d" p
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | RunFor d -> Printf.sprintf "RunFor %d" d

let arbitrary_ops =
  QCheck.make gen_ops ~print:(fun ops -> String.concat "; " (List.map pp_op ops))

let queue_matches_model ops =
  let sim = Simulator.create () in
  let model = Model.create () in
  let sim_log = ref [] and model_log = ref [] in
  let handles = ref [] and model_handles = ref [] in
  let recurring = ref [] and model_recurring = ref [] in
  let next_id = ref 0 in
  let check_point label =
    if Simulator.pending sim <> Model.pending model then
      QCheck.Test.fail_reportf "pending mismatch after %s: queue %d, model %d" label
        (Simulator.pending sim) (Model.pending model);
    if !sim_log <> !model_log then
      QCheck.Test.fail_reportf "firing order mismatch after %s: queue [%s], model [%s]"
        label
        (String.concat ";" (List.rev_map string_of_int !sim_log))
        (String.concat ";" (List.rev_map string_of_int !model_log))
  in
  List.iter
    (fun op ->
      match op with
      | Schedule delay ->
          let id = !next_id in
          incr next_id;
          let time = Sim_time.add (Simulator.now sim) (Sim_time.of_us delay) in
          let h = Simulator.at sim time (fun () -> sim_log := id :: !sim_log) in
          handles := h :: !handles;
          let e =
            Model.schedule model ~id ~time:(Sim_time.to_us time) ~period:None
          in
          model_handles := e :: !model_handles
      | Recur period ->
          let id = !next_id in
          incr next_id;
          let h =
            Simulator.every sim (Sim_time.of_us period) (fun () ->
                sim_log := id :: !sim_log)
          in
          handles := h :: !handles;
          recurring := h :: !recurring;
          let e =
            Model.schedule model ~id
              ~time:(Sim_time.to_us (Simulator.now sim) + period)
              ~period:(Some period)
          in
          model_handles := e :: !model_handles;
          model_recurring := e :: !model_recurring
      | Cancel i ->
          let hs = !handles and ms = !model_handles in
          let n = List.length hs in
          if n > 0 then begin
            let i = i mod n in
            Simulator.cancel sim (List.nth hs i);
            Model.cancel (List.nth ms i)
          end
      | RunFor delay ->
          let horizon = Sim_time.add (Simulator.now sim) (Sim_time.of_us delay) in
          Simulator.run_until sim horizon;
          Model.run_until model (Sim_time.to_us horizon) (fun id ->
              model_log := id :: !model_log);
          check_point (pp_op op))
    ops;
  (* Final drain: stop the recurring chains (they never terminate), then run
     far enough past the largest schedulable delay that every surviving
     one-shot fires through both schedulers. *)
  List.iter (fun h -> Simulator.cancel sim h) !recurring;
  List.iter Model.cancel !model_recurring;
  let horizon = Sim_time.add (Simulator.now sim) (Sim_time.of_us 6_000_000) in
  Simulator.run_until sim horizon;
  Model.run_until model (Sim_time.to_us horizon) (fun id ->
      model_log := id :: !model_log);
  check_point "final drain";
  true

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

let () =
  Alcotest.run "queue_model"
    [
      ( "model",
        [
          qtest "calendar queue matches sorted-list reference" arbitrary_ops
            queue_matches_model;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "every survives compact" `Quick every_survives_compact;
          Alcotest.test_case "every cancelled by its own action" `Quick
            every_cancelled_by_own_action;
          Alcotest.test_case "one-shot at the re-arm instant" `Quick one_shot_at_rearm_instant;
        ] );
    ]
