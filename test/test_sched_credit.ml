(* Tests for the Xen Credit scheduler: cap enforcement, non-work-conserving
   behaviour, Dom0 priority, uncapped domains, effective-credit updates. *)

module Workload = Workloads.Workload
module Domain = Hypervisor.Domain
module Scheduler = Hypervisor.Scheduler
module Host = Hypervisor.Host
module Processor = Cpu_model.Processor

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float_eps eps = Alcotest.(check (float eps))
let sec = Sim_time.of_sec

let run_host ?(duration = 10) scheduler =
  let sim = Simulator.create () in
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let host = Host.create ~sim ~processor ~scheduler () in
  Host.run_for host (sec duration);
  host

let share d duration = Sim_time.to_sec (Domain.cpu_time d) /. float_of_int duration

let cap_enforced_under_contention () =
  let a = Domain.create ~name:"a" ~credit_pct:20.0 (Workload.busy_loop ()) in
  let b = Domain.create ~name:"b" ~credit_pct:70.0 (Workload.busy_loop ()) in
  ignore (run_host (Sched_credit.create [ a; b ]));
  check_float_eps 0.01 "a share" 0.20 (share a 10);
  check_float_eps 0.01 "b share" 0.70 (share b 10)

let non_work_conserving () =
  (* The defining fix-credit property: b's unused slices are NOT given to a. *)
  let a = Domain.create ~name:"a" ~credit_pct:20.0 (Workload.busy_loop ()) in
  let b = Domain.create ~name:"b" ~credit_pct:70.0 (Workload.idle ()) in
  let host = run_host (Sched_credit.create [ a; b ]) in
  check_float_eps 0.01 "a stays at its cap" 0.20 (share a 10);
  check_float_eps 0.1 "host mostly idle" 2.0 (Sim_time.to_sec (Host.total_busy host))

let dom0_has_priority () =
  (* With total demand above 100%, Dom0 must still get its full 10%. *)
  let dom0 = Domain.create ~is_dom0:true ~name:"dom0" ~credit_pct:10.0 (Workload.busy_loop ()) in
  let a = Domain.create ~name:"a" ~credit_pct:50.0 (Workload.busy_loop ()) in
  let b = Domain.create ~name:"b" ~credit_pct:50.0 (Workload.busy_loop ()) in
  ignore (run_host (Sched_credit.create [ a; dom0; b ]));
  check_float_eps 0.01 "dom0 full share" 0.10 (share dom0 10)

let uncapped_soaks_leftover_only () =
  let capped = Domain.create ~name:"capped" ~credit_pct:30.0 (Workload.busy_loop ()) in
  let free = Domain.create ~name:"free" ~credit_pct:0.0 (Workload.busy_loop ()) in
  ignore (run_host (Sched_credit.create [ free; capped ]));
  check_float_eps 0.01 "capped gets its guarantee" 0.30 (share capped 10);
  check_float_eps 0.01 "uncapped gets the rest" 0.70 (share free 10)

let equal_credits_fair_rr () =
  let a = Domain.create ~name:"a" ~credit_pct:60.0 (Workload.busy_loop ()) in
  let b = Domain.create ~name:"b" ~credit_pct:60.0 (Workload.busy_loop ()) in
  ignore (run_host (Sched_credit.create [ a; b ]));
  (* Demand 120% over a 100% CPU: both should converge to ~50%. *)
  check_float_eps 0.02 "a half" 0.5 (share a 10);
  check_float_eps 0.02 "b half" 0.5 (share b 10)

let set_effective_credit_applies () =
  let a = Domain.create ~name:"a" ~credit_pct:20.0 (Workload.busy_loop ()) in
  let sched = Sched_credit.create [ a ] in
  let sim = Simulator.create () in
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let host = Host.create ~sim ~processor ~scheduler:sched () in
  Host.run_for host (sec 5);
  sched.Scheduler.set_effective_credit a 40.0;
  check_float_eps 1e-9 "effective updated" 40.0 (sched.Scheduler.effective_credit a);
  check_float_eps 1e-9 "initial untouched" 20.0 (Domain.initial_credit a);
  let before = Sim_time.to_sec (Domain.cpu_time a) in
  Host.run_for host (sec 5);
  let delta = Sim_time.to_sec (Domain.cpu_time a) -. before in
  check_float_eps 0.05 "40% after raise" 2.0 delta

let set_effective_credit_lowering () =
  let a = Domain.create ~name:"a" ~credit_pct:80.0 (Workload.busy_loop ()) in
  let sched = Sched_credit.create [ a ] in
  let sim = Simulator.create () in
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let host = Host.create ~sim ~processor ~scheduler:sched () in
  sched.Scheduler.set_effective_credit a 10.0;
  Host.run_for host (sec 10);
  check_float_eps 0.02 "lowered cap respected" 0.10 (share a 10)

let set_effective_credit_negative () =
  let a = Domain.create ~name:"a" ~credit_pct:20.0 (Workload.busy_loop ()) in
  let sched = Sched_credit.create [ a ] in
  Alcotest.check_raises "negative"
    (Invalid_argument "Sched_credit.set_effective_credit: negative credit") (fun () ->
      sched.Scheduler.set_effective_credit a (-5.0))

let unknown_domain_rejected () =
  let a = Domain.create ~name:"a" ~credit_pct:20.0 (Workload.busy_loop ()) in
  let sched = Sched_credit.create [ a ] in
  let foreign = Domain.create ~name:"foreign" ~credit_pct:20.0 (Workload.idle ()) in
  Alcotest.check_raises "unknown" (Invalid_argument "Sched_credit: unknown domain") (fun () ->
      ignore (sched.Scheduler.effective_credit foreign))

let duplicate_domains_rejected () =
  let a = Domain.create ~name:"a" ~credit_pct:20.0 (Workload.idle ()) in
  Alcotest.check_raises "duplicates" (Invalid_argument "Sched_credit.create: duplicate domains")
    (fun () -> ignore (Sched_credit.create [ a; a ]))

let quota_does_not_accumulate () =
  (* A domain idle for a while must not burst beyond its cap afterwards:
     quotas reset each period instead of accruing. *)
  let app =
    Workloads.Web_app.create
      ~rate_schedule:[ (Sim_time.zero, 0.0); (sec 5, 3.0) ]
      ()
  in
  let a = Domain.create ~name:"a" ~credit_pct:20.0 (Workloads.Web_app.workload app) in
  let sched = Sched_credit.create [ a ] in
  let sim = Simulator.create () in
  let processor = Processor.create Cpu_model.Arch.optiplex_755 in
  let host = Host.create ~sim ~processor ~scheduler:sched () in
  Host.run_for host (sec 5);
  let before = Sim_time.to_sec (Domain.cpu_time a) in
  Host.run_for host (sec 5);
  let delta = Sim_time.to_sec (Domain.cpu_time a) -. before in
  check_float_eps 0.02 "still 20% after idling" 1.0 delta;
  check_bool "no back-pay at all" true (before < 0.01)

let boost_cuts_wake_latency () =
  let run ~boost =
    let sim = Simulator.create () in
    let processor = Processor.create Cpu_model.Arch.optiplex_755 in
    let cl = Workloads.Closed_loop.create ~clients:2 ~think_time:0.2 ~request_work:0.002 () in
    let interactive =
      Domain.create ~name:"interactive" ~credit_pct:10.0 (Workloads.Closed_loop.workload cl)
    in
    let batch =
      List.init 5 (fun i ->
          Domain.create ~name:(Printf.sprintf "b%d" i) ~credit_pct:18.0 (Workload.busy_loop ()))
    in
    let scheduler = Sched_credit.create ~boost (interactive :: batch) in
    let host = Host.create ~sim ~processor ~scheduler () in
    Host.run_for host (sec 30);
    Stats.Running.mean (Workloads.Closed_loop.response_times cl)
  in
  let with_boost = run ~boost:true and without = run ~boost:false in
  check_bool
    (Printf.sprintf "boost (%.4fs) beats no-boost (%.4fs)" with_boost without)
    true (with_boost < without)

let boost_preserves_shares () =
  (* BOOST reorders dispatch but must not change CPU shares. *)
  let a = Domain.create ~name:"a" ~credit_pct:30.0 (Workload.busy_loop ()) in
  let b = Domain.create ~name:"b" ~credit_pct:60.0 (Workload.busy_loop ()) in
  ignore (run_host (Sched_credit.create ~boost:true [ a; b ]));
  check_float_eps 0.01 "a share" 0.30 (share a 10);
  check_float_eps 0.01 "b share" 0.60 (share b 10)

let pick_excludes () =
  let a = Domain.create ~name:"a" ~credit_pct:50.0 (Workload.busy_loop ()) in
  let b = Domain.create ~name:"b" ~credit_pct:50.0 (Workload.busy_loop ()) in
  let sched = Sched_credit.create [ a; b ] in
  match
    sched.Scheduler.pick ~now:Sim_time.zero ~remaining:(Sim_time.of_ms 1)
      ~exclude:(Scheduler.Mask.of_list [ a ])
  with
  | Some { Scheduler.domain; _ } -> check_bool "avoids excluded" true (Domain.equal domain b)
  | None -> Alcotest.fail "expected a pick"

let pick_none_when_all_excluded () =
  let a = Domain.create ~name:"a" ~credit_pct:50.0 (Workload.busy_loop ()) in
  let sched = Sched_credit.create [ a ] in
  check_bool "none" true
    (sched.Scheduler.pick ~now:Sim_time.zero ~remaining:(Sim_time.of_ms 1)
       ~exclude:(Scheduler.Mask.of_list [ a ])
    = None)

(* ------------------------------------------------------------------ *)
(* Differential check of the counter-gated pick against the five-pass
   reference it replaced: the same domains drive both, and every pick's
   slice, every round-robin pointer and every effective credit must
   agree. *)

module Reference = struct
  type st = {
    domain : Domain.t;
    mutable effective_credit : float;
    mutable quota : Sim_time.t;
    mutable was_runnable : bool;
    mutable boosted : bool;
  }

  type t = {
    account_period : Sim_time.t;
    host_capacity : int;
    boost : bool;
    doms : st array;
    mutable rr : int;
    mutable rr_uncapped : int;
    mutable rr_boost : int;
  }

  let quota_of t credit =
    Sim_time.of_sec_f
      (credit /. 100.0 *. Sim_time.to_sec t.account_period *. float_of_int t.host_capacity)

  let refill t st = st.quota <- quota_of t st.effective_credit

  let create ~account_period ~host_capacity ~boost domains =
    let t =
      {
        account_period;
        host_capacity;
        boost;
        doms =
          Array.of_list
            (List.map
               (fun d ->
                 {
                   domain = d;
                   effective_credit = Domain.initial_credit d;
                   quota = Sim_time.zero;
                   was_runnable = false;
                   boosted = false;
                 })
               domains);
        rr = 0;
        rr_uncapped = 0;
        rr_boost = 0;
      }
    in
    Array.iter (refill t) t.doms;
    t

  let state t d =
    match Array.find_opt (fun st -> Domain.equal st.domain d) t.doms with
    | Some st -> st
    | None -> invalid_arg "unknown domain"

  let eligible_capped st exclude =
    (not (Domain.uncapped st.domain))
    && Domain.runnable st.domain
    && (not (Scheduler.Mask.mem exclude st.domain))
    && Sim_time.compare st.quota Sim_time.zero > 0

  let eligible_uncapped st exclude =
    Domain.uncapped st.domain
    && Domain.runnable st.domain
    && not (Scheduler.Mask.mem exclude st.domain)

  let rr_find doms exclude ptr pred =
    let n = Array.length doms in
    let rec go i =
      if i >= n then -1
      else begin
        let idx = (ptr + 1 + i) mod n in
        if pred doms.(idx) exclude then idx else go (i + 1)
      end
    in
    go 0

  let pick t ~remaining ~exclude =
    Array.iter
      (fun st ->
        let runnable = Domain.runnable st.domain in
        if t.boost && runnable && not st.was_runnable then st.boosted <- true;
        st.was_runnable <- runnable)
      t.doms;
    let slice st cap = Some (st.domain, Sim_time.min cap remaining) in
    match
      Array.find_opt (fun st -> Domain.is_dom0 st.domain && eligible_capped st exclude) t.doms
    with
    | Some st -> slice st st.quota
    | None -> (
        let ib =
          rr_find t.doms exclude t.rr_boost (fun st ex ->
              st.boosted && (not (Domain.is_dom0 st.domain)) && eligible_capped st ex)
        in
        if ib >= 0 then begin
          t.rr_boost <- ib;
          slice t.doms.(ib) t.doms.(ib).quota
        end
        else
          let ic =
            rr_find t.doms exclude t.rr (fun st ex ->
                (not (Domain.is_dom0 st.domain)) && eligible_capped st ex)
          in
          if ic >= 0 then begin
            t.rr <- ic;
            slice t.doms.(ic) t.doms.(ic).quota
          end
          else
            match rr_find t.doms exclude t.rr_uncapped eligible_uncapped with
            | -1 -> None
            | iu ->
                t.rr_uncapped <- iu;
                slice t.doms.(iu) remaining)

  let charge t ~domain ~used =
    let st = state t domain in
    st.boosted <- false;
    st.quota <-
      (if Sim_time.compare used st.quota >= 0 then Sim_time.zero else Sim_time.sub st.quota used)

  let on_account_period t = Array.iter (refill t) t.doms

  let set_effective_credit t d credit =
    let st = state t d in
    let old_quota = quota_of t st.effective_credit in
    let new_quota = quota_of t credit in
    st.effective_credit <- credit;
    if Sim_time.compare new_quota old_quota >= 0 then
      st.quota <- Sim_time.add st.quota (Sim_time.sub new_quota old_quota)
    else begin
      let cut = Sim_time.sub old_quota new_quota in
      st.quota <-
        (if Sim_time.compare cut st.quota >= 0 then Sim_time.zero else Sim_time.sub st.quota cut)
    end
end

(* One random scenario, fully determined by [seed]: a domain set with
   dom0s, uncapped and idle domains, workloads that toggle between having
   and lacking work (no [~defer], so always polled), deferring web and pi
   guests that only the narrowed wake detection skips, and a stream of
   ticks, picks (with random exclusions) that run what they pick,
   charges, refills and credit changes.  The reference asks every
   workload on every pick.  With [~toggles:false] deferring guests take
   the toggles' place, so no live workload is polled. *)
let differential_run ?(min_domains = 1) ?(max_domains = 41) ?(toggles = true) seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n and chance p = Random.State.float rng 1.0 < p in
  let n = min_domains + int (max_domains - min_domains + 1) in
  let active = Array.init n (fun _ -> chance 0.5) in
  let deferring = ref [] in
  let defer w =
    deferring := w :: !deferring;
    w
  in
  let web () =
    defer
      (Workloads.Web_app.workload
         (Workloads.Web_app.create ~timeout:(Sim_time.of_ms (1 + int 200))
            ~rate_schedule:
              [ (Sim_time.zero, 0.01 *. float_of_int (int 60));
                (Sim_time.of_ms (1 + int 300), 0.01 *. float_of_int (int 60)) ]
            ()))
  and pi () =
    defer
      (Workloads.Pi_app.workload
         (Workloads.Pi_app.create ~duty_cycle:(0.05 *. float_of_int (1 + int 20))
            ~work:(0.001 *. float_of_int (1 + int 300)) ()))
  in
  let domains =
    List.init n (fun i ->
        let workload =
          match int 20 with
          | 0 | 1 | 2 -> Workload.idle ()
          | 3 | 4 | 5 | 6 -> web ()
          | 7 | 8 | 9 -> pi ()
          | k when not toggles -> if k < 15 then web () else pi ()
          | _ ->
              Workload.make ~name:"toggle"
                ~has_work:(fun () -> active.(i))
                ~execute:(fun ~now:_ ~cpu_time ~speed:_ -> cpu_time)
                ()
        in
        let credit = if chance 0.2 then 0.0 else float_of_int (1 + int 100) in
        Domain.create ~is_dom0:(chance 0.1) ~name:(Printf.sprintf "d%d" i) ~credit_pct:credit
          workload)
  in
  let doms = Array.of_list domains in
  let account_period = Sim_time.of_ms (1 + int 60) in
  let host_capacity = 1 + int 4 and boost = chance 0.5 in
  let fast = Sched_credit.make ~account_period ~host_capacity ~boost domains in
  let sched = Sched_credit.scheduler fast in
  let reference = Reference.create ~account_period ~host_capacity ~boost domains in
  let agree what a b = if a <> b then QCheck.Test.fail_reportf "seed %d: %s differs" seed what in
  let pointers () =
    agree "rr pointers" (Sched_credit.rr_pointers fast)
      (reference.Reference.rr, reference.Reference.rr_boost, reference.Reference.rr_uncapped)
  in
  let last = ref None in
  let now = ref Sim_time.zero and dt = Sim_time.of_ms 1 in
  for _ = 1 to 400 do
    (match int 9 with
    | 7 | 8 ->
        now := Sim_time.add !now dt;
        List.iter (fun w -> Workload.advance w ~now:!now ~dt) !deferring
    | 0 | 1 | 2 ->
        let exclude =
          Scheduler.Mask.of_list (List.filter (fun _ -> chance 0.2) domains)
        in
        let remaining = Sim_time.of_us (1 + int 2_000) in
        let got =
          match sched.Scheduler.pick ~now:!now ~remaining ~exclude with
          | Some s -> Some (s.Scheduler.domain, s.Scheduler.max_slice)
          | None -> None
        in
        let want = Reference.pick reference ~remaining ~exclude in
        agree "pick" (Option.map (fun (d, s) -> (Domain.id d, s)) got)
          (Option.map (fun (d, s) -> (Domain.id d, s)) want);
        pointers ();
        (* Run what was picked, as the host does: a deferring guest's
           version moves and its [has_work] may change. *)
        (match got with
        | Some (d, slice) when chance 0.7 ->
            ignore (Workload.execute (Domain.workload d) ~now:!now ~cpu_time:slice ~speed:1.0)
        | Some _ | None -> ());
        last := got
    | 3 ->
        (* Charge what was just picked (the host's pattern) or, now and
           then, some other domain. *)
        let domain, cap =
          match !last with
          | Some (d, s) when chance 0.8 -> (d, Sim_time.to_us s)
          | _ -> (doms.(int n), 3_000)
        in
        let used = Sim_time.of_us (int (cap + 1)) in
        sched.Scheduler.charge ~domain ~now:Sim_time.zero ~used;
        Reference.charge reference ~domain ~used
    | 4 ->
        sched.Scheduler.on_account_period ~now:Sim_time.zero;
        Reference.on_account_period reference
    | 5 ->
        if chance 0.5 then begin
          let d = doms.(int n) and credit = Random.State.float rng 150.0 in
          sched.Scheduler.set_effective_credit d credit;
          Reference.set_effective_credit reference d credit
        end
        else begin
          let ratio = 0.3 +. Random.State.float rng 0.7 and cf = 0.8 +. Random.State.float rng 0.2 in
          Sched_credit.rescale_capped fast ~divisor:{ Vec.Floats.value = ratio *. cf };
          Array.iter
            (fun d ->
              let initial = Domain.initial_credit d in
              if initial > 0.0 then
                Reference.set_effective_credit reference d (initial /. (ratio *. cf)))
            doms
        end
    | _ ->
        let i = int n in
        active.(i) <- not active.(i));
    Array.iter
      (fun d ->
        agree "effective credit"
          (Int64.bits_of_float (sched.Scheduler.effective_credit d))
          (Int64.bits_of_float (Reference.state reference d).Reference.effective_credit))
      doms
  done;
  true

let differential_pick =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"pick/charge match the five-pass reference"
       QCheck.(int_bound 1_000_000)
       (fun seed -> differential_run seed))

(* Hosts of 70 to 140 domains span two or three bitset words, so the
   rotating search wraps across words and clears excluded candidates in
   each.  Half the runs have no polled workload at all, so the narrowed
   wake detection (only the last pick asked while no deferring workload
   advanced) carries the whole run. *)
let differential_pick_wide =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"pick/charge match the reference over several words"
       QCheck.(int_bound 1_000_000)
       (fun seed ->
         differential_run ~min_domains:70 ~max_domains:140 ~toggles:(seed mod 2 = 0) seed))

(* The rotation by hand over 70 always-runnable capped guests (two
   words): picks walk the indices from the pointer on, cross from bit 61
   of the first word to bit 0 of the second, wrap from the last domain to
   the first, and step over an excluded candidate. *)
let rotation_across_words () =
  let domains =
    List.init 70 (fun i ->
        Domain.create ~name:(Printf.sprintf "g%d" i) ~credit_pct:1.0 (Workload.busy_loop ()))
  in
  let doms = Array.of_list domains in
  let index d =
    let rec go i = if Domain.equal doms.(i) d then i else go (i + 1) in
    go 0
  in
  let t = Sched_credit.make ~boost:false domains in
  let sched = Sched_credit.scheduler t in
  let pick exclude =
    match
      sched.Scheduler.pick ~now:Sim_time.zero ~remaining:(Sim_time.of_us 10)
        ~exclude:(Scheduler.Mask.of_list exclude)
    with
    | Some s -> index s.Scheduler.domain
    | None -> -1
  in
  let walked = List.init 69 (fun _ -> pick []) in
  Alcotest.(check (list int)) "walks from the pointer" (List.init 69 (fun i -> i + 1)) walked;
  check_int "wraps to the first" 0 (pick []);
  for _ = 1 to 60 do
    ignore (pick [])
  done;
  let rr, _, _ = Sched_credit.rr_pointers t in
  check_int "pointer at bit 60" 60 rr;
  check_int "excluded candidate skipped across the word boundary" 63
    (pick [ doms.(61); doms.(62) ]);
  check_int "rotation resumes after it" 64 (pick [])

let () =
  Alcotest.run "sched_credit"
    [
      ( "caps",
        [
          Alcotest.test_case "enforced under contention" `Quick cap_enforced_under_contention;
          Alcotest.test_case "non-work-conserving" `Quick non_work_conserving;
          Alcotest.test_case "quota does not accumulate" `Quick quota_does_not_accumulate;
        ] );
      ( "priorities",
        [
          Alcotest.test_case "dom0 first" `Quick dom0_has_priority;
          Alcotest.test_case "uncapped leftover" `Quick uncapped_soaks_leftover_only;
          Alcotest.test_case "equal credits fair" `Quick equal_credits_fair_rr;
        ] );
      ( "effective credit",
        [
          Alcotest.test_case "raise applies" `Quick set_effective_credit_applies;
          Alcotest.test_case "lower applies" `Quick set_effective_credit_lowering;
          Alcotest.test_case "negative rejected" `Quick set_effective_credit_negative;
        ] );
      ( "boost",
        [
          Alcotest.test_case "cuts wake latency" `Quick boost_cuts_wake_latency;
          Alcotest.test_case "preserves shares" `Quick boost_preserves_shares;
        ] );
      ( "interface",
        [
          Alcotest.test_case "unknown domain" `Quick unknown_domain_rejected;
          Alcotest.test_case "duplicates" `Quick duplicate_domains_rejected;
          Alcotest.test_case "pick excludes" `Quick pick_excludes;
          Alcotest.test_case "pick none" `Quick pick_none_when_all_excluded;
          Alcotest.test_case "rotation across words" `Quick rotation_across_words;
        ] );
      ("differential", [ differential_pick; differential_pick_wide ]);
    ]
