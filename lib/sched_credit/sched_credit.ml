module Domain = Hypervisor.Domain
module Scheduler = Hypervisor.Scheduler
module Workload = Workloads.Workload

let inv_credit =
  Analysis.Invariant.register "credit.effective-credit-bounds"
    ~doc:"effective credits handed to the Credit scheduler are finite and non-negative"

let inv_quota =
  Analysis.Invariant.register "credit.quota-nonneg"
    ~doc:"a domain's remaining quota never goes negative"

(* All-float cell: rescaling stores a freshly computed credit as a raw
   float move instead of boxing it into a mixed record. *)
type credit_cell = {
  mutable effective_credit : float; (* percent; the cap the policy may move *)
}

type dom_state = {
  domain : Domain.t;
  workload : Workload.t; (* the domain's, fixed at creation *)
  polled : bool; (* static: no [~defer], so [has_work] may change at any time *)
  mutable seen : int; (* workload version at the last wake detection *)
  capped_guest : bool; (* static: neither dom0 nor uncapped *)
  uncapped : bool; (* static: created with a null credit *)
  credit : credit_cell;
  mutable full_quota : Sim_time.t; (* quota of [effective_credit] over a whole period *)
  mutable quota : Sim_time.t; (* CPU time left this accounting period *)
  mutable was_runnable : bool; (* runnable at the last wake detection *)
  mutable boosted : bool; (* woke recently: dispatched ahead of the pack *)
  cell : Scheduler.slice; (* reusable dispatch decision, one per domain *)
  cell_opt : Scheduler.slice option; (* [Some cell], preallocated *)
}

type t = {
  account_period : Sim_time.t;
  host_capacity : int; (* physical cores: quotas are % of the whole host *)
  boost : bool;
  doms : dom_state array;
  dom0 : int array; (* indices of the capped dom0 domains, ascending *)
  live : int array; (* indices of the domains that may ever be runnable *)
  has_uncapped : bool;
  mutable boosted_count : int; (* domains whose [boosted] flag is set *)
  mutable last_pick : int; (* index [pick] last returned; -1 before any *)
  mutable rr : int; (* round-robin pointer over capped domains *)
  mutable rr_uncapped : int;
  mutable rr_boost : int;
}

(* Local copies of [Sim_time.to_sec] and [Sim_time.of_sec_f] ([to_us] and
   [of_us] are the identity on the int representation, so the results are
   bit-identical); the cross-library calls would box a float at every
   quota computation in a [--profile dev] build, which compiles with
   -opaque (the shipped release build inlines across units). *)
let[@inline always] sec_of time = float_of_int (Sim_time.to_us time) /. 1e6

let[@inline always] of_sec_f s =
  if Float.is_nan s || s < 0.0 then invalid_arg "Sim_time.of_sec_f: negative";
  Sim_time.of_us (int_of_float (Float.round (s *. 1e6)))

let[@inline always] quota_of t credit =
  of_sec_f (credit /. 100.0 *. sec_of t.account_period *. float_of_int t.host_capacity)

let rec index_of doms d i =
  if i >= Array.length doms then -1
  else if Domain.equal doms.(i).domain d then i
  else index_of doms d (i + 1)

let state t d =
  let i = index_of t.doms d 0 in
  if i < 0 then invalid_arg "Sched_credit: unknown domain";
  t.doms.(i)

(* Wake detection: a domain that just became runnable gets BOOST priority
   (Xen's latency fix for I/O-bound domains) until its next dispatch.
   This is the one pass per pick that asks the workloads: the scans below
   read the [was_runnable] it stores.  Domains that can never run keep
   [was_runnable = false] from creation, so they are not asked.  Nor is a
   deferring workload whose version has not moved since it was last asked:
   its [has_work] cannot have changed (see {!Workload.version}), and
   asking again would leave every flag as it is. *)
let detect_wakes t =
  for k = 0 to Array.length t.live - 1 do
    let st = t.doms.(t.live.(k)) in
    let version = Workload.version st.workload in
    if st.polled || version <> st.seen then begin
      st.seen <- version;
      let runnable = Workload.has_work st.workload in
      if t.boost && runnable && (not st.was_runnable) && not st.boosted then begin
        st.boosted <- true;
        t.boosted_count <- t.boosted_count + 1
      end;
      st.was_runnable <- runnable
    end
  done

(* A capped domain is eligible when runnable, not excluded and holding
   quota; an uncapped one merely needs to be runnable and not excluded. *)
let eligible_capped st exclude =
  st.was_runnable
  && Sim_time.compare st.quota Sim_time.zero > 0
  && not (Scheduler.Mask.mem exclude st.domain)

let eligible_uncapped st exclude =
  st.uncapped && st.was_runnable && not (Scheduler.Mask.mem exclude st.domain)

let rec find_dom0 t exclude k =
  if k >= Array.length t.dom0 then -1
  else begin
    let i = t.dom0.(k) in
    if eligible_capped t.doms.(i) exclude then i else find_dom0 t exclude (k + 1)
  end

(* Rotating scans starting after a round-robin pointer; -1 when nobody
   matches.  [ptr + 1 + i] stays below [2n], so one compare-and-subtract
   wraps it. *)
let[@inline always] rotate ptr n i =
  let j = ptr + 1 + i in
  if j >= n then j - n else j

let rec find_boost doms exclude ptr n i =
  if i >= n then -1
  else begin
    let idx = rotate ptr n i in
    let st = doms.(idx) in
    if st.boosted && st.capped_guest && eligible_capped st exclude then idx
    else find_boost doms exclude ptr n (i + 1)
  end

let rec find_capped doms exclude ptr n i =
  if i >= n then -1
  else begin
    let idx = rotate ptr n i in
    let st = doms.(idx) in
    if st.capped_guest && eligible_capped st exclude then idx
    else find_capped doms exclude ptr n (i + 1)
  end

let rec find_uncapped doms exclude ptr n i =
  if i >= n then -1
  else begin
    let idx = rotate ptr n i in
    if eligible_uncapped doms.(idx) exclude then idx
    else find_uncapped doms exclude ptr n (i + 1)
  end

(* The per-domain slice record is reused across picks (see the contract in
   Scheduler.slice): write the cap, hand back the preallocated option. *)
let slice_of t i cap ~remaining =
  let st = t.doms.(i) in
  t.last_pick <- i;
  st.cell.Scheduler.max_slice <- Sim_time.min cap remaining;
  st.cell_opt

(* Priority order: capped dom0, then boosted guests, then capped guests
   round-robin, then uncapped domains on the leftover.  The boost and
   uncapped scans are skipped when their counters say nobody qualifies. *)
(* alloc: none *)
let pick t ~now:_ ~remaining ~exclude =
  detect_wakes t;
  let i0 = find_dom0 t exclude 0 in
  if i0 >= 0 then slice_of t i0 t.doms.(i0).quota ~remaining
  else begin
    let n = Array.length t.doms in
    let ib = if t.boosted_count > 0 then find_boost t.doms exclude t.rr_boost n 0 else -1 in
    if ib >= 0 then begin
      t.rr_boost <- ib;
      slice_of t ib t.doms.(ib).quota ~remaining
    end
    else begin
      let ic = find_capped t.doms exclude t.rr n 0 in
      if ic >= 0 then begin
        t.rr <- ic;
        slice_of t ic t.doms.(ic).quota ~remaining
      end
      else begin
        let iu =
          if t.has_uncapped then find_uncapped t.doms exclude t.rr_uncapped n 0 else -1
        in
        if iu >= 0 then begin
          t.rr_uncapped <- iu;
          slice_of t iu remaining ~remaining
        end
        else None
      end
    end
  end

(* Off-by-default sanitizer: the enabled check stays in the caller, so the
   charge path pays one branch when sanitizers are off. *)
(* alloc: cold *)
let[@inline never] check_quota st ~domain ~now =
  if Sim_time.compare st.quota Sim_time.zero >= 0 then Analysis.Check.pass inv_quota
  else
    Analysis.Check.fail inv_quota ~time_s:(Sim_time.to_sec now) ~component:"sched-credit"
      (Printf.sprintf "domain %s quota %s after charge" (* lint:ignore hot-path-printf: cold sanitizer failure message *)
         (Domain.name domain) (Sim_time.to_string st.quota))

(* The host charges the domain [pick] just returned, so that index is
   tried before the linear lookup. *)
let state_for_charge t d =
  let i = t.last_pick in
  if i >= 0 && Domain.equal t.doms.(i).domain d then t.doms.(i) else state t d

(* alloc: none *)
let charge t ~domain ~now ~used =
  let st = state_for_charge t domain in
  if st.boosted then begin
    (* the low-latency dispatch happened; back in the pack *)
    st.boosted <- false;
    t.boosted_count <- t.boosted_count - 1
  end;
  st.quota <- (if Sim_time.compare used st.quota >= 0 then Sim_time.zero
               else Sim_time.sub st.quota used);
  if Analysis.Config.enabled () then check_quota st ~domain ~now

(* alloc: none *)
let on_account_period t ~now:_ =
  for i = 0 to Array.length t.doms - 1 do
    let st = t.doms.(i) in
    st.quota <- st.full_quota
  done

(* alloc: cold *)
let[@inline never] check_credit d credit =
  Analysis.Check.run inv_credit ~component:"sched-credit"
    ~detail:(fun () ->
      Printf.sprintf "domain %s assigned effective credit %.9g" (* lint:ignore hot-path-printf: lazy detail built only on failure *)
        (Domain.name d) credit)
    (Float.is_finite credit && credit >= 0.0)

(* Adjust the in-flight quota by the cap delta so a mid-period raise takes
   effect immediately (Listing 1.2 applies at scheduler ticks, not period
   boundaries). *)
let[@inline always] apply_credit t st credit =
  let old_quota = st.full_quota in
  let new_quota = quota_of t credit in
  st.credit.effective_credit <- credit;
  st.full_quota <- new_quota;
  if Sim_time.compare new_quota old_quota >= 0 then
    st.quota <- Sim_time.add st.quota (Sim_time.sub new_quota old_quota)
  else begin
    let cut = Sim_time.sub old_quota new_quota in
    st.quota <-
      (if Sim_time.compare cut st.quota >= 0 then Sim_time.zero
       else Sim_time.sub st.quota cut)
  end

let set_effective_credit t d credit =
  if Analysis.Config.enabled () then check_credit d credit;
  if credit < 0.0 then invalid_arg "Sched_credit.set_effective_credit: negative credit";
  apply_credit t (state t d) credit

(* One pass over the states, in domain order: the same per-domain checks
   and quota adjustment as [set_effective_credit], without its lookup. *)
let rescale_capped t ~(divisor : Vec.Floats.cell) =
  for i = 0 to Array.length t.doms - 1 do
    let st = t.doms.(i) in
    let initial = Domain.initial_credit st.domain in
    if initial > 0.0 then begin
      let credit = initial /. divisor.value in
      if Analysis.Config.enabled () then check_credit st.domain credit;
      if credit < 0.0 then invalid_arg "Sched_credit.set_effective_credit: negative credit";
      apply_credit t st credit
    end
  done

let effective_credit t d = (state t d).credit.effective_credit
let rr_pointers t = (t.rr, t.rr_boost, t.rr_uncapped)

let make ?(account_period = Sim_time.of_ms 30) ?(host_capacity = 1) ?(boost = true) domains =
  if Sim_time.equal account_period Sim_time.zero then
    invalid_arg "Sched_credit.create: zero account period";
  if host_capacity < 1 then invalid_arg "Sched_credit.create: host_capacity must be >= 1";
  let ids = List.map Domain.id domains in
  if List.length (List.sort_uniq Int.compare ids) <> List.length ids then
    invalid_arg "Sched_credit.create: duplicate domains";
  let doms =
    Array.of_list
      (List.map
         (fun d ->
           let cell = { Scheduler.domain = d; max_slice = Sim_time.zero } in
           let uncapped = Domain.uncapped d in
           let workload = Domain.workload d in
           {
             domain = d;
             workload;
             polled = not (Workload.defers workload);
             seen = -1;
             capped_guest = (not (Domain.is_dom0 d)) && not uncapped;
             uncapped;
             credit = { effective_credit = Domain.initial_credit d };
             full_quota = Sim_time.zero;
             quota = Sim_time.zero;
             was_runnable = false;
             boosted = false;
             cell;
             cell_opt = Some cell;
           })
         domains)
  in
  let indices p =
    Array.of_list (List.filter (fun i -> p doms.(i)) (List.init (Array.length doms) Fun.id))
  in
  let t =
    {
      account_period;
      host_capacity;
      boost;
      doms;
      dom0 = indices (fun st -> Domain.is_dom0 st.domain && not st.uncapped);
      live = indices (fun st -> Domain.may_run st.domain);
      has_uncapped = Array.exists (fun st -> st.uncapped) doms;
      boosted_count = 0;
      last_pick = -1;
      rr = 0;
      rr_uncapped = 0;
      rr_boost = 0;
    }
  in
  Array.iter
    (fun st ->
      st.full_quota <- quota_of t st.credit.effective_credit;
      st.quota <- st.full_quota)
    doms;
  t

let scheduler t =
  Scheduler.make ~name:"credit"
    ~domains:(fun () -> Array.to_list (Array.map (fun st -> st.domain) t.doms))
    ~pick:(fun ~now ~remaining ~exclude -> pick t ~now ~remaining ~exclude)
    ~charge:(fun ~domain ~now ~used -> charge t ~domain ~now ~used)
    ~on_account_period:(fun ~now -> on_account_period t ~now)
    ~set_effective_credit:(set_effective_credit t)
    ~effective_credit:(effective_credit t) ()

let create ?account_period ?host_capacity ?boost domains =
  scheduler (make ?account_period ?host_capacity ?boost domains)
