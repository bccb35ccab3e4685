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
  word : int; (* static: the domain's word in the dispatch bitsets ... *)
  bit : int; (* ... and its bit there *)
  workload : Workload.t; (* the domain's, fixed at creation *)
  polled : bool; (* static: no [~defer], so [has_work] may change at any time *)
  mutable seen : int; (* workload version at the last wake detection *)
  capped_guest : bool; (* static: neither dom0 nor uncapped *)
  uncapped : bool; (* static: created with a null credit *)
  credit : credit_cell;
  mutable full_quota : Sim_time.t; (* quota of [effective_credit] over a whole period *)
  mutable quota : Sim_time.t; (* CPU time left this accounting period *)
  mutable was_runnable : bool; (* runnable at the last wake detection *)
  cell : Scheduler.slice; (* reusable dispatch decision, one per domain *)
  cell_opt : Scheduler.slice option; (* [Some cell], preallocated *)
}

(* A dispatch set: a bitset over domain indices, [word_bits] to an int so
   every word stays non-negative (a host with more domains uses more
   words), and its member count, so that an empty set costs one test. *)
type set = { words : int array; mutable members : int }

type t = {
  account_period : Sim_time.t;
  host_capacity : int; (* physical cores: quotas are % of the whole host *)
  boost : bool;
  doms : dom_state array;
  dom0 : int array; (* indices of the capped dom0 domains, ascending *)
  live : int array; (* indices of the domains that may ever be runnable *)
  any_polled : bool; (* static: some live domain's workload is polled *)
  changes : Workload.Changes.t; (* deferring guests that advanced or flushed since the last pick *)
  mutable fresh : bool; (* no wake detection yet *)
  ready : set; (* capped guest, runnable and holding quota *)
  boosted : set; (* woke recently: dispatched ahead of the pack *)
  uncapped_ready : set; (* uncapped and runnable *)
  mutable last_pick : int; (* index [pick] last returned; -1 before any *)
  mutable rr : int; (* round-robin pointer over capped domains *)
  mutable rr_uncapped : int;
  mutable rr_boost : int;
}

let word_bits = 62

(* Local copies of [Sim_time.to_sec] and [Sim_time.of_sec_f] ([to_us] and
   [of_us] are the identity on the int representation, so the results are
   bit-identical); the cross-library calls would box a float at every
   quota computation in a [--profile dev] build, which compiles with
   -opaque (the shipped release build inlines across units). *)
let[@inline always] sec_of time = float_of_int (Sim_time.to_us time) /. 1e6

let[@inline always] of_sec_f s =
  if Float.is_nan s || s < 0.0 then invalid_arg "Sim_time.of_sec_f: negative";
  let x = s *. 1e6 in
  let n = int_of_float x in
  Sim_time.of_us (if x -. float_of_int n >= 0.5 then n + 1 else n)

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

let[@inline always] mem set st = set.words.(st.word) land st.bit <> 0

let[@inline always] put set st on =
  let w = st.word in
  let x = set.words.(w) in
  if on then begin
    if x land st.bit = 0 then begin
      set.words.(w) <- x lor st.bit;
      set.members <- set.members + 1
    end
  end
  else if x land st.bit <> 0 then begin
    set.words.(w) <- x land lnot st.bit;
    set.members <- set.members - 1
  end

(* [ready] follows the state it is defined by: [charge],
   [on_account_period] and [apply_credit] move the quota, wake detection
   the runnable flag. *)
let[@inline always] refresh t st =
  if st.capped_guest then put t.ready st (st.was_runnable && st.quota > 0)

(* Wake detection for one domain: one that just became runnable gets
   BOOST priority (Xen's latency fix for I/O-bound domains) until its next
   dispatch.  A deferring workload whose version has not moved since it
   was last asked is not asked again: its [has_work] cannot have changed
   (see {!Workload.version}). *)
let wake t st =
  let version = Workload.version st.workload in
  if st.polled || version <> st.seen then begin
    st.seen <- version;
    let runnable = Workload.has_work st.workload in
    if runnable <> st.was_runnable then begin
      if t.boost && runnable && not (mem t.boosted st) then put t.boosted st true;
      st.was_runnable <- runnable;
      if st.uncapped then put t.uncapped_ready st runnable else refresh t st
    end
  end

(* The listed guests, each taken off the list as it is asked. *)
(* alloc: none *)
let rec wake_changed t =
  let i = Workload.Changes.pop t.changes in
  if i >= 0 then begin
    wake t t.doms.(i);
    wake_changed t
  end

(* The one pass per pick that asks the workloads; the searches below read
   the sets it keeps.  Domains that can never run are not asked.  When
   every live workload defers, the only ones whose [has_work] can have
   moved since the last pass are those that really advanced or were
   flushed, which listed themselves, and the one the host ran since: the
   last pick.  A fresh scheduler asks every live domain once. *)
let detect_wakes t =
  if t.any_polled || t.fresh then begin
    if t.fresh then begin
      t.fresh <- false;
      Workload.Changes.clear t.changes
    end;
    for k = 0 to Array.length t.live - 1 do
      wake t t.doms.(t.live.(k))
    done
  end
  else begin
    wake_changed t;
    if t.last_pick >= 0 then wake t t.doms.(t.last_pick)
  end

let eligible_capped st exclude =
  st.was_runnable
  && Sim_time.compare st.quota Sim_time.zero > 0
  && not (Scheduler.Mask.mem exclude st.domain)

let rec find_dom0 t exclude k =
  if k >= Array.length t.dom0 then -1
  else begin
    let i = t.dom0.(k) in
    if eligible_capped t.doms.(i) exclude then i else find_dom0 t exclude (k + 1)
  end

(* The three searches, by kind. *)
let k_boost = 0
let k_ready = 1
let k_uncapped = 2

let[@inline always] word t kind w =
  if kind = k_boost then t.boosted.words.(w) land t.ready.words.(w)
  else if kind = k_ready then t.ready.words.(w)
  else t.uncapped_ready.words.(w)

(* Set bits below a power of two [b < 2^62]: the bit's index. *)
let[@inline always] bit_index b =
  let x = b - 1 in
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  (x * 0x0101010101010101) lsr 56

(* The lowest domain of the word [x] (bit 0 is domain [base]) that is not
   excluded; an excluded one is cleared from the local copy.  Most words
   searched are empty, so that test is inlined. *)
let rec first_set t exclude x base =
  let b = x land -x in
  let i = base + bit_index b in
  if not (Scheduler.Mask.mem exclude t.doms.(i).domain) then i
  else if x = b then -1
  else first_set t exclude (x lxor b) base

let[@inline always] first t exclude x base = if x = 0 then -1 else first_set t exclude x base

let rec first_in_words t kind exclude w last =
  if w > last then -1
  else begin
    let i = first t exclude (word t kind w) (w * word_bits) in
    if i >= 0 then i else first_in_words t kind exclude (w + 1) last
  end

(* The rotating search: the first member of the set, not excluded, from
   the domain [start] on (wrapping once); -1 when none.  The word of
   [start] is searched in two halves, its later bits first and its
   earlier ones last. *)
let search t kind exclude start =
  let ws = start.word in
  let base = ws * word_bits in
  let x = word t kind ws and later = -start.bit in
  let i = first t exclude (x land later) base in
  if i >= 0 then i
  else begin
    let last = Array.length t.ready.words - 1 in
    let i = if ws < last then first_in_words t kind exclude (ws + 1) last else -1 in
    if i >= 0 then i
    else begin
      let i = if ws > 0 then first_in_words t kind exclude 0 (ws - 1) else -1 in
      if i >= 0 then i else first t exclude (x land lnot later) base
    end
  end

(* The search of [set] after the round-robin pointer [ptr]; an empty set
   is not searched. *)
let find t kind set exclude ptr =
  let n = Array.length t.doms in
  if set.members = 0 then -1
  else search t kind exclude t.doms.(if ptr + 1 >= n then 0 else ptr + 1)

(* The per-domain slice record is reused across picks (see the contract in
   Scheduler.slice): write the cap, hand back the preallocated option. *)
let slice_of t i cap ~remaining =
  let st = t.doms.(i) in
  t.last_pick <- i;
  st.cell.Scheduler.max_slice <- Sim_time.min cap remaining;
  st.cell_opt

(* Priority order: capped dom0, then boosted guests, then capped guests
   round-robin, then uncapped domains on the leftover. *)
(* alloc: none *)
let pick t ~now:_ ~remaining ~exclude =
  detect_wakes t;
  let i0 = find_dom0 t exclude 0 in
  if i0 >= 0 then slice_of t i0 t.doms.(i0).quota ~remaining
  else begin
    let ib = find t k_boost t.boosted exclude t.rr_boost in
    if ib >= 0 then begin
      t.rr_boost <- ib;
      slice_of t ib t.doms.(ib).quota ~remaining
    end
    else begin
      let ic = find t k_ready t.ready exclude t.rr in
      if ic >= 0 then begin
        t.rr <- ic;
        slice_of t ic t.doms.(ic).quota ~remaining
      end
      else begin
        let iu = find t k_uncapped t.uncapped_ready exclude t.rr_uncapped in
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
      (Printf.sprintf "domain %s quota %s after charge"
         (Domain.name domain) (Sim_time.to_string st.quota))

(* The host charges the domain [pick] just returned, so that index is
   tried before the linear lookup. *)
let state_for_charge t d =
  let i = t.last_pick in
  if i >= 0 && Domain.equal t.doms.(i).domain d then t.doms.(i) else state t d

(* alloc: none *)
let charge t ~domain ~now ~used =
  let st = state_for_charge t domain in
  (* the low-latency dispatch happened; back in the pack *)
  put t.boosted st false;
  st.quota <- (if Sim_time.compare used st.quota >= 0 then Sim_time.zero
               else Sim_time.sub st.quota used);
  refresh t st;
  if Analysis.Config.enabled () then check_quota st ~domain ~now

(* The refill sets every quota, so [ready] is rebuilt a word at a time:
   each word is written once, with the bits [refresh] would give it. *)
(* alloc: none *)
let on_account_period t ~now:_ =
  let n = Array.length t.doms in
  let members = ref 0 in
  for w = 0 to Array.length t.ready.words - 1 do
    let x = ref 0 in
    for i = w * word_bits to Int.min n ((w + 1) * word_bits) - 1 do
      let st = t.doms.(i) in
      st.quota <- st.full_quota;
      if st.capped_guest && st.was_runnable && st.quota > 0 then begin
        x := !x lor st.bit;
        incr members
      end
    done;
    t.ready.words.(w) <- !x
  done;
  t.ready.members <- !members

(* alloc: cold *)
let[@inline never] check_credit d credit =
  Analysis.Check.run inv_credit ~component:"sched-credit"
    ~detail:(fun () ->
      Printf.sprintf "domain %s assigned effective credit %.9g"
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
  end;
  refresh t st

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
      (List.mapi
         (fun i d ->
           let cell = { Scheduler.domain = d; max_slice = Sim_time.zero } in
           let uncapped = Domain.uncapped d in
           let workload = Domain.workload d in
           {
             domain = d;
             word = i / word_bits;
             bit = 1 lsl (i mod word_bits);
             workload;
             polled = not (Workload.defers workload);
             seen = -1;
             capped_guest = (not (Domain.is_dom0 d)) && not uncapped;
             uncapped;
             credit = { effective_credit = Domain.initial_credit d };
             full_quota = Sim_time.zero;
             quota = Sim_time.zero;
             was_runnable = false;
             cell;
             cell_opt = Some cell;
           })
         domains)
  in
  let indices p =
    let a = Array.make (Array.fold_left (fun n st -> if p st then n + 1 else n) 0 doms) 0 in
    let k = ref 0 in
    Array.iteri
      (fun i st ->
        if p st then begin
          a.(!k) <- i;
          incr k
        end)
      doms;
    a
  in
  let live = indices (fun st -> Domain.may_run st.domain) in
  let any_polled = Array.exists (fun i -> doms.(i).polled) live in
  (* A host with a polled guest asks every live domain on every pick, so
     it keeps no list. *)
  let changes =
    if any_polled then Workload.Changes.none else Workload.Changes.create (Array.length doms)
  in
  for i = 0 to Array.length doms - 1 do
    Workload.report_changes doms.(i).workload changes i
  done;
  let set () = { words = Array.make ((Array.length doms / word_bits) + 1) 0; members = 0 } in
  let t =
    {
      account_period;
      host_capacity;
      boost;
      doms;
      dom0 = indices (fun st -> Domain.is_dom0 st.domain && not st.uncapped);
      live;
      any_polled;
      changes;
      fresh = true;
      ready = set ();
      boosted = set ();
      uncapped_ready = set ();
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
