(* Timing wheel over [n_buckets] slots of [1 lsl shift] key units each, with
   a single overflow heap for keys beyond the window.

   Invariants:
   - [base] is the virtual bucket index (key lsr shift) of the window start;
     the wheel covers virtual buckets [base, base + n_buckets).
   - every overflow element has a virtual bucket >= base + n_buckets, so the
     overflow minimum is never smaller than any wheel element with a
     distinct virtual bucket.  Whenever [base] advances, overflow elements
     whose buckets entered the window are migrated into the wheel — without
     that, an element pushed later into a far wheel slot could be popped
     ahead of an earlier overflow element.
   - [base] only advances to the virtual bucket of the current global
     minimum, so a bucket the cursor has passed is empty and free to be
     reused for keys one window span later.
   - elements whose key precedes the window (possible only through caller
     misuse; the simulator never schedules in the past) are clamped into
     the bucket at [base]: each bucket is a heap ordered by the full [cmp],
     so ordering within the minimal bucket survives clamping.
   - a slot holding the shared [empty] heap has never been pushed to; it is
     replaced by a heap of its own on first use, so creating a calendar
     costs one array rather than [n_buckets] heaps. *)

let n_buckets = 256
let slot_mask = n_buckets - 1
let shift = 10 (* 1024 key units per bucket: one dispatch quantum at 1 us/unit *)

type 'a t = {
  key : 'a -> int;
  cmp : 'a -> 'a -> int;
  buckets : 'a Heap.t array;
  empty : 'a Heap.t; (* never pushed to: the placeholder of unused slots *)
  overflow : 'a Heap.t;
  mutable base : int; (* virtual bucket index of the window start *)
  mutable size : int; (* wheel + overflow *)
}

let create ~key ~cmp =
  let empty = Heap.create ~cmp in
  {
    key;
    cmp;
    buckets = Array.make n_buckets empty;
    empty;
    overflow = Heap.create ~cmp;
    base = 0;
    size = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

(* Each slot gets its own heap the first time an element lands in it:
   at most [n_buckets] times over a calendar's life. *)
(* alloc: cold *)
let[@inline never] materialize t slot =
  let h = Heap.create ~cmp:t.cmp in
  t.buckets.(slot) <- h;
  h

let bucket t slot =
  let h = t.buckets.(slot) in
  if h == t.empty then materialize t slot else h

(* alloc: none *)
let push t x =
  let vb = t.key x lsr shift in
  if vb - t.base >= n_buckets then Heap.push t.overflow x
  else begin
    let vb = if vb < t.base then t.base else vb in
    Heap.push (bucket t (vb land slot_mask)) x
  end;
  t.size <- t.size + 1

(* Pull every overflow element whose bucket has entered the window.  Called
   after [base] advances; migrated elements land at window offsets >= 1, so
   they can never precede the bucket the advance stopped at. *)
let migrate t =
  let horizon = t.base + n_buckets in
  while
    (not (Heap.is_empty t.overflow)) && t.key (Heap.top_exn t.overflow) lsr shift < horizon
  do
    let x = Heap.pop_exn t.overflow in
    Heap.push (bucket t (t.key x lsr shift land slot_mask)) x
  done

(* First non-empty wheel slot at or after the window start, advancing
   [base] to it; -1 when the whole wheel is empty. *)
let rec scan t i =
  if i = n_buckets then -1
  else begin
    let slot = (t.base + i) land slot_mask in
    if Heap.length t.buckets.(slot) > 0 then begin
      if i > 0 then begin
        t.base <- t.base + i;
        migrate t
      end;
      slot
    end
    else scan t (i + 1)
  end

let locate t =
  if t.size = 0 then -1
  else begin
    let slot = scan t 0 in
    if slot >= 0 then slot
    else begin
      (* Wheel drained; jump the window to the overflow minimum. *)
      t.base <- t.key (Heap.top_exn t.overflow) lsr shift;
      migrate t;
      scan t 0
    end
  end

let next_key t =
  let slot = locate t in
  if slot < 0 then max_int else t.key (Heap.top_exn t.buckets.(slot))

(* alloc: none *)
let pop_exn t =
  let slot = locate t in
  if slot < 0 then invalid_arg "Calendar.pop_exn: empty queue";
  let x = Heap.pop_exn t.buckets.(slot) in
  t.size <- t.size - 1;
  x

let filter_in_place t pred =
  Array.iter (fun h -> Heap.filter_in_place h pred) t.buckets;
  Heap.filter_in_place t.overflow pred;
  let n = ref (Heap.length t.overflow) in
  Array.iter (fun h -> n := !n + Heap.length h) t.buckets;
  t.size <- !n

let to_list t =
  Array.fold_left (fun acc h -> List.rev_append (Heap.to_list h) acc) (Heap.to_list t.overflow) t.buckets
