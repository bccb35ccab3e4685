type t = { name : string; times : int Vec.t; values : Vec.Floats.t }

let inv_finite =
  Analysis.Invariant.register "series.finite-sample"
    ~doc:"no NaN or infinity is recorded into a measurement series"

let create ~name = { name; times = Vec.create (); values = Vec.Floats.create () }
let name t = t.name
let length t = Vec.length t.times

let[@inline never] bad_time () = invalid_arg "Series.add: non-monotonic time"

(* Sanitizer path: runs only when Analysis.Config is enabled, and the
   checker's interface boxes the sample anyway. *)
(* alloc: cold *)
let[@inline never] checked_push t time value =
  Analysis.Check.finite inv_finite ~time_s:(Sim_time.to_sec time)
    ~component:("series:" ^ t.name) ~what:"sample" value;
  Vec.push t.times time;
  Vec.Floats.push t.values value

(* Inlined so a freshly computed sample value reaches the float vector
   without boxing at the call boundary; the sanitizer path (which must box
   anyway to hand the value to the checker) stays out of line. *)
let[@inline always] add t time value =
  let n = Vec.length t.times in
  if n > 0 && Sim_time.compare time (Vec.get t.times (n - 1)) < 0 then bad_time ();
  if Analysis.Config.enabled () then checked_push t time value
  else begin
    Vec.push t.times time;
    Vec.Floats.push t.values value
  end

type cell = Vec.Floats.cell = { mutable value : float }

let cell = Vec.Floats.cell

(* [add] with the sample delivered through a caller-owned scratch cell, so
   the recording path of a periodic sampler allocates nothing: the fresh
   float is stored into the flat cell (raw store) and copied into the
   float vector by [push_cell] (raw load + store) — it never crosses a
   call boundary as an argument, where it would be boxed without
   cross-module inlining (a [--profile dev] build compiles with -opaque;
   the shipped release build inlines across units). *)
(* alloc: none *)
let add_cell t time (c : cell) =
  let n = Vec.length t.times in
  if n > 0 && Sim_time.compare time (Vec.get t.times (n - 1)) < 0 then bad_time ();
  if Analysis.Config.enabled () then checked_push t time c.value
  else begin
    Vec.push t.times time;
    Vec.Floats.push_cell t.values c
  end

let times t = Vec.to_array t.times
let values t = Vec.Floats.to_array t.values
let get t i = (Vec.get t.times i, Vec.Floats.get t.values i)

let last_value t =
  let n = length t in
  if n = 0 then None else Some (Vec.Floats.get t.values (n - 1))

let nth_value t i = Vec.Floats.get t.values i

let reset t =
  Vec.reset t.times;
  Vec.Floats.reset t.values

(* Index of the latest sample at or before [time], by binary search. *)
let index_at t time =
  let n = length t in
  if n = 0 || Sim_time.compare (Vec.get t.times 0) time > 0 then None
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if Sim_time.compare (Vec.get t.times mid) time <= 0 then lo := mid else hi := mid - 1
    done;
    Some !lo
  end

let value_at t time =
  match index_at t time with None -> None | Some i -> Some (Vec.Floats.get t.values i)

let mean t = Vec.Floats.mean t.values

let mean_between t t0 t1 =
  let sum = ref 0.0 and n = ref 0 in
  for i = 0 to length t - 1 do
    let time = Vec.get t.times i in
    if Sim_time.compare time t0 >= 0 && Sim_time.compare time t1 <= 0 then begin
      sum := !sum +. Vec.Floats.get t.values i;
      incr n
    end
  done;
  if !n = 0 then 0.0 else !sum /. float_of_int !n

let map_values f t =
  let out = create ~name:t.name in
  for i = 0 to length t - 1 do
    add out (Vec.get t.times i) (f (Vec.Floats.get t.values i))
  done;
  out

module Frame = struct
  type series = t
  type t = { time_label : string; members : series Vec.t }

  let create ?(time_label = "time_s") () = { time_label; members = Vec.create () }
  let add_series t s = Vec.push t.members s
  let series t = Array.to_list (Vec.to_array t.members)

  (* One k-way merge pass over the member series' time axes.  Each series
     carries a cursor to its next unemitted sample; a row is emitted at the
     minimum cursor time, advancing every cursor sitting at (or duplicated
     on) that instant.  A cell holds the sample before the cursor — exactly
     the latest-at-or-before value the old per-cell binary search computed,
     without building a sorted time-set union first. *)
  let to_csv t =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf t.time_label;
    let k = Vec.length t.members in
    for j = 0 to k - 1 do
      Buffer.add_char buf ',';
      Buffer.add_string buf (name (Vec.get t.members j))
    done;
    Buffer.add_char buf '\n';
    let next = Array.make (max k 1) 0 in
    let emitting = ref true in
    while !emitting do
      let tmin = ref Sim_time.zero and found = ref false in
      for j = 0 to k - 1 do
        let s = Vec.get t.members j in
        if next.(j) < length s then begin
          let tj = Vec.get s.times next.(j) in
          if (not !found) || Sim_time.compare tj !tmin < 0 then begin
            tmin := tj;
            found := true
          end
        end
      done;
      if not !found then emitting := false
      else begin
        let time = !tmin in
        Printf.bprintf buf "%.6f" (Sim_time.to_sec time); (* lint:ignore hot-path-printf: CSV export renders off the recording path *)
        for j = 0 to k - 1 do
          let s = Vec.get t.members j in
          while
            next.(j) < length s
            && Sim_time.compare (Vec.get s.times next.(j)) time <= 0
          do
            next.(j) <- next.(j) + 1
          done;
          Buffer.add_char buf ',';
          if next.(j) > 0 then
            Printf.bprintf buf "%.6f" (* lint:ignore hot-path-printf: CSV export renders off the recording path *)
              (Vec.Floats.get s.values (next.(j) - 1))
        done;
        Buffer.add_char buf '\n'
      end
    done;
    Buffer.contents buf

  let save_csv t path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_csv t))
end
