type 'a t = { mutable data : 'a array; mutable size : int }

let create () = { data = [||]; size = 0 }
let length v = v.size

let check v i =
  if i < 0 || i >= v.size then invalid_arg "Vec: index out of bounds"

let get v i =
  check v i;
  v.data.(i)

let set v i x =
  check v i;
  v.data.(i) <- x

(* Growth is hoisted out of [push] so the common append inlines to a
   bounds test and a store; doubling runs O(log n) times over a vector's
   life. *)
(* alloc: cold *)
let[@inline never] grow v x =
  let cap = Array.length v.data in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let ndata = Array.make ncap x in
  Array.blit v.data 0 ndata 0 v.size;
  v.data <- ndata

let[@inline] push v x =
  if v.size = Array.length v.data then grow v x;
  v.data.(v.size) <- x;
  v.size <- v.size + 1

let clear v =
  v.data <- [||];
  v.size <- 0

let reset v = v.size <- 0

let to_array v = Array.sub v.data 0 v.size

let of_array a =
  let v = create () in
  Array.iter (push v) a;
  v

let iter f v =
  for i = 0 to v.size - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.size - 1 do
    f i v.data.(i)
  done

let fold_left f init v =
  let acc = ref init in
  for i = 0 to v.size - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let last v = if v.size = 0 then None else Some v.data.(v.size - 1)

module Floats = struct
  type t = { mutable data : float array; mutable size : int }

  let create () = { data = [||]; size = 0 }
  let length v = v.size

  let get v i =
    if i < 0 || i >= v.size then invalid_arg "Vec.Floats: index out of bounds";
    v.data.(i)

  (* Doubling runs O(log n) times over a vector's life. *)
  (* alloc: cold *)
  let[@inline never] grow v =
    let cap = Array.length v.data in
    let ncap = if cap = 0 then 16 else cap * 2 in
    let ndata = Array.make ncap 0.0 in
    Array.blit v.data 0 ndata 0 v.size;
    v.data <- ndata

  let[@inline] push v x =
    if v.size = Array.length v.data then grow v;
    v.data.(v.size) <- x;
    v.size <- v.size + 1

  type cell = { mutable value : float }

  let cell () = { value = 0.0 }

  (* Appends [c.value] without a float crossing a call boundary: the cell
     is a flat one-float record, so the caller's store into it and the copy
     into [data] here are both raw float moves.  This keeps the recording
     path allocation-free even when cross-module inlining is off — in a
     [--profile dev] build, which compiles with -opaque; the shipped
     release build inlines across units — where [push]'s float argument
     would be boxed by the caller. *)
  let push_cell v (c : cell) =
    if v.size = Array.length v.data then grow v;
    v.data.(v.size) <- c.value;
    v.size <- v.size + 1

  let clear v =
    v.data <- [||];
    v.size <- 0

  let reset v = v.size <- 0

  let to_array v = Array.sub v.data 0 v.size

  let iter f v =
    for i = 0 to v.size - 1 do
      f v.data.(i)
    done

  let sum v =
    let s = ref 0.0 in
    for i = 0 to v.size - 1 do
      s := !s +. v.data.(i)
    done;
    !s

  let mean v = if v.size = 0 then 0.0 else sum v /. float_of_int v.size
end
