(** Imperative binary min-heap.

    The priority order is given at creation time by a comparison function. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** Fresh empty heap ordered by [cmp] (smallest element popped first). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val pop : 'a t -> 'a option
(** Removes and returns the smallest element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Elements in unspecified order; does not modify the heap. *)

val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a t
