(** A self-scheduling pool of OCaml domains.

    The one place the runners (the experiment registry, the validation
    grid) spawn domains.  Each worker claims the next unclaimed item, so a
    slow item never holds up the others; results come back in input order
    whatever the completion order, so a caller whose [f] is a pure
    function of its item gets the same list for any pool size. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] is [List.map f items] computed on
    [min jobs (length items)] workers (at least one): the calling domain
    and that many less one spawned domains.  When [f] raises on some
    items, no new item is claimed, every worker is joined, and the
    exception of the first failing item in input order is re-raised with
    its backtrace.
    @raise Invalid_argument when [jobs < 1]. *)
