(** The lattice solver shared by the interprocedural passes.

    {!Effect_check} and {!Alloc_check} each classify call-graph nodes
    into a totally ordered lattice given by a [rank] function; the class
    of a node is the join of its own base class and its callees' classes.
    Reported findings carry the shortest source → … → node chain, rebuilt
    from the parents of a multi-source breadth-first search.
    {!Lock_check} uses the same search for entry reachability. *)

val join : rank:('a -> int) -> 'a -> 'a -> 'a
val leq : rank:('a -> int) -> 'a -> 'a -> bool

val solve : rank:('a -> int) -> base:'a array -> edges:(int * int) list -> 'a array
(** Least fixpoint of [cls i = join base.(i) (join of cls j over the
    caller → callee edges (i, j))].  Exposed pure so the property tests
    can check it directly. *)

val bfs : n:int -> edges:(int * int) list -> sources:int list -> int array
(** Breadth-first search over [n] nodes from [sources] (visited in the
    given order), expanding successors in ascending index order, so the
    result is deterministic.  The returned parent array holds [-1] for a
    source, the BFS parent for any other reached node, and [-2] for an
    unreached node: a node is reached iff its parent is [>= -1]. *)

val chain : keys:string array -> parent:int array -> int -> string list
(** The node names from the BFS source down to the given reached node. *)

val report :
  keys:string array ->
  parent:int array ->
  above:(int -> bool) ->
  'w list array ->
  (int -> 'w -> string -> Report.issue) ->
  Report.issue list
(** [report ~keys ~parent ~above witnesses issue]: for every node reached
    by the search ([parent] from {!bfs}) whose solved class is [above]
    the lattice's bottom, one [issue i w trail] per direct witness [w],
    where [trail] is its {!chain} joined with [" → "].  A reached node's
    direct witnesses are exactly what lifted its class, so reporting
    them covers the solution.  Sorted, duplicates removed. *)
