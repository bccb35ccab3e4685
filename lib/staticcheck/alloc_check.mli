(** Interprocedural allocation-effect analysis ([alloc-in-hot-path],
    [alloc-unknown-callee]).

    Classifies every structure-level binding into the lattice
    [NoAlloc < BoundedAlloc < Alloc] by a least-fixpoint solve over the
    cross-module call graph, seeded from allocating constructs (closure
    creation, tuple/record/array/list construction, partial application,
    [Printf]/[Format], [ref], string concatenation, boxed int64
    arithmetic, boxed-float returns crossing compilation-unit
    boundaries) and a whitelist of known allocation-free primitives.
    Roots are the hot-path entry points annotated [(* alloc: none *)];
    every function reachable from a root must solve to [NoAlloc], and
    each violation reports the allocating expression's line plus the
    full root -> ... -> site call chain.  [(* alloc: cold *)] marks a
    binding as a trusted cold path (amortized growth, off-by-default
    sanitizers), excluded from the traversal. *)

type alloc_class = NoAlloc | Bounded | Alloc

val class_name : alloc_class -> string
val rank : alloc_class -> int

val check : sources:(string * string) list -> Callgraph.t -> Report.issue list
(** Runs the analysis over the call graph.  [sources] maps the graph's
    file names to raw contents — annotations live in comments, which the
    parsetree does not carry.  Issues are sorted and deduplicated. *)

val annotated_keys : sources:(string * string) list -> Callgraph.t -> string list
(** The sorted [(* alloc: none *)] root keys ([Unit.dotted.path]) — the
    static half of the static/dynamic consistency contract. *)

val consistency : annotated:string list -> benched:string list -> string list
(** Cross-checks the annotated roots against the 0-words/op microbench
    targets: one message per root lacking a bench entry and per bench
    target lacking an annotation.  Empty iff the two views agree. *)
