(** Interprocedural determinism-effect analysis.

    Classifies every call-graph node into the effect lattice
    [Pure < SeededRandom < Ambient < Nondet] and reports every
    [Ambient]/[Nondet] primitive use reachable from a simulation entry
    point ({!Callgraph.entry_keys}).  Issues are located at the primitive
    use site — so a line waiver on that site works — and carry the full
    entry → … → node call chain in the message.

    Rules: [effect-nondet] (wall clock, global [Random], hash-order
    iteration, [Domain.self], GC counters) and [effect-ambient]
    (environment variables, host filesystem, machine topology, outside
    the blessed config-loader units). *)

type effect_class = Pure | Seeded | Ambient | Nondet

val class_name : effect_class -> string
val rank : effect_class -> int

val classify_external : string list -> (effect_class * string) option
(** Effect of a primitive path that resolves to no scanned binding
    ([Some (class, description)]), [None] when effect-free. *)

val check : Callgraph.t -> Report.issue list
