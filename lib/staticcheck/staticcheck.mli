(** AST-level static analysis for the simulator (dune build @analyze).

    The one source checker: it parses every compilation unit with the
    compiler's own parser ([compiler-libs]) and runs structural passes
    over the parsetrees:

    {b Per file}:

    - the {b source rules} ({!Source_check}): [float-eq], [random],
      [assert-false], [hashtbl-create] on implementations, [mutable-doc]
      on the interfaces the registry parses, and [missing-mli] over the
      walked file list;
    - the {b unit-of-measure checker} ({!Unit_check}): [unit-arith],
      [unit-call], [unit-binding] — cross-unit arithmetic, comparisons,
      mismatched arguments to the Eq. (1)–(4) entry points and
      suffix-contradicting bindings, driven by the {!Units} vocabulary
      and a registry seeded from the [.mli] declarations it walks;
    - the {b domain-safety pass} ({!Domain_check}): [domain-capture],
      [experiment-state] — unsynchronized mutable state reachable from
      spawned closures, and structure-level mutable state in experiment
      modules;
    - the {b float-reduction pass} ({!Fold_check}): [float-fold-order] —
      non-associative float accumulation over hash-ordered iteration or
      parallel job results.

    {b Whole program}, over the cross-module call graph ({!Callgraph})
    of every unit analyzed together, sharing one lattice solver and
    shortest-chain search ({!Fixpoint}):

    - the {b determinism effect pass} ({!Effect_check}):
      [effect-nondet], [effect-ambient] — classifies every binding into
      [Pure < SeededRandom < Ambient < Nondet] and reports any
      non-seeded effect reachable from a simulation entry point, with
      the full call chain in the message;
    - the {b lock-discipline pass} ({!Lock_check}): [lock-discipline] —
      infers, per shared mutable root, whether accesses follow one
      discipline (one mutex, atomic, domain-confined/read-only) and
      flags mixed or unguarded access;
    - the {b allocation-effect pass} ({!Alloc_check}):
      [alloc-in-hot-path], [alloc-unknown-callee] — classifies every
      binding into [NoAlloc < BoundedAlloc < Alloc] and proves the
      [(* alloc: none *)]-annotated hot roots allocation-free, with the
      full root → … → site chain on every violation.

    A file that does not parse yields a single [parse-error] issue.
    Line waivers (["lint:ignore"]), file-scoped symbol waivers
    ([lint:ignore RULE @Path] — matching any source spelling of the
    root), the issue record and the report format live in {!Report}.  [analyze_main --explain RULE] ({!Explain})
    documents every rule. *)

module Units = Units
module Unit_check = Unit_check
module Domain_check = Domain_check
module Ast_util = Ast_util
module Callgraph = Callgraph
module Fixpoint = Fixpoint
module Effect_check = Effect_check
module Lock_check = Lock_check
module Alloc_check = Alloc_check
module Fold_check = Fold_check
module Explain = Explain
module Sarif = Sarif
module Source_check = Source_check
module Report = Report

val analyze_source :
  ?registry:Units.registry -> file:string -> string -> Report.issue list
(** Analyzes one [.ml] compilation unit given its file name and full
    contents — the whole-program passes run on the singleton unit, so a
    self-contained fixture exercises every rule.  An [.mli] input yields
    its [mutable-doc] findings only.  [registry] defaults to
    {!Units.builtin}.  Waived lines are already filtered; issues are
    sorted. *)

val analyze_paths : string list -> Report.issue list
(** Walks the given files and directories (recursively, skipping
    [_build] and dot-files), builds the registry from every interface
    found (checking each for [mutable-doc] on the way), applies
    [missing-mli] to [lib/] subtrees, then analyzes every implementation
    — per-file passes plus the whole-program effect, lock-discipline and
    allocation-effect passes over all units together.  Issues are sorted
    by file and line. *)

val analyze_paths_timed :
  ?jobs:int ->
  ?clock:(unit -> float) ->
  string list ->
  Report.issue list * (string * float) list
(** Like {!analyze_paths}, also returning per-pass wall times
    [("parse" | "effect" | "lock" | "alloc" | "perfile") * seconds].
    [jobs > 1] runs the three interprocedural passes on their
    own domains; the issue list is byte-identical for every [jobs] value
    (passes are pure and joined in a fixed order).  [clock] supplies the
    timer (the driver passes [Unix.gettimeofday]; without it the times
    are all 0). *)

val alloc_roots_of_paths : string list -> string list
(** The sorted [(* alloc: none *)] hot-root keys under the given roots —
    what the static/dynamic consistency test compares against the
    microbench zero-alloc targets. *)
