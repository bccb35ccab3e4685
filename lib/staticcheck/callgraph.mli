(** Cross-module call graph over a set of parsed compilation units.

    Shared substrate of the interprocedural passes: {!Effect_check} walks
    it to propagate determinism effects from simulation entry points,
    {!Alloc_check} to prove hot roots allocation-free, and {!Lock_check}
    to decide which mutable roots are reached from parallel code.  Nodes
    are structure-level bindings keyed ["Unit.dotted.path"]; resolution
    is purely syntactic (module aliases chased, re-exports followed
    across units, [Stdlib.] stripped). *)

type unit_info = {
  ufile : string;  (** source path as given to the analyzer *)
  uname : string;  (** capitalized basename, the OCaml unit name *)
  udecls : Ast_util.decls;
  ulocals : Ast_util.locals;
  ucaptured : string list;
      (** full keys of roots the per-file domain-capture rule already
          reports for this unit *)
}

type t

val build : (string * Parsetree.structure) list -> t
(** Scan every [(file, structure)] once.  On duplicate unit names the
    first file wins. *)

val unit_infos : t -> unit_info list
val find_unit : t -> string -> unit_info option

val key : unit_info -> string -> string
(** ["Unit.path"] node key. *)

type target =
  | Fun of { fkey : string; funit : unit_info; body : Parsetree.expression }
  | Root of { rkey : string; runit : unit_info; root : Ast_util.root; rpath : string }
  | External of string list
      (** not declared by any scanned unit; the alias-resolved path is
          classified against the effect pass's primitive tables *)

val resolve : t -> cur:unit_info -> ?scope:string list -> string list -> target
(** Resolve a referenced path seen in unit [cur]: module aliases chased,
    [include]d modules searched at the prefix where the include appears,
    re-exports followed across units.  A reference made inside nested
    module [scope] (default: the unit's top level) is tried against each
    enclosing module, innermost first.  Functor applications are opaque —
    paths through [module M = F (X)] stay [External]. *)

type node = { nkey : string; nunit : unit_info; nbody : Parsetree.expression }

val nodes : t -> node array
(** Every structure-level function binding of every unit, in unit order;
    a node's array position is its index in the {!Fixpoint} solve and
    search. *)

val node_scope : node -> string list
(** The nested module a node's binding sits in, e.g. [["Running"]] for
    [Stats.Running.add]; the [scope] to {!resolve} its references in. *)

val index : t -> string -> int option
(** The node index of a key (the last node, should a unit bind the same
    path twice). *)

val entry_keys : t -> string list
(** Simulation entry points, sorted: [Runner.run_all]/[Runner.run_job],
    [Registry.all], [Experiment.run], and top-level
    [run]/[experiment]/[all] bindings in files under an [experiments]
    directory. *)
