(** Shared parsetree machinery for the AST analysis passes.

    Everything the per-file domain-safety pass ({!Domain_check}) and the
    interprocedural passes ({!Effect_check}, {!Lock_check}) agree on lives
    here: identifier flattening, the mutable-state constructor vocabulary,
    the structure scanner that collects a file's top-level declarations
    (mutable roots, module aliases, function bodies), module-alias
    resolution, and the free-reference walks. *)

val line_of : Location.t -> int

val flatten : Longident.t -> string list option
(** [A.B.c] as [["A"; "B"; "c"]]; [None] for functor applications. *)

val strip_stdlib : string list -> string list
(** Drops a leading ["Stdlib"] from a non-trivial path. *)

val ident_path : Parsetree.expression -> string list option
(** The flattened ([Stdlib]-stripped) path of an identifier expression. *)

val dotted : string list -> string

val last2 : string list -> (string * string) option
(** The last two segments of a path ([Unix.gettimeofday]). *)

val in_experiments : string -> bool
(** Whether a file path has an ["experiments"] directory component. *)

val mutable_ctor : Parsetree.expression -> (string * bool) option
(** [Some (ctor, synchronized)] when the expression constructs mutable
    state: [ref]/[Hashtbl.create]/[Array.make]/array literals… are
    unsynchronized; [Atomic.make]/[Mutex.create]/… (and arrays whose
    every cell is an atomic) are synchronized. *)

type root = { rline : int; rkind : string; rsync : bool }

type decls = {
  mutable roots : (string * root) list;  (** dotted path -> root *)
  mutable aliases : (string list * string list) list;
  mutable funs : (string * Parsetree.expression) list;  (** dotted path -> rhs *)
  mutable flines : (string * int) list;  (** dotted fun path -> binding line *)
  mutable fields : int list;  (** lines of [mutable] record fields *)
  mutable includes : (string list * string list) list;
      (** [include M]: prefix where it appears -> included module path *)
}

val scan_structure : Parsetree.structure -> decls
(** Structure-level declarations at any module nesting depth; nested
    names are dotted ([Frame.add]), module aliases recorded for
    {!resolve}.  [include M] records an include entry (and an inline
    [include struct … end] is scanned in place); [include F (X)] is
    opaque. *)

val resolve : (string list * string list) list -> string list -> string list
(** Chases module aliases: rewrites the longest alias prefix, bounded so
    alias cycles cannot loop. *)

module S : Set.S with type elt = string

val pat_vars : Parsetree.pattern -> S.t
(** The variables a pattern binds. *)

type guard = string list option
(** The innermost [Mutex.protect] mutex path guarding a reference. *)

val is_write_op : string list -> bool
(** Whether an applied identifier mutates its argument ([:=], [incr],
    [Hashtbl.replace], [Queue.push], …). *)

val free_paths : Parsetree.expression -> string list list
(** Free referenced paths; subtrees under [Mutex.protect] are skipped
    entirely (domain-capture semantics: that capture is synchronized by
    construction). *)

val free_refs : Parsetree.expression -> (string list * int) list
(** Free referenced paths with source lines, including references under
    [Mutex.protect] — the call-graph edge set of the effect analysis. *)

val guarded_refs : Parsetree.expression -> (string list * int * guard * bool) list
(** Like {!free_refs}, and each reference carries the innermost
    [Mutex.protect] mutex guarding it (if any) and whether the reference
    is a syntactic write ({!is_write_op} application argument or
    [Pexp_setfield] target) — the lock-discipline pass's evidence. *)

type locals = {
  spawns : (int * Parsetree.expression) list;
  local_roots : (string * root) list;
  local_funs : (string * Parsetree.expression) list;
}

val scan_expressions : Parsetree.structure -> locals
(** Spawn sites, function-local mutable bindings and function-local
    helper bodies anywhere in the file, keyed by base name (first
    binding wins). *)
