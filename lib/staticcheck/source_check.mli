(** The per-file source rules: exact-float comparison, global [Random],
    undocumented [assert false] and [Hashtbl.create], undocumented
    mutable interface fields and library modules without an interface.

    - [float-eq]: [=], [==], [!=] or [<>] applied to a float literal, and
      polymorphic [compare] applied to one.  Exact float equality is
      almost always a rounding bug in credit/load arithmetic.
    - [random]: any [Random.*] path, reachable from a simulation entry
      point or not; randomness goes through [Prng] with an explicit seed.
    - [assert-false]: [assert false] without ["unreachable"] on its line
      or one of the two lines above.
    - [hashtbl-create]: [Hashtbl.create] without ["deterministic"] or
      ["hash-order"] on its line or one of the two lines above.
    - [mutable-doc]: a [mutable] record field in an interface without a
      doc-comment opener from three lines above to one line below.
    - [missing-mli]: a [.ml] under a [lib/] directory without a sibling
      [.mli].

    [lines] is the file's raw source split on newlines; the windows are
    matched case-insensitively against it. *)

val check : file:string -> lines:string array -> Parsetree.structure -> Report.issue list
(** [float-eq], [random], [assert-false] and [hashtbl-create] on an
    implementation. *)

val check_interface :
  file:string -> lines:string array -> Parsetree.signature -> Report.issue list
(** [mutable-doc] on an interface. *)

val missing_mli : string list -> Report.issue list
(** [missing-mli] over the full list of collected source files, at line
    1.  A file-level finding: no waiver applies, add the interface. *)
