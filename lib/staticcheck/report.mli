(** Issue records, waivers, the source walk and the exit-code convention
    of the analyzer: every pass produces the same flat issue records,
    honours the same ["lint:ignore"] waiver marker and is reported in one
    format with one exit convention (0 clean, 1 issues, 2 usage error). *)

type issue = { file : string; line : int; rule : string; message : string }

val waiver : string
(** The waiver marker, ["lint:ignore"].  A source line whose raw text
    contains it is exempt from every rule reported on that line. *)

val contains_sub : string -> string -> bool
(** [contains_sub s sub]: whether [sub] (non-empty) occurs in [s]. *)

val pp_issue : Format.formatter -> issue -> unit
(** ["file:line: [rule] message"] — the one report format. *)

val sort : issue list -> issue list
(** By file, then line, then rule. *)

val drop_waived :
  ?symbols:(issue -> string list) -> source:string -> issue list -> issue list
(** Removes issues whose raw source line contains {!waiver}.

    When [symbols] is given, the file is additionally scanned for
    file-scoped symbol waivers of the form [lint:ignore RULE @Path]
    (anywhere in the file): an issue is dropped when such a waiver's rule
    matches the issue's rule and its path matches {e any} spelling the
    checker supplies via [symbols issue] — so a waiver written against a
    re-exported module-alias path (e.g. [@Analysis.Config.collected])
    matches the canonical declaration ([@Config.collected]) and vice
    versa, provided the checker lists both spellings. *)

val read_file : string -> string
(** Whole file, binary-exact. *)

val collect_sources : string list -> string list
(** Walks the given files and directories recursively (skipping [_build]
    and dot-files) and returns every [.ml]/[.mli] found.  Roots that do
    not exist are ignored; validate them first with {!check_roots}. *)

val check_roots : tool:string -> string list -> unit
(** Exits with code 2 (printing to stderr) if any root does not exist. *)

val report : tool:string -> issue list -> int
(** Prints every issue on stdout with {!pp_issue}, then an issue-count
    summary on stderr when non-empty.  Returns the process exit code:
    0 for a clean report, 1 otherwise — the one exit-code convention. *)
