(** SARIF 2.1.0 serialization of analyzer issues, for CI upload.

    One run, one [tool.driver] named after the analyzer, one result per
    issue with the rule id, the message and a [physicalLocation] region
    pointing at the flagged line.  The rule table is deduplicated from
    the issues present. *)

val to_string : tool:string -> Report.issue list -> string
(** The complete SARIF document, printed by {!Json.to_string}. *)

val save : tool:string -> Report.issue list -> path:string -> unit

val of_string : string -> Report.issue list
(** Parses a SARIF document back into issues — every result of every
    run.  Raises [Failure] on malformed JSON (the message names the byte
    offset, as {!Json.error_to_string} prints it) or a document without a
    [runs] array. *)

val load : string -> Report.issue list
(** {!of_string} on a file. *)

type diff = {
  fresh : Report.issue list;  (** in current but not in the baseline *)
  suppressed : int;  (** current findings matched by the baseline *)
  stale : int;  (** baseline entries no longer found (fixed) *)
}

val diff_baseline : baseline:Report.issue list -> current:Report.issue list -> diff
(** Matches findings by (file, rule, message), deliberately ignoring the
    line so unrelated edits that shift a waived legacy finding do not
    break CI.  Only [fresh] findings should fail a gated build. *)
