(** Rule documentation behind [analyze_main --explain RULE]: what each
    rule means, how to fix a finding
    and how to waive one. *)

val find : string -> string option
(** The explanation text for a rule id, if known. *)

val explain : string -> int
(** Prints the explanation (or the known-rule list to stderr) and
    returns the process exit code: 0 when the rule is known, 2
    otherwise. *)
