(** JSON (RFC 8259): the one reader and printer for the run manifests,
    SARIF reports, the analyzer's timing side-file and micro results.

    [parse] never raises: malformed input gives an [Error] located at the
    byte where reading stopped.  [\u] escapes decode to UTF-8 (surrogate
    pairs combined, a lone surrogate read as U+FFFD); other string bytes
    are kept as they are, both ways. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in document order, duplicates kept *)

type error = { offset : int;  (** in [\[0, length\]] *) message : string }

val parse : string -> (t, error) result
val error_to_string : error -> string  (** ["<message> at offset <n>"] *)

val to_string : t -> string
(** No trailing newline.  The root and every container holding a container
    print one member per line, indented by two spaces; other containers
    print on one line, as in [{"id": "fig1", "seconds": 0.889}].  Numbers
    print by {!float_to_string}; a non-finite one prints as [null]. *)

val float_to_string : float -> string
(** The fewest significant digits, 15 to 17, that read back as the same
    float: [1.] is ["1"], [0.1] is ["0.1"]; non-finite as [%g] prints. *)

val fixed : int -> float -> t
(** [fixed d x] is [Num] of [x] rounded to [d] decimals as [%.*f] rounds
    it, so a writer keeps its file's precision. *)

val member : string -> t -> t option
(** The first member with that key of an object; [None] otherwise. *)
