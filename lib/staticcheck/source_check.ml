(* Per-file source rules over the parsetree.  Each finding is reported at
   the line of its operator or identifier, so a same-line waiver applies;
   the comment windows ([assert-false], [hashtbl-create], [mutable-doc])
   read the raw source lines around it, since comments are invisible to
   the parser.  Literals and comments never match by construction. *)

open Parsetree

let issue ~file line rule message = { Report.file; line; rule; message }

(* Does any raw line from [ln - above] to [ln + below] contain one of
   [needles] (matched case-insensitively)? *)
let documented lines ln ~above ~below needles =
  let has k =
    k >= 1
    && k <= Array.length lines
    &&
    let l = String.lowercase_ascii lines.(k - 1) in
    List.exists (Report.contains_sub l) needles
  in
  let rec go k = k <= ln + below && (has k || go (k + 1)) in
  go (ln - above)

let is_float_lit e =
  match e.pexp_desc with Pexp_constant (Pconst_float _) -> true | _ -> false

(* An operand as the message shows it: a path, a field access or a
   literal; anything else is [_]. *)
let rec operand e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float (s, _) | Pconst_integer (s, _)) -> s
  | Pexp_field (o, { txt; _ }) -> operand o ^ "." ^ Longident.last txt
  | _ -> ( match Ast_util.ident_path e with Some p -> Ast_util.dotted p | None -> "_")

let float_eq ~file f args =
  let floats = List.exists (fun (_, a) -> is_float_lit a) args in
  match (Ast_util.ident_path f, args) with
  | Some [ (("=" | "==" | "!=" | "<>") as op) ], [ (_, l); (_, r) ] when floats ->
      [
        issue ~file (Ast_util.line_of f.pexp_loc) "float-eq"
          (Printf.sprintf
             "structural equality with float literal (%s %s %s): compare with a \
              tolerance, or waive with (* %s float-eq *)"
             (operand l) op (operand r) Report.waiver);
      ]
  | Some [ "compare" ], _ when floats ->
      [
        issue ~file (Ast_util.line_of f.pexp_loc) "float-eq"
          "polymorphic compare near a float literal: use Float.compare";
      ]
  | _ -> []

let random ~file loc lid =
  match Option.map Ast_util.strip_stdlib (Ast_util.flatten lid) with
  | Some ("Random" :: _ as p) ->
      [
        issue ~file (Ast_util.line_of loc) "random"
          (Printf.sprintf
             "global %s breaks run determinism: use Prng with an explicit seed"
             (Ast_util.dotted p));
      ]
  | _ -> []

let check ~file ~lines str =
  let issues = ref [] in
  let add l = issues := l @ !issues in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_apply (f, args) -> add (float_eq ~file f args)
    | Pexp_ident { txt; loc } -> (
        add (random ~file loc txt);
        match Ast_util.ident_path e with
        | Some [ "Hashtbl"; "create" ]
          when not
                 (documented lines (Ast_util.line_of loc) ~above:2 ~below:0
                    [ "deterministic"; "hash-order" ]) ->
            add
              [
                issue ~file (Ast_util.line_of loc) "hashtbl-create"
                  "Hashtbl.create without a nearby (* deterministic: … *) or \
                   hash-order comment: iteration order is seed/history-dependent — \
                   say the table is lookup-only (or sorted before iteration), or use \
                   an assoc list / Map";
              ]
        | _ -> ())
    | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
      when not
             (documented lines (Ast_util.line_of e.pexp_loc) ~above:2 ~below:0
                [ "unreachable" ]) ->
        add
          [
            issue ~file (Ast_util.line_of e.pexp_loc) "assert-false"
              "assert false without an (* unreachable: … *) comment nearby \
               explaining why the branch cannot be taken";
          ]
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let typ it t =
    (match t.ptyp_desc with Ptyp_constr ({ txt; loc }, _) -> add (random ~file loc txt) | _ -> ());
    Ast_iterator.default_iterator.typ it t
  in
  let module_expr it m =
    (match m.pmod_desc with Pmod_ident { txt; loc } -> add (random ~file loc txt) | _ -> ());
    Ast_iterator.default_iterator.module_expr it m
  in
  let it = { Ast_iterator.default_iterator with expr; typ; module_expr } in
  it.structure it str;
  !issues

let check_interface ~file ~lines sg =
  let issues = ref [] in
  let label_declaration it ld =
    let ln = Ast_util.line_of ld.pld_loc in
    if ld.pld_mutable = Asttypes.Mutable && not (documented lines ln ~above:3 ~below:1 [ "(**" ])
    then
      issues :=
        issue ~file ln "mutable-doc"
          "mutable field exposed in an interface without an adjacent (** … *) doc \
           comment"
        :: !issues;
    Ast_iterator.default_iterator.label_declaration it ld
  in
  let it = { Ast_iterator.default_iterator with label_declaration } in
  it.signature it sg;
  !issues

let in_lib path = List.mem "lib" (String.split_on_char '/' path)

let missing_mli files =
  List.filter_map
    (fun path ->
      if Filename.check_suffix path ".ml" && in_lib path && not (List.mem (path ^ "i") files)
      then
        Some
          (issue ~file:path 1 "missing-mli"
             ("library module without an interface: add " ^ path ^ "i"))
      else None)
    files
