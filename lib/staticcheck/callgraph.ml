(* Cross-module call graph over the parsed compilation units.

   Nodes are structure-level bindings, named [Unit.path] after the unit's
   capitalized file name and the (possibly nested, dotted) binding path.
   References are resolved syntactically: module aliases are chased with
   [Ast_util.resolve], a path like [Analysis.Config.enabled] falls through
   the re-exporting unit into the canonical one, and [Stdlib]-qualified
   spellings are normalized.  Anything that does not land on a scanned
   binding stays [External] — the effect pass classifies those against its
   primitive tables. *)

type unit_info = {
  ufile : string;
  uname : string;
  udecls : Ast_util.decls;
  ulocals : Ast_util.locals;
  ucaptured : string list;
      (* full keys of roots the domain-capture rule already reports *)
}

type node = { nkey : string; nunit : unit_info; nbody : Parsetree.expression }

type t = {
  units : (string * unit_info) list;
  nodes : node array;
  index : (string, int) Hashtbl.t;
}

let module_name_of file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

let key u path = u.uname ^ "." ^ path

let build parsed =
  let units =
    List.fold_left
      (fun acc (file, str) ->
        let uname = module_name_of file in
        if List.mem_assoc uname acc then acc (* first unit wins on collisions *)
        else
          let u =
            {
              ufile = file;
              uname;
              udecls = Ast_util.scan_structure str;
              ulocals = Ast_util.scan_expressions str;
              ucaptured = [];
            }
          in
          let u =
            { u with ucaptured = List.map (key u) (Domain_check.captured_root_keys str) }
          in
          (uname, u) :: acc)
      [] parsed
  in
  let units = List.rev units in
  let nodes =
    Array.of_list
      (List.concat_map
         (fun (_, u) ->
           List.map
             (fun (path, body) -> { nkey = key u path; nunit = u; nbody = body })
             u.udecls.Ast_util.funs)
         units)
  in
  (* deterministic: lookup-only, never iterated; a key bound twice maps
     to its last node *)
  let index = Hashtbl.create 256 in
  Array.iteri (fun i nd -> Hashtbl.replace index nd.nkey i) nodes;
  { units; nodes; index }

let unit_infos t = List.map snd t.units
let find_unit t name = List.assoc_opt name t.units
let nodes t = t.nodes

let node_scope n =
  match List.rev (String.split_on_char '.' n.nkey) with
  | _ :: rev_scope -> List.tl (List.rev rev_scope)
  | [] -> []
let index t k = Hashtbl.find_opt t.index k

type target =
  | Fun of { fkey : string; funit : unit_info; body : Parsetree.expression }
  | Root of { rkey : string; runit : unit_info; root : Ast_util.root; rpath : string }
  | External of string list

let rec drop n = function
  | l when n = 0 -> l
  | [] -> []
  | _ :: rest -> drop (n - 1) rest

let lookup u path_dotted =
  match List.assoc_opt path_dotted u.udecls.Ast_util.funs with
  | Some body -> Some (Fun { fkey = key u path_dotted; funit = u; body })
  | None -> (
      match List.assoc_opt path_dotted u.udecls.Ast_util.roots with
      | Some root ->
          Some (Root { rkey = key u path_dotted; runit = u; root; rpath = path_dotted })
      | None -> None)

(* Resolution: alias-chase in the current unit, try the full dotted path
   locally, then through any [include] recorded at a prefix of the path
   ([include Defaults] re-exports [Defaults]'s bindings at that level),
   then scan left-to-right for the first component naming a scanned unit
   and resolve the remainder there — recursing (fuel-bounded) so a
   re-exported alias like [Analysis.Config.enabled] lands on the
   canonical [Config.enabled]. *)
let rec strip_prefix pre path =
  match (pre, path) with
  | [], rest -> Some rest
  | x :: xs, y :: ys when String.equal x y -> strip_prefix xs ys
  | _ -> None

let resolve t ~cur ?(scope = []) path =
  let rec go cur path fuel =
    if fuel = 0 then External path
    else
      let path = Ast_util.resolve cur.udecls.Ast_util.aliases path in
      match lookup cur (Ast_util.dotted path) with
      | Some target -> target
      | None -> (
          let via_include =
            List.fold_left
              (fun found (ipre, target) ->
                match found with
                | Some _ -> found
                | None -> (
                    match strip_prefix ipre path with
                    | Some (_ :: _ as rest) -> (
                        match go cur (target @ rest) (fuel - 1) with
                        | External _ -> None
                        | t -> Some t)
                    | Some [] | None -> None))
              None cur.udecls.Ast_util.includes
          in
          match via_include with
          | Some target -> target
          | None -> (
              match path with
              | [] | [ _ ] -> External path
              | _ ->
                  let n = List.length path in
                  let rec scan i =
                    if i >= n - 1 then External path
                    else
                      match find_unit t (List.nth path i) with
                      | None -> scan (i + 1)
                      | Some u -> (
                          let rest =
                            Ast_util.resolve u.udecls.Ast_util.aliases (drop (i + 1) path)
                          in
                          match lookup u (Ast_util.dotted rest) with
                          | Some target -> target
                          | None -> (
                              match go u rest (fuel - 1) with
                              | External _ -> scan (i + 1)
                              | target -> target))
                  in
                  scan 0))
  in
  (* Inside nested module [scope] a name may be bound by any enclosing
     module: try them innermost first, as OCaml's scoping does. *)
  let rec within scope =
    match (go cur (scope @ path) 8, scope) with
    | External _, _ :: _ -> within (List.rev (List.tl (List.rev scope)))
    | target, _ -> target
  in
  within scope

(* Simulation entry points: the parallel runner's job bodies, the
   experiment registry, [Experiment.run], and — so single-file fixtures
   and new experiment modules are covered without registry edits — any
   top-level [run]/[experiment]/[all] in a file under an [experiments]
   directory. *)
let entry_keys t =
  let keys =
    List.concat_map
      (fun (_, u) ->
        List.filter_map
          (fun (path, _) ->
            let entry =
              match (u.uname, path) with
              | "Runner", ("run_all" | "run_job") -> true
              | "Registry", "all" -> true
              | "Experiment", "run" -> true
              | _, ("run" | "experiment" | "all") -> Ast_util.in_experiments u.ufile
              | _ -> false
            in
            if entry then Some (key u path) else None)
          u.udecls.Ast_util.funs)
      t.units
  in
  List.sort_uniq String.compare keys
