open Parsetree
module S = Set.Make (String)

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let rec flatten (l : Longident.t) =
  match l with
  | Longident.Lident s -> Some [ s ]
  | Longident.Ldot (l, s) -> Option.map (fun p -> p @ [ s ]) (flatten l)
  | Longident.Lapply _ -> None

let strip_stdlib = function "Stdlib" :: (_ :: _ as rest) -> rest | p -> p

let ident_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Option.map strip_stdlib (flatten txt)
  | _ -> None

let dotted = String.concat "."

let rec last2 = function
  | [ a; b ] -> Some (a, b)
  | _ :: rest -> last2 rest
  | [] -> None

let in_experiments path =
  List.exists (String.equal "experiments") (String.split_on_char '/' path)

(* ------------------------------------------------------------------ *)
(* Mutable-state constructors.  Synchronized state (atomics, mutexes,
   arrays whose every cell is an atomic) is recorded but never flagged. *)

let unsync_ctors =
  [
    [ "ref" ];
    [ "Hashtbl"; "create" ];
    [ "Queue"; "create" ];
    [ "Stack"; "create" ];
    [ "Buffer"; "create" ];
    [ "Array"; "make" ];
    [ "Array"; "init" ];
    [ "Array"; "create_float" ];
    [ "Array"; "make_matrix" ];
    [ "Bytes"; "create" ];
    [ "Bytes"; "make" ];
  ]

let sync_ctors =
  [
    [ "Atomic"; "make" ];
    [ "Mutex"; "create" ];
    [ "Condition"; "create" ];
    [ "Semaphore"; "Counting"; "make" ];
    [ "Semaphore"; "Binary"; "make" ];
  ]

(* [Some (ctor, synchronized)] when [e] constructs mutable state. *)
let rec mutable_ctor e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> mutable_ctor e
  | Pexp_array (_ :: _) -> Some ("[| … |]", false)
  | Pexp_apply (f, args) -> (
      match ident_path f with
      | None -> None
      | Some p ->
          if List.mem p sync_ctors then Some (dotted p, true)
          else if List.mem p unsync_ctors then
            let cell_sync =
              (* [Array.make n (Atomic.make …)] or
                 [Array.init n (fun _ -> Atomic.make …)]: the array itself
                 is only written at creation; the cells synchronize. *)
              (p = [ "Array"; "make" ] || p = [ "Array"; "init" ])
              && List.exists
                   (fun (_, a) ->
                     let cell =
                       match a.pexp_desc with
                       | Pexp_fun (_, _, _, body) -> body
                       | _ -> a
                     in
                     match mutable_ctor cell with
                     | Some (_, true) -> true
                     | _ -> false)
                   args
            in
            Some (dotted p, cell_sync)
          else None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* What a file declares: structure-level mutable roots (at any module
   nesting depth), module aliases, structure-level value bindings (the
   reachability graph's nodes), mutable record fields, includes. *)

type root = { rline : int; rkind : string; rsync : bool }

type decls = {
  mutable roots : (string * root) list;  (** dotted path -> root *)
  mutable aliases : (string list * string list) list;
  mutable funs : (string * expression) list;  (** dotted path -> rhs *)
  mutable flines : (string * int) list;  (** dotted fun path -> binding line *)
  mutable fields : int list;  (** lines of [mutable] record fields *)
  mutable includes : (string list * string list) list;
      (** [include M]: prefix where it appears -> included module path *)
}

let rec scan_structure_into prefix decls str =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt = name; _ } -> (
                  let path = prefix @ [ name ] in
                  match mutable_ctor vb.pvb_expr with
                  | Some (kind, sync) ->
                      decls.roots <-
                        ( dotted path,
                          { rline = line_of vb.pvb_loc; rkind = kind; rsync = sync } )
                        :: decls.roots
                  | None ->
                      decls.funs <- (dotted path, vb.pvb_expr) :: decls.funs;
                      decls.flines <-
                        (dotted path, line_of vb.pvb_loc) :: decls.flines)
              | _ -> ())
            vbs
      | Pstr_module mb -> scan_module prefix decls mb
      | Pstr_recmodule mbs -> List.iter (scan_module prefix decls) mbs
      | Pstr_type (_, tds) ->
          List.iter
            (fun td ->
              match td.ptype_kind with
              | Ptype_record fields ->
                  List.iter
                    (fun f ->
                      if f.pld_mutable = Asttypes.Mutable then
                        decls.fields <- line_of f.pld_loc :: decls.fields)
                    fields
              | _ -> ())
            tds
      | Pstr_include incl -> (
          let rec strip me =
            match me.pmod_desc with Pmod_constraint (me, _) -> strip me | _ -> me
          in
          match (strip incl.pincl_mod).pmod_desc with
          | Pmod_structure str -> scan_structure_into prefix decls str
          | Pmod_ident { txt; _ } -> (
              match flatten txt with
              | Some target -> decls.includes <- (prefix, target) :: decls.includes
              | None -> ())
          | _ -> () (* functor application etc.: opaque *))
      | _ -> ())
    str

and scan_module prefix decls mb =
  match mb.pmb_name.Asttypes.txt with
  | None -> ()
  | Some name -> (
      let rec strip me =
        match me.pmod_desc with Pmod_constraint (me, _) -> strip me | _ -> me
      in
      match (strip mb.pmb_expr).pmod_desc with
      | Pmod_structure str -> scan_structure_into (prefix @ [ name ]) decls str
      | Pmod_ident { txt; _ } -> (
          match flatten txt with
          | Some target -> decls.aliases <- (prefix @ [ name ], target) :: decls.aliases
          | None -> ())
      | _ -> ())

let scan_structure str =
  let decls =
    {
      roots = [];
      aliases = [];
      funs = [];
      flines = [];
      fields = [];
      includes = [];
    }
  in
  scan_structure_into [] decls str;
  decls

(* Chase module aliases: rewrite the longest alias prefix of [path],
   bounded so alias cycles cannot loop. *)
let resolve aliases path =
  let rec prefix_of a p =
    match (a, p) with
    | [], rest -> Some rest
    | x :: xs, y :: ys when String.equal x y -> prefix_of xs ys
    | _ -> None
  in
  let step path =
    List.fold_left
      (fun best (a, target) ->
        match (best, prefix_of a path) with
        | Some _, _ -> best
        | None, Some rest when rest <> [] -> Some (target @ rest)
        | None, _ -> None)
      None aliases
  in
  let rec chase path fuel =
    if fuel = 0 then path
    else match step path with Some path' -> chase path' (fuel - 1) | None -> path
  in
  chase path 8

(* ------------------------------------------------------------------ *)
(* Free identifiers of an expression: every referenced path whose head is
   not locally bound, with the source line of the reference and, when
   [protect = `Track], the path of the innermost [Mutex.protect] mutex
   guarding it.  With [protect = `Skip], subtrees under [Mutex.protect]
   are not visited at all — the domain-capture semantics: that capture is
   synchronized by construction. *)

let pat_vars p =
  let vs = ref S.empty in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) -> vs := S.add txt !vs
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.pat it p;
  !vs

let is_mutex_protect f =
  match ident_path f with Some [ "Mutex"; "protect" ] -> true | _ -> false

type guard = string list option

(* Applications whose arguments mutate state: a root passed (syntactically)
   to one of these counts as written, which is what separates a shared
   read-only table from state that actually needs a locking discipline. *)
let is_write_op p =
  match p with
  | [ ":=" ] | [ "incr" ] | [ "decr" ] -> true
  | _ -> (
      match last2 p with
      | Some ("Array", ("set" | "unsafe_set" | "fill" | "blit"))
      | Some ("Bytes", ("set" | "unsafe_set" | "fill" | "blit"))
      | Some
          ( "Hashtbl",
            ("add" | "replace" | "remove" | "reset" | "clear" | "filter_map_inplace") )
      | Some ("Queue", ("push" | "add" | "pop" | "take" | "clear" | "transfer"))
      | Some ("Stack", ("push" | "pop" | "clear"))
      | Some
          ( "Buffer",
            ( "add_string" | "add_char" | "add_bytes" | "add_buffer" | "clear"
            | "reset" | "truncate" ) ) ->
          true
      | _ -> false)

let walk_refs ~protect expr =
  let acc = ref [] in
  let env = ref S.empty in
  let guard : guard ref = ref None in
  let emit ?(written = false) e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        match flatten txt with
        | Some [ x ] when S.mem x !env -> ()
        | Some p -> acc := (strip_stdlib p, line_of e.pexp_loc, !guard, written) :: !acc
        | None -> ())
    | _ -> ()
  in
  let rec handler iter e =
    match e.pexp_desc with
    | Pexp_ident _ -> emit e
    | Pexp_let (rf, vbs, body) ->
        let saved = !env in
        let bound =
          List.fold_left (fun s vb -> S.union s (pat_vars vb.pvb_pat)) S.empty vbs
        in
        if rf = Asttypes.Recursive then env := S.union saved bound;
        List.iter (fun vb -> iter.Ast_iterator.expr iter vb.pvb_expr) vbs;
        env := S.union saved bound;
        iter.Ast_iterator.expr iter body;
        env := saved
    | Pexp_fun (_, default, pat, body) ->
        let saved = !env in
        Option.iter (iter.Ast_iterator.expr iter) default;
        env := S.union saved (pat_vars pat);
        iter.Ast_iterator.expr iter body;
        env := saved
    | Pexp_function cases -> cases_handler iter cases
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        iter.Ast_iterator.expr iter scrut;
        cases_handler iter cases
    | Pexp_for (pat, lo, hi, _, body) ->
        let saved = !env in
        iter.Ast_iterator.expr iter lo;
        iter.Ast_iterator.expr iter hi;
        env := S.union saved (pat_vars pat);
        iter.Ast_iterator.expr iter body;
        env := saved
    | Pexp_apply (f, args) when is_mutex_protect f -> (
        match protect with
        | `Skip -> ()
        | `Track ->
            (* [Mutex.protect m thunk]: references inside [thunk] are
               guarded by [m]; the mutex argument itself is a plain use. *)
            let mutex =
              List.find_map
                (fun (l, a) -> if l = Asttypes.Nolabel then ident_path a else None)
                args
            in
            List.iteri
              (fun i (l, a) ->
                let is_mutex_arg = l = Asttypes.Nolabel && i = 0 in
                if is_mutex_arg then iter.Ast_iterator.expr iter a
                else begin
                  let saved_guard = !guard in
                  (match mutex with Some m -> guard := Some m | None -> ());
                  iter.Ast_iterator.expr iter a;
                  guard := saved_guard
                end)
              args)
    | Pexp_apply (f, args)
      when match ident_path f with Some p -> is_write_op p | None -> false ->
        iter.Ast_iterator.expr iter f;
        List.iter
          (fun (_, a) ->
            match a.pexp_desc with
            | Pexp_ident _ -> emit ~written:true a
            | _ -> iter.Ast_iterator.expr iter a)
          args
    | Pexp_setfield (target, _, v) ->
        (match target.pexp_desc with
        | Pexp_ident _ -> emit ~written:true target
        | _ -> iter.Ast_iterator.expr iter target);
        iter.Ast_iterator.expr iter v
    | _ -> Ast_iterator.default_iterator.expr iter e
  and cases_handler iter cases =
    List.iter
      (fun c ->
        let saved = !env in
        env := S.union saved (pat_vars c.pc_lhs);
        Option.iter (iter.Ast_iterator.expr iter) c.pc_guard;
        iter.Ast_iterator.expr iter c.pc_rhs;
        env := saved)
      cases
  in
  let it = { Ast_iterator.default_iterator with expr = handler } in
  it.expr it expr;
  List.rev !acc

let free_paths expr = List.map (fun (p, _, _, _) -> p) (walk_refs ~protect:`Skip expr)

let free_refs expr =
  List.map (fun (p, l, _, _) -> (p, l)) (walk_refs ~protect:`Track expr)

let guarded_refs expr = walk_refs ~protect:`Track expr

(* ------------------------------------------------------------------ *)
(* Spawn sites and function-local mutable bindings, anywhere in a file. *)

let is_spawn path =
  match last2 path with
  | Some ("Domain", "spawn") | Some ("Thread", "create") -> true
  | _ -> false

type locals = {
  spawns : (int * expression) list;
  local_roots : (string * root) list;
  local_funs : (string * expression) list;
}

let scan_expressions str =
  let spawns = ref [] and local_roots = ref [] and local_funs = ref [] in
  let seen_local = ref S.empty in
  let handler iter e =
    (match e.pexp_desc with
    | Pexp_let (_, vbs, _) ->
        List.iter
          (fun vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt = name; _ } -> (
                match mutable_ctor vb.pvb_expr with
                | Some (kind, sync) ->
                    local_roots :=
                      ( name,
                        { rline = line_of vb.pvb_loc; rkind = kind; rsync = sync } )
                      :: !local_roots
                | None -> (
                    match vb.pvb_expr.pexp_desc with
                    | Pexp_fun _ | Pexp_function _ ->
                        if not (S.mem name !seen_local) then begin
                          seen_local := S.add name !seen_local;
                          local_funs := (name, vb.pvb_expr) :: !local_funs
                        end
                    | _ -> ()))
            | _ -> ())
          vbs
    | Pexp_apply (f, args) -> (
        match ident_path f with
        | Some p when is_spawn p -> (
            match List.find_opt (fun (l, _) -> l = Asttypes.Nolabel) args with
            | Some (_, closure) -> spawns := (line_of e.pexp_loc, closure) :: !spawns
            | None -> ())
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr iter e
  in
  let it = { Ast_iterator.default_iterator with expr = handler } in
  it.structure it str;
  { spawns = !spawns; local_roots = !local_roots; local_funs = !local_funs }
