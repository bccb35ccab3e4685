(* Interprocedural lock-discipline inference.

   For every structure-level unsynchronized mutable root that is shared —
   reachable from a spawn closure or from a simulation entry point (the
   runner executes those on worker domains) — infer the guarding
   discipline from its access sites:

   - every access under the same [Mutex.protect] mutex  -> consistent;
   - state built from [Atomic.make]/[Mutex.create]       -> synchronized,
     skipped up front;
   - never written anywhere                              -> a read-only
     table, domain-confined by construction, skipped;
   - otherwise: mixed guarded/bare access, two different mutexes, or no
     discipline at all -> reported at the declaration site.

   A plain-unguarded root the per-file domain-capture rule already flags
   is suppressed here so one bug surfaces under one rule.  The second
   component of the result maps each issue to every spelling of the root
   seen in the source (canonical key, in-unit path, alias-qualified uses)
   so file-scoped symbol waivers match whichever spelling the author
   writes. *)

type access = {
  aline : int;
  aguard : string option;  (* normalized mutex key, [None] = bare *)
  awritten : bool;
  aspelled : string;  (* the path as written at the use site *)
  ashared : bool;  (* from a spawn closure or an entry-reachable node *)
}

type racc = {
  runit : Callgraph.unit_info;
  root : Ast_util.root;
  rpath : string;
  mutable accs : access list;
}

let check g =
  let nodes = Callgraph.nodes g in
  let node_refs = Array.map (fun nd -> Ast_util.guarded_refs nd.Callgraph.nbody) nodes in
  let node_unit = Array.map (fun nd -> nd.Callgraph.nunit) nodes in
  let node_scope = Array.map Callgraph.node_scope nodes in
  (* --- entry-reachability over resolved call edges --- *)
  let edges = ref [] in
  Array.iteri
    (fun i refs ->
      List.iter
        (fun (path, _, _, _) ->
          match Callgraph.resolve g ~cur:node_unit.(i) ~scope:node_scope.(i) path with
          | Callgraph.Fun { fkey; _ } -> (
              match Callgraph.index g fkey with
              | Some j when i <> j -> edges := (i, j) :: !edges
              | _ -> ())
          | _ -> ())
        refs)
    node_refs;
  let parent =
    Fixpoint.bfs ~n:(Array.length nodes) ~edges:!edges
      ~sources:(List.filter_map (Callgraph.index g) (Callgraph.entry_keys g))
  in
  (* --- collect access sites on unsynchronized roots --- *)
  let roots : (string * racc) list ref = ref [] in
  let record ~cur ~scope ~shared (path, line, guard, written) =
    match Callgraph.resolve g ~cur ~scope path with
    | Callgraph.Root { rkey; runit; root; rpath } when not root.Ast_util.rsync ->
        let r =
          match List.assoc_opt rkey !roots with
          | Some r -> r
          | None ->
              let r = { runit; root; rpath; accs = [] } in
              roots := (rkey, r) :: !roots;
              r
        in
        let aguard =
          Option.map
            (fun gp ->
              match Callgraph.resolve g ~cur ~scope gp with
              | Callgraph.Root { rkey; _ } -> rkey
              | Callgraph.Fun { fkey; _ } -> fkey
              | Callgraph.External p -> Ast_util.dotted p)
            guard
        in
        r.accs <-
          { aline = line; aguard; awritten = written; aspelled = Ast_util.dotted path; ashared = shared }
          :: r.accs
    | _ -> ()
  in
  Array.iteri
    (fun i refs ->
      List.iter
        (record ~cur:node_unit.(i) ~scope:node_scope.(i) ~shared:(parent.(i) >= -1))
        refs)
    node_refs;
  List.iter
    (fun u ->
      List.iter
        (fun (_, closure) ->
          List.iter (record ~cur:u ~scope:[] ~shared:true) (Ast_util.guarded_refs closure))
        u.Callgraph.ulocals.Ast_util.spawns)
    (Callgraph.unit_infos g);
  (* --- classify --- *)
  let results = ref [] in
  List.iter
    (fun (rkey, r) ->
      let shared = List.exists (fun a -> a.ashared) r.accs in
      let written = List.exists (fun a -> a.awritten) r.accs in
      if shared && written then begin
        let mutexes =
          List.filter_map (fun a -> a.aguard) r.accs |> List.sort_uniq String.compare
        in
        let bare = List.filter (fun a -> a.aguard = None) r.accs in
        let decl = Printf.sprintf "%s (%s, declared line %d)" rkey r.root.Ast_util.rkind r.root.Ast_util.rline in
        let fix =
          Printf.sprintf
            "guard every access with one mutex, switch to Atomic, or waive with (* \
             lint:ignore lock-discipline @%s *)"
            rkey
        in
        let finding =
          match (mutexes, bare) with
          | [], _ ->
              if List.mem rkey r.runit.Callgraph.ucaptured then None
                (* domain-capture already reports this root *)
              else
                Some
                  (Printf.sprintf
                     "shared mutable state %s is written from parallel simulation \
                      code with no guarding discipline (no mutex, not atomic, not \
                      domain-confined): %s"
                     decl fix)
          | _ :: _ :: _, _ ->
              Some
                (Printf.sprintf
                   "shared mutable state %s is guarded by %d different mutexes (%s) \
                    — a single mutex must own it: %s"
                   decl (List.length mutexes)
                   (String.concat ", " mutexes)
                   fix)
          | [ m ], _ :: _ ->
              Some
                (Printf.sprintf
                   "shared mutable state %s has mixed locking: %d access(es) under \
                    mutex %s but %d bare (e.g. line %d): %s"
                   decl
                   (List.length r.accs - List.length bare)
                   m (List.length bare)
                   (List.fold_left (fun acc a -> min acc a.aline) max_int bare)
                   fix)
          | [ _ ], [] -> None (* consistent: one mutex guards every access *)
        in
        match finding with
        | None -> ()
        | Some message ->
            let issue =
              {
                Report.file = r.runit.Callgraph.ufile;
                line = r.root.Ast_util.rline;
                rule = "lock-discipline";
                message;
              }
            in
            let spellings =
              rkey :: r.rpath :: List.map (fun a -> a.aspelled) r.accs
              |> List.sort_uniq String.compare
            in
            results := (issue, spellings) :: !results
      end)
    !roots;
  let results = List.sort compare !results in
  let issues = List.map fst results in
  let spellings_of issue =
    match List.assoc_opt issue results with Some l -> l | None -> []
  in
  (issues, spellings_of)
