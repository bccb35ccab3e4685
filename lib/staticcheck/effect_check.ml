(* Interprocedural determinism-effect analysis.

   Every structure-level binding is a call-graph node; nodes are
   classified into an effect lattice

       Pure  <  Seeded  <  Ambient  <  Nondet

   where [Seeded] is randomness derived from the experiment seed
   ([Prng.*] — deterministic by construction), [Ambient] is a read of the
   host environment (env vars, filesystem, machine topology) and [Nondet]
   is anything whose result varies run-to-run on the same host (wall
   clock, global [Random], hash-order iteration, domain identity, GC
   counters).  Effects propagate caller <- callee to a fixpoint; any
   [Ambient]/[Nondet] primitive use reachable from a simulation entry
   point is reported at the use site, with the full call chain from the
   entry in the message.  A result produced only through [Pure] and
   [Seeded] nodes is a pure function of (seed, scale) — the property
   that makes a run reproducible from its seed on any pool size. *)

type effect_class = Pure | Seeded | Ambient | Nondet

let class_name = function
  | Pure -> "Pure"
  | Seeded -> "SeededRandom"
  | Ambient -> "Ambient"
  | Nondet -> "Nondet"

let rank = function Pure -> 0 | Seeded -> 1 | Ambient -> 2 | Nondet -> 3
let join = Fixpoint.join ~rank

(* Units whose insides are exempt: blessed configuration loaders read the
   host on purpose, before simulation starts. *)
let blessed_units = [ "Domconfig" ]

(* Classification of a path that resolves to no scanned binding. *)
let classify_external path =
  if List.mem "Prng" path then Some (Seeded, "seed-derived randomness")
  else
    match path with
    | "Random" :: _ -> Some (Nondet, "global Random state")
    | [ ("open_in" | "open_in_bin") ] -> Some (Ambient, "file read")
    | _ -> (
        match Ast_util.last2 path with
        | Some ("Random", _) -> Some (Nondet, "global Random state")
        | Some ("Unix", ("gettimeofday" | "time")) | Some ("Sys", "time") ->
            Some (Nondet, "wall-clock read")
        | Some
            ( "Hashtbl",
              ("iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values") ) ->
            Some (Nondet, "hash-order iteration")
        | Some ("Domain", "self") -> Some (Nondet, "domain identity")
        | Some
            ( "Gc",
              ( "stat" | "quick_stat" | "counters" | "allocated_bytes"
              | "minor_words" | "major_words" ) ) ->
            Some (Nondet, "GC counter read")
        | Some (("Sys" | "Unix"), ("getenv" | "getenv_opt"))
        | Some ("Unix", "environment") ->
            Some (Ambient, "environment read")
        | Some ("Sys", ("file_exists" | "readdir" | "is_directory" | "getcwd" | "command"))
          ->
            Some (Ambient, "host filesystem read")
        | Some ("Domain", "recommended_domain_count") ->
            Some (Ambient, "machine-topology read")
        | _ -> None)

type witness = { wclass : effect_class; wdesc : string; wpath : string; wline : int }

let advice = function
  | Nondet ->
      "simulated results must be a pure function of (seed, scale) — derive \
       randomness with Prng.derive, sort before iterating, or waive with (* \
       lint:ignore effect-nondet: reason *)"
  | _ ->
      "hoist environment/host reads into the driver before jobs start, or waive \
       with (* lint:ignore effect-ambient: reason *)"

let check g =
  let nodes = Callgraph.nodes g in
  let n = Array.length nodes in
  let base = Array.make n Pure in
  let witnesses = Array.make n [] in
  let edges = ref [] in
  Array.iteri
    (fun i ({ Callgraph.nunit = funit; nbody; _ } as node) ->
      let scope = Callgraph.node_scope node in
      List.iter
        (fun (path, line) ->
          if List.mem "Prng" path then
            base.(i) <- join base.(i) Seeded
          else
            match Callgraph.resolve g ~cur:funit ~scope path with
            | Callgraph.Fun { fkey; funit = tu; _ } ->
                if not (List.mem tu.Callgraph.uname blessed_units) then (
                  match Callgraph.index g fkey with
                  | Some j -> if i <> j then edges := (i, j) :: !edges
                  | None -> ())
            | Callgraph.Root _ -> ()
            | Callgraph.External p -> (
                match classify_external p with
                | Some (cls, desc) ->
                    base.(i) <- join base.(i) cls;
                    if rank cls >= rank Ambient then
                      witnesses.(i) <-
                        { wclass = cls; wdesc = desc; wpath = Ast_util.dotted p; wline = line }
                        :: witnesses.(i)
                | None -> ()))
        (Ast_util.free_refs nbody))
    nodes;
  let eff = Fixpoint.solve ~rank ~base ~edges:!edges in
  (* entry points in sorted key order, so the reported chain is
     deterministic *)
  let parent =
    Fixpoint.bfs ~n ~edges:!edges
      ~sources:(List.filter_map (Callgraph.index g) (Callgraph.entry_keys g))
  in
  let keys = Array.map (fun nd -> nd.Callgraph.nkey) nodes in
  Fixpoint.report ~keys ~parent ~above:(fun i -> rank eff.(i) >= rank Ambient) witnesses
    (fun i w trail ->
      {
        Report.file = nodes.(i).Callgraph.nunit.Callgraph.ufile;
        line = w.wline;
        rule = (if w.wclass = Nondet then "effect-nondet" else "effect-ambient");
        message =
          Printf.sprintf "%s (%s) reached from simulation entry via %s: %s" w.wpath
            w.wdesc trail (advice w.wclass);
      })
