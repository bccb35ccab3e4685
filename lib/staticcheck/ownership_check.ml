(* Interprocedural ownership/escape analysis for per-host state.

   The ROADMAP's sharding refactor — thousands of hosts across the
   OCaml 5 domain pool with per-shard calendar queues — is only safe if
   every mutable value reachable from a [Host.t]/[Smp_host.t]/[Vm.t]/
   [Domain.t] is owned by exactly one host, and cross-host coupling
   flows solely through the migration/placement epoch channels in
   lib/cluster.  This pass proves which state is shard-confinable.

   Every structure-level binding is a call-graph node; nodes are
   classified into the confinement lattice

       HostConfined < ShardConfined < BoundaryChannel < Escaping

   by the same least-fixpoint solve as [Effect_check]/[Alloc_check],
   over reversed call edges: a callee inherits the worst class of its
   callers, so the class at a field accessor summarizes every context
   that can reach the state it touches.  Seeds:

   - [ShardConfined] at the simulation entry points
     ({!Callgraph.entry_keys}): state reached from there lives on
     whichever worker domain (shard) runs the experiment;
   - [BoundaryChannel] at functions annotated [(* shard: boundary *)]
     (binding line or the line above — same standalone-marker grammar as
     [(* alloc: none *)]): the declared migration/placement epoch
     channels in lib/cluster;
   - [Escaping] at any function with an escape witness.

   Escape witnesses ([shard-escape]) are anything that can alias
   host-owned state across hosts: a reference to host state from a
   cluster unit outside an annotated boundary function, capture of a
   host-bound local in a [Domain.spawn]/[Thread.create] closure (the
   legal shard-pool idiom creates its hosts {e inside} the worker
   closure, capturing nothing), a host-owned value in tail position of a
   simulation entry (returned through the entry boundary), and a
   host-owned value stored into a structure-level mutable root (a global
   table).  [shard-unknown-flow] is the can't-prove case: a host-bound
   local passed to a call that resolves to no scanned binding, or
   through an indirect record-field call.  Each finding carries the
   shortest host-API -> ... -> escape-site chain, rooted at a
   constructor when one reaches the site.

   Roots — every mutable field and contained mutable structure of the
   host-state units — are collected from the record-field declarations
   ({!Ast_util.field_decl}): [mutable] fields, fields of known mutable
   containers (Series, Trace, arrays, masks, processor state, ...),
   fields embedding another host-state unit's [t].  Because the four
   host-state types are abstract in their interfaces, their fields are
   only touched inside the declaring unit, so a root's accessors are the
   declaring unit's functions mentioning the field label, and

       class(root) = floor(root) ⊔ join over accessors a of solve(a)

   with floor [ShardConfined] for fields that alias the shard's
   simulator (calendar queue, event handles) and [HostConfined]
   otherwise; an embedded root additionally joins the target unit's own
   class.  Deliberate approximations: field labels match per unit, not
   per record type; workload/scheduler closure records are treated as
   opaque host-confined containers; host-bound locals are recognized
   only when [let]-bound directly to a host-state constructor. *)

open Parsetree

type confinement = Host_confined | Shard_confined | Boundary_channel | Escaping

let class_name = function
  | Host_confined -> "HostConfined"
  | Shard_confined -> "ShardConfined"
  | Boundary_channel -> "BoundaryChannel"
  | Escaping -> "Escaping"

let rank = function
  | Host_confined -> 0
  | Shard_confined -> 1
  | Boundary_channel -> 2
  | Escaping -> 3

let join a b = if rank a >= rank b then a else b
let leq a b = rank a <= rank b

(* Least fixpoint of [cls i = join base(i) (join over edges (i,j) of
   cls j)]; standalone over plain arrays so the property tests can check
   monotonicity under edge addition directly (same shape as
   [Effect_check.solve] and [Alloc_check.solve]). *)
let solve ~n ~base ~edges =
  let cls = Array.copy base in
  ignore n;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (i, j) ->
        let v = join cls.(i) cls.(j) in
        if rank v > rank cls.(i) then begin
          cls.(i) <- v;
          changed := true
        end)
      edges
  done;
  cls

(* ------------------------------------------------------------------ *)
(* The host-state units and their constructors. *)

let host_units = [ "Domain"; "Host"; "Smp_host"; "Vm" ]
let is_host_unit u = List.mem u.Callgraph.uname host_units
let ctor_names = [ "create" ]

let last_component key =
  match List.rev (String.split_on_char '.' key) with x :: _ -> x | [] -> key

let in_cluster file =
  List.exists (String.equal "cluster") (String.split_on_char '/' file)

(* ------------------------------------------------------------------ *)
(* Boundary annotation grammar: [(* shard: boundary *)] on the binding
   line or the line directly above (a trailing reason also matches).
   Same scraping discipline as the alloc markers: on the binding line a
   substring suffices; on the line above the marker must open the
   comment, so prose mentioning the grammar does not declare channels. *)

let contains_sub line sub =
  let n = String.length line and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub line i m = sub || loop (i + 1)) in
  m > 0 && loop 0

(* A waived line ([lint:ignore] anywhere on it, the same test
   [Report.drop_waived] applies) must not seed [Escaping] either — the
   author audited that flow, and a waived witness would otherwise still
   poison every class downstream of the solve. *)
let waived_line content =
  let lines = Array.of_list (String.split_on_char '\n' content) in
  fun ln ->
    ln >= 1 && ln <= Array.length lines && contains_sub lines.(ln - 1) Report.waiver

let boundary_marker content =
  let lines = Array.of_list (String.split_on_char '\n' content) in
  let get ln = if ln < 1 || ln > Array.length lines then "" else lines.(ln - 1) in
  let opener = "(* shard: boundary" in
  let leading l =
    let l = String.trim l in
    String.length l >= String.length opener
    && String.sub l 0 (String.length opener) = opener
  in
  fun ln -> contains_sub (get ln) "shard: boundary" || leading (get (ln - 1))

let boundary_keys ~sources g =
  let keys =
    List.concat_map
      (fun u ->
        match List.assoc_opt u.Callgraph.ufile sources with
        | None -> []
        | Some content ->
            let marked = boundary_marker content in
            List.filter_map
              (fun (path, ln) -> if marked ln then Some (Callgraph.key u path) else None)
              u.Callgraph.udecls.Ast_util.flines)
      (Callgraph.unit_infos g)
  in
  List.sort_uniq String.compare keys

(* ------------------------------------------------------------------ *)
(* Root vocabulary: which record fields of a host-state unit are mutable
   state.  [fheads] is matched outer to inner, so [Domain.t array] is an
   embed and [Trace.t option] a container.  The simulator fields floor at
   [ShardConfined]: the calendar queue and its handles are shared with
   every co-located host of the shard by design. *)

let container_kinds =
  [
    ("array", "array", Host_confined);
    ("ref", "ref cell", Host_confined);
    ("Queue.t", "queue", Host_confined);
    ("Stack.t", "stack", Host_confined);
    ("Hashtbl.t", "hash table", Host_confined);
    ("Buffer.t", "buffer", Host_confined);
    ("Bytes.t", "byte buffer", Host_confined);
    ("Atomic.t", "atomic cell", Host_confined);
    ("Mutex.t", "mutex", Host_confined);
    ("Series.t", "metrics series", Host_confined);
    ("Series.cell", "series scratch cell", Host_confined);
    ("Trace.t", "event trace", Host_confined);
    ("Mask.t", "scratch mask", Host_confined);
    ("Running.t", "running-stats accumulator", Host_confined);
    ("Floats.t", "float vector", Host_confined);
    ("Processor.t", "DVFS processor state", Host_confined);
    ("Smp.t", "SMP processor state", Host_confined);
    ("Scheduler.t", "scheduler dispatch record", Host_confined);
    ("Workload.t", "workload closure state", Host_confined);
    ("Simulator.t", "shard calendar queue", Shard_confined);
    ("Simulator.handle", "shard event handle", Shard_confined);
  ]

let ends_with ~suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

let head_matches key head = head = key || ends_with ~suffix:("." ^ key) head

let embed_unit_of head =
  List.find_opt (fun u -> head_matches (u ^ ".t") head) host_units

let container_of head =
  List.find_map
    (fun (k, kind, floor) -> if head_matches k head then Some (kind, floor) else None)
    container_kinds

(* [Some (kind, floor, embed)] when the field is a mutable root of its
   host-state unit. *)
let field_root (f : Ast_util.field_decl) =
  match List.find_map embed_unit_of f.Ast_util.fheads with
  | Some target ->
      Some (Printf.sprintf "embedded %s.t" target, Host_confined, Some target)
  | None -> (
      match List.find_map container_of f.Ast_util.fheads with
      | Some (kind, floor) -> Some (kind, floor, None)
      | None -> if f.Ast_util.fmut then Some ("mutable field", Host_confined, None) else None)

(* ------------------------------------------------------------------ *)
(* Witness scanning. *)

type witness = { wrule : string; wline : int; wdesc : string }

(* External heads a host-bound value may flow into without an
   [shard-unknown-flow] finding: divergence, discard, identity-level
   plumbing.  Everything else unresolved defaults to escaping — the
   proof must cover every flow. *)
let safe_externals =
  [
    "ignore"; "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "exit";
    "fst"; "snd"; "="; "<>"; "=="; "!="; "compare"; "!"; "incr"; "decr"; "not";
    "Option.get"; "Option.value"; "Option.iter"; "Option.map"; "Option.is_none";
    "Option.is_some";
  ]

let rec tails e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, b) | Pexp_newtype (_, b) | Pexp_constraint (b, _) -> tails b
  | Pexp_function cases -> List.concat_map (fun c -> tails c.pc_rhs) cases
  | Pexp_let (_, _, b)
  | Pexp_sequence (_, b)
  | Pexp_open (_, b)
  | Pexp_letmodule (_, _, b)
  | Pexp_letexception (_, b) ->
      tails b
  | Pexp_match (_, cases) | Pexp_try (_, cases) ->
      List.concat_map (fun c -> tails c.pc_rhs) cases
  | Pexp_ifthenelse (_, t, e) -> tails t @ (match e with Some e -> tails e | None -> [])
  | _ -> [ e ]

let advice = function
  | "shard-unknown-flow" ->
      "qualify the call so it resolves to a scanned binding, keep host-owned \
       values out of unresolved calls, or waive with (* lint:ignore \
       shard-unknown-flow: reason *)"
  | _ ->
      "confine the value to one host, declare the coupling point with (* shard: \
       boundary *) on a cluster channel, or waive with (* lint:ignore \
       shard-escape: reason *)"

(* ------------------------------------------------------------------ *)
(* The analysis proper. *)

type root_report = {
  okey : string;  (** ["Host.t.handles"], ["Domain.next_id"] *)
  ofile : string;
  oline : int;
  okind : string;
  oclass : confinement;
}

module S = Set.Make (String)

let analyze ~sources g =
  let nodes =
    Callgraph.fold_funs g [] (fun acc ~fkey ~funit ~body -> (fkey, funit, body) :: acc)
    |> List.rev
  in
  (* deterministic: lookup-only table keyed by node name, never iterated *)
  let index = Hashtbl.create 256 in
  List.iteri (fun i (k, _, _) -> Hashtbl.replace index k i) nodes;
  let n = List.length nodes in
  let boundary = boundary_keys ~sources g in
  let entries = Callgraph.entry_keys g in
  (* One line table per file, shared by every node of that file. *)
  let waived_in = List.map (fun (file, content) -> (file, waived_line content)) sources in
  let base = Array.make (max n 1) Host_confined in
  let witnesses = Array.make (max n 1) [] in
  let labels = Array.make (max n 1) S.empty in
  let edges = ref [] in
  let root_access = ref [] in
  List.iteri
    (fun i (fkey, funit, body) ->
      let resolve p = Callgraph.resolve g ~cur:funit p in
      let host_fun p =
        match resolve p with
        | Callgraph.Fun { fkey; funit = tu; _ } when is_host_unit tu -> Some fkey
        | _ -> None
      in
      let is_ctor p =
        match host_fun p with
        | Some fk -> List.mem (last_component fk) ctor_names
        | None -> false
      in
      (* Host-bound locals: [let h = Host.create …] anywhere in the body
         (name-level, not scope-level — a deliberate over-approximation). *)
      let rec ctor_app e =
        match e.pexp_desc with
        | Pexp_constraint (e, _) -> ctor_app e
        | Pexp_apply (f, _) -> (
            match Ast_util.ident_path f with Some p -> is_ctor p | None -> false)
        | _ -> false
      in
      let bound = ref S.empty in
      let bind_it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              (match e.pexp_desc with
              | Pexp_let (_, vbs, _) ->
                  List.iter
                    (fun vb ->
                      match vb.pvb_pat.ppat_desc with
                      | Ppat_var { txt = name; _ } when ctor_app vb.pvb_expr ->
                          bound := S.add name !bound
                      | _ -> ())
                    vbs
              | _ -> ());
              Ast_iterator.default_iterator.expr it e);
        }
      in
      bind_it.expr bind_it body;
      let is_host_expr e =
        ctor_app e
        ||
        match Ast_util.ident_path e with
        | Some [ x ] -> S.mem x !bound
        | _ -> false
      in
      let ws = ref [] in
      let waived =
        match List.assoc_opt funit.Callgraph.ufile waived_in with
        | Some waived -> waived
        | None -> fun _ -> false
      in
      let witness wrule wline wdesc =
        if not (waived wline) then ws := { wrule; wline; wdesc } :: !ws
      in
      (* Edges (reversed: callee inherits caller), cluster-flow witnesses,
         global-root accessors, field labels of host-unit nodes. *)
      let boundary_here = List.mem fkey boundary in
      let cluster_unit = in_cluster funit.Callgraph.ufile && not (is_host_unit funit) in
      List.iter
        (fun (path, line) ->
          match resolve path with
          | Callgraph.Fun { fkey = callee; funit = tu; _ } ->
              (match Hashtbl.find_opt index callee with
              | Some j -> if i <> j then edges := (j, i) :: !edges
              | None -> ());
              if cluster_unit && (not boundary_here) && is_host_unit tu then
                witness "shard-escape" line
                  (Printf.sprintf
                     "cluster unit reaches host state through %s outside a declared \
                      boundary"
                     callee)
          | Callgraph.Root { rkey; runit = tu; _ } ->
              root_access := (rkey, i) :: !root_access;
              if cluster_unit && (not boundary_here) && is_host_unit tu then
                witness "shard-escape" line
                  (Printf.sprintf
                     "cluster unit reaches host state through %s outside a declared \
                      boundary"
                     rkey)
          | Callgraph.External _ -> ())
        (Ast_util.free_refs body);
      if is_host_unit funit then begin
        let add_label lid =
          match Ast_util.flatten lid with
          | Some p -> labels.(i) <- S.add (last_component (Ast_util.dotted p)) labels.(i)
          | None -> ()
        in
        let lab_it =
          {
            Ast_iterator.default_iterator with
            expr =
              (fun it e ->
                (match e.pexp_desc with
                | Pexp_field (_, lid) | Pexp_setfield (_, lid, _) ->
                    add_label lid.Asttypes.txt
                | Pexp_record (fields, _) ->
                    List.iter (fun (lid, _) -> add_label lid.Asttypes.txt) fields
                | _ -> ());
                Ast_iterator.default_iterator.expr it e);
            pat =
              (fun it p ->
                (match p.ppat_desc with
                | Ppat_record (fields, _) ->
                    List.iter (fun (lid, _) -> add_label lid.Asttypes.txt) fields
                | _ -> ());
                Ast_iterator.default_iterator.pat it p);
          }
        in
        lab_it.expr lab_it body
      end;
      (* Spawn capture, global registration, unknown flows. *)
      let rec closure_captures visited fps acc =
        List.fold_left
          (fun (visited, acc) fp ->
            match fp with
            | [ x ] ->
                if S.mem x visited then (visited, acc)
                else
                  let visited = S.add x visited in
                  if S.mem x !bound then (visited, S.add x acc)
                  else (
                    match
                      List.assoc_opt x funit.Callgraph.ulocals.Ast_util.local_funs
                    with
                    | Some b -> closure_captures visited (Ast_util.free_paths b) acc
                    | None -> (visited, acc))
            | _ -> (visited, acc))
          (visited, acc) fps
      in
      let wit_it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              let line = Ast_util.line_of e.pexp_loc in
              (match e.pexp_desc with
              | Pexp_apply (f, args) -> (
                  match Ast_util.ident_path f with
                  | Some p when Ast_util.is_spawn p -> (
                      match
                        List.find_opt (fun (l, _) -> l = Asttypes.Nolabel) args
                      with
                      | Some (_, closure) ->
                          let _, captured =
                            closure_captures S.empty (Ast_util.free_paths closure)
                              S.empty
                          in
                          S.iter
                            (fun x ->
                              witness "shard-escape" line
                                (Printf.sprintf
                                   "host-owned value %s captured by a spawned domain \
                                    closure (the shard-pool idiom creates its hosts \
                                    inside the worker)"
                                   x))
                            captured
                      | None -> ())
                  | Some p when Ast_util.is_write_op p -> (
                      let global_target =
                        List.find_map
                          (fun (_, a) ->
                            match Ast_util.ident_path a with
                            | Some ap -> (
                                match resolve ap with
                                | Callgraph.Root { rkey; _ } -> Some rkey
                                | _ -> None)
                            | None -> None)
                          args
                      in
                      match global_target with
                      | Some rkey when List.exists (fun (_, a) -> is_host_expr a) args
                        ->
                          witness "shard-escape" line
                            (Printf.sprintf
                               "host-owned value registered in global table %s" rkey)
                      | _ -> ())
                  | Some p -> (
                      match resolve p with
                      | Callgraph.External ep
                        when not (List.mem (Ast_util.dotted ep) safe_externals) ->
                          List.iter
                            (fun (_, a) ->
                              match Ast_util.ident_path a with
                              | Some [ x ] when S.mem x !bound ->
                                  witness "shard-unknown-flow" line
                                    (Printf.sprintf
                                       "host-owned value %s passed to unresolved %s"
                                       x (Ast_util.dotted ep))
                              | _ -> ())
                            args
                      | _ -> ())
                  | None -> (
                      match f.pexp_desc with
                      | Pexp_field (_, lid) ->
                          let label =
                            match Ast_util.flatten lid.Asttypes.txt with
                            | Some p -> last_component (Ast_util.dotted p)
                            | None -> "?"
                          in
                          List.iter
                            (fun (_, a) ->
                              match Ast_util.ident_path a with
                              | Some [ x ] when S.mem x !bound ->
                                  witness "shard-unknown-flow" line
                                    (Printf.sprintf
                                       "host-owned value %s passed through indirect \
                                        call .%s"
                                       x label)
                              | _ -> ())
                            args
                      | _ -> ()))
              | Pexp_setfield (target, _, v) when is_host_expr v -> (
                  match Ast_util.ident_path target with
                  | Some tp -> (
                      match resolve tp with
                      | Callgraph.Root { rkey; _ } ->
                          witness "shard-escape" line
                            (Printf.sprintf
                               "host-owned value stored into global mutable %s" rkey)
                      | _ -> ())
                  | None -> ())
              | _ -> ());
              Ast_iterator.default_iterator.expr it e);
        }
      in
      wit_it.expr wit_it body;
      (* Return through a simulation-entry boundary. *)
      if List.mem fkey entries then
        List.iter
          (fun t ->
            let direct = is_host_expr t in
            let nested =
              match t.pexp_desc with
              | Pexp_record (fields, _) ->
                  List.exists (fun (_, v) -> is_host_expr v) fields
              | Pexp_tuple parts -> List.exists is_host_expr parts
              | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> is_host_expr a
              | _ -> false
            in
            if direct || nested then
              witness "shard-escape" (Ast_util.line_of t.pexp_loc)
                "host-owned state returned through a simulation-entry boundary")
          (tails body);
      witnesses.(i) <- List.sort_uniq compare !ws;
      let b = if witnesses.(i) <> [] then Escaping else Host_confined in
      let b = if boundary_here then join b Boundary_channel else b in
      let b = if List.mem fkey entries then join b Shard_confined else b in
      base.(i) <- b)
    nodes;
  let cls = solve ~n ~base ~edges:!edges in
  (* Shortest host-API → … → escape-site chains: multi-source BFS over
     the reversed edges (API function toward its callers), constructors
     enqueued first so chains prefer a constructor head. *)
  let out = Array.make (max n 1) [] in
  List.iter (fun (j, i) -> out.(j) <- i :: out.(j)) !edges;
  Array.iteri (fun i l -> out.(i) <- List.sort_uniq compare l) out;
  let parent = Array.make (max n 1) (-2) in
  let q = Queue.create () in
  let api_keys =
    List.filter_map
      (fun (k, u, _) -> if is_host_unit u then Some k else None)
      nodes
    |> List.sort String.compare
  in
  let ctors, accessors =
    List.partition (fun k -> List.mem (last_component k) ctor_names) api_keys
  in
  List.iter
    (fun k ->
      match Hashtbl.find_opt index k with
      | Some i when parent.(i) = -2 ->
          parent.(i) <- -1;
          Queue.add i q
      | _ -> ())
    (ctors @ accessors);
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    List.iter
      (fun j ->
        if parent.(j) = -2 then begin
          parent.(j) <- i;
          Queue.add j q
        end)
      out.(i)
  done;
  let name_of i = match List.nth nodes i with k, _, _ -> k in
  let rec chain i acc =
    let acc = name_of i :: acc in
    if parent.(i) < 0 then acc else chain parent.(i) acc
  in
  let issues = ref [] in
  List.iteri
    (fun i (fkey, funit, _) ->
      List.iter
        (fun w ->
          let trail =
            if parent.(i) >= -1 then String.concat " → " (chain i []) else fkey
          in
          issues :=
            {
              Report.file = funit.Callgraph.ufile;
              line = w.wline;
              rule = w.wrule;
              message =
                Printf.sprintf "%s; host state flows %s: %s" w.wdesc trail
                  (advice w.wrule);
            }
            :: !issues)
        witnesses.(i))
    nodes;
  (* Root classification. *)
  let units = List.filter is_host_unit (Callgraph.unit_infos g) in
  let unit_nodes u =
    List.concat
      (List.mapi
         (fun i (_, funit, _) ->
           if funit.Callgraph.uname = u.Callgraph.uname then [ i ] else [])
         nodes)
  in
  let flow_of_label u_nodes label =
    List.fold_left
      (fun acc i -> if S.mem label labels.(i) then join acc cls.(i) else acc)
      Host_confined u_nodes
  in
  let field_roots u =
    let u_nodes = unit_nodes u in
    List.filter_map
      (fun (f : Ast_util.field_decl) ->
        match field_root f with
        | None -> None
        | Some (kind, floor, embed) ->
            let flow = flow_of_label u_nodes f.Ast_util.fname in
            Some
              ( {
                  okey =
                    Printf.sprintf "%s.%s.%s" u.Callgraph.uname f.Ast_util.ftype
                      f.Ast_util.fname;
                  ofile = u.Callgraph.ufile;
                  oline = f.Ast_util.fline;
                  okind = kind;
                  oclass = join floor flow;
                },
                embed ))
      (List.rev u.Callgraph.udecls.Ast_util.tfields)
  in
  let global_roots u =
    List.map
      (fun (path, (r : Ast_util.root)) ->
        let rkey = Callgraph.key u path in
        let flow =
          List.fold_left
            (fun acc (k, i) -> if String.equal k rkey then join acc cls.(i) else acc)
            Host_confined !root_access
        in
        ( {
            okey = rkey;
            ofile = u.Callgraph.ufile;
            oline = r.Ast_util.rline;
            okind = Printf.sprintf "global %s" r.Ast_util.rkind;
            oclass = flow;
          },
          None ))
      (List.rev u.Callgraph.udecls.Ast_util.roots)
  in
  let with_embeds = List.concat_map (fun u -> field_roots u @ global_roots u) units in
  (* One level of embedding: the overall class of a unit joins its
     non-embedded roots, and an embedded root joins its target unit's
     overall class (the embed graph here — Vm/Host → Domain — is flat). *)
  let overall u =
    List.fold_left
      (fun acc (r, embed) ->
        if embed = None && String.length r.okey > String.length u
           && String.sub r.okey 0 (String.length u + 1) = u ^ "."
        then join acc r.oclass
        else acc)
      Host_confined with_embeds
  in
  let roots =
    List.map
      (fun (r, embed) ->
        match embed with
        | None -> r
        | Some target -> { r with oclass = join r.oclass (overall target) })
      with_embeds
    |> List.sort (fun a b -> String.compare a.okey b.okey)
  in
  (List.sort_uniq compare !issues, roots)

let check ~sources g = fst (analyze ~sources g)
let roots ~sources g = snd (analyze ~sources g)
