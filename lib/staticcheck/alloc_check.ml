(* Interprocedural allocation-effect analysis.

   Every structure-level binding is a call-graph node; nodes are
   classified into an allocation lattice

       NoAlloc  <  BoundedAlloc  <  Alloc

   seeded from a table of allocating constructs (closure creation,
   tuple/record/array/list construction, partial application,
   Printf/Format, ref cells, string concatenation, boxed int64
   arithmetic) and a whitelist of known allocation-free primitives
   (Atomic.get/set, int/float arithmetic on locals, mutable-field
   stores, Array.unsafe_get/set).  [BoundedAlloc] is the one-box-per-call
   class: a freshly computed float returned across a compilation-unit
   boundary is boxed by the callee under dune's dev-profile [-opaque]
   (same-unit calls inline and stay unboxed — the reason the hot modules
   carry local [sec_of] copies of [Sim_time.to_sec]).  The shipped build
   (the release profile the dune-workspace selects) has no [-opaque] and
   may inline such calls; the model keeps the dev-profile case, so a hot
   path it proves stays allocation-free under [dune build --profile dev].

   Roots are hot-path entry points annotated [(* alloc: none *)] on the
   binding line or the line above.  Classes propagate caller <- callee to
   a least fixpoint; every function reachable from a root must solve to
   [NoAlloc], and each offending construct is reported at its source line
   with the full root -> ... -> site call chain ([alloc-in-hot-path]), or
   as [alloc-unknown-callee] when a callee cannot be resolved or an
   indirect call goes through a record field outside the dispatch
   contract below.  [(* alloc: cold *)] excludes a binding from the
   traversal: amortized growth ([Vec.grow], [Heap.grow]), off-by-default
   sanitizer/trace paths, and arrival-side [Prng] draws are declared cold
   at their definition and trusted at call sites.

   Deliberate approximations (the dynamic gate [bench/micro --check]
   covers what the model trusts):

   - float/int64 {e arguments} crossing a call boundary also box; the
     tree's cell idiom ([Series.add_cell], [Vec.Floats.push_cell]) moves
     floats through preallocated mutable records instead, so the model
     only tracks boxed {e returns} via the [float_returning] table;
   - indirect calls through the contract field labels (scheduler [pick]/
     [charge], workload [advance]/[due]/[catch_up]/[execute], queue [key]/[cmp], ...) are
     trusted at the call site; the implementations the benches exercise
     carry their own [(* alloc: none *)] annotations and are proven as
     independent roots;
   - a local [ref] is free when [Simplif.eliminate_ref] provably unboxes
     it: used only via [!]/[:=]/[incr]/[decr], never under a nested
     closure, never passed or returned. *)

open Parsetree

type alloc_class = NoAlloc | Bounded | Alloc

let class_name = function
  | NoAlloc -> "NoAlloc"
  | Bounded -> "BoundedAlloc"
  | Alloc -> "Alloc"

let rank = function NoAlloc -> 0 | Bounded -> 1 | Alloc -> 2
let join = Fixpoint.join ~rank

(* ------------------------------------------------------------------ *)
(* Annotation grammar: [(* alloc: none *)] / [(* alloc: cold *)] on the
   binding line or the line directly above ([(* alloc: cold: reason *)]
   also matches).  Comments are invisible to the parsetree, so the raw
   source is threaded in and matched against the binding lines recorded
   in [Ast_util.decls.flines]. *)

type marker = Hot | Cold

let contains_sub line sub =
  let n = String.length line and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub line i m = sub || loop (i + 1)) in
  m > 0 && loop 0

let markers_of_source content =
  let lines = Array.of_list (String.split_on_char '\n' content) in
  let get ln = if ln < 1 || ln > Array.length lines then "" else lines.(ln - 1) in
  (* On the binding line a substring suffices (trailing marker after the
     [let]); on the line above, the marker must open the line's comment —
     prose mentioning the grammar (docs, this very file) must not turn
     bindings into roots. *)
  let classify l =
    if contains_sub l "alloc: none" then Some Hot
    else if contains_sub l "alloc: cold" then Some Cold
    else None
  in
  let leading l =
    let l = String.trim l in
    let starts p =
      String.length l >= String.length p && String.sub l 0 (String.length p) = p
    in
    if starts "(* alloc: none" then Some Hot
    else if starts "(* alloc: cold" then Some Cold
    else None
  in
  fun ln ->
    match classify (get ln) with Some m -> Some m | None -> leading (get (ln - 1))

(* ------------------------------------------------------------------ *)
(* Primitive tables. *)

(* Indirect calls through these record-field labels are the hot dispatch
   contract: scheduler/workload/queue plumbing whose implementations are
   proven as independent annotated roots (Sched_credit.pick/charge) or
   covered by the dynamic gate. *)
let contract_labels =
  [
    "pick"; "charge"; "on_account_period"; "advance"; "due"; "catch_up"; "has_work"; "execute";
    "key"; "cmp"; "action";
  ]

(* Applications of these heads never return: the whole subtree is a
   failure path, skipped including arguments (so
   [invalid_arg (Printf.sprintf ...)] guards stay free). *)
let divergent_prims = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg"; "exit" ]

(* Known allocation-free application heads (dotted, [Stdlib]-stripped).
   Int/float arithmetic is free because intermediate floats stay unboxed
   inside a function body; boxing happens only at call/store boundaries,
   which the walker models separately. *)
let free_prims =
  [
    (* int/float/bool operators *)
    "+"; "-"; "*"; "/"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr";
    "succ"; "pred"; "abs"; "+."; "-."; "*."; "/."; "**"; "~-"; "~-."; "~+"; "~+.";
    "="; "<>"; "<"; ">"; "<="; ">="; "=="; "!="; "compare"; "min"; "max";
    "not"; "&&"; "||"; "&"; "or"; "ignore"; "fst"; "snd";
    (* ref cell access (the cell's creation is what allocates) *)
    "!"; ":="; "incr"; "decr";
    (* application operators are rewritten, kept for direct partial use *)
    "@@"; "|>";
    (* unboxed float intrinsics *)
    "sqrt"; "exp"; "log"; "log1p"; "log10"; "expm1"; "sin"; "cos"; "tan";
    "atan"; "atan2"; "asin"; "acos"; "sinh"; "cosh"; "tanh"; "floor"; "ceil";
    "copysign"; "mod_float"; "ldexp"; "float_of_int"; "float"; "int_of_float";
    "truncate"; "int_of_char"; "char_of_int";
    (* module primitives *)
    "Array.length"; "Array.get"; "Array.set"; "Array.unsafe_get";
    "Array.unsafe_set"; "Array.fill"; "Array.blit";
    "Bytes.length"; "Bytes.get"; "Bytes.set"; "Bytes.unsafe_get";
    "Bytes.unsafe_set"; "Bytes.fill"; "Bytes.blit"; "Bytes.unsafe_fill";
    "Bytes.unsafe_blit";
    "String.length"; "String.get"; "String.unsafe_get"; "String.equal";
    "String.compare";
    "Atomic.get"; "Atomic.set"; "Atomic.incr"; "Atomic.decr";
    "Atomic.fetch_and_add"; "Atomic.compare_and_set"; "Atomic.exchange";
    "Int.compare"; "Int.equal"; "Int.min"; "Int.max"; "Int.abs";
    "Int64.to_int"; "Char.code";
    "Float.compare"; "Float.equal"; "Float.is_nan"; "Float.is_finite";
    "Float.is_integer"; "Float.of_int"; "Float.to_int"; "Float.round";
    "Mutex.lock"; "Mutex.unlock";
    "Queue.is_empty"; "Queue.length"; "Queue.peek"; "Queue.pop"; "Queue.take";
    "Queue.clear";
    "Hashtbl.find"; "Hashtbl.mem"; "Hashtbl.length";
    "List.length"; "List.mem"; "List.memq"; "List.hd"; "List.tl"; "List.iter";
    "Option.is_none"; "Option.is_some"; "Option.get"; "Option.value";
    "Sys.opaque_identity";
  ]

(* Known allocators, for sharper messages than the unknown-callee
   default (exact names, then prefixes). *)
let alloc_prims =
  [
    ("^", "string concatenation");
    ("@", "list append");
    ("ref", "ref cell allocation");
    ("string_of_int", "int-to-string conversion");
    ("string_of_float", "float-to-string conversion");
    ("string_of_bool", "bool-to-string conversion");
    ("Float.min", "Float.min boxes its float arguments (use a comparison chain)");
    ("Float.max", "Float.max boxes its float arguments (use a comparison chain)");
    ("Gc.allocated_bytes", "Gc.allocated_bytes returns a fresh boxed float");
    ("Hashtbl.find_opt", "Hashtbl.find_opt wraps the result in Some");
    ("Queue.push", "Queue.push allocates a queue cell");
    ("Queue.add", "Queue.add allocates a queue cell");
  ]

let alloc_prefixes =
  [
    ("Printf.", "formatted printing allocates");
    ("Format.", "formatted printing allocates");
    ("Int64.", "boxed int64 arithmetic");
    ("Int32.", "boxed int32 arithmetic");
    ("Nativeint.", "boxed nativeint arithmetic");
    ("Buffer.", "buffer building allocates");
    ("List.", "list building allocates");
    ("Array.", "array building allocates");
    ("String.", "string building allocates");
    ("Bytes.", "bytes building allocates");
    ("Hashtbl.", "hash-table mutation allocates");
    ("Option.", "option building allocates");
  ]

(* Scanned functions whose result is a freshly computed float: calling
   them across a compilation-unit boundary boxes the return under
   [-opaque] (the dev profile).  Functions returning an already-boxed float (cached
   [Processor.speed]/[ratio]/[cf] fields, [Smp.speed_of_core]) do not
   allocate and are deliberately absent. *)
let float_returning =
  [
    "Sim_time.to_sec"; "Sim_time.to_ms";
    "Prng.unit_float"; "Prng.float"; "Prng.uniform"; "Prng.exponential";
    "Prng.gaussian"; "Prng.pareto";
    "Stats.Running.mean"; "Stats.Running.variance"; "Stats.Running.stddev";
    "Vec.Floats.sum"; "Vec.Floats.mean";
  ]

(* ------------------------------------------------------------------ *)
(* The witness walker: one pass over a function body collecting
   allocating constructs (with class, rule and line) plus every
   referenced path (the conservative call-graph edge set — a function
   passed as a value gets an edge like a direct call). *)

type witness = { wrule : string; wcls : alloc_class; wline : int; wdesc : string }

type head =
  | Hfun of { fkey : string; arity : int; crossbox : bool }
  | Hdiv
  | Hfree
  | Halloc of string
  | Hunknown of string

(* Required (non-optional) leading parameters of a binding's RHS. *)
let rec arity_of e =
  match e.pexp_desc with
  | Pexp_fun (Asttypes.Optional _, _, _, body) -> arity_of body
  | Pexp_fun (_, _, _, body) -> 1 + arity_of body
  | Pexp_function _ -> 1
  | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> arity_of body
  | _ -> 0

let ident_is x e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident y; _ } -> String.equal x y
  | _ -> false

(* [Simplif.eliminate_ref] eligibility for [let x = ref init in body]:
   every occurrence of [x] is the direct argument of [!]/[:=]/[incr]/
   [decr], and never under a nested closure. *)
let ref_eliminable x body =
  let ok = ref true in
  let lam = ref false in
  let handler it e =
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident y; _ } when String.equal x y -> ok := false
    | Pexp_apply (f, args)
      when (match Ast_util.ident_path f with
           | Some [ ("!" | ":=" | "incr" | "decr") ] -> true
           | _ -> false)
           && List.exists (fun (_, a) -> ident_is x a) args ->
        if !lam then ok := false;
        List.iter (fun (_, a) -> if not (ident_is x a) then it.Ast_iterator.expr it a) args
    | Pexp_fun _ | Pexp_function _ ->
        let saved = !lam in
        lam := true;
        Ast_iterator.default_iterator.expr it e;
        lam := saved
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr = handler } in
  it.expr it body;
  !ok

let is_ref_make e =
  match e.pexp_desc with
  | Pexp_apply (f, [ (Asttypes.Nolabel, init) ]) when Ast_util.ident_path f = Some [ "ref" ]
    ->
      Some init
  | _ -> None

(* Peel the binding's own leading parameter chain; optional-argument
   defaults evaluate per call, so they are part of the walked core. *)
let rec peel defaults e =
  match e.pexp_desc with
  | Pexp_fun (_, d, _, body) -> peel (Option.to_list d @ defaults) body
  | Pexp_newtype (_, body) | Pexp_constraint (body, _) -> peel defaults body
  | Pexp_function cases ->
      (defaults, List.concat_map (fun c -> Option.to_list c.pc_guard @ [ c.pc_rhs ]) cases)
  | _ -> (defaults, [ e ])

let walk ~classify ~on_ref body =
  let ws = ref [] in
  let line e = Ast_util.line_of e.pexp_loc in
  let add ?(rule = "alloc-in-hot-path") cls e desc =
    ws := { wrule = rule; wcls = cls; wline = line e; wdesc = desc } :: !ws
  in
  let rec go e =
    match e.pexp_desc with
    | Pexp_ident _ -> (
        match Ast_util.ident_path e with Some p -> on_ref p | None -> ())
    | Pexp_constant _ -> ()
    | Pexp_fun _ | Pexp_function _ ->
        (* a closure block per evaluation; the body escapes the hot-path
           proof, so creation itself is the violation *)
        add Alloc e "closure creation"
    | Pexp_tuple parts ->
        add Alloc e "tuple construction";
        List.iter go parts
    | Pexp_record (fields, base) ->
        add Alloc e "record construction";
        List.iter (fun (_, v) -> go v) fields;
        Option.iter go base
    | Pexp_array [] -> ()
    | Pexp_array parts ->
        add Alloc e "array literal";
        List.iter go parts
    | Pexp_construct (_, None) | Pexp_variant (_, None) -> ()
    | Pexp_construct (lid, Some arg) ->
        let name =
          match Ast_util.flatten lid.Asttypes.txt with
          | Some p -> Ast_util.dotted p
          | None -> "?"
        in
        add Alloc e (Printf.sprintf "constructor %s application" name);
        go arg
    | Pexp_variant (tag, Some arg) ->
        add Alloc e (Printf.sprintf "polymorphic variant `%s application" tag);
        go arg
    | Pexp_lazy _ ->
        add Alloc e "lazy suspension"
    | Pexp_object _ | Pexp_new _ | Pexp_override _ ->
        add Alloc e "object allocation"
    | Pexp_pack _ -> add Alloc e "first-class module allocation"
    | Pexp_letop _ -> add Alloc e "binding-operator chain allocates closures"
    | Pexp_assert
        { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
      ->
        ()
    | Pexp_assert cond -> go cond
    | Pexp_let (_, vbs, body) ->
        List.iter
          (fun vb ->
            match (vb.pvb_pat.ppat_desc, is_ref_make vb.pvb_expr) with
            | Ppat_var { txt = x; _ }, Some init when ref_eliminable x body ->
                (* the ref is compiled to a mutable local: only the
                   initializer can allocate *)
                go init
            | _ -> go vb.pvb_expr)
          vbs;
        go body
    | Pexp_apply (f0, args0) -> (
        let f, args =
          match (Ast_util.ident_path f0, args0) with
          | Some [ "@@" ], [ (Asttypes.Nolabel, g); (Asttypes.Nolabel, x) ] ->
              (g, [ (Asttypes.Nolabel, x) ])
          | Some [ "|>" ], [ (Asttypes.Nolabel, x); (Asttypes.Nolabel, g) ] ->
              (g, [ (Asttypes.Nolabel, x) ])
          | _ -> (f0, args0)
        in
        let go_args () = List.iter (fun (_, a) -> go a) args in
        match f.pexp_desc with
        | Pexp_ident _ -> (
            match Ast_util.ident_path f with
            | None -> go_args ()
            | Some p -> (
                match classify p with
                | Hdiv -> () (* failure path: never returns, skip subtree *)
                | Hfree -> go_args ()
                | Halloc desc ->
                    add Alloc f desc;
                    go_args ()
                | Hunknown d ->
                    add ~rule:"alloc-unknown-callee" Alloc f
                      (Printf.sprintf "call to unresolved %s" d);
                    go_args ()
                | Hfun { fkey; arity; crossbox } ->
                    on_ref p;
                    if List.length args < arity then
                      add Alloc f (Printf.sprintf "partial application of %s" fkey);
                    if crossbox then
                      add Bounded f
                        (Printf.sprintf
                           "boxed float return of %s crosses a compilation-unit \
                            boundary (add a local [@inline always] copy)"
                           fkey);
                    go_args ()))
        | Pexp_field (obj, lid) ->
            let label =
              match Ast_util.flatten lid.Asttypes.txt with
              | Some p -> List.nth p (List.length p - 1)
              | None -> "?"
            in
            if not (List.mem label contract_labels) then
              add ~rule:"alloc-unknown-callee" Alloc f
                (Printf.sprintf
                   "indirect call through field .%s outside the dispatch contract"
                   label);
            go obj;
            go_args ()
        | _ ->
            go f;
            go_args ())
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        go scrut;
        List.iter
          (fun c ->
            Option.iter go c.pc_guard;
            go c.pc_rhs)
          cases
    | Pexp_ifthenelse (c, t, e) ->
        go c;
        go t;
        Option.iter go e
    | Pexp_sequence (a, b) ->
        go a;
        go b
    | Pexp_while (c, b) ->
        go c;
        go b
    | Pexp_for (_, lo, hi, _, b) ->
        go lo;
        go hi;
        go b
    | Pexp_field (o, _) -> go o
    | Pexp_setfield (o, _, v) ->
        go o;
        go v
    | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_poly (e, _) -> go e
    | Pexp_open (_, e)
    | Pexp_letmodule (_, _, e)
    | Pexp_letexception (_, e)
    | Pexp_newtype (_, e) ->
        go e
    | Pexp_send (o, _) -> go o
    | Pexp_setinstvar (_, e) -> go e
    | Pexp_extension _ | Pexp_unreachable -> ()
  in
  let defaults, cores = peel [] body in
  List.iter go defaults;
  List.iter go cores;
  List.rev !ws

(* ------------------------------------------------------------------ *)
(* Annotated roots / cold nodes from the raw sources. *)

let annotations g ~sources =
  (* deterministic: [cold] is lookup-only, never iterated *)
  let hot = ref [] and cold = Hashtbl.create 16 in
  List.iter
    (fun u ->
      match List.assoc_opt u.Callgraph.ufile sources with
      | None -> ()
      | Some content ->
          let marker = markers_of_source content in
          List.iter
            (fun (path, ln) ->
              match marker ln with
              | Some Hot -> hot := Callgraph.key u path :: !hot
              | Some Cold -> Hashtbl.replace cold (Callgraph.key u path) ()
              | None -> ())
            u.Callgraph.udecls.Ast_util.flines)
    (Callgraph.unit_infos g);
  (List.sort_uniq String.compare !hot, cold)

let annotated_keys ~sources g = fst (annotations g ~sources)

let advice = function
  | "alloc-unknown-callee" ->
      "resolve it: add the callee to the known-free table if it provably does \
       not allocate, route the dispatch through a contract field, or waive with \
       (* lint:ignore alloc-unknown-callee: reason *)"
  | _ ->
      "hot paths annotated (* alloc: none *) must stay allocation-free — reuse \
       a preallocated cell, hoist the work behind an [@inline never] (* alloc: \
       cold *) helper, or waive with (* lint:ignore alloc-in-hot-path: reason *)"

let check ~sources g =
  let hot_keys, cold = annotations g ~sources in
  let nodes = Callgraph.nodes g in
  let n = Array.length nodes in
  let base = Array.make n NoAlloc in
  let witnesses = Array.make n [] in
  let edges = ref [] in
  Array.iteri
    (fun i { Callgraph.nkey = fkey_i; nunit = funit; nbody = body } ->
      if not (Hashtbl.mem cold fkey_i) then begin
        let classify p =
          let d = Ast_util.dotted p in
          match Callgraph.resolve g ~cur:funit p with
          | Callgraph.Fun { fkey; funit = tu; _ } ->
              if Hashtbl.mem cold fkey then Hfree
              else
                Hfun
                  {
                    fkey;
                    arity =
                      (match Callgraph.index g fkey with
                      | Some j -> arity_of nodes.(j).Callgraph.nbody
                      | None -> 0);
                    crossbox =
                      (not (String.equal tu.Callgraph.uname funit.Callgraph.uname))
                      && List.mem fkey float_returning;
                  }
          | Callgraph.Root _ -> Hunknown d
          | Callgraph.External p ->
              let d = Ast_util.dotted p in
              if List.mem d divergent_prims then Hdiv
              else if List.mem d free_prims then Hfree
              else (
                match List.assoc_opt d alloc_prims with
                | Some desc -> Halloc desc
                | None -> (
                    match
                      List.find_opt
                        (fun (pre, _) ->
                          String.length d > String.length pre
                          && String.sub d 0 (String.length pre) = pre)
                        alloc_prefixes
                    with
                    | Some (_, desc) -> Halloc (Printf.sprintf "call to %s (%s)" d desc)
                    | None ->
                        if List.length p = 1 then
                          (* unqualified and unresolved: a local binding *)
                          Hfree
                        else Hunknown d))
        in
        let on_ref p =
          match Callgraph.resolve g ~cur:funit p with
          | Callgraph.Fun { fkey; _ } when not (Hashtbl.mem cold fkey) -> (
              match Callgraph.index g fkey with
              | Some j -> if i <> j then edges := (i, j) :: !edges
              | None -> ())
          | _ -> ()
        in
        witnesses.(i) <- walk ~classify ~on_ref body;
        base.(i) <-
          List.fold_left (fun acc w -> join acc w.wcls) NoAlloc witnesses.(i)
      end)
    nodes;
  let cls = Fixpoint.solve ~rank ~base ~edges:!edges in
  (* annotated roots in sorted key order, so the reported chain is
     deterministic *)
  let parent =
    Fixpoint.bfs ~n ~edges:!edges ~sources:(List.filter_map (Callgraph.index g) hot_keys)
  in
  let keys = Array.map (fun nd -> nd.Callgraph.nkey) nodes in
  let issues = ref [] in
  Array.iteri
    (fun i nd ->
      (* a reached node's direct witnesses are exactly what lifted its
         fixpoint class above NoAlloc, so reporting them covers [cls] *)
      if parent.(i) >= -1 && rank cls.(i) > rank NoAlloc then
        List.iter
          (fun w ->
            let trail = String.concat " → " (Fixpoint.chain ~keys ~parent i) in
            issues :=
              {
                Report.file = nd.Callgraph.nunit.Callgraph.ufile;
                line = w.wline;
                rule = w.wrule;
                message =
                  Printf.sprintf "%s (%s) reached from hot root via %s: %s" w.wdesc
                    (class_name w.wcls) trail (advice w.wrule);
              }
              :: !issues)
          witnesses.(i))
    nodes;
  List.sort_uniq compare !issues

(* ------------------------------------------------------------------ *)
(* Static/dynamic consistency: the annotated roots and the 0-words/op
   microbench targets must name the same set of functions. *)

let consistency ~annotated ~benched =
  let a = List.sort_uniq String.compare annotated in
  let b = List.sort_uniq String.compare benched in
  List.filter_map
    (fun k ->
      if List.mem k b then None
      else
        Some
          (Printf.sprintf
             "annotated root %s has no 0-words/op microbench entry (add it to \
              bench/micro zero_alloc_roots)"
             k))
    a
  @ List.filter_map
      (fun k ->
        if List.mem k a then None
        else
          Some
            (Printf.sprintf
               "microbench zero-alloc target %s lacks an (* alloc: none *) \
                annotation on its binding"
               k))
      b
