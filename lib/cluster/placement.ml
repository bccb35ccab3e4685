type item = { id : int; memory_mb : int; cpu_pct : float }
type strategy = First_fit | First_fit_decreasing | Best_fit

type bin = { mutable mem_used : int; mutable cpu_used : float }

let validate ~node_count ~memory_capacity_mb ~cpu_capacity_pct items =
  if node_count <= 0 then invalid_arg "Placement.pack: node_count must be positive";
  if memory_capacity_mb <= 0 then invalid_arg "Placement.pack: memory capacity must be positive";
  if not (cpu_capacity_pct > 0.0) then invalid_arg "Placement.pack: cpu capacity must be positive";
  List.iter
    (fun item ->
      if item.memory_mb > memory_capacity_mb || item.cpu_pct > cpu_capacity_pct then
        invalid_arg "Placement.pack: item exceeds a single node's capacity")
    items

let fits bin ~memory_capacity_mb ~cpu_capacity_pct item =
  bin.mem_used + item.memory_mb <= memory_capacity_mb
  && bin.cpu_used +. item.cpu_pct <= cpu_capacity_pct +. 1e-9

let pack strategy ~node_count ~memory_capacity_mb ~cpu_capacity_pct items =
  validate ~node_count ~memory_capacity_mb ~cpu_capacity_pct items;
  let bins = Array.init node_count (fun _ -> { mem_used = 0; cpu_used = 0.0 }) in
  let order =
    let indexed = List.mapi (fun pos item -> (pos, item)) items in
    match strategy with
    | First_fit | Best_fit -> indexed
    | First_fit_decreasing ->
        List.sort (fun (_, a) (_, b) -> Int.compare b.memory_mb a.memory_mb) indexed
  in
  let assignment = Array.make (List.length items) (-1) in
  let place (pos, item) =
    let candidate =
      match strategy with
      | First_fit | First_fit_decreasing ->
          let rec first i =
            if i >= node_count then None
            else if fits bins.(i) ~memory_capacity_mb ~cpu_capacity_pct item then Some i
            else first (i + 1)
          in
          first 0
      | Best_fit ->
          let best = ref None in
          Array.iteri
            (fun i bin ->
              if fits bin ~memory_capacity_mb ~cpu_capacity_pct item then begin
                let residual = memory_capacity_mb - bin.mem_used - item.memory_mb in
                match !best with
                | Some (_, r) when r <= residual -> ()
                | Some _ | None -> best := Some (i, residual)
              end)
            bins;
          Option.map fst !best
    in
    match candidate with
    | None -> false
    | Some i ->
        bins.(i).mem_used <- bins.(i).mem_used + item.memory_mb;
        bins.(i).cpu_used <- bins.(i).cpu_used +. item.cpu_pct;
        assignment.(pos) <- i;
        true
  in
  if List.for_all place order then Some assignment else None

let pack_exn strategy ~node_count ~memory_capacity_mb ~cpu_capacity_pct items =
  match pack strategy ~node_count ~memory_capacity_mb ~cpu_capacity_pct items with
  | Some a -> a
  | None -> failwith "Placement.pack_exn: no feasible assignment"

let nodes_used assignment =
  let module S = Set.Make (Int) in
  S.cardinal (Array.fold_left (fun acc node -> S.add node acc) S.empty assignment)
