(* Lattice solve and shortest-chain search over the call graph's integer
   node indices, shared by the effect, allocation and lock passes. *)

let join ~rank a b = if rank a >= rank b then a else b
let leq ~rank a b = rank a <= rank b

(* Chaotic iteration: lift a caller to a callee's class until nothing
   moves.  Classes only rise and the lattice is finite, so it ends at the
   least fixpoint above [base]. *)
let solve ~rank ~base ~edges =
  let cls = Array.copy base in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (i, j) ->
        if rank cls.(j) > rank cls.(i) then begin
          cls.(i) <- cls.(j);
          changed := true
        end)
      edges
  done;
  cls

let bfs ~n ~edges ~sources =
  let out = Array.make n [] in
  List.iter (fun (i, j) -> out.(i) <- j :: out.(i)) edges;
  let parent = Array.make n (-2) in
  let q = Queue.create () in
  let visit from i =
    if parent.(i) = -2 then begin
      parent.(i) <- from;
      Queue.add i q
    end
  in
  List.iter (visit (-1)) sources;
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    List.iter (visit i) (List.sort_uniq compare out.(i))
  done;
  parent

let chain ~keys ~parent i =
  let rec go i acc =
    let acc = keys.(i) :: acc in
    if parent.(i) < 0 then acc else go parent.(i) acc
  in
  go i []

let report ~keys ~parent ~above witnesses issue =
  let acc = ref [] in
  Array.iteri
    (fun i ws ->
      if parent.(i) >= -1 && above i then begin
        let trail = String.concat " → " (chain ~keys ~parent i) in
        List.iter (fun w -> acc := issue i w trail :: !acc) ws
      end)
    witnesses;
  List.sort_uniq compare !acc
