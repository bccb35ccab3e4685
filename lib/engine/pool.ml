let map ~jobs f items =
  if jobs < 1 then invalid_arg "Pool.map: jobs must be positive";
  let items = Array.of_list items in
  let n = Array.length items in
  (* One atomic cell per item: the array itself is written only at
     creation, and each result is published through its cell, so the
     hand-off to the joining domain never relies on plain-array
     visibility (flagged by the domain-capture analysis pass). *)
  let results = Array.init n (fun _ -> Atomic.make None) in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        match f items.(i) with
        | v ->
            Atomic.set results.(i) (Some (Ok v));
            loop ()
        | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            Atomic.set results.(i) (Some (Error (e, bt)));
            (* Stop the claims; items already claimed still finish. *)
            Atomic.set next n
      end
    in
    loop ()
  in
  let pool = Stdlib.min jobs (Stdlib.max n 1) in
  let domains = List.init (pool - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join domains;
  (* Claims go in index order, so every item before a failed one was
     claimed and holds a result: the scan meets the first failure before
     any unclaimed cell. *)
  Array.to_list
    (Array.map
       (fun cell ->
         match Atomic.get cell with
         | Some (Ok v) -> v
         | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
         (* unreachable: without a failure every index below [n] is
            claimed and filled before its worker returns. *)
         | None -> assert false)
       results)
