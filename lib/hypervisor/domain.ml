type t = {
  id : int;
  name : string;
  initial_credit : float;
  weight : int;
  is_dom0 : bool;
  vcpus : int;
  workload : Workloads.Workload.t;
  mutable cpu_time : Sim_time.t;
}

(* Domains are created from parallel experiment runs; ids must stay
   unique across worker domains, so the counter is atomic. *)
let next_id = Atomic.make 0

let create ?(weight = 256) ?(is_dom0 = false) ?(vcpus = 1) ~name ~credit_pct workload =
  if credit_pct < 0.0 || credit_pct > 100.0 then
    invalid_arg "Domain.create: credit out of [0, 100]";
  if weight <= 0 then invalid_arg "Domain.create: weight must be positive";
  if vcpus < 1 then invalid_arg "Domain.create: vcpus must be >= 1";
  {
    id = Atomic.fetch_and_add next_id 1 + 1;
    name;
    initial_credit = credit_pct;
    weight;
    is_dom0;
    vcpus;
    workload;
    cpu_time = Sim_time.zero;
  }

let id t = t.id
let name t = t.name
let initial_credit t = t.initial_credit
let uncapped t =
  t.initial_credit = 0.0 (* lint:ignore float-eq: credit 0 is the exact uncapped sentinel *)
let weight t = t.weight
let is_dom0 t = t.is_dom0
let vcpus t = t.vcpus
let workload t = t.workload

let advancing ds =
  Array.of_list
    (List.fold_right
       (fun d ws -> if Workloads.Workload.advances d.workload then d.workload :: ws else ws)
       ds [])

let may_run t = Workloads.Workload.may_work t.workload
let runnable t = Workloads.Workload.has_work t.workload
let cpu_time t = t.cpu_time
let charge t used = t.cpu_time <- Sim_time.add t.cpu_time used
let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id

let pp ppf t =
  Format.fprintf ppf "%s(id=%d credit=%.1f%%%s)" t.name t.id t.initial_credit
    (if t.is_dom0 then " dom0" else "")
