module Domain = Hypervisor.Domain
module Host = Hypervisor.Host
module Processor = Cpu_model.Processor

type policy = Credit_ondemand | Pas_nodes | No_dvfs

type node = {
  index : int;
  mutable host : Host.t option; (* None = standby *)
  mutable off_since : Sim_time.t option;
  mutable standby_joules : float;
  mutable retired_joules : float; (* energy of decommissioned host instances *)
}

type vm_state = {
  vm : Vm.t;
  mutable node : int;
  mutable cpu_snapshot : Sim_time.t; (* Domain.cpu_time at the last rebalance *)
  mutable demand_pct : float; (* measured share used by the next packing *)
}

type t = {
  arch : Cpu_model.Arch.t;
  node_memory_mb : int;
  cpu_budget_pct : float;
  standby_watts : float;
  strategy : Placement.strategy;
  policy : policy;
  sim : Simulator.t;
  node_states : node array;
  vms : vm_state array;
  mutable migrations : int;
  mutable last_rebalance : Sim_time.t;
}

let now t = Simulator.now t.sim

(* -- node power-state bookkeeping ---------------------------------- *)

let settle_standby t node =
  match node.off_since with
  | Some since ->
      let dt = Sim_time.to_sec (Sim_time.diff (now t) since) in
      node.standby_joules <- node.standby_joules +. (t.standby_watts *. dt);
      node.off_since <- Some (now t)
  | None -> ()

let power_off t node =
  (match node.host with
  | Some host ->
      node.retired_joules <- node.retired_joules +. Host.energy_joules host;
      Host.stop host;
      node.host <- None
  | None -> ());
  if node.off_since = None then node.off_since <- Some (now t)

let build_host t node vms =
  settle_standby t node;
  node.off_since <- None;
  let dom0 =
    Domain.create ~is_dom0:true
      ~name:(Printf.sprintf "Dom0.%d" node.index)
      ~credit_pct:10.0 (Workloads.Workload.idle ())
  in
  let domains = dom0 :: List.map (fun st -> Vm.domain st.vm) vms in
  let processor = Processor.create t.arch in
  let scheduler, governor =
    match t.policy with
    | Credit_ondemand ->
        (Sched_credit.create domains, Some (Governors.Stable_ondemand.create processor))
    | No_dvfs -> (Sched_credit.create domains, Some (Governors.Governor.performance processor))
    | Pas_nodes ->
        (Pas.Pas_sched.scheduler (Pas.Pas_sched.create ~processor domains), None)
  in
  node.host <- Some (Host.create ~sim:t.sim ~processor ~scheduler ?governor ())

(* -- packing -------------------------------------------------------- *)

let items_of t =
  Array.to_list
    (Array.mapi
       (fun i st ->
         {
           Placement.id = i;
           memory_mb = Vm.memory_mb st.vm;
           (* Pack on the larger of measured demand and a floor, but never
              beyond the credit: the credit is what the node must be able
              to honour. *)
           cpu_pct = Float.min (Vm.credit_pct st.vm) (Float.max 2.0 st.demand_pct);
         })
       t.vms)

let apply_assignment t assignment ~count_migrations =
  (* Which nodes change? Rebuild only those (plus newly-empty ones off). *)
  let moved = ref 0 in
  Array.iteri
    (fun i st ->
      if st.node <> assignment.(i) then begin
        incr moved;
        st.node <- assignment.(i)
      end)
    t.vms;
  if count_migrations then t.migrations <- t.migrations + !moved;
  Array.iter
    (fun node ->
      let members =
        Array.to_list t.vms |> List.filter (fun st -> st.node = node.index)
      in
      (* Hosts are immutable in their domain set, so any node whose set is
         non-empty gets a fresh host; empty ones power off.  Rebuilding an
         unchanged node is avoided only when nothing moved at all. *)
      power_off t node;
      if members <> [] then build_host t node members)
    t.node_states

let pack t =
  Placement.pack t.strategy ~node_count:(Array.length t.node_states)
    ~memory_capacity_mb:t.node_memory_mb ~cpu_capacity_pct:t.cpu_budget_pct (items_of t)

let rebalance t =
  (* Refresh demand estimates from the elapsed interval. *)
  let dt = Sim_time.to_sec (Sim_time.diff (now t) t.last_rebalance) in
  if dt > 0.0 then
    Array.iter
      (fun st ->
        let used = Sim_time.diff (Domain.cpu_time (Vm.domain st.vm)) st.cpu_snapshot in
        st.cpu_snapshot <- Domain.cpu_time (Vm.domain st.vm);
        st.demand_pct <- Sim_time.to_sec used /. dt *. 100.0)
      t.vms;
  t.last_rebalance <- now t;
  match pack t with
  | Some assignment -> apply_assignment t assignment ~count_migrations:true
  | None -> failwith "Manager.rebalance: no feasible assignment"

let auto_rebalance t ~every = ignore (Simulator.every t.sim every (fun () -> rebalance t))

let create ?(arch = Cpu_model.Arch.optiplex_755) ?(node_memory_mb = 16_384)
    ?(cpu_budget_pct = 90.0) ?(standby_watts = 5.0) ?(strategy = Placement.First_fit_decreasing)
    ?(policy = Pas_nodes) ~sim ~nodes vms =
  if nodes <= 0 then invalid_arg "Manager.create: nodes must be positive";
  let t =
    {
      arch;
      node_memory_mb;
      cpu_budget_pct;
      standby_watts;
      strategy;
      policy;
      sim;
      node_states =
        Array.init nodes (fun index ->
            {
              index;
              host = None;
              off_since = Some (Simulator.now sim);
              standby_joules = 0.0;
              retired_joules = 0.0;
            });
      vms =
        Array.of_list
          (List.map
             (fun vm ->
               { vm; node = -1; cpu_snapshot = Sim_time.zero; demand_pct = Vm.credit_pct vm })
             vms);
      migrations = 0;
      last_rebalance = Simulator.now sim;
    }
  in
  (match pack t with
  | Some assignment -> apply_assignment t assignment ~count_migrations:false
  | None -> failwith "Manager.create: VMs do not fit on the fleet");
  t

let run_for t duration = Simulator.run_until t.sim (Sim_time.add (now t) duration)
let nodes t = Array.length t.node_states

let active_nodes t =
  Array.fold_left (fun acc n -> if n.host <> None then acc + 1 else acc) 0 t.node_states

let state_of t vm =
  match Array.find_opt (fun st -> Vm.equal st.vm vm) t.vms with
  | Some st -> st
  | None -> raise Not_found

let node_of_vm t vm = (state_of t vm).node
let migrations t = t.migrations

let energy_joules t =
  Array.fold_left
    (fun acc node ->
      let standby_now =
        match node.off_since with
        | Some since -> t.standby_watts *. Sim_time.to_sec (Sim_time.diff (now t) since)
        | None -> 0.0
      in
      let running = match node.host with Some h -> Host.energy_joules h | None -> 0.0 in
      acc +. node.retired_joules +. node.standby_joules +. standby_now +. running)
    0.0 t.node_states

let vm_cpu_share t vm =
  let st = state_of t vm in
  let dt = Sim_time.to_sec (Sim_time.diff (now t) t.last_rebalance) in
  if dt = 0.0 (* lint:ignore float-eq: exact zero guards the division *) then 0.0
  else begin
    let used = Sim_time.diff (Domain.cpu_time (Vm.domain st.vm)) st.cpu_snapshot in
    Sim_time.to_sec used /. dt
  end
