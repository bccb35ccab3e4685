(* Tests for the consolidation layer: VM descriptors, bin packing and the
   epoch-based cluster manager. *)

module Vm = Cluster.Vm
module Placement = Cluster.Placement
module Manager = Cluster.Manager
module Workload = Workloads.Workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let sec = Sim_time.of_sec

(* ------------------------------------------------------------------ *)
(* Vm *)

let vm_basics () =
  let vm = Vm.create ~name:"web" ~credit_pct:25.0 ~memory_mb:2048 (Workload.idle ()) in
  Alcotest.(check string) "name" "web" (Vm.name vm);
  check_int "memory" 2048 (Vm.memory_mb vm);
  Alcotest.(check (float 1e-9)) "credit" 25.0 (Vm.credit_pct vm);
  Alcotest.check_raises "memory" (Invalid_argument "Vm.create: memory must be positive")
    (fun () -> ignore (Vm.create ~name:"x" ~credit_pct:10.0 ~memory_mb:0 (Workload.idle ())))

(* ------------------------------------------------------------------ *)
(* Placement *)

let item id memory_mb cpu_pct = { Placement.id; memory_mb; cpu_pct }

let pack_prefers_low_nodes () =
  let items = [ item 0 1000 10.0; item 1 1000 10.0 ] in
  match
    Placement.pack Placement.First_fit ~node_count:3 ~memory_capacity_mb:4096
      ~cpu_capacity_pct:90.0 items
  with
  | Some assignment ->
      Alcotest.(check (array int)) "both on node 0" [| 0; 0 |] assignment;
      check_int "one node used" 1 (Placement.nodes_used assignment)
  | None -> Alcotest.fail "expected a packing"

let pack_memory_constraint () =
  let items = [ item 0 3000 10.0; item 1 3000 10.0 ] in
  let assignment =
    Placement.pack_exn Placement.First_fit ~node_count:2 ~memory_capacity_mb:4096
      ~cpu_capacity_pct:90.0 items
  in
  check_int "memory forces two nodes" 2 (Placement.nodes_used assignment)

let pack_cpu_constraint () =
  let items = [ item 0 100 60.0; item 1 100 60.0 ] in
  let assignment =
    Placement.pack_exn Placement.First_fit ~node_count:2 ~memory_capacity_mb:4096
      ~cpu_capacity_pct:90.0 items
  in
  check_int "cpu budget forces two nodes" 2 (Placement.nodes_used assignment)

let pack_infeasible () =
  let items = [ item 0 3000 10.0; item 1 3000 10.0; item 2 3000 10.0 ] in
  check_bool "no fit" true
    (Placement.pack Placement.First_fit ~node_count:1 ~memory_capacity_mb:4096
       ~cpu_capacity_pct:90.0 items
    = None)

let pack_oversized_item () =
  Alcotest.check_raises "too big"
    (Invalid_argument "Placement.pack: item exceeds a single node's capacity") (fun () ->
      ignore
        (Placement.pack Placement.First_fit ~node_count:1 ~memory_capacity_mb:1024
           ~cpu_capacity_pct:90.0
           [ item 0 2048 10.0 ]))

let ffd_beats_ff_on_adversarial_input () =
  (* Classic: small items first make plain first-fit waste bins. *)
  let items = [ item 0 600 1.0; item 1 600 1.0; item 2 700 1.0; item 3 700 1.0 ] in
  let ff =
    Placement.pack_exn Placement.First_fit ~node_count:4 ~memory_capacity_mb:1300
      ~cpu_capacity_pct:400.0 items
  in
  let ffd =
    Placement.pack_exn Placement.First_fit_decreasing ~node_count:4 ~memory_capacity_mb:1300
      ~cpu_capacity_pct:400.0 items
  in
  check_bool "ffd at least as tight" true
    (Placement.nodes_used ffd <= Placement.nodes_used ff)

let best_fit_fills_tightest () =
  (* The 200 item best-fits next to the 700 one (residual 100) rather than
     opening a fresh node (residual 800); the 300 then has to open one. *)
  let items = [ item 0 700 1.0; item 1 200 1.0; item 2 300 1.0 ] in
  let assignment =
    Placement.pack_exn Placement.Best_fit ~node_count:3 ~memory_capacity_mb:1000
      ~cpu_capacity_pct:400.0 items
  in
  check_int "200 joins 700" assignment.(0) assignment.(1);
  check_bool "300 opens a new node" true (assignment.(2) <> assignment.(0))

let pack_property =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"packing never violates capacities"
       QCheck.(list_of_size (Gen.int_range 0 12) (pair (int_range 1 2000) (float_range 1.0 40.0)))
       (fun specs ->
         let items = List.mapi (fun i (m, c) -> item i m c) specs in
         match
           Placement.pack Placement.First_fit_decreasing ~node_count:8
             ~memory_capacity_mb:4096 ~cpu_capacity_pct:90.0 items
         with
         | None -> true (* infeasible is a legal answer *)
         | Some assignment ->
             let mem = Array.make 8 0 and cpu = Array.make 8 0.0 in
             List.iteri
               (fun pos (m, c) ->
                 let node = assignment.(pos) in
                 mem.(node) <- mem.(node) + m;
                 cpu.(node) <- cpu.(node) +. c)
               specs;
             Array.for_all (fun m -> m <= 4096) mem
             && Array.for_all (fun c -> c <= 90.0 +. 1e-6) cpu))

(* ------------------------------------------------------------------ *)
(* Manager *)

let busy_vm name credit memory_mb =
  let app =
    Workloads.Web_app.create
      ~rate_schedule:(Workloads.Phases.constant ~rate:(credit /. 100.0))
      ()
  in
  Vm.create ~name ~credit_pct:credit ~memory_mb (Workloads.Web_app.workload app)

let idle_vm name credit memory_mb =
  Vm.create ~name ~credit_pct:credit ~memory_mb (Workload.idle ())

let manager_initial_placement () =
  let sim = Simulator.create () in
  let vms = [ busy_vm "a" 30.0 2048; busy_vm "b" 30.0 2048; idle_vm "c" 20.0 1024 ] in
  let manager = Manager.create ~sim ~nodes:3 vms in
  check_int "three nodes fleet" 3 (Manager.nodes manager);
  check_int "one active node suffices" 1 (Manager.active_nodes manager);
  check_int "no migrations yet" 0 (Manager.migrations manager);
  List.iter (fun vm -> check_int (Vm.name vm) 0 (Manager.node_of_vm manager vm)) vms

let manager_serves_demand () =
  let sim = Simulator.create () in
  let app =
    Workloads.Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:0.3) ()
  in
  let vm = Vm.create ~name:"web" ~credit_pct:40.0 ~memory_mb:1024 (Workloads.Web_app.workload app) in
  let manager = Manager.create ~sim ~nodes:1 [ vm ] in
  Manager.run_for manager (sec 60);
  (* 0.3 abs/s for 60s = 18 abs work; all served. *)
  check_bool "served" true (Workloads.Web_app.completed_work app > 17.0)

let manager_rebalance_consolidates () =
  let sim = Simulator.create () in
  (* Two nodes' worth of credits, but only one VM is actually busy: after a
     rebalance the idle VMs' measured demand lets everything fit on one
     node. *)
  let vms =
    [ busy_vm "busy" 30.0 2048; idle_vm "i1" 50.0 1024; idle_vm "i2" 50.0 1024 ]
  in
  let manager = Manager.create ~sim ~nodes:2 vms in
  check_int "initially two nodes (credits)" 2 (Manager.active_nodes manager);
  Manager.run_for manager (sec 30);
  Manager.rebalance manager;
  check_int "consolidated to one node" 1 (Manager.active_nodes manager);
  check_bool "migration counted" true (Manager.migrations manager >= 1);
  Manager.run_for manager (sec 10)

let manager_energy_counts_standby () =
  let sim = Simulator.create () in
  let vms = [ idle_vm "i" 10.0 1024 ] in
  let manager = Manager.create ~standby_watts:5.0 ~sim ~nodes:3 vms in
  Manager.run_for manager (sec 100);
  (* Two idle nodes at 5 W for 100 s = 1000 J, plus the active node's
     ~45 W idle floor. *)
  let joules = Manager.energy_joules manager in
  check_bool "includes standby" true (joules > 1000.0);
  check_bool "includes active idle floor" true (joules > 4500.0);
  check_bool "not wildly off" true (joules < 6500.0)

let manager_workload_survives_migration () =
  let sim = Simulator.create () in
  let app =
    Workloads.Web_app.create ~rate_schedule:(Workloads.Phases.constant ~rate:0.2) ()
  in
  let mover = Vm.create ~name:"mover" ~credit_pct:30.0 ~memory_mb:1024 (Workloads.Web_app.workload app) in
  let anchor = busy_vm "anchor" 70.0 2048 in
  let manager = Manager.create ~sim ~nodes:2 [ anchor; mover ] in
  Manager.run_for manager (sec 20);
  let before = Workloads.Web_app.completed_work app in
  Manager.rebalance manager;
  Manager.run_for manager (sec 20);
  let after = Workloads.Web_app.completed_work app in
  check_bool "queue kept serving after the move" true (after -. before > 3.0)

(* Deferral across a fleet: VMs whose demand moves (phased web guests,
   pi jobs) repacked every 2 s, which lands on a dispatch-tick instant, so
   a rebuilt node's workloads see the old node's last tick, no tick at
   the rebalance instant, then the new node's first.  The plain fleet must
   match one whose workloads are all wrapped for every-tick advance. *)
let fleet_deferral_run seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let specs =
    List.init (4 + int 6) (fun i ->
        let credit = float_of_int (5 + int 30) in
        let kind = int 3 in
        let from = int 6 and len = 1 + int 8 in
        let rate = credit /. 100.0 *. (0.5 +. (0.1 *. float_of_int (int 30))) in
        (i, credit, kind, from, len, rate, 0.01 *. float_of_int (1 + int 300)))
  in
  let policy = if int 2 = 0 then Manager.Pas_nodes else Manager.Credit_ondemand in
  let run wrap =
    let apps = ref [] in
    let vms =
      List.map
        (fun (i, credit, kind, from, len, rate, work) ->
          let w =
            if kind = 2 then begin
              let app = Workloads.Pi_app.create ~duty_cycle:0.5 ~work () in
              apps := `Pi app :: !apps;
              Workloads.Pi_app.workload app
            end
            else begin
              let rate_schedule =
                if kind = 0 then [ (sec from, rate); (sec (from + len), 0.0) ]
                else Workloads.Phases.constant ~rate
              in
              let app =
                Workloads.Web_app.create ~timeout:(Sim_time.of_ms 500) ~rate_schedule ()
              in
              apps := `Web app :: !apps;
              Workloads.Web_app.workload app
            end
          in
          Vm.create ~name:(Printf.sprintf "vm%d" i) ~credit_pct:credit ~memory_mb:1024 (wrap w))
        specs
    in
    let sim = Simulator.create () in
    let manager = Manager.create ~policy ~sim ~nodes:4 vms in
    Manager.auto_rebalance manager ~every:(sec 2);
    Manager.run_for manager (sec 12);
    let buf = Buffer.create 1024 in
    Printf.bprintf buf "migrations=%d active=%d energy=%h\n" (Manager.migrations manager)
      (Manager.active_nodes manager) (Manager.energy_joules manager);
    List.iter
      (fun vm ->
        Printf.bprintf buf "%s node=%d cpu=%d\n" (Vm.name vm) (Manager.node_of_vm manager vm)
          (Sim_time.to_us (Hypervisor.Domain.cpu_time (Vm.domain vm))))
      vms;
    List.iter
      (function
        | `Web app ->
            let module W = Workloads.Web_app in
            let rt = W.response_times app in
            Printf.bprintf buf "web injected=%d completed=%d timed_out=%d rt=%d/%h\n"
              (W.injected_requests app) (W.completed_requests app) (W.timed_out_requests app)
              (Stats.Running.count rt) (Stats.Running.mean rt)
        | `Pi app ->
            Printf.bprintf buf "pi remaining=%h\n" (Workloads.Pi_app.remaining_work app))
      !apps;
    (Manager.migrations manager, Buffer.contents buf)
  in
  let _, plain = run Fun.id and migrations, reference = run Every_tick.wrap in
  if not (String.equal plain reference) then
    Alcotest.failf "seed %d: deferring fleet differs from every-tick fleet\n%s\n%s" seed plain
      reference;
  migrations

(* Twelve fixed scenarios; between them they must migrate, or the
   rebuild path went untested. *)
let fleet_deferral () =
  let migrations =
    List.fold_left (fun acc seed -> acc + fleet_deferral_run seed) 0 (List.init 12 succ)
  in
  check_bool "some scenario migrated" true (migrations > 0)

let () =
  Alcotest.run "cluster"
    [
      ("vm", [ Alcotest.test_case "basics" `Quick vm_basics ]);
      ( "placement",
        [
          Alcotest.test_case "prefers low nodes" `Quick pack_prefers_low_nodes;
          Alcotest.test_case "memory constraint" `Quick pack_memory_constraint;
          Alcotest.test_case "cpu constraint" `Quick pack_cpu_constraint;
          Alcotest.test_case "infeasible" `Quick pack_infeasible;
          Alcotest.test_case "oversized item" `Quick pack_oversized_item;
          Alcotest.test_case "ffd adversarial" `Quick ffd_beats_ff_on_adversarial_input;
          Alcotest.test_case "best fit" `Quick best_fit_fills_tightest;
          pack_property;
        ] );
      ( "manager",
        [
          Alcotest.test_case "initial placement" `Quick manager_initial_placement;
          Alcotest.test_case "serves demand" `Quick manager_serves_demand;
          Alcotest.test_case "rebalance consolidates" `Quick manager_rebalance_consolidates;
          Alcotest.test_case "energy counts standby" `Quick manager_energy_counts_standby;
          Alcotest.test_case "workload survives migration" `Quick manager_workload_survives_migration;
          Alcotest.test_case "deferring fleet matches every-tick fleet" `Quick fleet_deferral;
        ] );
    ]
