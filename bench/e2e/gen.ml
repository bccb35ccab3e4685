(* Seeded input generation.  Every workload's simulator inputs are text the
   library's own loader reads (Domconfig), so the simulator sees nothing
   but the generated configs.  The layer mix is fixed per workload; the
   seed only moves rates, phase windows and credits, which keeps the
   per-event cost of one workload comparable across seeds. *)

module Prng = Sim_engine.Prng

type workload = Paper_regen | Xen_stock | Dense_pas | Cluster_churn
type size = Full | Smoke

let all = [ Paper_regen; Xen_stock; Dense_pas; Cluster_churn ]

(* The workloads BENCHMARK.json lists.  [Paper_regen] is left out: the
   runner's experiments build their simulators internally, so it has no
   event count and no layer the benchmark can wrap. *)
let listed = [ Xen_stock; Dense_pas; Cluster_churn ]

let name = function
  | Paper_regen -> "paper-regen"
  | Xen_stock -> "xen-stock"
  | Dense_pas -> "dense-pas"
  | Cluster_churn -> "cluster-churn"

let of_name s = List.find_opt (fun w -> String.equal (name w) s) all
let size_name = function Full -> "full" | Smoke -> "smoke"

type cluster = { vms : string; nodes : int; rebalance_s : int }

type input =
  | Registry of { ids : string list; scale : float; pool : int }
  | Hosts of string list
  | Cluster of cluster

let default_seed = 1

(* Values are printed with %g, so every drawn number keeps at most three
   decimals: a dumped config then re-parses to the very same floats. *)
let round3 x = Float.round (x *. 1000.0) /. 1000.0
let exact_rate credit = round3 (float_of_int credit /. 100.0)
let thrashing_rate credit ~factor = round3 (float_of_int credit /. 100.0 *. factor)

(* [n] values spread evenly over [lo, hi], dealt in a seeded order: the
   seed moves which guest gets which value, never the set of values, so a
   workload's total demand is the same for every seed. *)
let deal rng n ~lo ~hi =
  let a =
    Array.init n (fun i ->
        if n = 1 then (lo +. hi) /. 2.0 else lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))
  in
  Prng.shuffle rng a;
  a

let deal_int rng n ~lo ~hi =
  Array.map (fun x -> int_of_float (Float.round x)) (deal rng n ~lo:(float_of_int lo) ~hi:(float_of_int hi))

let host_line buf ~scheduler ~governor ~duration =
  Printf.bprintf buf "host arch=optiplex-755 scheduler=%s governor=%s duration=%d\n" scheduler
    governor duration

let dom0 buf = Buffer.add_string buf "domain name=Dom0 credit=10 dom0=true workload=idle\n"

let web buf ~name ~credit ~rate ?window () =
  Printf.bprintf buf "domain name=%s credit=%d workload=web rate=%g" name credit rate;
  (match window with
  | Some (from_s, until_s) -> Printf.bprintf buf " from=%d until=%d" from_s until_s
  | None -> ());
  Buffer.add_char buf '\n'

(* The paper's §5.3 profile (Dom0/V20/V70, V20 active over the first two
   thirds, V70 over the last two) on a rotation of stock scheduler/governor
   pairs.  V20 thrashes and V70 runs at exact load on half the hosts, the
   other way round on the rest; both halves cover the rotation.  Few
   domains keep the ticks cheap, so the engine, dispatch and governor
   sampling dominate; PAS never runs. *)
let xen_stock rng ~hosts ~duration =
  let rotation =
    [| ("credit", "ondemand"); ("credit", "stable"); ("credit", "conservative"); ("sedf", "ondemand") |]
  in
  let v20 = deal_int rng hosts ~lo:15 ~hi:25 in
  let factor = deal rng hosts ~lo:2.0 ~hi:4.0 in
  let jitter = max 1 (duration / 30) in
  let shift = deal_int rng (4 * hosts) ~lo:(-jitter) ~hi:jitter in
  List.init hosts (fun i ->
      let buf = Buffer.create 256 in
      let scheduler, governor = rotation.(i mod Array.length rotation) in
      host_line buf ~scheduler ~governor ~duration;
      dom0 buf;
      let at k frac = int_of_float (frac *. float_of_int duration) + shift.((4 * i) + k) in
      let v20_thrashes = i / Array.length rotation mod 2 = 0 in
      let rate credit ~thrashes =
        if thrashes then thrashing_rate credit ~factor:factor.(i) else exact_rate credit
      in
      let v20 = v20.(i) in
      let v70 = 90 - v20 in
      web buf ~name:"V20" ~credit:v20 ~rate:(rate v20 ~thrashes:v20_thrashes)
        ~window:(at 0 (1.0 /. 15.0), at 1 (2.0 /. 3.0)) ();
      web buf ~name:"V70" ~credit:v70 ~rate:(rate v70 ~thrashes:(not v20_thrashes))
        ~window:(at 2 (1.0 /. 3.0), at 3 (14.0 /. 15.0)) ();
      Buffer.contents buf)

(* 24 guests per PAS host: 8 phased web (4 exact, 4 thrashing), 6 pi,
   6 idle, 4 constantly thrashing web, with credits of 2-4 % (72 % in
   all, within the 90 % Dom0 leaves free).  Many domains make the credit
   pick scan, per-domain workload advance and PAS's every-domain rescale
   the dominant costs. *)
let dense_pas rng ~hosts ~duration =
  List.init hosts (fun _ ->
      let buf = Buffer.create 2048 in
      host_line buf ~scheduler:"pas" ~governor:"none" ~duration;
      dom0 buf;
      let credits = deal_int rng 24 ~lo:2 ~hi:4 in
      let from_s = deal_int rng 8 ~lo:(duration / 30) ~hi:(duration / 3) in
      let len = deal_int rng 8 ~lo:(duration / 5) ~hi:(duration * 3 / 5) in
      let window i = (from_s.(i), min (duration - (duration / 15)) (from_s.(i) + len.(i))) in
      let factor = deal rng 8 ~lo:2.0 ~hi:4.0 in
      let work = deal rng 6 ~lo:0.5 ~hi:1.5 and duty = deal rng 6 ~lo:0.3 ~hi:1.0 in
      Array.iteri
        (fun i credit ->
          let name = Printf.sprintf "G%02d" i in
          if i < 4 then web buf ~name ~credit ~rate:(exact_rate credit) ~window:(window i) ()
          else if i < 8 then
            web buf ~name ~credit ~rate:(thrashing_rate credit ~factor:factor.(i - 4)) ~window:(window i) ()
          else if i < 14 then
            Printf.bprintf buf "domain name=%s credit=%d workload=pi work=%g duty=%g\n" name credit
              (round3 (float_of_int credit /. 100.0 *. float_of_int duration *. work.(i - 8)))
              (round3 duty.(i - 8))
          else if i < 20 then Printf.bprintf buf "domain name=%s credit=%d workload=idle\n" name credit
          else web buf ~name ~credit ~rate:(thrashing_rate credit ~factor:factor.(i - 16)) ())
        credits;
      Buffer.contents buf)

(* A VM list, one phased web VM per domain line (every other one
   thrashing), for a PAS fleet under a consolidation manager.  The host
   line only carries the duration; the manager builds the nodes. *)
let cluster_churn rng ~vms ~nodes ~duration ~rebalance_s =
  let buf = Buffer.create 8192 in
  host_line buf ~scheduler:"pas" ~governor:"none" ~duration;
  let credits = deal_int rng vms ~lo:4 ~hi:13 in
  let from_s = deal_int rng vms ~lo:1 ~hi:(duration / 2) in
  let len = deal_int rng vms ~lo:(duration / 5) ~hi:(duration * 2 / 3) in
  let factor = deal rng vms ~lo:2.0 ~hi:4.0 in
  for i = 0 to vms - 1 do
    let credit = credits.(i) in
    let rate = if i mod 2 = 0 then thrashing_rate credit ~factor:factor.(i) else exact_rate credit in
    web buf ~name:(Printf.sprintf "vm%02d" i) ~credit ~rate
      ~window:(from_s.(i), min duration (from_s.(i) + len.(i))) ()
  done;
  Cluster { vms = Buffer.contents buf; nodes; rebalance_s }

(* Cheapest three registry entries: together well under a second, and each
   has a golden snapshot to check against. *)
let smoke_experiments = [ "ablation-smp"; "ablation-boost"; "validate-queueing" ]

let generate workload size ~seed =
  let rng = Prng.derive ~key:(Printf.sprintf "bench-e2e/%s/%d" (name workload) seed) in
  match (workload, size) with
  | Paper_regen, Full ->
      Registry { ids = Experiments.Registry.ids (); scale = 0.1; pool = 2 }
  | Paper_regen, Smoke -> Registry { ids = smoke_experiments; scale = 0.1; pool = 2 }
  | Xen_stock, Full -> Hosts (xen_stock rng ~hosts:40 ~duration:300)
  | Xen_stock, Smoke -> Hosts (xen_stock rng ~hosts:4 ~duration:30)
  | Dense_pas, Full -> Hosts (dense_pas rng ~hosts:12 ~duration:300)
  | Dense_pas, Smoke -> Hosts (dense_pas rng ~hosts:1 ~duration:30)
  | Cluster_churn, Full -> cluster_churn rng ~vms:96 ~nodes:16 ~duration:600 ~rebalance_s:60
  | Cluster_churn, Smoke -> cluster_churn rng ~vms:24 ~nodes:4 ~duration:120 ~rebalance_s:30

let configs = function
  | Registry _ -> []
  | Hosts texts -> texts
  | Cluster c -> [ c.vms ]
