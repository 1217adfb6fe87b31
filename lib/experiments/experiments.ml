(* Reproduction harness: one entry per table/figure of the paper's
   evaluation (Chapter 6), plus the ablations called out in DESIGN.md.

   Every experiment sweeps MPL for the three concurrency control algorithms
   (SI, Serializable SI, S2PL), printing throughput with 95% confidence
   intervals and the abort-rate breakdown (deadlock / FCW conflict / unsafe)
   that the paper shows as the paired (b) charts. Absolute numbers are
   simulated-time throughput; the claims under reproduction are the shapes
   (ordering, gaps, crossovers), recorded in EXPERIMENTS.md. *)

open Core

type budget = {
  seeds : int list;
  duration : float;
  warmup : float;
  mpls : int list;
  with_metrics : bool; (* collect engine metrics (Obs) per run *)
}

let full_budget =
  {
    seeds = [ 1; 2; 3 ];
    duration = 0.8;
    warmup = 0.15;
    mpls = [ 1; 2; 5; 10; 20; 50 ];
    with_metrics = false;
  }

let quick_budget =
  { seeds = [ 1 ]; duration = 0.25; warmup = 0.05; mpls = [ 1; 5; 20 ]; with_metrics = false }

let levels =
  [ ("SI", Types.Snapshot); ("SSI", Types.Serializable); ("S2PL", Types.S2pl) ]

type series = { label : string; points : Driver.summary list }

type figure = {
  fig_id : string;
  title : string;
  expected : string; (* the paper's qualitative result for this figure *)
  mpls : int list;
  series : series list;
}

(* {1 Plans: figures as data, evaluated as one parallel batch}

   A [plan] is a figure whose measurement points have not run yet: each
   series is a label plus a closure from MPL to a summary. [eval_plans]
   flattens every (figure, series, MPL) point of a whole batch of plans
   into one job list for the domain pool — points parallelise within a
   sweep *and* across figures — and re-assembles the results in submission
   order, so the printed tables are byte-identical to a sequential run.

   The point closures must not touch the pool themselves (nested
   submission is rejected); each builds its own simulated world via
   [Driver.run_seeds]/[Driver.run_once]. *)

type plan = {
  pl_id : string;
  pl_title : string;
  pl_expected : string;
  pl_mpls : int list;
  pl_series : (string * (int -> Driver.summary)) list; (* label, mpl -> point *)
}

let eval_plans ?pool (plans : plan list) : figure list =
  let jobs =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun (_, point) -> List.map (fun mpl () -> point mpl) p.pl_mpls)
          p.pl_series)
      plans
  in
  let results = ref (Par.map ?pool (fun job -> job ()) jobs) in
  let take n =
    let rec go n acc =
      if n = 0 then List.rev acc
      else
        match !results with
        | [] -> invalid_arg "eval_plans: job/result mismatch"
        | r :: rest ->
            results := rest;
            go (n - 1) (r :: acc)
    in
    go n []
  in
  List.map
    (fun p ->
      {
        fig_id = p.pl_id;
        title = p.pl_title;
        expected = p.pl_expected;
        mpls = p.pl_mpls;
        series =
          List.map
            (fun (label, _) -> { label; points = take (List.length p.pl_mpls) })
            p.pl_series;
      })
    plans

(* One measurement point: [run_seeds] over the budget's seed list. *)
let point ~budget ~make_db ~mix ~isolation mpl =
  Driver.run_seeds ~with_metrics:budget.with_metrics ~make_db ~mix ~seeds:budget.seeds
    {
      Driver.default_config with
      Driver.isolation;
      mpl;
      warmup = budget.warmup;
      duration = budget.duration;
    }

(* A figure over the budget's MPLs, one series per [(label, point)]. *)
let plan ~fig_id ~title ~expected (budget : budget) series =
  {
    pl_id = fig_id;
    pl_title = title;
    pl_expected = expected;
    pl_mpls = budget.mpls;
    pl_series = series;
  }

(* SI, SSI and S2PL over one workload. *)
let sweep ~fig_id ~title ~expected ~make_db ~mix budget =
  plan ~fig_id ~title ~expected budget
    (List.map (fun (label, isolation) -> (label, point ~budget ~make_db ~mix ~isolation)) levels)

(* SSI alone, one series per [(label, tweak)] of the configuration that
   [make_db tweak] builds its databases with. *)
let ssi_per_tweak ~fig_id ~title ~expected ~make_db ~mix ~tweaks budget =
  plan ~fig_id ~title ~expected budget
    (List.map
       (fun (label, tweak) ->
         (label, point ~budget ~make_db:(make_db tweak) ~mix ~isolation:Types.Serializable))
       tweaks)

let print_figure fmt f =
  Fmt.pf fmt "@.=== %s: %s ===@." f.fig_id f.title;
  Fmt.pf fmt "paper: %s@." f.expected;
  (* throughput table *)
  Fmt.pf fmt "@.%-6s" "MPL";
  List.iter (fun s -> Fmt.pf fmt "%22s" (s.label ^ " tps (±95%)")) f.series;
  Fmt.pf fmt "@.";
  List.iteri
    (fun i mpl ->
      Fmt.pf fmt "%-6d" mpl;
      List.iter
        (fun s ->
          let p = List.nth s.points i in
          Fmt.pf fmt "%15.0f ±%5.0f" p.Driver.s_throughput p.Driver.s_ci)
        f.series;
      Fmt.pf fmt "@.")
    f.mpls;
  (* abort-rate table (the paper's (b) charts), % of commits *)
  Fmt.pf fmt "@.%-6s" "MPL";
  List.iter
    (fun s -> Fmt.pf fmt "  %30s" (s.label ^ " dl/conf/unsafe% (locks)"))
    f.series;
  Fmt.pf fmt "@.";
  List.iteri
    (fun i mpl ->
      Fmt.pf fmt "%-6d" mpl;
      List.iter
        (fun s ->
          let p = List.nth s.points i in
          Fmt.pf fmt "  %6.2f/%6.2f/%6.2f (%5.0f)"
            (100.0 *. p.Driver.s_deadlock_rate)
            (100.0 *. p.Driver.s_conflict_rate)
            (100.0 *. p.Driver.s_unsafe_rate)
            p.Driver.s_lock_table)
        f.series;
      Fmt.pf fmt "@.")
    f.mpls;
  (* engine-metrics table (budget.with_metrics): rw-edge counts by detection
     source plus lock-wait and retained-record pressure, per series/MPL *)
  let has_metrics =
    List.exists (fun s -> List.exists (fun p -> p.Driver.s_metrics <> None) s.points) f.series
  in
  if has_metrics then begin
    Fmt.pf fmt "@.%-6s" "MPL";
    List.iter
      (fun s -> Fmt.pf fmt "  %44s" (s.label ^ " edges nv/sx/ps/gap/uw doom wait ret"))
      f.series;
    Fmt.pf fmt "@.";
    List.iteri
      (fun i mpl ->
        Fmt.pf fmt "%-6d" mpl;
        List.iter
          (fun s ->
            let p = List.nth s.points i in
            match p.Driver.s_metrics with
            | None -> Fmt.pf fmt "  %44s" "-"
            | Some m ->
                Fmt.pf fmt "  %8d/%d/%d/%d/%d %6d %8.2gs %7d"
                  m.Obs.m_conflict_newer_version m.Obs.m_conflict_siread_x
                  m.Obs.m_conflict_page_stamp m.Obs.m_conflict_gap m.Obs.m_conflict_unknown
                  m.Obs.m_doomed
                  (Obs.hist_mean m.Obs.m_lock_wait)
                  m.Obs.m_retained_hwm)
          f.series;
        Fmt.pf fmt "@.")
      f.mpls
  end

(* {1 Berkeley DB / SmallBank experiments (§6.1)} *)

(* The 0.5s periodic deadlock detector makes S2PL results meaningless on
   sub-second windows; stretch the measurement for the BDB figures. *)
let bdb_budget (b : budget) =
  { b with duration = Float.max b.duration 1.5; warmup = Float.max b.warmup 0.25 }

let smallbank_db ?(customers = 20_000) ?(wal_mode = Wal.No_flush) ?(tweak = Fun.id) () =
 fun sim ->
  let db = Db.create ~config:(tweak (Config.bdb ~wal_mode ())) sim in
  Smallbank.setup db ~customers ();
  db

let smallbank_fig ~fig_id ~title ~expected ~customers ~wal_mode ~ops_per_txn budget =
  sweep ~fig_id ~title ~expected
    ~make_db:(smallbank_db ~customers ~wal_mode ())
    ~mix:(Smallbank.mix ~customers ~ops_per_txn ())
    (bdb_budget budget)

let flushed = Wal.Flush_per_commit 0.01

let fig6_1 =
  smallbank_fig ~fig_id:"fig6.1" ~title:"Berkeley DB SmallBank, no log flush (throughput vs MPL)"
    ~customers:20_000 ~wal_mode:Wal.No_flush ~ops_per_txn:1
    ~expected:
      "SI and SSI track each other and far exceed S2PL (~10x at MPL 20); S2PL errors are \
       deadlocks, SSI adds unsafe aborts"

let fig6_2 =
  smallbank_fig ~fig_id:"fig6.2" ~title:"Berkeley DB SmallBank, log flushed at commit"
    ~customers:20_000 ~wal_mode:flushed ~ops_per_txn:1
    ~expected:
      "I/O-bound: throughput rises with MPL via group commit; levels close until S2PL's \
       deadlock stalls bite at high MPL"

let fig6_3 =
  smallbank_fig ~fig_id:"fig6.3"
    ~title:"Berkeley DB SmallBank, complex transactions (10 ops), log flush"
    ~customers:20_000 ~wal_mode:flushed ~ops_per_txn:10
    ~expected:"still I/O-bound; results mirror Fig 6.2 though each txn does 10x the work"

let fig6_4 =
  smallbank_fig ~fig_id:"fig6.4"
    ~title:"Berkeley DB SmallBank, 1/10th contention (10x accounts), log flush"
    ~customers:200_000 ~wal_mode:flushed ~ops_per_txn:1
    ~expected:
      "S2PL and SI nearly identical; SSI 10-15% below due to page-level false positives \
       (higher unsafe rate than true conflicts would justify)"

let fig6_5 =
  smallbank_fig ~fig_id:"fig6.5"
    ~title:"Berkeley DB SmallBank, complex transactions + low contention"
    ~customers:200_000 ~wal_mode:flushed ~ops_per_txn:10
    ~expected:"like Fig 6.4 with 10x work per txn; SSI overhead stays in the 10-15% band"

(* {1 InnoDB / sibench experiments (§6.3)} *)

let sibench_db ?(tweak = Fun.id) ~items () =
 fun sim ->
  let db = Db.create ~config:(tweak (Config.innodb ())) sim in
  Sibench.setup db ~items ();
  db

let sibench_fig ~fig_id ~items ~queries_per_update ~expected =
  sweep ~fig_id
    ~title:
      (Printf.sprintf "InnoDB sibench, %d items, %d quer%s per update" items queries_per_update
         (if queries_per_update = 1 then "y" else "ies"))
    ~expected
    ~make_db:(sibench_db ~items ())
    ~mix:(Sibench.mix ~items ~queries_per_update ())

let fig6_6 = sibench_fig ~fig_id:"fig6.6" ~items:10 ~queries_per_update:1
    ~expected:"small table: updates serialise on hot rows; SI and SSI equal, S2PL below \
               (readers block writers)"

let fig6_7 = sibench_fig ~fig_id:"fig6.7" ~items:100 ~queries_per_update:1
    ~expected:"SI and SSI still close; S2PL clearly below"

let fig6_8 = sibench_fig ~fig_id:"fig6.8" ~items:1000 ~queries_per_update:1
    ~expected:"1000-row scans: SSI pays per-row SIREAD costs through the single-threaded \
               lock manager and falls below SI; S2PL worst"

let fig6_9 = sibench_fig ~fig_id:"fig6.9" ~items:10 ~queries_per_update:10
    ~expected:"query-mostly, 10 items: all levels closer; S2PL still pays read locking"

let fig6_10 = sibench_fig ~fig_id:"fig6.10" ~items:100 ~queries_per_update:10
    ~expected:"query-mostly, 100 items: SI ahead; SSI between SI and S2PL"

let fig6_11 = sibench_fig ~fig_id:"fig6.11" ~items:1000 ~queries_per_update:10
    ~expected:"query-mostly, 1000 items: lock-manager traffic dominates; SI >> SSI > S2PL"

(* {1 InnoDB / TPC-C++ experiments (§6.4)} *)

(* A TPC-C++ database; [tweak] adjusts the configuration, e.g. to give it a
   buffer pool, which is warmed once the data is loaded. *)
let tpcc_db ?(read_miss = 0.0) ?(tweak = Fun.id) ~scale () =
 fun sim ->
  let config = tweak { (Config.innodb ()) with Config.read_miss } in
  let db = Db.create ~config sim in
  Tpcc.setup db ~scale ();
  Db.prewarm_cache db;
  db

let tpcc_fig ~fig_id ~title ~expected ~scale ~read_miss ~skip_ytd ~stock_level =
  let mix = if stock_level then Tpcc.stock_level_mix scale else Tpcc.mix ~skip_ytd scale in
  sweep ~fig_id ~title ~expected ~make_db:(tpcc_db ~read_miss ~scale ()) ~mix

let fig6_12 =
  tpcc_fig ~fig_id:"fig6.12" ~title:"TPC-C++ 1 warehouse, skipping year-to-date updates"
    ~scale:(Tpcc.standard ~warehouses:1) ~read_miss:0.0 ~skip_ytd:true ~stock_level:false
    ~expected:"in-memory, one warehouse: SI and SSI within ~10%; S2PL lower once MPL grows \
               (SLEV/OSTAT read locks block NEWO)"

let fig6_13 =
  tpcc_fig ~fig_id:"fig6.13" ~title:"TPC-C++ 10 warehouses (larger data volume)"
    ~scale:(Tpcc.standard ~warehouses:10) ~read_miss:0.05 ~skip_ytd:false ~stock_level:false
    ~expected:"I/O-bound: all three algorithms nearly indistinguishable; throughput rises \
               with MPL as the disk pipeline fills"

let fig6_14 =
  tpcc_fig ~fig_id:"fig6.14" ~title:"TPC-C++ 10 warehouses, skipping ytd updates"
    ~scale:(Tpcc.standard ~warehouses:10) ~read_miss:0.05 ~skip_ytd:true ~stock_level:false
    ~expected:"still I/O-bound; skipping the ytd hotspots changes little at this scale"

let fig6_15 =
  tpcc_fig ~fig_id:"fig6.15" ~title:"TPC-C++ 10 warehouses, tiny data scaling (high contention)"
    ~scale:(Tpcc.tiny ~warehouses:10) ~read_miss:0.0 ~skip_ytd:false ~stock_level:false
    ~expected:"in-memory and contended: SI and SSI stay close; S2PL falls behind as blocking \
               grows; SSI unsafe aborts visible but small"

let fig6_16 =
  tpcc_fig ~fig_id:"fig6.16" ~title:"TPC-C++ tiny scaling, skipping ytd updates"
    ~scale:(Tpcc.tiny ~warehouses:10) ~read_miss:0.0 ~skip_ytd:true ~stock_level:false
    ~expected:"removing the Payment ytd hotspot lifts SI/SSI further above S2PL"

let fig6_17 =
  tpcc_fig ~fig_id:"fig6.17" ~title:"TPC-C++ Stock Level mix, 10 warehouses"
    ~scale:(Tpcc.standard ~warehouses:10) ~read_miss:0.05 ~skip_ytd:false ~stock_level:true
    ~expected:"read-mostly mix dominated by large scans: multiversioning wins; S2PL's read \
               locks on stock rows block New Order"

let fig6_18 =
  tpcc_fig ~fig_id:"fig6.18" ~title:"TPC-C++ Stock Level mix, tiny scaling"
    ~scale:(Tpcc.tiny ~warehouses:10) ~read_miss:0.0 ~skip_ytd:false ~stock_level:true
    ~expected:"in-memory scans: SI clearly ahead of SSI (per-row SIREAD cost), S2PL worst — \
               the sibench 100-item regime writ large"

(* {1 Ablations (§3.6, §3.7, §2.8.5)} *)

(* Basic vs precise SSI: false-positive rate and throughput (§3.6). High
   contention (few accounts), so that unsafe aborts are frequent enough to
   show the difference. *)
let ablation_precise budget =
  ssi_per_tweak ~fig_id:"ablation-precise"
    ~title:"SSI basic flags (§3.2) vs precise conflict references (§3.6), SmallBank"
    ~expected:"precise mode (conflict references + commit-time tests) has a lower unsafe \
               rate than the boolean flags at equal or better throughput"
    ~make_db:(fun tweak -> smallbank_db ~customers:1_000 ~tweak ())
    ~mix:(Smallbank.mix ~customers:1_000 ())
    ~tweaks:
      [
        ("SSI-basic", fun c -> { c with Config.ssi = Config.Basic });
        ("SSI-precise", fun c -> { c with Config.ssi = Config.Precise });
      ]
    (bdb_budget budget)

(* SIREAD upgrade (§3.7.3) on/off. *)
let ablation_upgrade budget =
  ssi_per_tweak ~fig_id:"ablation-upgrade"
    ~title:"SIREAD->X upgrade optimisation (§3.7.3) on vs off, SmallBank SSI"
    ~expected:"upgrade reduces retained locks and suspended transactions; throughput equal \
               or better"
    ~make_db:(fun tweak -> smallbank_db ~tweak ())
    ~mix:(Smallbank.mix ~customers:20_000 ())
    ~tweaks:
      [
        ("upgrade-on", fun c -> { c with Config.upgrade_siread = true });
        ("upgrade-off", fun c -> { c with Config.upgrade_siread = false });
      ]
    (bdb_budget budget)

(* The §2.8.5 static fixes under plain SI vs Serializable SI: the
   alternative the paper's approach replaces (cf. Alomari et al. 2008). *)
let ablation_fixes budget =
  let budget = bdb_budget budget in
  let series_of label isolation fix =
    ( label,
      point ~budget ~make_db:(smallbank_db ())
        ~mix:(Smallbank.mix ~fix ~customers:20_000 ())
        ~isolation )
  in
  plan ~fig_id:"ablation-fixes"
    ~title:"Making SmallBank serializable: static fixes at SI vs Serializable SI (§2.8.5)"
    ~expected:"which fix wins is platform-dependent (Alomari 2008): here promotion beats \
               materialization (as on PostgreSQL) and PromoteBW adds the most conflicts \
               (it turns the read-only Bal into an update); SSI is competitive with the \
               best fix without any application change"
    budget
    [
      series_of "SSI" Types.Serializable Smallbank.No_fix;
      series_of "SI+MatWT" Types.Snapshot Smallbank.Materialize_wt;
      series_of "SI+PromWT" Types.Snapshot Smallbank.Promote_wt;
      series_of "SI+MatBW" Types.Snapshot Smallbank.Materialize_bw;
      series_of "SI+PromBW" Types.Snapshot Smallbank.Promote_bw;
    ]

(* Kernel-mutex (single-threaded lock manager) ablation for the §6.3
   bottleneck analysis. *)
let ablation_lock_mutex =
  ssi_per_tweak ~fig_id:"ablation-mutex"
    ~title:"InnoDB kernel mutex on/off, sibench 1000 items, SSI"
    ~expected:"serialised lock manager caps SSI scan throughput (§6.3); removing it \
               recovers most of the gap to SI"
    ~make_db:(fun tweak -> sibench_db ~tweak ~items:1000 ())
    ~mix:(Sibench.mix ~items:1000 ())
    ~tweaks:
      [
        ("mutex-on", fun c -> { c with Config.lock_mutex = true });
        ("mutex-off", fun c -> { c with Config.lock_mutex = false });
      ]

(* Read-only snapshot refinement (extension) on/off: high-contention
   SmallBank, where Bal is a declared read-only query, in precise mode,
   whose conflict-reference tests the refinement extends. *)
let ablation_ro budget =
  let refinement on c = { c with Config.ssi = Config.Precise; Config.ro_refinement = on } in
  ssi_per_tweak ~fig_id:"ablation-ro"
    ~title:"Read-only snapshot refinement on/off, SmallBank SSI (extension)"
    ~expected:
      "pivots whose incoming neighbour is a declared read-only Bal that began before \
       T_out committed are spared: lower unsafe rate at equal or better throughput"
    ~make_db:(fun tweak -> smallbank_db ~customers:1_000 ~tweak ())
    ~mix:(Smallbank.mix ~customers:1_000 ())
    ~tweaks:[ ("refinement-off", refinement false); ("refinement-on", refinement true) ]
    (bdb_budget budget)

(* Real LRU buffer pool vs the probabilistic read_miss model on the
   I/O-bound TPC-C++ configuration of Fig 6.13 — validating the DESIGN.md
   substitution. *)
let ablation_bufferpool =
  let scale = Tpcc.standard ~warehouses:10 in
  let pool pages c = { c with Config.buffer_pool = Some pages } in
  ssi_per_tweak ~fig_id:"ablation-bufferpool"
    ~title:"TPC-C++ 10 warehouses: probabilistic miss model vs real LRU buffer pool"
    ~expected:
      "a pool smaller than the hot set is I/O bound and thrashes as MPL grows (locality \
       dynamics the flat read_miss model cannot show); a pool covering the hot set recovers \
       in-memory throughput — validating the DESIGN.md substitution for Fig 6.13"
    ~make_db:(fun tweak -> tpcc_db ~tweak ~scale ())
    ~mix:(Tpcc.mix scale)
    ~tweaks:
      [
        ("read-miss 5%", fun c -> { c with Config.read_miss = 0.05 });
        ("LRU small", pool 2_500);
        ("LRU big", pool 200_000);
      ]

(* {1 Custom client loops}

   The driver applies one isolation level per run and has no pinned
   client, so mixed mode and the retention experiments run their own
   closed loop. *)

(* [mpl] closed-loop clients until [horizon]: client [c] draws from
   [Random.State.make [| seed; c |]] and runs [txn st] again and again. *)
let run_clients sim ~mpl ~seed ~horizon txn =
  for client = 1 to mpl do
    Sim.spawn sim (fun () ->
        let st = Random.State.make [| seed; client |] in
        let rec loop () =
          if Sim.now sim < horizon then begin
            txn st;
            loop ()
          end
        in
        loop ())
  done;
  Sim.run ~until:horizon sim

(* What one run of a client loop counted after its warmup, and its peak of
   retained records plus SIREAD entries. *)
type tally = { mutable commits : int; mutable unsafe : int; mutable peak : int }

let new_tally () = { commits = 0; unsafe = 0; peak = 0 }

let count tally ~sim ~warmup result =
  if Sim.now sim >= warmup then
    match result with
    | Ok () -> tally.commits <- tally.commits + 1
    | Error Types.Unsafe -> tally.unsafe <- tally.unsafe + 1
    | Error _ -> ()

(* One MPL point from [run mpl seed]'s tally for each of the budget's
   seeds: commits per second of the measured window with their 95%
   interval, unsafe aborts per commit, and the highest peak as the
   "(locks)" column. *)
let tally_point ~(budget : budget) ~run mpl =
  let tallies = List.map (run mpl) budget.seeds in
  let m, ci =
    Stats.ci95 (List.map (fun t -> float_of_int t.commits /. budget.duration) tallies)
  in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  let commits = sum (fun t -> t.commits) in
  {
    Driver.s_mpl = mpl;
    s_throughput = m;
    s_ci = ci;
    s_deadlock_rate = 0.0;
    s_conflict_rate = 0.0;
    s_unsafe_rate =
      (if commits > 0 then float_of_int (sum (fun t -> t.unsafe)) /. float_of_int commits
       else 0.0);
    s_user_abort_rate = 0.0;
    s_mean_response = 0.0;
    s_lock_table = float_of_int (List.fold_left (fun acc t -> max acc t.peak) 0 tallies);
    s_metrics = None;
  }

(* Mixed mode (§3.8): read-only queries at plain SI alongside SSI updates. *)
let ablation_mixed budget =
  let run queries_at mpl seed =
    let sim = Sim.create () in
    let db = sibench_db ~items:1000 () sim in
    let tally = new_tally () in
    run_clients sim ~mpl ~seed ~horizon:(budget.warmup +. budget.duration) (fun st ->
        let query = Random.State.bool st in
        let isolation = if query then queries_at else Types.Serializable in
        let body t = if query then ignore (Sibench.query t) else Sibench.update ~items:1000 st t in
        count tally ~sim ~warmup:budget.warmup (Db.run db isolation body));
    tally
  in
  plan ~fig_id:"ablation-mixed"
    ~title:"Queries at plain SI mixed with SSI updates (§3.8), sibench 1000"
    ~expected:"running read-only queries at SI removes their SIREAD overhead and unsafe \
               aborts; total throughput improves"
    budget
    [
      ("queries@SSI", tally_point ~budget ~run:(run Types.Serializable));
      ("queries@SI", tally_point ~budget ~run:(run Types.Snapshot));
    ]

(* The pinned-snapshot world of the retention experiments: 256 keys on an
   InnoDB engine without log flushes, one read-only SSI reader that reads 8
   keys and then holds its snapshot for [hold now] seconds ([now] is when
   its reads finished), and [mpl] clients running read-one-write-one SSI
   transactions until [horizon], each result passed to [outcome]. The pin
   keeps the oldest-active-snapshot watermark from reclaiming anything, so
   unbounded SSI retention (§4.8) grows with every commit while it holds. *)
let pinned_snapshot_run ?memory_budget ?obs ~hold ~outcome ~mpl ~horizon ~seed () =
  let keys = 256 in
  let key i = Printf.sprintf "k%03d" i in
  let sim = Sim.create () in
  let config =
    {
      (Config.innodb ~wal_mode:Wal.No_flush ()) with
      Config.lock_mutex = false;
      memory_budget;
      promote_threshold = 4;
    }
  in
  let db = Db.create ~config sim in
  Option.iter (Db.set_obs db) obs;
  ignore (Db.create_table db "t");
  Db.load db "t" (List.init keys (fun i -> (key i, "0")));
  Sim.spawn sim (fun () ->
      ignore
        (Db.run db Types.Serializable (fun t ->
             for i = 0 to 7 do
               ignore (Txn.read t "t" (key i))
             done;
             Sim.delay sim (hold (Sim.now sim)))));
  run_clients sim ~mpl ~seed ~horizon (fun st ->
      let r = key (Random.State.int st keys) in
      let w = key (Random.State.int st keys) in
      outcome db
        (Db.run db Types.Serializable (fun t ->
             ignore (Txn.read t "t" r);
             Txn.write t "t" w "1")));
  db

(* Bounded-memory SIREAD retention (Config.memory_budget) under a pin held
   for the whole window. The budget caps retention with row->page
   promotion and committed-transaction summarization, at the price of
   conservative (false-positive) unsafe aborts. The "(locks)" column
   reports the retained-records + live-SIREAD-entries high-water mark. *)
let ablation_retention budget =
  let horizon = budget.warmup +. budget.duration in
  let run memory_budget mpl seed =
    let tally = new_tally () in
    let outcome db result =
      count tally ~sim:(Db.sim db) ~warmup:budget.warmup result;
      tally.peak <- max tally.peak (Db.retained_count db + Db.siread_entry_count db)
    in
    ignore
      (pinned_snapshot_run ?memory_budget ~hold:(fun _ -> horizon) ~outcome ~mpl ~horizon ~seed ());
    tally
  in
  plan ~fig_id:"retention-budget"
    ~title:"SIREAD retention under a pinned snapshot: unbounded vs memory budget 256"
    ~expected:
      "unbounded retention grows with every commit while the pin holds (the lock column is \
       the retained+SIREAD high-water mark, far above MPL); the budget caps it near 256 via \
       promotion and summarization, costing a modest rise in conservative unsafe aborts at \
       similar throughput"
    budget
    [
      ("unbounded", tally_point ~budget ~run:(run None));
      ("budget=256", tally_point ~budget ~run:(run (Some 256)));
    ]

(* Timeline variant of the retention experiment: the same pinned-snapshot
   world, but the pin RELEASES at 60% of the horizon and the run carries a
   tracing+provenance sink. The timeline's retention gauges then show the
   §4.8 mechanism as a time series instead of a single high-water mark:
   SIREAD/retained ramp monotonically while the pin holds the
   oldest-active-snapshot watermark back, then fall after the release
   drains the suspended queue. Returns the sink and the horizon (pass both
   to [Timeline.of_obs ~horizon] so trailing quiet windows materialise). *)
let retention_timeline_run ?memory_budget ~mpl ~warmup ~duration ~seed () =
  let obs = Obs.create ~trace:true ~provenance:true ~metrics:true () in
  let horizon = warmup +. duration in
  let pin_release = warmup +. (0.6 *. duration) in
  let db =
    pinned_snapshot_run ?memory_budget ~obs
      ~hold:(fun now -> pin_release -. now)
      ~outcome:(fun _ _ -> ())
      ~mpl ~horizon ~seed ()
  in
  if not (Db.work_conserved db) then
    failwith "retention_timeline_run: wasted-work conservation violated";
  (obs, horizon)

(* {1 Registry} *)

let all_figures =
  [
    ("fig6.1", fig6_1);
    ("fig6.2", fig6_2);
    ("fig6.3", fig6_3);
    ("fig6.4", fig6_4);
    ("fig6.5", fig6_5);
    ("fig6.6", fig6_6);
    ("fig6.7", fig6_7);
    ("fig6.8", fig6_8);
    ("fig6.9", fig6_9);
    ("fig6.10", fig6_10);
    ("fig6.11", fig6_11);
    ("fig6.12", fig6_12);
    ("fig6.13", fig6_13);
    ("fig6.14", fig6_14);
    ("fig6.15", fig6_15);
    ("fig6.16", fig6_16);
    ("fig6.17", fig6_17);
    ("fig6.18", fig6_18);
    ("ablation-precise", ablation_precise);
    ("ablation-upgrade", ablation_upgrade);
    ("ablation-fixes", ablation_fixes);
    ("ablation-mutex", ablation_lock_mutex);
    ("ablation-mixed", ablation_mixed);
    ("ablation-bufferpool", ablation_bufferpool);
    ("ablation-ro", ablation_ro);
    ("retention-budget", ablation_retention);
  ]

let find_figure id = List.assoc_opt id all_figures

(* {1 Single-point workloads}

   The one registry behind the CLI's [--workload]: the MPL-sweep workload
   of a figure, reduced to one database builder and one mix. [tweak]
   adjusts each fresh database's configuration (e.g. a memory budget). *)
type workload = (Config.t -> Config.t) -> (Sim.t -> Db.t) * Driver.program list

let workloads : (string * workload) list =
  let tpcc = Tpcc.standard ~warehouses:1 in
  [
    ("smallbank", fun tweak -> (smallbank_db ~tweak (), Smallbank.mix ~customers:20_000 ()));
    ( "sibench",
      fun tweak -> (sibench_db ~tweak ~items:100 (), Sibench.mix ~items:100 ()) );
    ("tpcc", fun tweak -> (tpcc_db ~tweak ~scale:tpcc (), Tpcc.mix ~skip_ytd:true tpcc));
  ]

(* Run a batch of experiments: every (figure, series, MPL) point across
   all requested ids is submitted to the pool as one flat job list, then
   the figures print in request order — identical bytes to a sequential
   run, arbitrary parallelism across sweeps and figures. Raises
   [Invalid_argument] on an unknown id, before anything runs. *)
let run_many ?pool ?(budget = full_budget) fmt ids =
  let plan id =
    match find_figure id with
    | Some mk -> mk budget
    | None -> invalid_arg ("unknown experiment " ^ id)
  in
  List.iter (print_figure fmt) (eval_plans ?pool (List.map plan ids))
