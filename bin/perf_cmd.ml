(* [ssi_bench perf]: hot-path microbenchmarks plus a timed end-to-end sweep,
   emitted as machine-readable BENCH_ssi.json for the perf-regression gate
   (tools/check_bench.sh).

   Two different contracts coexist here and must not be confused:

   - Wall-clock numbers (wall_s, rate, the -j speedup curve) measure *this
     machine right now*; they vary run to run and are compared against a
     checked-in baseline only up to a generous regression factor.

   - The [check] value of each microbench and the end-to-end summary carried
     by the speedup sweep are *simulated* results: fully deterministic, and
     required to be identical at every -j. A mismatch is a correctness bug
     and fails the run immediately (exit 2), independent of any baseline. *)

open Cmdliner

let time f =
  let t0 = Unix.gettimeofday () in
  let check = f () in
  (Unix.gettimeofday () -. t0, check)

type entry = { e_name : string; e_runs : int; e_wall : float; e_check : float }

let rate e = if e.e_wall > 0.0 then float_of_int e.e_runs /. e.e_wall else 0.0

(* {1 Microbenchmarks} *)

(* Words allocated on the minor heap so far, read exactly: in OCaml 5.1
   [Gc.quick_stat] counts only minor heaps already collected, and its
   major-minus-promoted words move by a few words with GC timing, while
   [Gc.minor_words] includes the heap being filled. Deterministic on one
   domain. *)
let words () = Gc.minor_words ()

(* Run [body] as the measured loop, storing the words it allocated (the
   event loop's work included) in [words_out] when given. *)
let measured ?words_out body () =
  let w0 = words () in
  body ();
  Option.iter (fun r -> r := words () -. w0) words_out

(* The one table every engine workload below runs on: a fresh BDB-configured
   engine holding rows k000.. of table "t", with [obs] attached first. *)
let bdb_table ?obs keys =
  let sim = Sim.create () in
  let db = Core.Db.create ~config:(Core.Config.bdb ()) sim in
  Option.iter (Core.Db.set_obs db) obs;
  ignore (Core.Db.create_table db "t");
  Core.Db.load db "t" (List.init keys (fun i -> (Printf.sprintf "k%03d" i, "0")));
  (sim, db)

let commits db = float_of_int (Core.Db.stats db).Core.Internal.commits

(* [runs] SSI transactions round-robin over 256 rows, [body] given each
   row's key, run to completion; returns the commit count. *)
let round_robin ?obs ?words_out runs body =
  let sim, db = bdb_table ?obs 256 in
  Sim.spawn sim
    (measured ?words_out (fun () ->
         for i = 0 to runs - 1 do
           let key = Printf.sprintf "k%03d" (i mod 256) in
           ignore (Core.Db.run db Core.Types.Serializable (fun t -> body t key))
         done));
  Sim.run sim;
  (sim, commits db)

(* Full read+update transaction: begin, snapshot read, write,
   first-committer-wins check, commit. *)
let read_update t key =
  let v = Core.Txn.read_exn t "t" key in
  Core.Txn.write t "t" key (string_of_int (String.length v))

(* Read+update transactions against a populated table. [null_sink]
   attaches an observability sink with every channel off — the A/B side of
   the obs-overhead guard below. *)
let bench_commit_path ?words_out ?(null_sink = false) runs () =
  let obs = if null_sink then Some (Obs.create ~trace:false ~metrics:false ()) else None in
  snd (round_robin ?obs ?words_out runs read_update)

(* Raw lock-manager work: S grant, S->X upgrade, release, over a small hot
   set of resources (uncontended: measures table/queue bookkeeping). *)
let bench_lock_path ?words_out ?(null_sink = false) runs () =
  let sim = Sim.create () in
  let lm = Lockmgr.create sim in
  if null_sink then Lockmgr.set_obs lm (Obs.create ~trace:false ~metrics:false ());
  Sim.spawn sim
    (measured ?words_out (fun () ->
         for i = 0 to runs - 1 do
           let r = "r" ^ string_of_int (i mod 64) in
           Lockmgr.acquire lm ~owner:i ~mode:Lockmgr.S r;
           Lockmgr.acquire lm ~owner:i ~mode:Lockmgr.X r;
           Lockmgr.release_all lm i
         done));
  Sim.run sim;
  float_of_int runs

(* Read-only SSI transactions: every read takes a SIREAD lock and the commit
   path suspends/cleans the transaction record (§3.3 bookkeeping). *)
let bench_siread_path runs () =
  snd
    (round_robin runs (fun t key ->
         ignore (Core.Txn.read t "t" key);
         ignore (Core.Txn.read t "t" "k000")))

(* Shared bounded-memory workload: read-modify-write SSI transactions over a
   32-key hot set under a pinned snapshot and a small memory budget, so every
   commit exercises the budget-pressure path — row→page SIREAD promotion,
   committed-transaction summarization and summary expiry all fire (the pin
   keeps the oldest-active-snapshot watermark from reclaiming anything the
   easy way). [on_commit] is called after every writer commit, for probes
   that sample lock-table pressure. Fully simulated, hence deterministic. *)
let bounded_run ~runs ~on_commit =
  let sim = Sim.create () in
  let config =
    {
      (Core.Config.test ()) with
      Core.Config.record_history = false;
      memory_budget = Some 64;
      promote_threshold = 4;
    }
  in
  let db = Core.Db.create ~config sim in
  let keys = Array.init 32 (fun i -> Printf.sprintf "k%02d" i) in
  ignore (Core.Db.create_table db "t");
  Core.Db.load db "t" (("pin", "0") :: (Array.to_list keys |> List.map (fun k -> (k, "0"))));
  Sim.spawn sim (fun () ->
      ignore
        (Core.Db.run db Core.Types.Serializable (fun t ->
             ignore (Core.Txn.read t "t" "pin");
             for i = 0 to 11 do
               ignore (Core.Txn.read t "t" keys.(i))
             done;
             Sim.delay sim 1.0e6)));
  Sim.spawn sim (fun () ->
      Sim.delay sim 0.001;
      for i = 1 to runs do
        ignore
          (Core.Db.run db Core.Types.Serializable (fun t ->
               (* read a *different* key than we write: the SIREAD survives
                  commit (no §3.7.3 upgrade-release), so summarization has
                  lock-table entries to fold into the summary pool *)
               ignore (Core.Txn.read t "t" keys.((i + 7) mod 32));
               Core.Txn.write t "t" keys.(i mod 32) (string_of_int i)));
        on_commit db
      done);
  Sim.run sim;
  db

(* Bounded-memory hot path (§4.8 / Ports & Grittner-style summarization).
   The check folds in the summarized-transaction count so a silently
   disabled bounded mode shows up as a check mismatch, not as a fast no-op. *)
let bench_summarize_path runs () =
  let db = bounded_run ~runs ~on_commit:(fun _ -> ()) in
  float_of_int ((Core.Db.stats db).Core.Internal.commits + Core.Db.summarized_count db)

(* B+tree inserts in pseudo-random key order (forcing splits at fanout 16)
   followed by a full range scan. *)
let bench_btree runs () =
  let t = Btree.create ~fanout:16 () in
  let x = ref 12345 in
  for _ = 1 to runs do
    (* deterministic LCG so the split pattern is fixed *)
    x := ((!x * 1103515245) + 12345) land 0xFFFFFF;
    ignore (Btree.insert t (Printf.sprintf "k%08d" !x) !x)
  done;
  let n = ref 0 in
  Btree.iter_range t (fun _ _ -> incr n);
  float_of_int !n

(* MVSG build + cycle search over a synthetic 100-transaction history with a
   read/write overlap pattern dense enough to produce real edges. *)
let bench_mvsg runs () =
  let txns = 100 in
  let history =
    List.init txns (fun i ->
        let key j = Printf.sprintf "k%02d" (j mod 17) in
        {
          Core.Types.h_id = i + 1;
          h_isolation = Core.Types.Serializable;
          h_snapshot = 2 * i;
          h_commit = (2 * i) + 3;
          h_reads =
            [
              { Core.Types.r_table = "t"; r_key = key i; r_version = i };
              { Core.Types.r_table = "t"; r_key = key (i + 5); r_version = i };
            ];
          h_writes = [ ("t", key (i + 1)); ("t", key (i + 9)) ];
        })
  in
  let cycles = ref 0 in
  for _ = 1 to runs do
    let g = Mvsg.build history in
    if Mvsg.find_cycle g <> None then incr cycles
  done;
  float_of_int !cycles /. float_of_int runs

let micros ~quick =
  let s = if quick then 1 else 8 in
  [
    ("commit-path", 1000 * s, fun runs -> bench_commit_path runs);
    ("lock-acquire-release", 5000 * s, fun runs -> bench_lock_path runs);
    ("siread-bookkeeping", 1000 * s, bench_siread_path);
    ("summarize-path", 1000 * s, bench_summarize_path);
    ("btree-insert-scan", 20000 * s, bench_btree);
    ("mvsg-check", 50 * s, bench_mvsg);
  ]

(* The timeline over [obs] in 64 windows up to [horizon], rendered as CSV
   and scanned for regime shifts. *)
let build_timeline obs horizon =
  let tl = Option.get (Timeline.of_obs ~window:(horizon /. 64.0) ~horizon obs) in
  Timeline.to_csv (Buffer.create 4096) tl;
  ignore (Timeline.change_points tl ~series:"throughput");
  tl

(* Timeline-build arm: both sides run the same traced commit-path workload;
   the B side additionally builds the windowed timeline (64 windows), runs
   change-point detection and renders the CSV from the captured buffer. The
   delta is the cost of the timeline layer itself on top of a traced run —
   a single post-hoc pass over the event list, far off the simulation's own
   cost. The B side does more work by design, so tools/check_bench.sh gates
   this delta at its own, wider bound. *)
let bench_timeline_path ?(null_sink = false) runs () =
  let obs = Obs.create ~trace:true ~provenance:true () in
  let sim, commits = round_robin ~obs runs read_update in
  if null_sink then ignore (build_timeline obs (Sim.now sim));
  commits

(* Sketch arm: the B side attaches a sink with *only* the attribution
   sketch on, so the measured delta bounds the cost of the per-resource
   heavy-hitter updates (one hash probe + counter bump per conflict edge,
   SIREAD grant or lock wait) in the live commit path. *)
let bench_commit_path_sketch ?(null_sink = false) runs () =
  let obs =
    if null_sink then Some (Obs.create ~trace:false ~metrics:false ~sketch:256 ()) else None
  in
  snd (round_robin ?obs runs read_update)

(* {1 Observability-overhead guard}

   "Zero cost when no sink is installed": every hot-path observability call
   is guarded on the sink's channel flags, and the default sink
   [Obs.disabled] has every channel off. The A/B below runs the hottest
   microbenches in both modes — stock (no sink installed) and with a freshly
   created sink attached whose channels are all off — back to back. The
   attached run does strictly more work than the no-sink run (installation
   propagates the sink to the lock manager, WAL and resources), so the
   measured delta bounds the cost of carrying the instrumentation in the
   disabled hot paths.

   Two measures of these channels-off arms, both gated by
   tools/check_bench.sh:
   - Words allocated by the measured loop, counted once per mode. They are
     deterministic, so any allocation that depends on a sink being
     installed makes them differ, and the gate requires them equal.
   - Wall clock: the median of the per-rep paired ratios, so one-sided
     noise in a few reps neither hides nor fakes a systematic overhead. Any
     delta above OBS_OVERHEAD_MAX percent fails; the default (10) sits above
     the spread identical code shows on a shared machine.
   The timeline and sketch arms price features that are on. Their wall
   deltas are gated too: the sketch arm's at the same bound, the timeline
   arm's at a fixed, wider one. *)

type ab = {
  ab_name : string;
  ab_runs : int;
  ab_off : float;  (** median wall, no sink installed *)
  ab_null : float;  (** median wall, channels-off sink installed *)
  ab_delta_pct : float;  (** median paired per-rep ratio, as a percentage *)
  ab_words : (float * float) option;
      (** words allocated by the measured loop: no sink, channels-off sink *)
}

let median l =
  let a = List.sort compare l in
  List.nth a (List.length a / 2)

let obs_overhead ~quick =
  (* Each rep measures the two modes back to back and contributes one
     paired ratio; pairing cancels slow drift (thermal, co-tenants), and
     which side runs first alternates. The per-rep workloads are larger than
     the plain microbenches so timer noise shrinks relative to the run. *)
  let s = if quick then 8 else 32 in
  let reps = if quick then 11 else 15 in
  let measure ?(count_words = false) name runs
      (f : ?words_out:float ref -> ?null_sink:bool -> int -> unit -> float) =
    let pairs =
      List.init reps (fun i ->
          let run null_sink = fst (time (fun () -> f ~null_sink runs ())) in
          if i mod 2 = 0 then
            let w = run false in
            (w, run true)
          else
            let w' = run true in
            (run false, w'))
    in
    let ratio (w, w') = if w > 0.0 then w' /. w else 1.0 in
    let words null_sink =
      let r = ref 0.0 in
      ignore (f ~words_out:r ~null_sink runs ());
      !r
    in
    {
      ab_name = name;
      ab_runs = runs;
      ab_off = median (List.map fst pairs);
      ab_null = median (List.map snd pairs);
      ab_delta_pct = 100.0 *. (median (List.map ratio pairs) -. 1.0);
      ab_words = (if count_words then Some (words false, words true) else None);
    }
  in
  (* the feature arms count no words *)
  let no_words f ?words_out:_ = f in
  [
    measure ~count_words:true "commit-path" (1000 * s) bench_commit_path;
    measure ~count_words:true "lock-acquire-release" (5000 * s) bench_lock_path;
    measure "timeline-build" (1000 * s) (no_words bench_timeline_path);
    measure "commit-path-sketch" (1000 * s) (no_words bench_commit_path_sketch);
  ]

(* {1 Timeline probe}

   Deterministic checks for the windowed-telemetry layer, same contract as
   the memory/recovery probes: a contended traced run whose commit count,
   wasted-work total and window count are simulated results (identical on
   every host), plus the wall-clock cost of one timeline build+CSV render
   and the ledger conservation verdict. tools/check_bench.sh fails `@ci`
   unless [conserved] — a false here means a commit or abort path skipped
   its work-banking hook. *)

type timeline_probe = {
  tp_commits : int;  (** deterministic *)
  tp_aborts : int;  (** deterministic: error aborts in the timeline *)
  tp_windows : int;  (** deterministic *)
  tp_wasted : float;  (** deterministic: total wasted sim-time work *)
  tp_conserved : bool;  (** ledger conservation at end of run *)
  tp_build_s : float;  (** median wall seconds per build+CSV render *)
}

(* The timeline and attribution probes' workload: 8 clients running
   read-one-write-one SSI transactions over 64 keys under [obs], contended
   so the run carries real aborts and the wasted-work side of the ledger is
   exercised, not just commits. *)
let contended_run ~quick obs =
  let clients = 8 and keys = 64 in
  let per_client = (if quick then 4000 else 16_000) / clients in
  let sim, db = bdb_table ~obs keys in
  for client = 1 to clients do
    Sim.spawn sim (fun () ->
        let st = Random.State.make [| 7; client |] in
        for _ = 1 to per_client do
          let r = Printf.sprintf "k%03d" (Random.State.int st keys) in
          let w = Printf.sprintf "k%03d" (Random.State.int st keys) in
          ignore
            (Core.Db.run db Core.Types.Serializable (fun t ->
                 ignore (Core.Txn.read t "t" r);
                 Core.Txn.write t "t" w "1"))
        done)
  done;
  Sim.run sim;
  (sim, db)

let timeline_probe ~quick =
  let obs = Obs.create ~trace:true ~provenance:true () in
  let sim, db = contended_run ~quick obs in
  let horizon = Sim.now sim in
  let walls =
    List.init 5 (fun _ -> fst (time (fun () -> ignore (build_timeline obs horizon); 0.0)))
  in
  let tl = build_timeline obs horizon in
  let tt = Timeline.totals tl in
  {
    tp_commits = tt.Timeline.tt_commits;
    tp_aborts = tt.Timeline.tt_aborts;
    tp_windows = Array.length tl.Timeline.tl_windows;
    tp_wasted = (Core.Db.work_profile db).Core.Db.wp_wasted;
    tp_conserved = Core.Db.work_conserved db;
    tp_build_s = median walls;
  }

(* {1 Bounded-memory probe}

   A fixed 10k-commit bounded run (same workload as the summarize-path
   microbench) sampled after every commit. Everything here is simulated, so
   the numbers are deterministic and gateable: tools/check_bench.sh fails
   `@ci` unless [within_budget] — retained committed-transaction records
   plus live SIREAD lock-table entries never exceeded the budget. *)

type memory_probe = {
  mp_budget : int;
  mp_commits : int;
  mp_max_pressure : int;  (** max over commits of retained records + live SIREAD entries *)
  mp_summarized : int;
  mp_promotions : int;
  mp_summary_hwm : int;
}

let mp_within_budget m = m.mp_max_pressure <= m.mp_budget

let memory_probe () =
  let max_pressure = ref 0 in
  let summary_hwm = ref 0 in
  let db =
    bounded_run ~runs:10_000 ~on_commit:(fun db ->
        let p = Core.Db.retained_count db + Core.Db.siread_entry_count db in
        if p > !max_pressure then max_pressure := p;
        let s = Core.Db.summary_size db in
        if s > !summary_hwm then summary_hwm := s)
  in
  {
    mp_budget = 64;
    mp_commits = (Core.Db.stats db).Core.Internal.commits;
    mp_max_pressure = !max_pressure;
    mp_summarized = Core.Db.summarized_count db;
    mp_promotions = Core.Db.promotion_count db;
    mp_summary_hwm = !summary_hwm;
  }

(* {1 Recovery probe}

   Replay cost of the crash-recovery path (PR 6): a simulated workload of
   read-modify-write transactions with periodic checkpoints produces a WAL
   image, which is then recovered repeatedly into fresh engines. Wall-clock
   µs/record is the baseline-gated rate; the committed count and restored
   horizon are simulated results — deterministic, identical on every run —
   so a recovery that silently drops transactions shows up as a changed
   check, not just a faster replay. Checkpoint cost is measured separately
   on a standalone log (append + checkpoint per iteration). *)

type recovery_probe = {
  rv_records : int;  (** log records replayed per recovery *)
  rv_replay_s : float;  (** median wall seconds per recovery *)
  rv_us_per_record : float;
  rv_checkpoint_us : float;  (** median wall µs per checkpoint (append+harden) *)
  rv_committed : int;  (** deterministic: committed transactions recovered *)
  rv_horizon : int;  (** deterministic: restored last_commit_ts *)
}

let recovery_probe ~quick =
  let txns = if quick then 2_000 else 8_000 in
  let log =
    let sim = Sim.create () in
    let config =
      {
        (Core.Config.test ()) with
        Core.Config.record_history = false;
        checkpoint_interval = Some 64;
      }
    in
    let db = Core.Db.create ~config sim in
    ignore (Core.Db.create_table db "t");
    Core.Db.load db "t" (List.init 64 (fun i -> (Printf.sprintf "k%02d" i, "0")));
    Sim.spawn sim (fun () ->
        for i = 1 to txns do
          ignore
            (Core.Db.run db Core.Types.Serializable (fun t ->
                 ignore (Core.Txn.read t "t" (Printf.sprintf "k%02d" (i mod 64)));
                 Core.Txn.write t "t"
                   (Printf.sprintf "k%02d" (i * 7 mod 64))
                   (string_of_int i)))
        done);
    Sim.run sim;
    Wal.harden (Core.Db.wal db);
    Wal.durable_log (Core.Db.wal db)
  in
  let recover_once () =
    match Core.Db.recover (Sim.create ()) ~log with
    | Ok (db, rep) -> (Core.Db.last_commit_ts db, rep)
    | Error e ->
        Printf.eprintf "FATAL: recovery probe failed to recover its own log: %s\n" e;
        exit 2
  in
  let reps = if quick then 5 else 9 in
  let walls = List.init reps (fun _ -> fst (time recover_once)) in
  let horizon, rep = recover_once () in
  let replay_s = median walls in
  let checkpoint_us =
    let iters = if quick then 2_000 else 10_000 in
    let sim = Sim.create () in
    let wal = Wal.create sim ~mode:Wal.No_flush in
    let wall, _ =
      time (fun () ->
          for i = 1 to iters do
            Wal.append wal (Wal.Write { txn = i; table = "t"; key = "k"; value = "v" });
            Wal.checkpoint wal ~watermark:i ~next_ts:i
          done;
          0.0)
    in
    1.0e6 *. wall /. float_of_int iters
  in
  {
    rv_records = rep.Core.Db.r_replayed;
    rv_replay_s = replay_s;
    rv_us_per_record =
      (if rep.Core.Db.r_replayed > 0 then
         1.0e6 *. replay_s /. float_of_int rep.Core.Db.r_replayed
       else 0.0);
    rv_checkpoint_us = checkpoint_us;
    rv_committed = rep.Core.Db.r_committed;
    rv_horizon = horizon;
  }

(* {1 Exploration probe}

   The DPOR schedule explorer on the write-skew 4-cycle (full mode) or the
   §4.7 5-chain (quick): wall-clock schedules/sec is the baseline-style
   rate, while the executed count, distinct-outcome count and reduction
   factor are simulated results — deterministic, identical on every run.
   tools/check_bench.sh fails `@ci` if the reduction factor drops below 4
   (the acceptance threshold; in practice it is orders of magnitude
   higher). *)

type explore_probe = {
  xp_spec : string;
  xp_executed : int;  (** deterministic: schedules executed *)
  xp_bound : int;  (** multinomial brute-force count *)
  xp_outcomes : int;  (** deterministic: distinct outcome digests *)
  xp_reduction : float;  (** bound / executed *)
  xp_wall : float;
  xp_rate : float;  (** schedules per wall second *)
}

let explore_probe ~quick =
  let spec_name, spec =
    if quick then ("paper-4.7-5", Interleave.paper_spec_5)
    else ("write-skew-4", Interleave.write_skew_spec_4)
  in
  let wall, (digests, st) =
    time (fun () -> Explore.explore ~isolation:Core.Types.Serializable spec)
  in
  {
    xp_spec = spec_name;
    xp_executed = st.Explore.executed;
    xp_bound = st.Explore.bound;
    xp_outcomes = List.length digests;
    xp_reduction =
      float_of_int st.Explore.bound /. float_of_int (max 1 st.Explore.executed);
    xp_wall = wall;
    xp_rate = (if wall > 0.0 then float_of_int st.Explore.executed /. wall else 0.0);
  }

(* {1 Attribution probe}

   The per-resource contention sketch (PR 10): the deterministic side runs
   the timeline probe's contended workload with a sketch-carrying sink and
   reports the update count, tracked cardinality, worst per-entry overcount
   and total certificate blame — all simulated results, identical on every
   host. The wall side is a pure sketch microbench (capacity 256 under a
   4096-key LCG stream, so evictions fire constantly) reported as ns per
   update. tools/check_bench.sh fails `@ci` if the deterministic side
   recorded nothing or the overcount breaks the N/capacity bound. *)

type attrib_probe = {
  at_updates : int;  (** deterministic: sketch updates in the traced run *)
  at_tracked : int;  (** deterministic: resources tracked at end of run *)
  at_error_bound : int;  (** deterministic: max per-entry overcount *)
  at_blame : int;  (** deterministic: blame counters after the cert fold *)
  at_update_ns : float;  (** median wall ns per sketch update *)
}

let attrib_probe ~quick =
  let obs = Obs.create ~trace:false ~metrics:false ~provenance:true ~sketch:256 () in
  ignore (contended_run ~quick obs);
  let sk = Option.get (Obs.sketch obs) in
  Attrib.blame sk (Obs.certs obs);
  let blame =
    List.fold_left
      (fun acc (_, s) ->
        acc + s.Sketch.st_blame_in + s.Sketch.st_blame_out + s.Sketch.st_blame_fcw)
      0 (Sketch.entries sk)
  in
  (* Pure update cost: precomputed keys so the measurement is the sketch
     probe + bump, not string formatting. *)
  let pool = Array.init 4096 (Printf.sprintf "r/t/k%04d") in
  let n = (if quick then 200_000 else 1_000_000) in
  let bench () =
    let s = Sketch.create ~capacity:256 in
    let x = ref 12345 in
    for _ = 1 to n do
      x := ((!x * 1103515245) + 12345) land 0xFFF;
      let st = Sketch.touch s pool.(!x) in
      st.Sketch.st_conflicts <- st.Sketch.st_conflicts + 1
    done;
    0.0
  in
  let walls = List.init 5 (fun _ -> fst (time bench)) in
  {
    at_updates = Sketch.total sk;
    at_tracked = Sketch.cardinality sk;
    at_error_bound = Sketch.error_bound sk;
    at_blame = blame;
    at_update_ns = median walls /. float_of_int n *. 1e9;
  }

(* {1 End-to-end sweep: wall time and determinism across -j} *)

type sweep_point = { sp_j : int; sp_wall : float; sp_speedup : float }

(* Run the same fuzz campaign at each -j: wall time gives the speedup curve;
   the summaries must be identical or the harness itself is broken. *)
let sweep ~quick =
  let cases = if quick then 400 else 2000 in
  let campaign pool =
    Fuzz.run_campaign ?pool ~seed:3 ~cases ~matrix:Fuzzcase.matrix_full ()
  in
  let fingerprint (s : Fuzz.summary) =
    (s.Fuzz.s_cases, s.Fuzz.s_si_anomalies, s.Fuzz.s_ssi_unsafe, s.Fuzz.s_false_positives,
     List.length s.Fuzz.s_failures)
  in
  let points =
    List.map
      (fun j ->
        let wall, s =
          time (fun () ->
              if j = 1 then campaign None else Par.with_pool ~j (fun p -> campaign (Some p)))
        in
        (j, wall, fingerprint s))
      [ 1; 2; 4 ]
  in
  let _, base_wall, base_fp = List.hd points in
  List.iter
    (fun (j, _, fp) ->
      if fp <> base_fp then begin
        Printf.eprintf "FATAL: end-to-end sweep result differs between -j 1 and -j %d\n" j;
        exit 2
      end)
    points;
  List.map
    (fun (j, wall, _) ->
      { sp_j = j; sp_wall = wall; sp_speedup = (if wall > 0.0 then base_wall /. wall else 0.0) })
    points

(* {1 JSON emission and baseline parsing} *)

(* One bench object per line, so the baseline comparison (here and in
   tools/check_bench.sh) can parse without a JSON library. *)
let emit_json oc ~quick entries sweep_points ab_entries tp mp rv xp ap =
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": \"ssi-bench/1\",\n";
  Printf.fprintf oc "  \"quick\": %b,\n" quick;
  Printf.fprintf oc "  \"recommended_domains\": %d,\n" (Par.recommended ());
  Printf.fprintf oc "  \"benches\": [\n";
  let n = List.length entries in
  List.iteri
    (fun i e ->
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"runs\": %d, \"wall_s\": %.6f, \"rate\": %.1f, \"check\": %.6f}%s\n"
        e.e_name e.e_runs e.e_wall (rate e) e.e_check
        (if i = n - 1 then "" else ","))
    entries;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"speedup\": [\n";
  let m = List.length sweep_points in
  List.iteri
    (fun i p ->
      Printf.fprintf oc "    {\"j\": %d, \"wall_s\": %.6f, \"speedup\": %.3f}%s\n" p.sp_j
        p.sp_wall p.sp_speedup
        (if i = m - 1 then "" else ","))
    sweep_points;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"obs_overhead\": [\n";
  let k = List.length ab_entries in
  List.iteri
    (fun i a ->
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"runs\": %d, \"no_sink_s\": %.6f, \"null_sink_s\": %.6f, \
         \"delta_pct\": %.3f%s}%s\n"
        a.ab_name a.ab_runs a.ab_off a.ab_null a.ab_delta_pct
        (match a.ab_words with
        | Some (w, w') -> Printf.sprintf ", \"no_sink_words\": %.0f, \"null_sink_words\": %.0f" w w'
        | None -> "")
        (if i = k - 1 then "" else ","))
    ab_entries;
  Printf.fprintf oc "  ],\n";
  (* Timeline probe: deterministic commit/abort/window/wasted-work checks
     plus the conservation verdict and the wall cost of one build (one
     line, same greppable convention). *)
  Printf.fprintf oc
    "  \"timeline\": {\"commits\": %d, \"aborts\": %d, \"windows\": %d, \"wasted_s\": %.6f, \
     \"conserved\": %b, \"build_s\": %.6f},\n"
    tp.tp_commits tp.tp_aborts tp.tp_windows tp.tp_wasted tp.tp_conserved tp.tp_build_s;
  (* Deterministic bounded-memory columns (one line, greppable without a JSON
     library — same convention as the bench lines above). *)
  Printf.fprintf oc
    "  \"memory\": {\"budget\": %d, \"commits\": %d, \"max_pressure\": %d, \"within_budget\": \
     %b, \"summarized\": %d, \"promotions\": %d, \"summary_hwm\": %d},\n"
    mp.mp_budget mp.mp_commits mp.mp_max_pressure (mp_within_budget mp) mp.mp_summarized
    mp.mp_promotions mp.mp_summary_hwm;
  (* Recovery replay rate plus its deterministic committed/horizon checks
     (one line, same greppable convention). *)
  Printf.fprintf oc
    "  \"recovery\": {\"records\": %d, \"replay_s\": %.6f, \"us_per_record\": %.3f, \
     \"checkpoint_us\": %.3f, \"committed\": %d, \"horizon\": %d},\n"
    rv.rv_records rv.rv_replay_s rv.rv_us_per_record rv.rv_checkpoint_us rv.rv_committed
    rv.rv_horizon;
  (* DPOR explorer line: executed/bound/outcomes are deterministic, the rate
     is wall-clock (one line, same greppable convention). *)
  Printf.fprintf oc
    "  \"exploration\": {\"spec\": \"%s\", \"executed\": %d, \"bound\": %d, \"outcomes\": %d, \
     \"reduction\": %.1f, \"wall_s\": %.6f, \"schedules_per_s\": %.1f},\n"
    xp.xp_spec xp.xp_executed xp.xp_bound xp.xp_outcomes xp.xp_reduction xp.xp_wall xp.xp_rate;
  (* Attribution sketch: deterministic update/cardinality/overcount/blame
     checks plus the sketch-update wall cost (one line, same greppable
     convention; deliberately no "name"/"rate" pair, which would make
     [parse_baseline] read it as a bench line). *)
  Printf.fprintf oc
    "  \"attribution\": {\"updates\": %d, \"tracked\": %d, \"error_bound\": %d, \"blame\": %d, \
     \"sketch_update_ns\": %.2f}\n"
    ap.at_updates ap.at_tracked ap.at_error_bound ap.at_blame ap.at_update_ns;
  Printf.fprintf oc "}\n"

(* Tiny substring scanners so the baseline loads without a JSON library. *)
let after line marker =
  let ml = String.length marker in
  let n = String.length line in
  let rec go i =
    if i + ml > n then None
    else if String.sub line i ml = marker then Some (i + ml)
    else go (i + 1)
  in
  go 0

let find_quoted line marker =
  match after line marker with
  | None -> None
  | Some i -> (
      match String.index_from_opt line i '"' with
      | None -> None
      | Some j -> Some (String.sub line i (j - i)))

let find_float line marker =
  match after line marker with
  | None -> None
  | Some i ->
      let n = String.length line in
      let j = ref i in
      while
        !j < n
        && (match line.[!j] with '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true | _ -> false)
      do
        incr j
      done;
      float_of_string_opt (String.sub line i (!j - i))

(* Extract ("name", rate) pairs from a BENCH_ssi.json written by [emit_json]
   (or hand-maintained in the same one-object-per-line shape). *)
let parse_baseline file : (string * float) list =
  let ic = open_in file in
  let out = ref [] in
  (try
     while true do
       let line = input_line ic in
       (* only bench lines carry both a name and a rate *)
       match (find_quoted line "\"name\": \"", find_float line "\"rate\": ") with
       | Some name, Some r -> out := (name, r) :: !out
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  List.rev !out

let compare_baseline ~max_regress entries baseline =
  let failures = ref 0 in
  List.iter
    (fun e ->
      match List.assoc_opt e.e_name baseline with
      | None -> Printf.printf "  %-22s %10.0f /s  (no baseline)\n" e.e_name (rate e)
      | Some base_rate ->
          let r = rate e in
          let factor = if r > 0.0 then base_rate /. r else infinity in
          let flag = factor > max_regress in
          if flag then incr failures;
          Printf.printf "  %-22s %10.0f /s  baseline %10.0f /s  x%.2f%s\n" e.e_name r base_rate
            factor
            (if flag then "  REGRESSION" else ""))
    entries;
  !failures

let run quick out baseline max_regress =
  (* Each microbench's wall is the median of [reps] runs, so a run that
     shares the machine with other jobs for part of its time neither fails
     nor passes the baseline gate on its own. The check must not vary. *)
  let reps = if quick then 7 else 3 in
  let entries =
    List.map
      (fun (name, runs, f) ->
        let timed = List.init reps (fun _ -> time (fun () -> f runs ())) in
        let check = snd (List.hd timed) in
        if List.exists (fun (_, c) -> c <> check) timed then begin
          Printf.eprintf "FATAL: %s check differs between repetitions\n" name;
          exit 2
        end;
        let wall = median (List.map fst timed) in
        let e = { e_name = name; e_runs = runs; e_wall = wall; e_check = check } in
        Printf.printf "  %-22s %8d runs  %8.3fs  %10.0f /s  check=%g\n%!" name runs wall
          (rate e) check;
        e)
      (micros ~quick)
  in
  print_endline "  end-to-end fuzz sweep (identical results required at every -j):";
  let sw = sweep ~quick in
  List.iter
    (fun p -> Printf.printf "    -j %d  %8.3fs  speedup x%.2f\n%!" p.sp_j p.sp_wall p.sp_speedup)
    sw;
  print_endline "  obs overhead (median wall and loop words, no sink vs channels-off sink installed):";
  let ab = obs_overhead ~quick in
  List.iter
    (fun a ->
      Printf.printf "    %-22s %8.3fs vs %8.3fs  delta %+.2f%%%s\n%!" a.ab_name a.ab_off a.ab_null
        a.ab_delta_pct
        (match a.ab_words with
        | Some (w, w') -> Printf.sprintf "  words %.0f vs %.0f" w w'
        | None -> ""))
    ab;
  print_endline "  timeline probe (traced contended run, deterministic checks):";
  let tp = timeline_probe ~quick in
  Printf.printf
    "    %d commits  %d aborts  %d windows  wasted %.4fs  build %.4fs  %s\n%!" tp.tp_commits
    tp.tp_aborts tp.tp_windows tp.tp_wasted tp.tp_build_s
    (if tp.tp_conserved then "CONSERVED" else "LEDGER VIOLATION");
  if not tp.tp_conserved then begin
    Printf.eprintf "FATAL: wasted-work ledger violated conservation\n";
    exit 2
  end;
  print_endline "  bounded-memory probe (10k commits under budget 64, deterministic):";
  let mp = memory_probe () in
  Printf.printf "    max pressure %d/%d  summarized %d  promotions %d  summary hwm %d  %s\n%!"
    mp.mp_max_pressure mp.mp_budget mp.mp_summarized mp.mp_promotions mp.mp_summary_hwm
    (if mp_within_budget mp then "WITHIN BUDGET" else "OVER BUDGET");
  if not (mp_within_budget mp) then begin
    Printf.eprintf "FATAL: bounded run exceeded its memory budget (%d > %d)\n" mp.mp_max_pressure
      mp.mp_budget;
    exit 2
  end;
  print_endline "  recovery probe (WAL replay into a fresh engine, deterministic checks):";
  let rv = recovery_probe ~quick in
  Printf.printf
    "    %d records in %.3fs (%.2f us/record)  checkpoint %.2f us  committed %d  horizon %d\n%!"
    rv.rv_records rv.rv_replay_s rv.rv_us_per_record rv.rv_checkpoint_us rv.rv_committed
    rv.rv_horizon;
  print_endline "  exploration probe (DPOR vs multinomial bound, deterministic counts):";
  let xp = explore_probe ~quick in
  Printf.printf
    "    %s: %d of %d schedules (%.1fx reduction)  %d outcomes  %.3fs  %.0f schedules/s\n%!"
    xp.xp_spec xp.xp_executed xp.xp_bound xp.xp_reduction xp.xp_outcomes xp.xp_wall xp.xp_rate;
  print_endline "  attribution probe (contention sketch, deterministic checks):";
  let ap = attrib_probe ~quick in
  Printf.printf "    %d updates  %d tracked  overcount<=%d  blame %d  %.1f ns/update\n%!"
    ap.at_updates ap.at_tracked ap.at_error_bound ap.at_blame ap.at_update_ns;
  let oc = open_out out in
  emit_json oc ~quick entries sw ab tp mp rv xp ap;
  close_out oc;
  Printf.printf "  wrote %s\n" out;
  match baseline with
  | None -> ()
  | Some file ->
      Printf.printf "  baseline %s (max regression factor %.1f):\n" file max_regress;
      let failures = compare_baseline ~max_regress entries (parse_baseline file) in
      if failures > 0 then begin
        Printf.printf "  %d bench(es) regressed more than %.1fx\n" failures max_regress;
        exit 1
      end

let cmd =
  let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced iteration counts") in
  let out_arg =
    Arg.(
      value
      & opt string "BENCH_ssi.json"
      & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the JSON report")
  in
  let baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:"Compare against a previous report; exit 1 on regression")
  in
  let regress_arg =
    Arg.(
      value & opt float 2.0
      & info [ "max-regress" ] ~docv:"F"
          ~doc:"Maximum allowed slowdown factor vs the baseline (wall clock is noisy; keep generous)")
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:
         "Hot-path microbenchmarks and a timed end-to-end sweep; writes BENCH_ssi.json and \
          optionally gates on a baseline")
    Term.(const run $ quick_arg $ out_arg $ baseline_arg $ regress_arg)
