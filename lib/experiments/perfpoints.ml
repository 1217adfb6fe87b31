(* Perf points: fixed workloads whose cost is counted exactly.

   A point runs one workload from a fixed start. Set-up (building and
   loading its database) is not measured, except by the point that
   measures nothing else. Over the measured part it counts
   the minor words allocated, read with [Gc.minor_words], which includes
   the minor heap being filled, and, where it runs a lock manager, a
   simulator or a B+tree, their lock requests, events and descents. On one
   domain every count repeats exactly, whatever ran before, so
   test/test_pins.ml pins them per unit of work (test/pins.txt), and
   [ssi_bench perf] prints them beside wall-clock times.

   The unit of work is a transaction for the engine points; an
   acquire-upgrade-release for the lock point; a charge for the simulator
   point; an insert for the B+tree; a graph check for MVSG; an update for
   the sketch; a schedule for the exploration; a recorded transaction for
   the timeline build alone; a loaded row for the TPC-C++ set-up. *)

open Core

type sample = {
  units : int;  (** work done *)
  check : int;  (** a result of the run that must not change *)
  counts : (string * float) list;  (** per unit of work: words first *)
  wall : float;  (** seconds spent in the measured part *)
}

(* Start measuring a workload that is set up; [counters] reads its running
   totals. Words are read last on start and first on stop, so reading the
   counters is not counted. *)
let start counters =
  let before = counters () in
  let t0 = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  fun ~units ~check ->
    let words = Gc.minor_words () -. w0 in
    let wall = Unix.gettimeofday () -. t0 in
    let per x = x /. float_of_int (max 1 units) in
    let delta (c, a) (_, b) = (c, per (float_of_int (b - a))) in
    { units; check; counts = ("words", per words) :: List.map2 delta before (counters ()); wall }

let no_counters () = []

(* Every counter a point may report, in the order [perf] prints them. *)
let counters = [ "words"; "requests"; "events"; "descents" ]

(* [f] summed over an engine's tables. *)
let sum_tables db f = Hashtbl.fold (fun _ s n -> n + f s) db.Internal.tables 0

let descents db = sum_tables db (fun s -> Btree.descents (Mvstore.index s))

(* An engine's lock requests, simulator events and B+tree descents. *)
let engine db () =
  [
    ("requests", Lockmgr.requests (Db.locks db));
    ("events", Sim.events (Db.sim db));
    ("descents", descents db);
  ]

let commits db = (Db.stats db).Internal.commits

(* [runs] SSI transactions round-robin over the 256 rows of a fresh
   BDB-configured engine, [body] given each row's key, with [obs] attached
   before loading. [finish] ends the measured part and gives the check. *)
let round_robin ?obs ?(finish = commits) runs body =
  let sim = Sim.create () in
  let db = Db.create ~config:(Config.bdb ()) sim in
  Option.iter (Db.set_obs db) obs;
  ignore (Db.create_table db "t");
  Db.load db "t" (List.init 256 (fun i -> (Printf.sprintf "k%03d" i, "0")));
  let stop = start (engine db) in
  Sim.spawn sim (fun () ->
      for i = 0 to runs - 1 do
        let key = Printf.sprintf "k%03d" (i mod 256) in
        ignore (Db.run db Types.Serializable (fun t -> body t key))
      done);
  Sim.run sim;
  stop ~units:runs ~check:(finish db)

(* Full read+update transactions: begin, snapshot read, write,
   first-committer-wins check, commit. *)
let commit_path ?obs ?finish runs =
  round_robin ?obs ?finish runs (fun t key ->
      let v = Txn.read_exn t "t" key in
      Txn.write t "t" key (string_of_int (String.length v)))

(* The commit path with a sink that has only the attribution sketch on: one
   hash probe and counter bump per SIREAD grant, conflict edge or lock
   wait. The check is the sketch's update count. *)
let commit_path_sketch runs =
  let obs = Obs.create ~trace:false ~metrics:false ~sketch:256 () in
  commit_path ~obs ~finish:(fun _ -> Sketch.total (Option.get (Obs.sketch obs))) runs

(* Build the timeline of the run traced into [obs] up to [horizon] in 64
   windows, render it as CSV and scan it for regime shifts. Returns the
   timeline's commit count. *)
let build_timeline obs horizon =
  let tl = Option.get (Timeline.of_obs ~window:(horizon /. 64.0) ~horizon obs) in
  Timeline.to_csv (Buffer.create 4096) tl;
  ignore (Timeline.change_points tl ~series:"throughput");
  (Timeline.totals tl).Timeline.tt_commits

(* The traced commit path. With [build], the measured part also builds the
   run's timeline, and the check is the timeline's commit count. *)
let timeline_build ~build runs =
  let obs = Obs.create ~trace:true ~provenance:true () in
  let timeline db = build_timeline obs (Sim.now (Db.sim db)) in
  commit_path ~obs ?finish:(if build then Some timeline else None) runs

(* The timeline build alone: the traced commit path is recorded before the
   measured part, which only builds the timeline, so its count does not
   depend on what the commit path costs. The unit is a recorded
   transaction; the check is the timeline's commit count. *)
let timeline_only runs =
  let obs = Obs.create ~trace:true ~provenance:true () in
  let horizon = ref 0.0 in
  ignore
    (commit_path ~obs
       ~finish:(fun db ->
         horizon := Sim.now (Db.sim db);
         0)
       runs);
  let stop = start no_counters in
  let commits = build_timeline obs !horizon in
  stop ~units:runs ~check:commits

(* Read-only SSI transactions: every read takes a SIREAD lock, and the
   commit suspends and cleans up the transaction record (§3.3). *)
let siread_path runs =
  round_robin runs (fun t key ->
      ignore (Txn.read t "t" key);
      ignore (Txn.read t "t" "k000"))

(* Raw lock-manager work over 64 hot resources, uncontended: an S grant, an
   S->X upgrade and a release per unit. *)
let lock_path ?obs runs =
  let sim = Sim.create () in
  let lm = Lockmgr.create sim in
  Option.iter (Lockmgr.set_obs lm) obs;
  let stop =
    start (fun () -> [ ("requests", Lockmgr.requests lm); ("events", Sim.events sim) ])
  in
  Sim.spawn sim (fun () ->
      for i = 0 to runs - 1 do
        let r = "r" ^ string_of_int (i mod 64) in
        Lockmgr.acquire lm ~owner:i ~mode:Lockmgr.S r;
        Lockmgr.acquire lm ~owner:i ~mode:Lockmgr.X r;
        Lockmgr.release_all lm i
      done);
  Sim.run sim;
  stop ~units:runs ~check:runs

(* The simulator kernel alone: 20 processes each make [charges] charges
   of 1 or 3 us in turn on a 1-server resource, so the server passes from
   process to process: each charge suspends behind the holder, is woken by
   its release and delays for its service time. The check is the final
   clock in us. *)
let sim_handoff charges =
  let sim = Sim.create () in
  let cpu = Resource.create sim ~name:"cpu" ~capacity:1 in
  let stop = start (fun () -> [ ("events", Sim.events sim) ]) in
  for p = 0 to 19 do
    Sim.spawn sim (fun () ->
        for i = 0 to charges - 1 do
          Resource.consume cpu (if (p + i) land 1 = 0 then 1e-6 else 3e-6)
        done)
  done;
  Sim.run sim;
  stop ~units:(20 * charges) ~check:(Float.to_int (Float.round (Sim.now sim *. 1e6)))

(* The bounded-memory hot path (§4.8): SSI transactions over 32 hot keys
   under a pinned snapshot and a budget of 64, so every commit exercises
   row->page SIREAD promotion, summarization and summary expiry. Each reads
   a different key than it writes, so its SIREAD outlives the commit and
   summarization has lock-table entries to fold. The check adds the
   summarized count, so a bounded mode that stopped summarizing changes
   it. *)
let summarize_path runs =
  let sim = Sim.create () in
  let config =
    {
      (Config.test ()) with
      Config.record_history = false;
      memory_budget = Some 64;
      promote_threshold = 4;
    }
  in
  let db = Db.create ~config sim in
  let keys = Array.init 32 (fun i -> Printf.sprintf "k%02d" i) in
  ignore (Db.create_table db "t");
  Db.load db "t" (("pin", "0") :: (Array.to_list keys |> List.map (fun k -> (k, "0"))));
  let stop = start (engine db) in
  Sim.spawn sim (fun () ->
      ignore
        (Db.run db Types.Serializable (fun t ->
             ignore (Txn.read t "t" "pin");
             for i = 0 to 11 do
               ignore (Txn.read t "t" keys.(i))
             done;
             Sim.delay sim 1.0e6)));
  Sim.spawn sim (fun () ->
      Sim.delay sim 0.001;
      for i = 1 to runs do
        ignore
          (Db.run db Types.Serializable (fun t ->
               ignore (Txn.read t "t" keys.((i + 7) mod 32));
               Txn.write t "t" keys.(i mod 32) (string_of_int i)))
      done);
  Sim.run sim;
  stop ~units:runs ~check:(commits db + Db.summarized_count db)

(* B+tree inserts in a fixed pseudo-random order, splitting at fanout 16,
   then one full range scan. *)
let btree_insert_scan runs =
  let t = Btree.create ~fanout:16 () in
  let stop = start (fun () -> [ ("descents", Btree.descents t) ]) in
  let x = ref 12345 in
  for _ = 1 to runs do
    x := ((!x * 1103515245) + 12345) land 0xFFFFFF;
    Btree.insert t (Printf.sprintf "k%08d" !x) !x
  done;
  let n = ref 0 in
  Btree.iter_range t (fun _ _ -> incr n);
  stop ~units:runs ~check:!n

(* MVSG build and cycle search over a synthetic 100-transaction history
   whose reads and writes overlap densely enough to produce real edges. The
   check counts the runs that found a cycle. *)
let mvsg_check runs =
  let key j = Printf.sprintf "k%02d" (j mod 17) in
  let history =
    List.init 100 (fun i ->
        {
          Types.h_id = i + 1;
          h_isolation = Types.Serializable;
          h_snapshot = 2 * i;
          h_commit = (2 * i) + 3;
          h_reads =
            [
              { Types.r_table = "t"; r_key = key i; r_version = i };
              { Types.r_table = "t"; r_key = key (i + 5); r_version = i };
            ];
          h_writes = [ ("t", key (i + 1)); ("t", key (i + 9)) ];
        })
  in
  let stop = start no_counters in
  let cycles = ref 0 in
  for _ = 1 to runs do
    if Mvsg.find_cycle (Mvsg.build history) <> None then incr cycles
  done;
  stop ~units:runs ~check:!cycles

(* Sketch updates alone: capacity 256 under a 4096-key stream, so
   evictions are constant. Keys are made beforehand, so the loop is the
   sketch's probe and bump. The check is the largest overcount. *)
let sketch_update n =
  let pool = Array.init 4096 (Printf.sprintf "r/t/k%04d") in
  let s = Sketch.create ~capacity:256 in
  let stop = start no_counters in
  let x = ref 12345 in
  for _ = 1 to n do
    x := ((!x * 1103515245) + 12345) land 0xFFF;
    let st = Sketch.touch s pool.(!x) in
    st.Sketch.st_conflicts <- st.Sketch.st_conflicts + 1
  done;
  stop ~units:n ~check:(Sketch.error_bound s)

(* One [Experiments.workloads] point: SSI, 20 closed-loop clients, seed 1,
   no warm-up, [duration] simulated seconds. The check is the commit
   count. *)
let workload name duration () =
  let make_db, mix = List.assoc name Experiments.workloads Fun.id in
  let stop = ref None in
  let make_db sim =
    let db = make_db sim in
    stop := Some (start (engine db));
    db
  in
  let r =
    Driver.run_once ~make_db ~mix
      {
        Driver.default_config with
        Driver.isolation = Types.Serializable;
        mpl = 20;
        warmup = 0.0;
        duration;
      }
  in
  Option.get !stop ~units:r.Driver.commits ~check:r.Driver.commits

(* The DPOR explorer over the write-skew 4-cycle at SSI: thousands of tiny
   engines. The check is the number of schedules run. *)
let write_skew_4 () =
  let stop = start no_counters in
  let _, st = Explore.explore ~isolation:Types.Serializable Interleave.write_skew_spec_4 in
  stop ~units:st.Explore.executed ~check:st.Explore.executed

(* Fig6.12's set-up: an InnoDB-configured engine created and loaded with
   one TPC-C++ warehouse, in [Db.load] batches that are each logged and
   hardened. The check is the number of rows loaded. *)
let tpcc_load () =
  let db = ref None in
  let stop =
    start (fun () -> [ ("descents", match !db with None -> 0 | Some db -> descents db) ])
  in
  let d = Db.create ~config:(Config.innodb ()) (Sim.create ()) in
  db := Some d;
  Tpcc.setup d ~scale:(Tpcc.standard ~warehouses:1) ();
  let rows = sum_tables d Mvstore.key_count in
  stop ~units:rows ~check:rows

(* The pinned points, in the order [perf] prints them. smallbank, sibench
   and tpcc each run long enough for at least 500 commits. *)
let points =
  [
    ("commit-path", fun () -> commit_path 1000);
    ("lock-acquire-release", fun () -> lock_path 5000);
    ("sim-handoff", fun () -> sim_handoff 1000);
    ("siread-bookkeeping", fun () -> siread_path 1000);
    ("summarize-path", fun () -> summarize_path 1000);
    ("btree-insert-scan", fun () -> btree_insert_scan 20_000);
    ("mvsg-check", fun () -> mvsg_check 50);
    ("timeline-build", fun () -> timeline_build ~build:true 1000);
    ("timeline-only", fun () -> timeline_only 1000);
    ("commit-path-sketch", fun () -> commit_path_sketch 1000);
    ("sketch-update", fun () -> sketch_update 50_000);
    ("smallbank", workload "smallbank" 0.05);
    ("sibench", workload "sibench" 0.4);
    ("tpcc", workload "tpcc" 0.8);
    ("tpcc-load", tpcc_load);
    ("write-skew-4", write_skew_4);
  ]
