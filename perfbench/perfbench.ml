(* The repository's benchmark: four single-threaded workloads driven through
   the same entry points the figures and the DPOR explorer use.

   - smallbank, sibench, tpcc: one chunk is one [Driver.run_once] (a fresh
     database built by the workload's [setup], MPL 20 closed-loop clients at
     SSI, aborted transactions retried) over a fixed simulated duration.
   - explore: one chunk is [Explore.explore] at SSI, on the default test
     config, over a few programs drawn by [Fuzzgen].

   A run has a fixed set of chunks; chunk [i] draws its inputs from its own
   seed, derived from the run's seed. The first pass over them gives the
   deterministic metrics (sim_tps, commit_ratio, words_per_commit) and the
   counts, so a seed reproduces them. Further passes repeat the same chunks
   until the wall-clock budget is spent, and each chunk is timed at its
   fastest repetition: the machine is shared, and other tenants only ever
   slow a chunk down. Times are CPU seconds of this process (see README.md).

   Each chunk's output is checked; a failed check makes the run exit 1. The
   last line of stdout is one JSON object {"correct", "attempted", "failed",
   "metrics"}. With --trace 1 the metrics are the per-layer ones (see Prof
   and README.md). *)

open Core

let now = Unix.gettimeofday

let fi = float_of_int

(* Words allocated so far: minor allocations plus direct major ones.
   Deterministic on one domain, whatever the GC timing. *)
let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* Linear interpolation between closest ranks; [p] in [0, 1]. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let x = p *. fi (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((x -. fi i) *. (a.(i + 1) -. a.(i)))

let median = percentile 0.5

let ratio a b = if b = 0.0 then 0.0 else a /. b

let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l

(* {1 Output checks} *)

let errors = ref []

let fail fmt = Printf.ksprintf (fun msg -> errors := msg :: !errors) fmt

(* Raised after [fail] when a chunk cannot go on. *)
exception Run_failed

(* {1 Layer counters}

   Public counters read after each counted chunk (the traced first pass):
   sums over the engines a chunk ran (one for a figure workload, one per
   schedule for explore). *)

let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let count name v =
  Hashtbl.replace counters name (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counters name)

let snapshot_db db tables =
  let st = Db.stats db in
  let lm = Db.locks db in
  let wal = Db.wal db in
  Wal.harden wal;
  let wp = Db.work_profile db in
  count "engines" 1.0;
  count "commits" (fi st.Internal.commits);
  count "deadlocks" (fi st.Internal.aborts_deadlock);
  count "fcw" (fi st.Internal.aborts_conflict);
  count "unsafe" (fi st.Internal.aborts_unsafe);
  count "lock_requests" (fi (Lockmgr.requests lm));
  count "lock_waits" (fi (Lockmgr.waits lm));
  count "lock_entries" (fi (Db.lock_table_size db));
  count "siread_entries" (fi (Db.siread_entry_count db));
  count "retained" (fi (Db.retained_count db));
  count "wal_appends" (fi (Wal.appends wal));
  count "wal_flushes" (fi (Wal.flushes wal));
  count "wal_bytes" (fi (Wal.durable_bytes wal));
  count "work_committed" wp.Db.wp_committed;
  count "work_total" (wp.Db.wp_committed +. wp.Db.wp_wasted +. wp.Db.wp_in_flight);
  List.iter
    (fun name ->
      match Db.table db name with
      | None -> ()
      | Some t ->
          let tree = Mvstore.index t in
          count "pages" (fi (Btree.page_count tree));
          count "keys" (fi (Mvstore.key_count t));
          count "versions" (fi (Mvstore.version_count t));
          let h = fi (Btree.height tree) in
          if h > counter "height_max" then Hashtbl.replace counters "height_max" h)
    tables

(* GC activity: minor collections, major collections, promoted words. *)
let gc_counts () =
  let s = Gc.quick_stat () in
  [| fi s.Gc.minor_collections; fi s.Gc.major_collections; s.Gc.promoted_words |]

let count_gc ~before =
  let after = gc_counts () in
  List.iteri
    (fun i name -> count name (after.(i) -. before.(i)))
    [ "minor_gcs"; "major_gcs"; "promoted_words" ]

let snapshot_obs (m : Obs.metrics) =
  count "rw_edges"
    (fi
       (m.Obs.m_conflict_newer_version + m.Obs.m_conflict_siread_x + m.Obs.m_conflict_page_stamp
      + m.Obs.m_conflict_gap + m.Obs.m_conflict_unknown))

(* {1 Chunks} *)

(* The measured start of a chunk's run, taken after its set-up. *)
type mark = { m_wall : float; m_cpu : float; m_words : float; m_gc : float array }

let mark () = { m_wall = now (); m_cpu = Sys.time (); m_words = words (); m_gc = gc_counts () }

type chunk = {
  index : int;  (** which of the run's fixed chunks *)
  setup_s : float;  (** creating and populating the database, CPU seconds *)
  run_s : float;  (** the measured call, set-up excluded, CPU seconds *)
  run_wall_s : float;  (** the same, wall seconds *)
  run_words : float;  (** words it allocated, set-up excluded *)
  completed : int;  (** committed transactions, application rollbacks included *)
  error_aborts : int;  (** deadlock, first-committer-wins and unsafe aborts *)
  failed : int;  (** operations that failed for good *)
  sim_rates : float list;
      (** completed transactions per simulated second of each simulation:
          the whole chunk, or each explored schedule *)
  schedules : int;  (** explore: schedules executed *)
  heap_mb : float;  (** size of the major heap when the run ended, MB *)
}

let finish_chunk ~index ~setup_s m ~completed ~error_aborts ~failed ~sim_rates ~schedules =
  {
    index;
    setup_s;
    run_s = Sys.time () -. m.m_cpu;
    run_wall_s = now () -. m.m_wall;
    run_words = words () -. m.m_words;
    completed;
    error_aborts;
    failed;
    sim_rates;
    schedules;
    heap_mb = fi ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1e6;
  }

(* {2 Figure workloads} *)

type figure = {
  config : Config.t;
  populate : Db.t -> unit;
  mix : Driver.program list;
  tables : string list;
  duration : float;  (** simulated seconds per chunk *)
  fixed : int;  (** chunks in a run *)
  check : Db.t -> Driver.result -> unit;
}

let mpl = 20

let smallbank =
  let customers = 20_000 in
  {
    config = Config.bdb ();
    populate = (fun db -> Smallbank.setup db ~customers ());
    mix = Smallbank.mix ~customers ();
    tables = [ Smallbank.account; Smallbank.saving; Smallbank.checking; Smallbank.conflict ];
    duration = 1.0;
    fixed = 2;
    check = (fun _ _ -> ());
  }

let sibench_items = 1000

(* Every committed update installs one version and adds 1 to the total, so
   total - initial must equal the installed update versions, and the
   driver's count of committed updates may trail them only by the clients
   still waiting on a commit at the horizon. *)
let check_sibench db ~counted =
  let items = sibench_items in
  let installed = Mvstore.version_count (Db.table_exn db Sibench.table) - items in
  let gained = Sibench.total db - Sibench.initial_total ~items in
  if gained <> installed then
    fail "sibench: total - initial_total = %d but %d updates committed" gained installed;
  if counted > installed || installed - counted > mpl then
    fail "sibench: driver counted %d committed updates, the table holds %d" counted installed

let sibench =
  let items = sibench_items in
  {
    config = Config.innodb ();
    populate = (fun db -> Sibench.setup db ~items ());
    mix = Sibench.mix ~items ();
    tables = [ Sibench.table ];
    duration = 0.5;
    fixed = 2;
    check =
      (fun db r ->
        check_sibench db
          ~counted:(Option.value ~default:0 (List.assoc_opt "update" r.Driver.per_program)));
  }

let tpcc =
  let scale = Tpcc.standard ~warehouses:10 in
  {
    config = { (Config.innodb ()) with Config.read_miss = 0.05 };
    populate = (fun db -> Tpcc.setup db ~scale ());
    mix = Tpcc.mix scale;
    tables = Tpcc.all_tables;
    duration = 4.0;
    fixed = 3;
    check =
      (fun db _ ->
        match
          Tpcc.check_consistency db ~scale;
          Tpcc.check_ytd db ~scale
        with
        | () -> ()
        | exception Tpcc.Inconsistent msg -> fail "tpcc: %s" msg);
  }

(* MPL closed-loop clients at SSI: no think time, error aborts retried. *)
let driver_config fig ~seed =
  {
    Driver.default_config with
    Driver.isolation = Types.Serializable;
    mpl;
    warmup = 0.0;
    duration = fig.duration;
    think_time = 0.0;
    seed;
  }

(* [traced] attaches an Obs metrics sink; [counted] also adds the chunk's
   GC activity and public counters to [counters]. *)
let run_figure_chunk ?(history = false) ~traced ~counted fig ~index ~seed =
  let db = ref None and setup_s = ref 0.0 and start = ref (mark ()) in
  let config = if history then { fig.config with Config.record_history = true } else fig.config in
  let make_db sim =
    let t0 = Sys.time () in
    let d =
      Prof.span "setup" (fun () ->
          let d = Db.create ~config sim in
          fig.populate d;
          d)
    in
    setup_s := Sys.time () -. t0;
    (* the run starts from a collected heap, so the set-up's garbage is not
       billed to it *)
    Gc.compact ();
    db := Some d;
    start := mark ();
    d
  in
  let obs = if traced then Some (Obs.create ~metrics:true ()) else None in
  let r =
    (* Driver.run_once fails the run when the wasted-work ledger is out of
       balance ([Db.work_conserved]) *)
    try
      Prof.span "run_once" (fun () ->
          Driver.run_once ?obs ~make_db ~mix:fig.mix (driver_config fig ~seed))
    with Failure msg ->
      fail "%s" msg;
      raise Run_failed
  in
  let c =
    finish_chunk ~index ~setup_s:!setup_s !start ~completed:r.Driver.commits
      ~error_aborts:(r.Driver.deadlocks + r.Driver.conflicts + r.Driver.unsafe)
      ~failed:r.Driver.other_aborts
      ~sim_rates:[ ratio (fi r.Driver.commits) r.Driver.elapsed ]
      ~schedules:0
  in
  if counted then count_gc ~before:!start.m_gc;
  let db = Option.get !db in
  Prof.span "check" (fun () ->
      if r.Driver.other_aborts > 0 then
        fail "%d transactions failed with an internal or duplicate-key error" r.Driver.other_aborts;
      fig.check db r;
      if history then
        match Mvsg.find_cycle (Mvsg.build (Db.history db)) with
        | None -> ()
        | Some cycle ->
            fail "SSI history not serializable: cycle %s"
              (String.concat " -> " (List.map string_of_int cycle)));
  if counted then begin
    snapshot_db db fig.tables;
    snapshot_obs r.Driver.metrics
  end;
  (r, db, c)

(* {2 DPOR explore} *)

let explore_profile = { Fuzzgen.p_max_txns = 3; p_max_ops = 3; p_max_keys = 4 }

let explore_programs = 100

let explore_fixed = 20

(* Programs whose brute-force schedule count exceeds this are redrawn: the
   rare program with thousands of interleavings would otherwise decide a
   whole run's numbers. *)
let max_interleavings = 500

let programs ~seed =
  let st = Random.State.make [| seed; 0xE7 |] in
  let rec draw () =
    let c = Fuzzgen.case ~profile:explore_profile st ~cfg:Fuzzcase.default_point in
    if Interleave.count_interleavings c.Fuzzcase.specs > max_interleavings then draw () else c
  in
  List.init explore_programs (fun _ -> draw ())

(* The explorer builds a fresh engine per schedule; set-up here is drawing
   the programs and building one loaded engine for each. *)
let setup_explore ~seed =
  let cases = programs ~seed in
  List.iter
    (fun (c : Fuzzcase.t) ->
      let db = Db.create (Sim.create ()) in
      ignore (Db.create_table db Interleave.table);
      if c.Fuzzcase.init <> [] then Db.load db Interleave.table c.Fuzzcase.init)
    cases;
  cases

(* Output checks on one explored schedule; returns its failed operations. *)
let check_schedule (r : Interleave.result) =
  let failed = ref 0 in
  List.iter
    (function
      | Some (Types.Internal_error msg) ->
          incr failed;
          fail "explore: internal error %s" msg
      | _ -> ())
    r.Interleave.outcomes;
  if not r.Interleave.serializable then begin
    incr failed;
    fail "explore: non-serializable outcome"
  end;
  if not (Db.work_conserved r.Interleave.db) then fail "explore: wasted-work ledger out of balance";
  !failed

(* Time spent in the on_run oracle of the counted chunks. *)
let oracle_s = ref 0.0

let run_explore_chunk ~counted ~index ~seed =
  let t0 = Sys.time () in
  let cases = Prof.span "setup" (fun () -> setup_explore ~seed) in
  let setup_s = Sys.time () -. t0 in
  let completed = ref 0 and error_aborts = ref 0 and failed = ref 0 in
  let sim_rates = ref [] and schedules = ref 0 and snapshot_s = ref 0.0 in
  let on_run (r : Interleave.result) =
    Prof.span "oracle" (fun () ->
        let o0 = Sys.time () in
        incr schedules;
        let done_ = ref 0 in
        List.iter
          (function
            | None | Some (Types.User_abort | Types.Duplicate_key) -> incr done_
            | Some (Types.Deadlock | Types.Update_conflict | Types.Unsafe) -> incr error_aborts
            | Some (Types.Internal_error _) -> ())
          r.Interleave.outcomes;
        completed := !completed + !done_;
        sim_rates := ratio (fi !done_) (Sim.now (Db.sim r.Interleave.db)) :: !sim_rates;
        failed := !failed + check_schedule r;
        if counted then begin
          let o1 = Sys.time () in
          oracle_s := !oracle_s +. (o1 -. o0);
          snapshot_db r.Interleave.db [ Interleave.table ];
          snapshot_s := !snapshot_s +. (Sys.time () -. o1)
        end)
  in
  let executed = ref 0 and duplicates = ref 0 in
  let start = mark () in
  Prof.span "explore" (fun () ->
      List.iter
        (fun (c : Fuzzcase.t) ->
          let _, st =
            Explore.explore ~on_run ~init:c.Fuzzcase.init ~ro:c.Fuzzcase.ro
              ~isolation:Types.Serializable c.Fuzzcase.specs
          in
          if st.Explore.executed <= 0 then fail "explore: no schedule executed";
          executed := !executed + st.Explore.executed;
          duplicates := !duplicates + st.Explore.duplicates)
        cases);
  let c =
    finish_chunk ~index ~setup_s start ~completed:!completed ~error_aborts:!error_aborts
      ~failed:!failed ~sim_rates:!sim_rates ~schedules:!schedules
  in
  if counted then begin
    count_gc ~before:start.m_gc;
    count "executed" (fi !executed);
    count "duplicates" (fi !duplicates)
  end;
  if !executed <> !schedules then
    fail "explore: %d schedules executed but the oracle saw %d" !executed !schedules;
  (* counter snapshots are harness work, not the explorer's *)
  { c with run_s = c.run_s -. !snapshot_s }

(* {1 A run} *)

type workload = Figure of figure | Explore_w

let workloads =
  [
    ("smallbank", Figure smallbank);
    ("sibench", Figure sibench);
    ("tpcc", Figure tpcc);
    ("explore", Explore_w);
  ]

let chunk_seed seed i = Hashtbl.hash (seed, i)

let run_chunk ~traced ~counted w ~seed ~index =
  (* a collected heap, so garbage from the chunk before does not bill this one *)
  Gc.compact ();
  let seed = chunk_seed seed index in
  match w with
  | Figure fig ->
      let _, _, c = run_figure_chunk ~traced ~counted fig ~index ~seed in
      c
  | Explore_w -> run_explore_chunk ~counted ~index ~seed

let fixed_chunks = function Figure fig -> fig.fixed | Explore_w -> explore_fixed

(* Extra set-up samples of chunk [index]'s set-up, at least one, for about
   [budget] seconds. *)
let setup_reps w ~seed ~index ~budget =
  let t_end = now () +. budget in
  let rec go n acc =
    if n >= 1 && (now () >= t_end || n >= 100) then acc
    else
      let t0 = Sys.time () in
      (match w with
      | Figure fig -> fig.populate (Db.create ~config:fig.config (Sim.create ()))
      | Explore_w -> ignore (setup_explore ~seed:(chunk_seed seed index)));
      go (n + 1) ((Sys.time () -. t0) :: acc)
  in
  go 0 []

(* Share of a run spent on extra set-up samples, spread over the run so that
   the set-up figure sees the same host as the chunks do. *)
let setup_share = 0.05

(* Make passes over the fixed chunks: the first always, then more while
   another chunk would end closer to [seconds] of wall time than stopping
   now; after each chunk of a later pass take extra set-up samples. Their
   number depends on timing, and a chunk's allocation count was seen to
   depend on how many engines were built before it, so the first pass runs
   without them and stays reproducible. A traced run makes every
   chunk twice, traced and then untraced, as the baseline for the tracing
   overhead; only the traced first pass is counted. Returns the chunks in
   order, each with whether it was traced, and the extra set-up samples. *)
let run_chunks ~trace w ~seed ~seconds =
  let t_end = now () +. seconds in
  let n = fixed_chunks w in
  let rec go k last acc setup =
    if k >= n && now () +. (0.5 *. last) >= t_end then (List.rev acc, setup)
    else begin
      let index = k mod n in
      let t0 = now () in
      let run traced =
        if traced then Prof.start ();
        let c = run_chunk ~traced ~counted:(traced && k < n) w ~seed ~index in
        if traced then Prof.stop ();
        Printf.eprintf "perfbench: chunk %d: %d completed in %.4f s cpu %.4f s wall%s\n%!" index
          c.completed c.run_s c.run_wall_s
          (if traced then " traced" else "");
        (traced, c)
      in
      let cs = if trace then [ run true; run false ] else [ run false ] in
      let dt = now () -. t0 in
      let reps = if k < n then [] else setup_reps w ~seed ~index ~budget:(setup_share *. dt) in
      go (k + 1) (now () -. t0) (List.rev_append cs acc) (reps @ setup)
    end
  in
  go 0 0.0 [] []

let take n l = List.filteri (fun i _ -> i < n) l

(* Work per second over the fixed chunks, each timed at its fastest
   repetition. The work of a chunk is the same at every repetition. *)
let best_rate ~work chunks =
  let best = Hashtbl.create 64 in
  List.iter
    (fun c ->
      match Hashtbl.find_opt best c.index with
      | Some b when b.run_s <= c.run_s -> ()
      | _ -> Hashtbl.replace best c.index c)
    chunks;
  let bs = List.of_seq (Hashtbl.to_seq_values best) in
  ratio (sum work bs) (sum (fun c -> c.run_s) bs)

(* {1 Metrics} *)

(* sim_tps is a mean over simulations, so that the rare explored schedule
   with a long simulated run does not decide a run's figure. *)
let e2e_metrics ~setup ~first chunks =
  let completed = sum (fun c -> fi c.completed) first in
  [
    ("commits_per_wall_s", best_rate ~work:(fun c -> fi c.completed) chunks, "1/s");
    ("words_per_commit", ratio (sum (fun c -> c.run_words) first) completed, "words");
    ("peak_heap_mb", median (List.map (fun c -> c.heap_mb) first), "MB");
    ("setup_s", percentile 0.1 (setup @ List.map (fun c -> c.setup_s) chunks), "s");
    ( "sim_tps",
      (let rates = List.concat_map (fun c -> c.sim_rates) first in
       ratio (sum Fun.id rates) (fi (List.length rates))),
      "1/s" );
    ( "commit_ratio",
      ratio completed (completed +. sum (fun c -> fi c.error_aborts) first),
      "ratio" );
  ]

let layer_metrics ~measured ~pairs ~first =
  let traced = List.map fst pairs and untraced = List.map snd pairs in
  let s = Prof.samples_in measured in
  let total = fi (Array.fold_left ( + ) 0 s) in
  let share l = ratio (fi s.(Prof.layer l)) total in
  let named = Array.fold_left ( + ) 0 (Array.sub s 0 Prof.n_layers) - s.(Prof.other) in
  let commits = counter "commits" in
  let per_commit name = ratio (counter name) commits in
  let engines = counter "engines" in
  let ops = sum (fun c -> fi c.completed) first in
  let executed = counter "executed" in
  let self l = (l ^ ".self_share", share l, "share") in
  [
    self "lockmgr";
    ("lockmgr.requests_per_commit", per_commit "lock_requests", "1/commit");
    ("lockmgr.waits_per_commit", per_commit "lock_waits", "1/commit");
    ("lockmgr.entries_end", ratio (counter "lock_entries") engines, "count");
    ("lockmgr.siread_entries_end", ratio (counter "siread_entries") engines, "count");
    self "btree";
    ("btree.pages_end", ratio (counter "pages") engines, "count");
    ("btree.height_max", counter "height_max", "count");
    self "mvstore";
    ("mvstore.versions_per_key_end", ratio (counter "versions") (counter "keys"), "count");
    self "exec";
    ("exec.fcw_per_commit", per_commit "fcw", "1/commit");
    ("exec.deadlocks_per_commit", per_commit "deadlocks", "1/commit");
    ( "exec.commit_ratio",
      ratio commits (commits +. counter "fcw" +. counter "deadlocks" +. counter "unsafe"),
      "ratio" );
    ("exec.useful_work_share", ratio (counter "work_committed") (counter "work_total"), "share");
    self "conflict";
    ("conflict.unsafe_per_commit", per_commit "unsafe", "1/commit");
    ("conflict.rw_edges_per_commit", per_commit "rw_edges", "1/commit");
    ("conflict.retained_end", ratio (counter "retained") engines, "count");
    self "sim";
    self "wal";
    ("wal.appends_per_commit", per_commit "wal_appends", "1/commit");
    ("wal.commits_per_flush", ratio commits (Float.max 1.0 (counter "wal_flushes")), "count");
    ("wal.bytes_per_commit", per_commit "wal_bytes", "B/commit");
    self "obs";
    self "driver";
    self "benchmarks";
    self "sercheck";
    ("sercheck.executed", executed, "count");
    ("sercheck.duplicate_share", ratio (counter "duplicates") executed, "share");
    ("sercheck.oracle_s", !oracle_s, "s");
    ("sercheck.schedules_per_wall_s", best_rate ~work:(fun c -> fi c.schedules) untraced, "1/s");
    ( "sercheck.words_per_schedule",
      ratio (sum (fun c -> c.run_words) first) (sum (fun c -> fi c.schedules) first),
      "words" );
    ("other.self_share", share "other", "share");
    ("profile.samples", total, "count");
    ("profile.coverage", ratio (fi named) total, "share");
    ( "gc.time_share",
      ratio (Prof.gc_s_in measured) (sum (fun c -> c.run_wall_s) traced),
      "share" );
    ("gc.minor_per_kop", 1000.0 *. ratio (counter "minor_gcs") ops, "1/kop");
    ("gc.promoted_words_per_op", ratio (counter "promoted_words") ops, "words");
    ("gc.major_collections", counter "major_gcs", "count");
    (* the same chunk traced and untraced: median of the paired slowdowns *)
    ( "trace.overhead_pct",
      100.0 *. (median (List.map (fun (t, u) -> ratio t.run_s u.run_s) pairs) -. 1.0),
      "%" );
  ]

(* {1 Self-test}

   The output checks must be able to fail: a tampered sibench table and an
   explorer run at plain SI (which admits write skew) are both caught. *)

let selftest () =
  let caught f =
    let saved = !errors in
    errors := [];
    f ();
    let got = !errors in
    errors := saved;
    got
  in
  let ok = ref true in
  let expect what cond =
    Printf.printf "%s %s\n" (if cond then "ok  " else "FAIL") what;
    if not cond then ok := false
  in
  let fig = { sibench with duration = 0.1 } in
  let r, db, _ = run_figure_chunk ~traced:false ~counted:false fig ~index:0 ~seed:1 in
  expect "sibench check passes on an untouched run" (caught (fun () -> fig.check db r) = []);
  (* a committed value bumped in place: the table total is off by one *)
  let chain = Option.get (Mvstore.find_chain (Db.table_exn db Sibench.table) (Sibench.key_of 0)) in
  (match chain.Mvstore.versions with
  | ({ Mvstore.value = Some v; _ } as latest) :: older ->
      chain.Mvstore.versions <-
        { latest with Mvstore.value = Some (string_of_int (int_of_string v + 1)) } :: older
  | _ -> ());
  expect "sibench check fails on a total off by one" (caught (fun () -> fig.check db r) <> []);
  let explore isolation =
    caught (fun () ->
        ignore
          (Explore.explore
             ~on_run:(fun r -> ignore (check_schedule r))
             ~isolation Interleave.write_skew_spec))
  in
  expect "explore oracle passes write skew under SSI" (explore Types.Serializable = []);
  expect "explore oracle fails write skew under SI" (explore Types.Snapshot <> []);
  exit (if !ok then 0 else 1)

(* {1 Output} *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body

let report_errors () =
  List.iter (fun e -> prerr_endline ("perfbench: check failed: " ^ e)) (List.rev !errors)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out_dir = ref "" and self = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " smallbank | sibench | tpcc | explore");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " wall-clock seconds to measure");
      ("--trace", Arg.Set_int trace, " 1 = per-layer metrics instead of end-to-end ones");
      ("--out-dir", Arg.Set_string out_dir, " where a traced run writes its spans");
      ("--selftest", Arg.Set self, " check that the output checks can fail");
    ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  if !self then selftest ();
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  let trace = !trace = 1 in
  let chunks, setup =
    try run_chunks ~trace w ~seed:!seed ~seconds:!seconds
    with Run_failed ->
      report_errors ();
      print_result ~correct:false ~attempted:1 ~failed:1 [];
      exit 1
  in
  let all = List.map snd chunks in
  let untraced = List.filter_map (fun (t, c) -> if t then None else Some c) chunks in
  let first = take (fixed_chunks w) untraced in
  let total f = List.fold_left (fun a c -> a + f c) 0 first in
  let attempted =
    match w with
    | Figure _ -> total (fun c -> c.completed + c.failed)
    | Explore_w -> total (fun c -> c.schedules)
  in
  let failed = total (fun c -> c.failed) in
  (* the traced smallbank run also checks a recorded history with the MVSG *)
  (match w with
  | Figure fig when trace && fig == smallbank ->
      ignore
        (run_figure_chunk ~history:true ~traced:false ~counted:false { fig with duration = 0.1 }
           ~index:0 ~seed:!seed)
  | _ -> ());
  let metrics =
    if trace then begin
      let measured = match w with Explore_w -> [ "explore" ] | Figure _ -> [ "run_once" ] in
      if !out_dir <> "" then
        Prof.write_spans
          (Filename.concat !out_dir (Printf.sprintf "spans-%s-%d.json" !workload !seed));
      let rec pairs = function t :: u :: rest -> (t, u) :: pairs rest | _ -> [] in
      layer_metrics ~measured ~pairs:(pairs all) ~first
    end
    else e2e_metrics ~setup ~first untraced
  in
  let correct = !errors = [] in
  report_errors ();
  Printf.eprintf "perfbench: %s seed %d: %d chunks\n" !workload !seed (List.length all);
  print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
