(* Observability subsystem tests: trace determinism (benchmark numbers are
   byte-identical with tracing on or off), Chrome-trace JSON well-formedness,
   metric counters, the user-abort stats split, the commit-weighted mean
   response aggregation, crash safety of the Committing state, LIMIT-scan
   footprints, and the linear (non-quadratic) retention of committed
   transaction records. *)

open Core
open Testutil

let si = Types.Snapshot

let ssi = Types.Serializable

(* {1 Helpers} *)

let sibench_cfg =
  {
    Driver.default_config with
    Driver.isolation = ssi;
    mpl = 5;
    warmup = 0.05;
    duration = 0.2;
  }

let sibench_make_db sim =
  let db = Db.create ~config:(Config.innodb ()) sim in
  Sibench.setup db ~items:20 ();
  db

let run_sibench ?obs () = Driver.run_once ?obs ~make_db:sibench_make_db ~mix:(Sibench.mix ~items:20 ()) sibench_cfg

let trace_to_string obs =
  let file = Filename.temp_file "ssi_trace" ".json" in
  Obs.write_trace_file file obs;
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Sys.remove file;
  s

(* Minimal JSON well-formedness check: quote/escape-aware bracket balance,
   pure-ASCII output (all non-ASCII bytes must have been \u-escaped), and no
   raw control characters inside strings. *)
let check_json s =
  let depth = ref 0 in
  let in_str = ref false in
  let esc = ref false in
  let ok = ref true in
  String.iter
    (fun ch ->
      if Char.code ch >= 0x80 then ok := false;
      if !in_str then
        if !esc then esc := false
        else if ch = '\\' then esc := true
        else if ch = '"' then in_str := false
        else if Char.code ch < 0x20 then ok := false
        else ()
      else
        match ch with
        | '"' -> in_str := true
        | '[' | '{' -> incr depth
        | ']' | '}' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    s;
  !ok && !depth = 0 && not !in_str

(* {1 Tentpole: determinism and trace format} *)

(* Tracing must not change any benchmark number: same commits, same abort
   counts, same response times, with or without a trace+metrics sink. *)
let test_trace_does_not_perturb () =
  let plain = run_sibench () in
  let obs = Obs.create ~trace:true () in
  let traced = run_sibench ~obs () in
  Alcotest.(check int) "commits" plain.Driver.commits traced.Driver.commits;
  Alcotest.(check int) "deadlocks" plain.Driver.deadlocks traced.Driver.deadlocks;
  Alcotest.(check int) "conflicts" plain.Driver.conflicts traced.Driver.conflicts;
  Alcotest.(check int) "unsafe" plain.Driver.unsafe traced.Driver.unsafe;
  Alcotest.(check (float 0.0)) "mean response" plain.Driver.mean_response traced.Driver.mean_response;
  Alcotest.(check int) "retained" plain.Driver.end_retained traced.Driver.end_retained;
  Alcotest.(check bool) "events were recorded" true (Obs.event_count obs > 0)

(* Two traced runs of the same seed produce byte-identical trace files. *)
let test_trace_deterministic () =
  let o1 = Obs.create ~trace:true () in
  let o2 = Obs.create ~trace:true () in
  ignore (run_sibench ~obs:o1 ());
  ignore (run_sibench ~obs:o2 ());
  Alcotest.(check int) "same event count" (Obs.event_count o1) (Obs.event_count o2);
  Alcotest.(check string) "byte-identical traces" (trace_to_string o1) (trace_to_string o2)

let test_trace_json_valid () =
  let obs = Obs.create ~trace:true () in
  ignore (run_sibench ~obs ());
  let s = trace_to_string obs in
  Alcotest.(check bool) "starts as array" true (String.length s > 0 && s.[0] = '[');
  Alcotest.(check bool) "well-formed JSON, ASCII only" true (check_json s)

(* The gap-supremum resource name contains raw \xff bytes; a traced scan
   must escape them (the exporter emits ÿ). *)
let test_trace_escapes_gap_supremum () =
  let obs = Obs.create ~trace:true () in
  let env = make_env ~tables:[ "t" ] ~rows:[ ("t", [ ("a", "1") ]) ] () in
  Db.set_obs env.db obs;
  Sim.spawn env.sim (fun () ->
      ignore (atomically env ssi (fun t -> Txn.scan t "t")));
  Sim.run env.sim;
  let s = trace_to_string obs in
  Alcotest.(check bool) "valid JSON" true (check_json s);
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  (* Resource ids render through the shared [Obs.res_id_escape] (canonical
     %HH form) in every exporter, the Chrome trace included. *)
  Alcotest.(check bool) "supremum gap resource escaped" true (contains_sub s "%ff%ff(sup)")

let test_metrics_populated () =
  let obs = Obs.create () in
  let r = run_sibench ~obs () in
  let m = Obs.metrics obs in
  Alcotest.(check bool) "commit latencies recorded" true (Obs.hist_count m.Obs.m_commit_latency > 0);
  Alcotest.(check bool) "conflict edges recorded" true (Obs.conflict_total m > 0);
  Alcotest.(check bool) "siread high-water mark" true (m.Obs.m_siread_hwm > 0);
  Alcotest.(check bool) "retained high-water mark" true (m.Obs.m_retained_hwm > 0);
  (* run_once snapshots the same metrics into the result *)
  Alcotest.(check int) "result carries the metrics" (Obs.conflict_total m)
    (Obs.conflict_total r.Driver.metrics)

(* Conflict-source split: a plain rw conflict through SIREAD-vs-X and a
   newer-version read land in different counters. *)
let test_conflict_sources_split () =
  let obs = Obs.create () in
  let env = make_env ~tables:[ "t" ] ~rows:[ ("t", [ ("x", "0"); ("y", "0") ]) ] () in
  Db.set_obs env.db obs;
  (* T1 reads x then writes y; T2 writes x after T1's read: T1 -rw-> T2 via
     mark_siread_holders (Siread_vs_x). *)
  let r1 =
    script env ~at:0.0 ~gap:0.05 ~isolation:ssi
      [ (fun t -> ignore (Txn.read t "t" "x")); (fun t -> Txn.write t "t" "y" "1") ]
  in
  let r2 = script env ~at:0.01 ~isolation:ssi [ (fun t -> Txn.write t "t" "x" "1") ] in
  run_procs env [];
  check_outcome "T1 commits" Committed r1;
  check_outcome "T2 commits" Committed r2;
  let m = Obs.metrics obs in
  Alcotest.(check bool) "siread-x edges counted" true (m.Obs.m_conflict_siread_x > 0);
  Alcotest.(check int) "no page-stamp edges in row mode" 0 m.Obs.m_conflict_page_stamp

(* {1 Consumers agree whatever else is installed}

   Each consumer folds the same events whatever else the sink carries: a
   counted event emitted under the trace guard by mistake would reach the
   all-on sink but not the metrics-only or sketch-only one. *)

(* A contended SmallBank point with every counter family in play: row
   SIREADs under a memory budget (promotions, summarization), group-commit
   flushes and periodic checkpoints. *)
let contended_smallbank ?obs () =
  let make_db sim =
    let config =
      {
        (Config.innodb ~wal_mode:(Wal.Flush_per_commit 0.001) ()) with
        Config.memory_budget = Some 64;
        promote_threshold = 1;
        checkpoint_interval = Some 100;
      }
    in
    let db = Db.create ~config sim in
    Smallbank.setup db ~customers:200 ();
    db
  in
  Driver.run_once ?obs ~make_db ~mix:(Smallbank.mix ~customers:200 ())
    { Driver.default_config with Driver.isolation = ssi; mpl = 20; warmup = 0.05; duration = 0.2 }

let test_consumers_agree () =
  let cap = 1024 (* above the resource count: no evictions, exact payloads *) in
  let metrics_only = Obs.create ~trace:false ~metrics:true () in
  let sketch_only = Obs.create ~trace:false ~metrics:false ~sketch:cap () in
  let all = Obs.create ~trace:true ~metrics:true ~provenance:true ~sketch:cap () in
  let commits =
    List.map
      (fun obs -> (contended_smallbank ~obs ()).Driver.commits)
      [ metrics_only; sketch_only; all ]
  in
  Alcotest.(check (list int))
    "same run under every sink"
    (List.map (fun _ -> List.hd commits) commits)
    commits;
  (* Every counter family and sketch field moved, so equality is not vacuous. *)
  let m = Obs.metrics metrics_only in
  let entries obs = Sketch.entries (Option.get (Obs.sketch obs)) in
  let total f = List.fold_left (fun a (_, s) -> a + f s) 0 (entries sketch_only) in
  List.iter
    (fun (name, n) -> Alcotest.(check bool) (name ^ " counted") true (n > 0))
    [
      ("commit latency", Obs.hist_count m.Obs.m_commit_latency);
      ("abort latency", Obs.hist_count m.Obs.m_abort_latency);
      ("lock waits", Obs.hist_count m.Obs.m_lock_wait);
      ("conflict edges", Obs.conflict_total m);
      ("doomed", m.Obs.m_doomed);
      ("wal flushes", m.Obs.m_wal_flushes);
      ("cleanup", m.Obs.m_cleanup_released);
      ("siread hwm", m.Obs.m_siread_hwm);
      ("siread-live hwm", m.Obs.m_siread_live_hwm);
      ("retained hwm", m.Obs.m_retained_hwm);
      ("promotions", m.Obs.m_promotions);
      ("summarized", m.Obs.m_summarized);
      ("summary hwm", m.Obs.m_summary_hwm);
      ("checkpoints", m.Obs.m_checkpoints);
      ("sketch conflicts", total (fun s -> s.Sketch.st_conflicts));
      ("sketch lock waits", total (fun s -> s.Sketch.st_lock_waits));
      ("sketch sireads", total (fun s -> s.Sketch.st_siread));
      ("sketch fcw", total (fun s -> s.Sketch.st_blame_fcw));
      ("sketch promotions", total (fun s -> s.Sketch.st_promotions));
      ("sketch summarized", total (fun s -> s.Sketch.st_summarized));
    ];
  let metrics_t = Alcotest.testable Obs.pp_metrics ( = ) in
  Alcotest.check metrics_t "metrics-only sink = all consumers" m (Obs.metrics all);
  let sketch_t =
    Alcotest.testable
      (Fmt.Dump.list (fun ppf (r, s) -> Fmt.pf ppf "%s:%d" r s.Sketch.st_count))
      ( = )
  in
  Alcotest.check sketch_t "sketch-only sink = all consumers" (entries sketch_only) (entries all)

(* {1 Stats satellites} *)

(* User aborts are booked under their own counter, not aborts_other, and are
   not double-counted as commits at the Db level. *)
let test_user_abort_stats_split () =
  let env = make_env ~tables:[ "t" ] () in
  Sim.spawn env.sim (fun () ->
      match
        Db.run env.db si (fun t ->
            Txn.write t "t" "k" "v";
            raise (Types.Abort Types.User_abort))
      with
      | Ok () -> Alcotest.fail "expected user abort"
      | Error r ->
          Alcotest.(check string) "reason" "user-abort" (Types.abort_reason_to_string r));
  Sim.run env.sim;
  let s = Db.stats env.db in
  Alcotest.(check int) "commits" 0 s.Internal.commits;
  Alcotest.(check int) "aborts_user" 1 s.Internal.aborts_user;
  Alcotest.(check int) "aborts_other" 0 s.Internal.aborts_other;
  Alcotest.(check int) "no leaked active txn" 0 (Db.active_count env.db);
  Alcotest.(check int) "locks released" 0 (Db.lock_table_size env.db)

(* Driver level: a program that always rolls back counts as completed work
   with user_aborts tracked, and contributes nothing to aborts_per_commit. *)
let test_driver_user_abort_counter () =
  let mix =
    [
      Driver.program "rollback" (fun _st t ->
          Txn.write t "t" "k" "v";
          raise (Types.Abort Types.User_abort));
    ]
  in
  let make_db sim =
    let db = Db.create ~config:(Config.test ()) sim in
    ignore (Db.create_table db "t");
    db
  in
  let cfg = { Driver.default_config with Driver.mpl = 2; warmup = 0.01; duration = 0.1 } in
  let r = Driver.run_once ~make_db ~mix cfg in
  Alcotest.(check bool) "progresses" true (r.Driver.commits > 10);
  Alcotest.(check int) "all completions were rollbacks" r.Driver.commits r.Driver.user_aborts;
  Alcotest.(check int) "not booked as errors" 0 r.Driver.other_aborts;
  Alcotest.(check (float 0.0)) "aborts_per_commit excludes user aborts" 0.0
    r.Driver.aborts_per_commit;
  match r.Driver.programs with
  | [ ps ] ->
      Alcotest.(check int) "per-program user aborts" r.Driver.user_aborts ps.Driver.ps_user_aborts;
      Alcotest.(check int) "per-program latency hist" r.Driver.commits
        (Obs.hist_count ps.Driver.ps_latency)
  | _ -> Alcotest.fail "expected one program entry"

(* s_mean_response must be the commit-weighted mean of per-seed means. *)
let test_weighted_mean_response () =
  let seeds = [ 1; 2; 3 ] in
  let results =
    List.map
      (fun seed ->
        Driver.run_once ~make_db:sibench_make_db ~mix:(Sibench.mix ~items:20 ())
          { sibench_cfg with Driver.seed })
      seeds
  in
  let total = List.fold_left (fun a r -> a + r.Driver.commits) 0 results in
  let expected =
    List.fold_left
      (fun a r -> a +. (r.Driver.mean_response *. float_of_int r.Driver.commits))
      0.0 results
    /. float_of_int total
  in
  let s =
    Driver.run_seeds ~make_db:sibench_make_db ~mix:(Sibench.mix ~items:20 ()) ~seeds sibench_cfg
  in
  Alcotest.(check (float 1e-12)) "commit-weighted mean response" expected s.Driver.s_mean_response;
  (* with_metrics merges per-run metrics into the summary *)
  let sm =
    Driver.run_seeds ~with_metrics:true ~make_db:sibench_make_db
      ~mix:(Sibench.mix ~items:20 ()) ~seeds sibench_cfg
  in
  match sm.Driver.s_metrics with
  | None -> Alcotest.fail "expected merged metrics"
  | Some m ->
      Alcotest.(check bool) "merged commit count covers all seeds" true
        (Obs.hist_count m.Obs.m_commit_latency >= total)

(* {1 Committing crash safety} *)

(* Rolling back a transaction already flipped to Committing (the state
   between the commit-time flag check and publication) must release its
   locks and forget it — previously rollback_now was a no-op here and the
   transaction leaked in db.active with its locks held forever. *)
let test_rollback_committing_txn () =
  let env = make_env ~tables:[ "t" ] () in
  Sim.spawn env.sim (fun () ->
      let t = Db.begin_txn env.db ssi in
      Txn.write t "t" "k" "v";
      t.Internal.state <- Internal.Committing;
      Txn.abort t);
  Sim.run env.sim;
  Alcotest.(check int) "no leaked active txn" 0 (Db.active_count env.db);
  Alcotest.(check int) "locks released" 0 (Db.lock_table_size env.db);
  Alcotest.(check int) "booked as user abort" 1 (Db.stats env.db).Internal.aborts_user

(* An internal error raised mid-commit (here: the table vanishes between the
   write and the commit-time install) aborts cleanly instead of leaking the
   Committing transaction. *)
let test_commit_internal_error_no_leak () =
  let env = make_env ~tables:[ "t" ] () in
  Sim.spawn env.sim (fun () ->
      match
        Db.run env.db ssi (fun t ->
            Txn.write t "t" "k" "v";
            Hashtbl.remove env.db.Internal.tables "t")
      with
      | Ok () -> Alcotest.fail "commit should have failed"
      | Error (Types.Internal_error _) -> ()
      | Error r -> Alcotest.failf "unexpected abort: %s" (Types.abort_reason_to_string r));
  Sim.run env.sim;
  Alcotest.(check int) "no leaked active txn" 0 (Db.active_count env.db);
  Alcotest.(check int) "locks released" 0 (Db.lock_table_size env.db);
  Alcotest.(check int) "no retained record" 0 (Db.retained_count env.db)

(* {1 LIMIT scans (satellite: pin result set and lock footprint)} *)

let limit_rows = ("t", [ ("a", "1"); ("c", "3"); ("e", "5") ])

let holds env owner r = Lockmgr.holds_of (Db.locks env.db) ~owner r

(* LIMIT stops at the n-th visible row. The own buffered insert "b" created
   an index entry, so the scan visits a then b and stops there: the result
   is the two smallest visible rows and the SIREAD footprint covers exactly
   the visited prefix — rows/gaps a and b, no row c, no terminal gap. *)
let test_limit_scan_own_insert_in_prefix () =
  let env = make_env ~tables:[ "t" ] ~rows:[ limit_rows ] () in
  let tid = ref 0 in
  Sim.spawn env.sim (fun () ->
      let t = Db.begin_txn env.db ssi in
      tid := Txn.id t;
      Txn.insert t "t" "b" "2";
      let r = Txn.scan ~limit:2 t "t" in
      Alcotest.(check (list (pair string string)))
        "limit-2 returns the two smallest visible rows" [ ("a", "1"); ("b", "2") ] r;
      Alcotest.(check bool) "siread row a" true (List.mem Lockmgr.Siread (holds env !tid "r/t/a"));
      Alcotest.(check bool) "siread gap a" true (List.mem Lockmgr.Siread (holds env !tid "g/t/a"));
      Alcotest.(check bool) "siread row b" true (List.mem Lockmgr.Siread (holds env !tid "r/t/b"));
      Alcotest.(check bool) "siread gap b" true (List.mem Lockmgr.Siread (holds env !tid "g/t/b"));
      (* the insert's own gap lock (X on the gap before c) is expected;
         what must NOT be there is any scan SIREAD past the prefix *)
      Alcotest.(check bool) "no siread on row c" false
        (List.mem Lockmgr.Siread (holds env !tid "r/t/c"));
      Alcotest.(check bool) "row e untouched" true (holds env !tid "r/t/e" = []);
      Alcotest.(check bool) "no terminal gap" true (holds env !tid "g/t/\xff\xff(sup)" = []);
      Txn.commit t);
  Sim.run env.sim

(* An own insert beyond the examined prefix must not leak into the result. *)
let test_limit_scan_own_insert_beyond_prefix () =
  let env = make_env ~tables:[ "t" ] ~rows:[ limit_rows ] () in
  Sim.spawn env.sim (fun () ->
      ignore
        (atomically env ssi (fun t ->
             Txn.insert t "t" "z" "26";
             let r = Txn.scan ~limit:2 t "t" in
             Alcotest.(check (list (pair string string)))
               "z lies beyond the visited prefix" [ ("a", "1"); ("c", "3") ] r)));
  Sim.run env.sim

(* An own buffered delete hides the row; the scan keeps going and still
   counts only visible rows against the limit. *)
let test_limit_scan_own_delete () =
  let env = make_env ~tables:[ "t" ] ~rows:[ limit_rows ] () in
  Sim.spawn env.sim (fun () ->
      ignore
        (atomically env ssi (fun t ->
             ignore (Txn.delete t "t" "a");
             let r = Txn.scan ~limit:1 t "t" in
             Alcotest.(check (list (pair string string)))
               "deleted row skipped, next visible returned" [ ("c", "3") ] r)));
  Sim.run env.sim

(* A limit larger than the table exhausts the scan: the terminal
   (supremum) gap lock must be taken, exactly as for an unlimited scan. *)
let test_limit_scan_underflow_takes_terminal_gap () =
  let env = make_env ~tables:[ "t" ] ~rows:[ limit_rows ] () in
  let tid = ref 0 in
  Sim.spawn env.sim (fun () ->
      let t = Db.begin_txn env.db ssi in
      tid := Txn.id t;
      let r = Txn.scan ~limit:10 t "t" in
      Alcotest.(check int) "all rows returned" 3 (List.length r);
      Alcotest.(check bool) "supremum gap locked" true
        (List.mem Lockmgr.Siread (holds env !tid "g/t/\xff\xff(sup)"));
      Txn.commit t);
  Sim.run env.sim

(* {1 Log-bucket histogram boundary determinism (satellite)} *)

(* Bucket [i] covers [2^i, 2^{i+1}) ns, lower-inclusive. The old
   [Float.log2]-based bucketing put boundary values (exactly 2^i ns) in
   bucket i-1 or i depending on libm rounding; the [Float.frexp] version is
   exact, so these values are pinned, not ranged. *)
let test_hist_bucket_pinned () =
  let buckets = Array.length (Obs.hist_create ()).Obs.h_b in
  let cases =
    [
      (0.0, 0);
      (0.5, 0);
      (* sub-ns clamps *)
      (1.0, 0);
      (1.5, 0);
      (2.0, 1);
      (* first boundary *)
      (3.999999, 1);
      (4.0, 2);
      (1023.999, 9);
      (1024.0, 10);
      (* the microsecond boundary *)
      (1048576.0, 20);
      (Float.infinity, buckets - 1);
      (Float.nan, 0);
    ]
  in
  List.iter
    (fun (ns, want) ->
      Alcotest.(check int) (Printf.sprintf "bucket(%h ns)" ns) want (Obs.hist_bucket_of_ns ns))
    cases;
  (* Every exact power of two lands in its own bucket... *)
  for i = 0 to buckets - 1 do
    Alcotest.(check int)
      (Printf.sprintf "2^%d ns" i)
      i
      (Obs.hist_bucket_of_ns (Float.ldexp 1.0 i))
  done;
  (* ...and the largest float strictly below the boundary in the previous
     one, i.e. the split is deterministic on both sides. *)
  for i = 1 to buckets - 1 do
    Alcotest.(check int)
      (Printf.sprintf "pred(2^%d) ns" i)
      (i - 1)
      (Obs.hist_bucket_of_ns (Float.pred (Float.ldexp 1.0 i)))
  done

(* hist_add takes seconds; 2^-30 s = 2^0 ns on the nose must hit bucket 0
   via the same exact path (the ns conversion multiplies by 1e9, so use a
   value whose product is an exact boundary). *)
let test_hist_add_boundary_via_seconds () =
  let h = Obs.hist_create () in
  Obs.hist_add h 1.024e-6 (* = 1024 ns exactly *);
  Alcotest.(check int) "boundary latency in one bucket" 1 h.Obs.h_b.(10);
  Alcotest.(check int) "and only that bucket" 0 h.Obs.h_b.(9)

(* {1 Percentile interpolation, pinned}

   hist_percentile interpolates linearly inside the target bucket and clamps
   to hist_max. Every expectation below is an exact float: samples sit on
   power-of-two bucket boundaries, so lo/hi/frac are all exact dyadics and
   the estimate is reproducible bit for bit. *)
let feq = Alcotest.float 1e-12

let test_hist_percentile_interpolated () =
  (* two samples in bucket 10 ([1024, 2048) ns), two in bucket 12
     ([4096, 8192) ns) *)
  let h = Obs.hist_create () in
  List.iter (Obs.hist_add h) [ 1.024e-6; 1.024e-6; 4.096e-6; 4.096e-6 ];
  (* p25 -> rank 1 of 2 in bucket 10: 1024 + 1/2 * 1024 = 1536 ns *)
  Alcotest.check feq "p25 interpolates mid-bucket" 1.536e-6 (Obs.hist_percentile h 0.25);
  (* p50 -> rank 2 of 2 in bucket 10: the upper edge, 2048 ns *)
  Alcotest.check feq "p50 reaches the bucket edge" 2.048e-6 (Obs.hist_percentile h 0.50);
  (* p100 -> rank 2 of 2 in bucket 12: 8192 ns, clamped to the true max *)
  Alcotest.check feq "p100 clamps to hist_max" 4.096e-6 (Obs.hist_percentile h 1.0)

let test_hist_percentile_single_sample () =
  (* n=1: every percentile is the sample itself (edge estimate clamped to
     hist_max) *)
  let h = Obs.hist_create () in
  Obs.hist_add h 5e-7;
  List.iter
    (fun p ->
      Alcotest.check feq
        (Printf.sprintf "p%.0f of singleton" (100.0 *. p))
        5e-7 (Obs.hist_percentile h p))
    [ 0.0; 0.5; 0.99; 1.0 ]

let test_hist_percentile_inf_nan () =
  (* inf lands in the last bucket; its interpolated edge is 2^64 ns, which
     is finite, so the estimate stays finite even though hist_max is inf *)
  let h = Obs.hist_create () in
  Obs.hist_add h Float.infinity;
  Alcotest.check feq "inf sample pins to 2^64 ns"
    (1e-9 *. Float.ldexp 1.0 64)
    (Obs.hist_percentile h 1.0);
  (* nan clamps into bucket 0 and never becomes hist_max, so the clamp
     yields exactly 0 *)
  let h2 = Obs.hist_create () in
  Obs.hist_add h2 Float.nan;
  Alcotest.check feq "nan sample clamps to 0" 0.0 (Obs.hist_percentile h2 1.0);
  (* empty histogram is 0 by definition *)
  Alcotest.check feq "empty hist" 0.0 (Obs.hist_percentile (Obs.hist_create ()) 0.5)

(* {1 Retention is linear (the Queue fix)} *)

(* 10k commits while a long-running reader pins the cleanup horizon: every
   committed record must be retained (10k of them), and the whole run —
   10k O(1) appends plus 10k O(1) blocked cleanup probes — completes
   instantly. Before the fix the per-commit list append made this pass
   quadratic (~50M list cells copied). After the reader finishes, the next
   commit drains the backlog in one pass. *)
let test_retention_linear_10k () =
  let config = { (Config.test ()) with Config.record_history = false } in
  let env = make_env ~config ~tables:[ "t" ] ~rows:[ ("t", [ ("pin", "0"); ("k", "0") ]) ] () in
  let n = 10_000 in
  let reader_done = ref false in
  Sim.spawn env.sim (fun () ->
      ignore
        (atomically env ssi (fun t ->
             ignore (Txn.read t "t" "pin");
             (* hold the snapshot across all writer commits *)
             Sim.delay env.sim 100.0));
      reader_done := true);
  Sim.spawn env.sim (fun () ->
      Sim.delay env.sim 0.001;
      for i = 1 to n do
        ignore (Db.run env.db si (fun t -> Txn.write t "t" "k" (string_of_int i)))
      done;
      Alcotest.(check bool) "reader still pins the horizon" false !reader_done;
      Alcotest.(check bool)
        (Printf.sprintf "all %d committed records retained" n)
        true
        (Db.retained_count env.db >= n);
      (* Let the reader finish, then one more commit drains the backlog. *)
      Sim.delay env.sim 200.0;
      ignore (Db.run env.db si (fun t -> Txn.write t "t" "k" "done"));
      Alcotest.(check bool) "backlog drained after the pin lifts" true
        (Db.retained_count env.db < 10));
  Sim.run env.sim;
  Alcotest.(check int) "commits" (n + 2) (Db.stats env.db).Internal.commits

(* Bounded-memory twin of the pinned-snapshot test: same 10k commits under a
   pinned reader, but with [memory_budget] set. The writers are SSI
   transactions over a fixed 32-key universe, so each retained record holds
   a SIREAD and the sentinel pool stays bounded by the key universe. They
   read the key they write, or, with [read_ahead] 7, another key: that
   SIREAD then outlives the commit (no upgrade-release), so summarization
   has lock-table entries to fold. Retained records plus live SIREAD
   lock-table entries must never exceed the budget — summarization, not the
   cleanup horizon, bounds memory. *)
let retention_bounded_10k read_ahead =
  let budget = 64 in
  let config =
    {
      (Config.test ()) with
      Config.record_history = false;
      memory_budget = Some budget;
      promote_threshold = 4;
    }
  in
  let keys = Array.init 32 (fun i -> Printf.sprintf "k%02d" i) in
  let rows = ("t", ("pin", "0") :: (Array.to_list keys |> List.map (fun k -> (k, "0")))) in
  let env = make_env ~config ~tables:[ "t" ] ~rows:[ rows ] () in
  let n = 10_000 in
  let max_pressure = ref 0 in
  Sim.spawn env.sim (fun () ->
      ignore
        (atomically env ssi (fun t ->
             ignore (Txn.read t "t" "pin");
             (* a run of point reads on consecutive keys exercises row→page
                promotion under the budget *)
             for i = 0 to 11 do
               ignore (Txn.read t "t" keys.(i))
             done;
             Sim.delay env.sim 100.0)));
  Sim.spawn env.sim (fun () ->
      Sim.delay env.sim 0.001;
      for i = 1 to n do
        ignore
          (Db.run env.db ssi (fun t ->
               ignore (Txn.read t "t" keys.((i + read_ahead) mod 32));
               Txn.write t "t" keys.(i mod 32) (string_of_int i)));
        let p = Db.retained_count env.db + Db.siread_entry_count env.db in
        if p > !max_pressure then max_pressure := p
      done;
      Alcotest.(check bool)
        (Printf.sprintf "retained+siread entries stayed <= %d (max %d)" budget !max_pressure)
        true (!max_pressure <= budget);
      Alcotest.(check bool) "summarization ran" true (Db.summarized_count env.db > 0);
      Alcotest.(check bool) "promotion ran" true (Db.promotion_count env.db > 0);
      (* Let the pin lift, then one commit drains records and summary. *)
      Sim.delay env.sim 200.0;
      ignore (Db.run env.db si (fun t -> Txn.write t "t" "pin" "done"));
      Alcotest.(check bool) "records drained after the pin lifts" true
        (Db.retained_count env.db < 10);
      Alcotest.(check int) "summary drained after the pin lifts" 0 (Db.summary_size env.db));
  Sim.run env.sim;
  Alcotest.(check int) "all commits went through" (n + 2) (Db.stats env.db).Internal.commits

let test_retention_bounded_10k () = List.iter retention_bounded_10k [ 0; 7 ]

let () =
  Alcotest.run "obs"
    [
      ( "tracing",
        [
          ("trace does not perturb results", `Quick, test_trace_does_not_perturb);
          ("trace deterministic across runs", `Quick, test_trace_deterministic);
          ("trace is well-formed JSON", `Quick, test_trace_json_valid);
          ("gap supremum bytes escaped", `Quick, test_trace_escapes_gap_supremum);
        ] );
      ( "metrics",
        [
          ("metrics populated by a run", `Quick, test_metrics_populated);
          ("conflict sources split", `Quick, test_conflict_sources_split);
          ("consumers agree whatever else is installed", `Quick, test_consumers_agree);
        ] );
      ( "stats",
        [
          ("user abort split (db)", `Quick, test_user_abort_stats_split);
          ("user abort counter (driver)", `Quick, test_driver_user_abort_counter);
          ("weighted mean response", `Quick, test_weighted_mean_response);
        ] );
      ( "crash-safety",
        [
          ("rollback of a Committing txn", `Quick, test_rollback_committing_txn);
          ("internal error mid-commit", `Quick, test_commit_internal_error_no_leak);
        ] );
      ( "limit-scans",
        [
          ("own insert in prefix", `Quick, test_limit_scan_own_insert_in_prefix);
          ("own insert beyond prefix", `Quick, test_limit_scan_own_insert_beyond_prefix);
          ("own delete hides row", `Quick, test_limit_scan_own_delete);
          ("underflow takes terminal gap", `Quick, test_limit_scan_underflow_takes_terminal_gap);
        ] );
      ( "histogram",
        [
          ("bucket boundaries pinned", `Quick, test_hist_bucket_pinned);
          ("boundary latency via hist_add", `Quick, test_hist_add_boundary_via_seconds);
          ("percentile interpolation pinned", `Quick, test_hist_percentile_interpolated);
          ("percentile of a single sample", `Quick, test_hist_percentile_single_sample);
          ("percentile inf/nan/empty", `Quick, test_hist_percentile_inf_nan);
        ] );
      ( "retention",
        [
          ("10k commits under a pinned snapshot", `Quick, test_retention_linear_10k);
          ("10k commits under a memory budget", `Quick, test_retention_bounded_10k);
        ] );
    ]
