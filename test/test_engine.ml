(* Semantic tests of the transaction engine: SI behaviour and anomalies,
   the SSI algorithm (write skew, read-only anomaly, phantoms, false
   positives), S2PL, and transaction lifecycle management. *)

open Core
open Testutil

let si = Types.Snapshot

let ssi = Types.Serializable

let s2pl = Types.S2pl

let rc = Types.Read_committed

let accounts = ("acct", [ ("x", "50"); ("y", "50") ])

let read_int t table k = int_of_string (Txn.read_exn t table k)

let write_int t table k v = Txn.write t table k (string_of_int v)

(* {1 Snapshot isolation semantics} *)

let test_read_own_writes () =
  let env = make_env ~tables:[ "t" ] () in
  Sim.spawn env.sim (fun () ->
      ignore
        (atomically env si (fun t ->
             Txn.write t "t" "a" "1";
             Alcotest.(check (option string)) "own write visible" (Some "1") (Txn.read t "t" "a"))));
  Sim.run env.sim;
  Alcotest.(check (option string)) "committed" (Some "1") (peek env "t" "a")

let test_repeatable_read_under_si () =
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  let seen = ref [] in
  let r1 =
    script env ~at:0.0 ~gap:0.05 ~isolation:si
      [
        (fun t -> seen := read_int t "acct" "x" :: !seen);
        (fun t -> seen := read_int t "acct" "x" :: !seen);
      ]
  in
  let r2 = script env ~at:0.01 ~isolation:si [ (fun t -> write_int t "acct" "x" 99) ] in
  run_procs env [];
  check_outcome "reader commits" Committed r1;
  check_outcome "writer commits" Committed r2;
  Alcotest.(check (list int)) "same value twice despite concurrent commit" [ 50; 50 ]
    (List.rev !seen)

let test_read_committed_sees_latest () =
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  let seen = ref [] in
  let r1 =
    script env ~at:0.0 ~gap:0.05 ~isolation:rc
      [
        (fun t -> seen := read_int t "acct" "x" :: !seen);
        (fun t -> seen := read_int t "acct" "x" :: !seen);
      ]
  in
  let _ = script env ~at:0.01 ~isolation:rc [ (fun t -> write_int t "acct" "x" 99) ] in
  run_procs env [];
  check_outcome "reader commits" Committed r1;
  Alcotest.(check (list int)) "second read sees new value" [ 50; 99 ] (List.rev !seen)

let test_no_dirty_reads () =
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  let seen = ref (-1) in
  (* Writer holds its uncommitted change for a while. *)
  let _ =
    script env ~at:0.0 ~gap:0.1 ~isolation:si
      [ (fun t -> write_int t "acct" "x" 666); (fun _ -> ()) ]
  in
  let r = script env ~at:0.05 ~isolation:si [ (fun t -> seen := read_int t "acct" "x") ] in
  run_procs env [];
  check_outcome "reader ok" Committed r;
  Alcotest.(check int) "uncommitted write invisible" 50 !seen

let test_first_committer_wins () =
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  (* Both read first so their snapshots predate both writes. *)
  let r1 =
    script env ~at:0.0 ~gap:0.05 ~isolation:si
      [ (fun t -> ignore (read_int t "acct" "x")); (fun t -> write_int t "acct" "x" 1) ]
  in
  let r2 =
    script env ~at:0.01 ~gap:0.05 ~isolation:si
      [ (fun t -> ignore (read_int t "acct" "x")); (fun t -> write_int t "acct" "x" 2) ]
  in
  run_procs env [];
  check_outcome "first writer commits" Committed r1;
  check_outcome "second writer aborts" (Aborted Types.Update_conflict) r2;
  Alcotest.(check (option int)) "first write survives" (Some 1) (peek_int env "acct" "x")

let test_lazy_snapshot_single_statement () =
  (* §4.5: a transaction whose first operation is the update chooses its
     snapshot after acquiring the lock, so it never aborts under FCW. *)
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  let incr_x t =
    let v = read_int t "acct" "x" in
    Sim.delay env.sim 0.02;
    write_int t "acct" "x" (v + 1)
  in
  let r1 = script env ~at:0.0 ~isolation:si [ incr_x ] in
  let r2 = script env ~at:0.001 ~isolation:si [ incr_x ] in
  run_procs env [];
  check_outcome "first increment" Committed r1;
  (* The read fixes T2's snapshot before the write lock: it must abort. *)
  check_outcome "read-then-write increment aborts" (Aborted Types.Update_conflict) r2;
  (* Blind single-statement writes never abort under FCW. *)
  let env2 = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  let w t = Txn.write t "acct" "x" "blind" in
  let r3 = script env2 ~at:0.0 ~gap:0.02 ~isolation:si [ w ] in
  let r4 = script env2 ~at:0.001 ~gap:0.02 ~isolation:si [ w ] in
  run_procs env2 [];
  check_outcome "blind write 1" Committed r3;
  check_outcome "blind write 2 never FCW-aborts" Committed r4

let withdraw_sum from amount t =
  let x = int_of_string (Txn.read_exn t "acct" "x")
  and y = int_of_string (Txn.read_exn t "acct" "y") in
  if x + y > amount then
    Txn.write t "acct" from
      (string_of_int ((if from = "x" then x else y) - amount))

let test_write_skew_allowed_under_si () =
  (* Example 2 of the paper: the canonical x + y > 0 write skew. *)
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  let r1 = script env ~at:0.0 ~gap:0.02 ~isolation:si [ withdraw_sum "x" 70 ] in
  let r2 = script env ~at:0.005 ~gap:0.02 ~isolation:si [ withdraw_sum "y" 80 ] in
  run_procs env [];
  check_outcome "T1 commits" Committed r1;
  check_outcome "T2 commits (anomaly!)" Committed r2;
  let x = Option.get (peek_int env "acct" "x") and y = Option.get (peek_int env "acct" "y") in
  Alcotest.(check bool) "constraint violated under SI" true (x + y <= 0)

let test_write_skew_prevented_under_ssi () =
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  let r1 = script env ~at:0.0 ~gap:0.02 ~isolation:ssi [ withdraw_sum "x" 70 ] in
  let r2 = script env ~at:0.005 ~gap:0.02 ~isolation:ssi [ withdraw_sum "y" 80 ] in
  run_procs env [];
  let outcomes = List.sort compare [ outcome_to_string !r1; outcome_to_string !r2 ] in
  Alcotest.(check (list string))
    "exactly one unsafe abort"
    [ "aborted:unsafe"; "committed" ]
    outcomes;
  let x = Option.get (peek_int env "acct" "x") and y = Option.get (peek_int env "acct" "y") in
  Alcotest.(check bool) "constraint holds" true (x + y > 0)

let test_ssi_sequential_never_aborts () =
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  Sim.spawn env.sim (fun () ->
      for i = 1 to 20 do
        ignore
          (atomically env ssi (fun t ->
               let x = read_int t "acct" "x" in
               write_int t "acct" "x" (x + i)))
      done);
  Sim.run env.sim;
  Alcotest.(check int) "no aborts" 0 (Db.stats env.db).Internal.aborts_unsafe;
  Alcotest.(check int) "20 commits" 20 (Db.stats env.db).Internal.commits;
  Alcotest.(check (option int)) "sum applied" (Some (50 + 210)) (peek_int env "acct" "x")

let test_read_only_anomaly_prevented () =
  (* Example 3 (Fekete et al. 2004): Tin read-only, interleaved so it sees
     Tout's effects but not Tpivot's. Under SSI one transaction aborts. *)
  let env = make_env ~tables:[ "t" ] ~rows:[ ("t", [ ("x", "0"); ("y", "0"); ("z", "0") ]) ] () in
  (* Order: b_p r_p(y); T_out runs & commits; T_in reads x,z & commits;
     w_p(x); c_p. *)
  let r_pivot =
    script env ~at:0.0 ~gap:0.1 ~isolation:ssi
      [ (fun t -> ignore (read_int t "t" "y")); (fun t -> write_int t "t" "x" 1) ]
  in
  let r_out =
    script env ~at:0.02 ~gap:0.01 ~isolation:ssi
      [ (fun t -> write_int t "t" "y" 2); (fun t -> write_int t "t" "z" 2) ]
  in
  let r_in =
    script env ~at:0.06 ~gap:0.01 ~isolation:ssi
      [ (fun t -> ignore (read_int t "t" "x")); (fun t -> ignore (read_int t "t" "z")) ]
  in
  run_procs env [];
  check_outcome "Tout commits" Committed r_out;
  check_outcome "Tin commits" Committed r_in;
  check_outcome "pivot aborts" (Aborted Types.Unsafe) r_pivot

let test_fig38_false_positive_modes () =
  (* Fig 3.8: serializable as {Tin, Tpivot, Tout}; the basic algorithm
     aborts the pivot, the precise algorithm (§3.6) commits all three. *)
  let run_with variant =
    let config = { (Config.test ()) with Config.ssi = variant } in
    let env =
      make_env ~config ~tables:[ "t" ] ~rows:[ ("t", [ ("x", "0"); ("y", "0"); ("z", "0") ]) ] ()
    in
    (* Timeline: r_in(x)@0; r_p(y)@0.01; r_in(z)@0.03, c_in@0.06;
       w_p(x)@0.11; w_out(y)@0.12, w_out(z)@0.13, c_out@0.14; c_p@0.21. *)
    let r_in =
      script env ~at:0.0 ~gap:0.03 ~isolation:ssi
        [ (fun t -> ignore (read_int t "t" "x")); (fun t -> ignore (read_int t "t" "z")) ]
    in
    let r_pivot =
      script env ~at:0.01 ~gap:0.1 ~isolation:ssi
        [ (fun t -> ignore (read_int t "t" "y")); (fun t -> write_int t "t" "x" 1) ]
    in
    let r_out =
      script env ~at:0.12 ~gap:0.01 ~isolation:ssi
        [ (fun t -> write_int t "t" "y" 2); (fun t -> write_int t "t" "z" 2) ]
    in
    run_procs env [];
    (!r_in, !r_pivot, !r_out)
  in
  let in_b, pivot_b, out_b = run_with Config.Basic in
  Alcotest.check outcome_testable "basic: Tin commits" Committed in_b;
  Alcotest.check outcome_testable "basic: Tout commits" Committed out_b;
  Alcotest.check outcome_testable "basic: pivot false-positive abort" (Aborted Types.Unsafe)
    pivot_b;
  let in_p, pivot_p, out_p = run_with Config.Precise in
  Alcotest.check outcome_testable "precise: Tin commits" Committed in_p;
  Alcotest.check outcome_testable "precise: Tout commits" Committed out_p;
  Alcotest.check outcome_testable "precise: pivot commits (no false positive)" Committed pivot_p

let test_pivot_aborts_at_commit_when_late () =
  (* Without abort-early, the dangerous structure is only caught by the
     commit-time check of Fig 3.2/3.10. *)
  let config = { (Config.test ()) with Config.abort_early = false } in
  let env = make_env ~config ~tables:[ "acct" ] ~rows:[ accounts ] () in
  let r1 = script env ~at:0.0 ~gap:0.02 ~isolation:ssi [ withdraw_sum "x" 70 ] in
  let r2 = script env ~at:0.005 ~gap:0.02 ~isolation:ssi [ withdraw_sum "y" 80 ] in
  run_procs env [];
  let outcomes = List.sort compare [ outcome_to_string !r1; outcome_to_string !r2 ] in
  Alcotest.(check (list string)) "still exactly one unsafe abort"
    [ "aborted:unsafe"; "committed" ] outcomes

(* {1 Phantoms} *)

let shift_rows = ("duty", [ ("d1", "on"); ("d2", "on") ])

(* Example 1 of the paper: both doctors go to reserve, each checking that
   another doctor remains on duty. The check is a predicate read. *)
let doctor_off name t =
  let on_duty = List.filter (fun (_, v) -> v = "on") (Txn.scan t "duty") in
  if List.length on_duty > 1 then Txn.write t "duty" name "reserve"

let test_doctors_anomaly_under_si () =
  let env = make_env ~tables:[ "duty" ] ~rows:[ shift_rows ] () in
  let r1 = script env ~at:0.0 ~gap:0.02 ~isolation:si [ doctor_off "d1" ] in
  let r2 = script env ~at:0.005 ~gap:0.02 ~isolation:si [ doctor_off "d2" ] in
  run_procs env [];
  check_outcome "T1 commits" Committed r1;
  check_outcome "T2 commits" Committed r2;
  Alcotest.(check (option string)) "nobody on duty (anomaly)" (Some "reserve") (peek env "duty" "d1");
  Alcotest.(check (option string)) "nobody on duty (anomaly)" (Some "reserve") (peek env "duty" "d2")

let test_doctors_prevented_under_ssi () =
  let env = make_env ~tables:[ "duty" ] ~rows:[ shift_rows ] () in
  let r1 = script env ~at:0.0 ~gap:0.02 ~isolation:ssi [ doctor_off "d1" ] in
  let r2 = script env ~at:0.005 ~gap:0.02 ~isolation:ssi [ doctor_off "d2" ] in
  run_procs env [];
  let outcomes = List.sort compare [ outcome_to_string !r1; outcome_to_string !r2 ] in
  Alcotest.(check (list string)) "one aborts" [ "aborted:unsafe"; "committed" ] outcomes;
  let on_duty = [ peek env "duty" "d1"; peek env "duty" "d2" ] in
  Alcotest.(check bool) "someone still on duty" true (List.mem (Some "on") on_duty)

let test_insert_phantom_skew_under_si_vs_ssi () =
  (* Both transactions scan an empty range and insert if it was empty: under
     SI both insert; under SSI (gap locking) at most one commits. *)
  let attempt isolation =
    let env = make_env ~tables:[ "m" ] ~rows:[ ("m", [ ("z-fence", "1") ]) ] () in
    let insert_if_empty key t =
      let rows = Txn.scan ~lo:"a" ~hi:"b" t "m" in
      if rows = [] then Txn.insert t "m" key "marker"
    in
    let r1 = script env ~at:0.0 ~gap:0.02 ~isolation [ insert_if_empty "a1" ] in
    let r2 = script env ~at:0.005 ~gap:0.02 ~isolation [ insert_if_empty "a2" ] in
    run_procs env [];
    (!r1, !r2)
  in
  let a, b = attempt si in
  Alcotest.check outcome_testable "SI: both commit (phantom skew)" Committed a;
  Alcotest.check outcome_testable "SI: both commit (phantom skew)" Committed b;
  let a, b = attempt ssi in
  let outcomes = List.sort compare [ outcome_to_string a; outcome_to_string b ] in
  (* One must fail: either an unsafe abort or a deadlock on gap X locks. *)
  Alcotest.(check bool) "SSI: not both committed" true (outcomes <> [ "committed"; "committed" ])

(* Retained gap SIREADs (§3.3 + §3.5): a committed scanner's next-key gap
   SIREAD must keep aborting a pivot that inserts a phantom into the scanned
   range after the scanner commits. B reads x and later inserts into the
   range A scanned; D updates x and commits (B's out-edge, committed); A
   scans and commits after D but before B's insert, so B's incoming edge
   comes only from A's *retained* gap SIREAD. B sits between two committed
   neighbours with commit(D) <= commit(A): unsafe, even in precise mode.
   Regression: dropping gap SIREADs at commit (or in release_all's
   keep_siread path) would let B commit a phantom write skew. *)
let test_committed_gap_siread_aborts_phantom_pivot () =
  let env = make_env ~tables:[ "m" ] ~rows:[ ("m", [ ("x", "0"); ("z-fence", "1") ]) ] () in
  let rb =
    script env ~at:0.0 ~gap:0.1 ~isolation:ssi
      [
        (fun t -> ignore (Txn.read t "m" "x"));
        (fun t -> Txn.insert t "m" "a1" "phantom");
      ]
  in
  let rd = script env ~at:0.02 ~isolation:ssi [ (fun t -> Txn.write t "m" "x" "1") ] in
  let ra =
    script env ~at:0.04 ~isolation:ssi
      [
        (fun t ->
          Alcotest.(check (list (pair string string)))
            "scanned range is empty" [] (Txn.scan ~lo:"a" ~hi:"b" t "m"));
      ]
  in
  run_procs env [];
  check_outcome "D commits" Committed rd;
  check_outcome "A commits" Committed ra;
  check_outcome "B aborts unsafe" (Aborted Types.Unsafe) rb;
  Alcotest.(check (option string)) "no phantom row" None (peek env "m" "a1")

let test_scan_sees_own_inserts () =
  let env = make_env ~tables:[ "t" ] () in
  Sim.spawn env.sim (fun () ->
      ignore
        (atomically env ssi (fun t ->
             Txn.insert t "t" "b" "2";
             Txn.insert t "t" "a" "1";
             let rows = Txn.scan t "t" in
             Alcotest.(check (list (pair string string)))
               "own inserts in order"
               [ ("a", "1"); ("b", "2") ]
               rows)));
  Sim.run env.sim

let test_scan_skips_own_deletes () =
  let env = make_env ~tables:[ "t" ] ~rows:[ ("t", [ ("a", "1"); ("b", "2") ]) ] () in
  Sim.spawn env.sim (fun () ->
      ignore
        (atomically env ssi (fun t ->
             Alcotest.(check bool) "delete existing" true (Txn.delete t "t" "a");
             let rows = Txn.scan t "t" in
             Alcotest.(check (list (pair string string))) "deleted row gone" [ ("b", "2") ] rows)));
  Sim.run env.sim;
  Alcotest.(check (option string)) "tombstone committed" None (peek env "t" "a")

let test_duplicate_insert_aborts () =
  let env = make_env ~tables:[ "t" ] ~rows:[ ("t", [ ("a", "1") ]) ] () in
  let r = script env ~at:0.0 ~isolation:ssi [ (fun t -> Txn.insert t "t" "a" "2") ] in
  run_procs env [];
  check_outcome "duplicate key" (Aborted Types.Duplicate_key) r

(* Next-key locking's re-check (Fig 3.7): an insert that waits on its gap's
   X lock while another insert into the same gap commits must look the gap
   up again, and end up holding X on the gap of the new committed
   successor. T1 inserts k5 and holds k7's gap; T2 inserts k4, whose gap
   is k7's too while k5 is uncommitted, and waits; once T1 commits, k4's
   gap is k5's. *)
let test_insert_rechecks_gap_after_wait () =
  let env = make_env ~tables:[ "t" ] ~rows:[ ("t", [ ("k3", "0"); ("k7", "0") ]) ] () in
  let r1 = script env ~at:0.0 ~gap:0.1 ~isolation:si [ (fun t -> Txn.insert t "t" "k5" "1") ] in
  let held = ref [] in
  let r2 =
    script env ~at:0.01 ~isolation:si
      [
        (fun t ->
          Txn.insert t "t" "k4" "1";
          held :=
            List.filter
              (fun k ->
                Lockmgr.holds_mode (Db.locks env.db) ~owner:(Txn.id t) ~mode:Lockmgr.X
                  (Internal.gap_resource "t" k))
              [ "k5"; "k7" ]);
      ]
  in
  run_procs env [];
  check_outcome "first insert" Committed r1;
  check_outcome "second insert" Committed r2;
  Alcotest.(check (list string)) "gaps X-locked by the second insert" [ "k5"; "k7" ] !held

(* {1 S2PL} *)

let test_s2pl_reader_blocks_writer () =
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  let write_done_at = ref (-1.0) in
  let _ =
    script env ~at:0.0 ~gap:0.5 ~isolation:s2pl
      [ (fun t -> ignore (read_int t "acct" "x")); (fun _ -> ()) ]
  in
  (* Reader holds S(x) until commit at ~1.0; the writer must wait. *)
  Sim.spawn env.sim (fun () ->
      Sim.delay env.sim 0.1;
      ignore (atomically env s2pl (fun t -> write_int t "acct" "x" 7));
      write_done_at := Sim.now env.sim);
  Sim.run ~until:1.0e6 env.sim;
  Alcotest.(check bool) "writer blocked until reader committed" true (!write_done_at > 0.9)

let test_si_reader_does_not_block_writer () =
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  let write_done_at = ref (-1.0) in
  let _ =
    script env ~at:0.0 ~gap:0.5 ~isolation:ssi
      [ (fun t -> ignore (read_int t "acct" "x")); (fun _ -> ()) ]
  in
  Sim.spawn env.sim (fun () ->
      Sim.delay env.sim 0.1;
      ignore (atomically env ssi (fun t -> write_int t "acct" "x" 7));
      write_done_at := Sim.now env.sim);
  Sim.run ~until:1.0e6 env.sim;
  Alcotest.(check bool) "writer proceeded immediately" true
    (!write_done_at > 0.0 && !write_done_at < 0.2)

let test_s2pl_write_skew_prevented () =
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  let r1 = script env ~at:0.0 ~gap:0.02 ~isolation:s2pl [ withdraw_sum "x" 70 ] in
  let r2 = script env ~at:0.005 ~gap:0.02 ~isolation:s2pl [ withdraw_sum "y" 80 ] in
  run_procs env [];
  ignore (r1, r2);
  let x = Option.get (peek_int env "acct" "x") and y = Option.get (peek_int env "acct" "y") in
  Alcotest.(check bool) "constraint holds under S2PL" true (x + y > 0)

let test_s2pl_deadlock_reported () =
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  let r1 =
    script env ~at:0.0 ~gap:0.05 ~isolation:s2pl
      [ (fun t -> write_int t "acct" "x" 1); (fun t -> write_int t "acct" "y" 1) ]
  in
  let r2 =
    script env ~at:0.01 ~gap:0.05 ~isolation:s2pl
      [ (fun t -> write_int t "acct" "y" 2); (fun t -> write_int t "acct" "x" 2) ]
  in
  run_procs env [];
  let outcomes = List.sort compare [ outcome_to_string !r1; outcome_to_string !r2 ] in
  Alcotest.(check (list string)) "one deadlock victim" [ "aborted:deadlock"; "committed" ] outcomes;
  Alcotest.(check int) "stats counted" 1 (Db.stats env.db).Internal.aborts_deadlock

(* {1 Mixed isolation (§3.8)} *)

let test_mixed_si_queries_ssi_updates () =
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  let q_result = ref [] in
  let q =
    script env ~at:0.0 ~gap:0.05 ~isolation:si
      [
        (fun t -> q_result := read_int t "acct" "x" :: !q_result);
        (fun t -> q_result := read_int t "acct" "y" :: !q_result);
      ]
  in
  let w1 =
    script env ~at:0.01 ~gap:0.01 ~isolation:ssi
      [ (fun t -> write_int t "acct" "x" (read_int t "acct" "x" + 1)) ]
  in
  let w2 =
    script env ~at:0.02 ~gap:0.01 ~isolation:ssi
      [ (fun t -> write_int t "acct" "y" (read_int t "acct" "y" + 1)) ]
  in
  run_procs env [];
  check_outcome "query commits" Committed q;
  check_outcome "update 1 commits" Committed w1;
  check_outcome "update 2 commits" Committed w2;
  Alcotest.(check int) "no unsafe aborts" 0 (Db.stats env.db).Internal.aborts_unsafe

(* {1 Lifecycle} *)

let test_suspended_cleanup () =
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  Sim.spawn env.sim (fun () ->
      (* An SSI reader commits while another transaction overlaps it: it must
         be suspended with its SIREAD locks retained. *)
      let overlapper = Db.begin_txn env.db ssi in
      ignore (Txn.read overlapper "acct" "y");
      (* Reads y and writes x: the SIREAD on y is retained (the x SIREAD
         would have been upgraded away, §3.7.3), so it must suspend. *)
      ignore
        (atomically env ssi (fun t ->
             ignore (read_int t "acct" "y");
             write_int t "acct" "x" 51));
      Alcotest.(check int) "one suspended" 1 (Db.suspended_count env.db);
      Alcotest.(check bool) "siread locks retained" true (Db.lock_table_size env.db > 0);
      (* When the overlapper finishes, the next commit cleans up. *)
      Txn.commit overlapper;
      ignore (atomically env ssi (fun t -> ignore (read_int t "acct" "x")));
      Alcotest.(check int) "cleaned up" 0 (Db.suspended_count env.db));
  Sim.run ~until:1.0e6 env.sim

let test_gc_after_updates () =
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  Sim.spawn env.sim (fun () ->
      for i = 1 to 10 do
        ignore (atomically env ssi (fun t -> write_int t "acct" "x" i))
      done);
  Sim.run ~until:1.0e6 env.sim;
  let table = Db.table_exn env.db "acct" in
  Alcotest.(check bool) "versions accumulated" true (Mvstore.version_count table > 2);
  ignore (Db.gc env.db);
  Alcotest.(check int) "one version per key after gc" 2 (Mvstore.version_count table);
  Alcotest.(check (option int)) "latest survives" (Some 10) (peek_int env "acct" "x")

let test_user_abort_rolls_back () =
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  Sim.spawn env.sim (fun () ->
      let r =
        Db.run env.db ssi (fun t ->
            write_int t "acct" "x" 0;
            raise (Types.Abort Types.User_abort))
      in
      Alcotest.(check bool) "reported" true (r = Error Types.User_abort));
  Sim.run ~until:1.0e6 env.sim;
  Alcotest.(check (option int)) "write discarded" (Some 50) (peek_int env "acct" "x");
  Alcotest.(check int) "no lock leak" 0 (Db.lock_table_size env.db)

let test_run_retry () =
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  let n = ref 0 in
  let _ = script env ~at:0.0 ~gap:0.02 ~isolation:ssi [ withdraw_sum "x" 70 ] in
  Sim.spawn env.sim (fun () ->
      Sim.delay env.sim 0.005;
      let r =
        Db.run_retry env.db ssi (fun t ->
            incr n;
            Sim.delay env.sim 0.02;
            let x = read_int t "acct" "x" and y = read_int t "acct" "y" in
            if x + y > 80 then write_int t "acct" "y" (y - 80))
      in
      Alcotest.(check bool) "retry eventually commits" true (r = Ok ()));
  Sim.run ~until:1.0e6 env.sim;
  Alcotest.(check bool) "at least one attempt" true (!n >= 1)

let test_blocked_writer_aborts_on_wake () =
  (* T2 blocks on T1's X lock with an old snapshot; when T1 commits, T2 wakes
     and must abort with Update_conflict. *)
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  let r1 =
    script env ~at:0.0 ~gap:0.1 ~isolation:ssi
      [ (fun t -> write_int t "acct" "x" 1); (fun _ -> ()) ]
  in
  let r2 =
    script env ~at:0.01 ~gap:0.01 ~isolation:ssi
      [ (fun t -> ignore (read_int t "acct" "y")); (fun t -> write_int t "acct" "x" 2) ]
  in
  run_procs env [];
  check_outcome "holder commits" Committed r1;
  check_outcome "blocked writer aborts on wake" (Aborted Types.Update_conflict) r2

let suite =
  [
    ("read own writes", `Quick, test_read_own_writes);
    ("repeatable read under SI", `Quick, test_repeatable_read_under_si);
    ("read committed sees latest", `Quick, test_read_committed_sees_latest);
    ("no dirty reads", `Quick, test_no_dirty_reads);
    ("first committer wins", `Quick, test_first_committer_wins);
    ("lazy snapshot (4.5)", `Quick, test_lazy_snapshot_single_statement);
    ("write skew allowed under SI", `Quick, test_write_skew_allowed_under_si);
    ("write skew prevented under SSI", `Quick, test_write_skew_prevented_under_ssi);
    ("sequential SSI never aborts", `Quick, test_ssi_sequential_never_aborts);
    ("read-only anomaly prevented", `Quick, test_read_only_anomaly_prevented);
    ("Fig 3.8 false positive: basic vs precise", `Quick, test_fig38_false_positive_modes);
    ("pivot aborts at commit without abort-early", `Quick, test_pivot_aborts_at_commit_when_late);
    ("doctors anomaly under SI (Example 1)", `Quick, test_doctors_anomaly_under_si);
    ("doctors prevented under SSI", `Quick, test_doctors_prevented_under_ssi);
    ("insert phantom skew SI vs SSI", `Quick, test_insert_phantom_skew_under_si_vs_ssi);
    ( "committed gap SIREAD aborts phantom pivot",
      `Quick,
      test_committed_gap_siread_aborts_phantom_pivot );
    ("scan sees own inserts", `Quick, test_scan_sees_own_inserts);
    ("scan skips own deletes", `Quick, test_scan_skips_own_deletes);
    ("duplicate insert aborts", `Quick, test_duplicate_insert_aborts);
    ("insert rechecks its gap after a wait", `Quick, test_insert_rechecks_gap_after_wait);
    ("S2PL reader blocks writer", `Quick, test_s2pl_reader_blocks_writer);
    ("SI reader does not block writer", `Quick, test_si_reader_does_not_block_writer);
    ("S2PL write skew prevented", `Quick, test_s2pl_write_skew_prevented);
    ("S2PL deadlock reported", `Quick, test_s2pl_deadlock_reported);
    ("mixed SI queries + SSI updates (3.8)", `Quick, test_mixed_si_queries_ssi_updates);
    ("suspended transaction cleanup", `Quick, test_suspended_cleanup);
    ("gc after updates", `Quick, test_gc_after_updates);
    ("user abort rolls back", `Quick, test_user_abort_rolls_back);
    ("run_retry", `Quick, test_run_retry);
    ("blocked writer aborts on wake", `Quick, test_blocked_writer_aborts_on_wake);
  ]

let () = Alcotest.run "engine" [ ("engine", suite) ]
