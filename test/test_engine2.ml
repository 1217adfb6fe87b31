(* Second engine suite: locking-read (SELECT FOR UPDATE) semantics, LIMIT
   scans, page-granularity behaviour (the Berkeley DB configuration),
   read-committed, and lifecycle edge cases. *)

open Core
open Testutil

let ssi = Types.Serializable

let si = Types.Snapshot

let s2pl = Types.S2pl

let accounts = ("acct", [ ("x", "50"); ("y", "50") ])

(* {1 read_for_update} *)

let test_fu_reads_current_value () =
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  Sim.spawn env.sim (fun () ->
      ignore
        (atomically env ssi (fun t ->
             Alcotest.(check (option string)) "fu read" (Some "50")
               (Txn.read_for_update t "acct" "x");
             Txn.write t "acct" "x" "51";
             Alcotest.(check (option string)) "fu sees own write" (Some "51")
               (Txn.read_for_update t "acct" "x"))));
  Sim.run ~until:1e6 env.sim

let test_fu_blocks_concurrent_writer () =
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  let t2_done = ref (-1.0) in
  let _ =
    script env ~at:0.0 ~gap:0.5 ~isolation:ssi
      [ (fun t -> ignore (Txn.read_for_update t "acct" "x")); (fun _ -> ()) ]
  in
  Sim.spawn env.sim (fun () ->
      Sim.delay env.sim 0.1;
      ignore (Db.run_retry env.db ssi (fun t -> Txn.write t "acct" "x" "9"));
      t2_done := Sim.now env.sim);
  Sim.run ~until:1e6 env.sim;
  Alcotest.(check bool) "writer waited for FU holder" true (!t2_done > 0.9)

let test_fu_first_statement_never_fcw_aborts () =
  (* §4.5: two increment transactions whose FIRST operation is the locking
     read serialize via the lock and both commit, even under SI. *)
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  let incr t =
    let v = int_of_string (Txn.read_for_update_exn t "acct" "x") in
    Sim.delay env.sim 0.02;
    Txn.write t "acct" "x" (string_of_int (v + 1))
  in
  let r1 = script env ~at:0.0 ~isolation:si [ incr ] in
  let r2 = script env ~at:0.001 ~isolation:si [ incr ] in
  run_procs env [];
  check_outcome "first" Committed r1;
  check_outcome "second commits too (no FCW)" Committed r2;
  Alcotest.(check (option int)) "both increments applied" (Some 52) (peek_int env "acct" "x")

let test_fu_no_upgrade_deadlock_under_s2pl () =
  (* Two read-modify-writes on the same key via FU: the second waits for the
     first; no deadlock, both commit. *)
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  let incr t =
    let v = int_of_string (Txn.read_for_update_exn t "acct" "x") in
    Sim.delay env.sim 0.02;
    Txn.write t "acct" "x" (string_of_int (v + 1))
  in
  let r1 = script env ~at:0.0 ~isolation:s2pl [ incr ] in
  let r2 = script env ~at:0.001 ~isolation:s2pl [ incr ] in
  run_procs env [];
  check_outcome "first" Committed r1;
  check_outcome "second" Committed r2;
  Alcotest.(check int) "no deadlocks" 0 (Db.stats env.db).Internal.aborts_deadlock

let test_plain_read_then_write_upgrade_deadlocks_under_s2pl () =
  (* The same pattern with plain reads produces the classic S->X upgrade
     deadlock the paper's S2PL suffers from (Fig 6.1). *)
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  let incr t =
    let v = int_of_string (Txn.read_exn t "acct" "x") in
    Sim.delay env.sim 0.02;
    Txn.write t "acct" "x" (string_of_int (v + 1))
  in
  let r1 = script env ~at:0.0 ~isolation:s2pl [ incr ] in
  let r2 = script env ~at:0.001 ~isolation:s2pl [ incr ] in
  run_procs env [];
  let outcomes = List.sort compare [ outcome_to_string !r1; outcome_to_string !r2 ] in
  Alcotest.(check (list string)) "one upgrade deadlock"
    [ "aborted:deadlock"; "committed" ] outcomes

let test_fu_vulnerable_edge_still_detected () =
  (* FU must not hide genuine rw conflicts on *other* rows: the write-skew
     pair still aborts when the cross-read is a plain read. *)
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  let skew my other t =
    let mine = int_of_string (Txn.read_for_update_exn t "acct" my) in
    let theirs = int_of_string (Txn.read_exn t "acct" other) in
    if mine + theirs > 70 then Txn.write t "acct" my (string_of_int (mine - 70))
  in
  let r1 = script env ~at:0.0 ~gap:0.02 ~isolation:ssi [ skew "x" "y" ] in
  let r2 = script env ~at:0.005 ~gap:0.02 ~isolation:ssi [ skew "y" "x" ] in
  run_procs env [];
  let outcomes = List.sort compare [ outcome_to_string !r1; outcome_to_string !r2 ] in
  Alcotest.(check (list string)) "skew caught" [ "aborted:unsafe"; "committed" ] outcomes

(* {1 LIMIT scans} *)

let many_rows = ("t", List.init 20 (fun i -> (Printf.sprintf "k%02d" i, string_of_int i)))

let test_scan_limit_results () =
  let env = make_env ~tables:[ "t" ] ~rows:[ many_rows ] () in
  Sim.spawn env.sim (fun () ->
      ignore
        (atomically env ssi (fun t ->
             let rows = Txn.scan ~limit:3 t "t" in
             Alcotest.(check (list string)) "first three keys" [ "k00"; "k01"; "k02" ]
               (List.map fst rows);
             let rows = Txn.scan ~lo:"k05" ~limit:2 t "t" in
             Alcotest.(check (list string)) "offset limit" [ "k05"; "k06" ] (List.map fst rows);
             let rows = Txn.scan ~lo:"zz" ~limit:5 t "t" in
             Alcotest.(check int) "empty range" 0 (List.length rows))));
  Sim.run ~until:1e6 env.sim

let test_scan_limit_skips_tombstones () =
  let env = make_env ~tables:[ "t" ] ~rows:[ many_rows ] () in
  Sim.spawn env.sim (fun () ->
      ignore (atomically env ssi (fun t -> ignore (Txn.delete t "t" "k00")));
      ignore
        (atomically env ssi (fun t ->
             let rows = Txn.scan ~limit:1 t "t" in
             Alcotest.(check (list string)) "tombstone skipped" [ "k01" ] (List.map fst rows))));
  Sim.run ~until:1e6 env.sim

let test_scan_limit_locks_only_prefix () =
  (* A LIMIT-1 scan must not conflict with inserts far beyond the row it
     examined. *)
  let env = make_env ~tables:[ "t" ] ~rows:[ many_rows ] () in
  let r1 =
    script env ~at:0.0 ~gap:0.05 ~isolation:ssi
      [
        (fun t ->
          let rows = Txn.scan ~limit:1 t "t" in
          ignore rows);
        (fun t -> Txn.write t "t" "k00" "touched");
      ]
  in
  let r2 =
    script env ~at:0.01 ~gap:0.01 ~isolation:ssi
      [ (fun t -> Txn.insert t "t" "k99" "new") ]
  in
  run_procs env [];
  check_outcome "limited scanner commits" Committed r1;
  check_outcome "far insert commits" Committed r2


let test_s2pl_gap_lock_blocks_insert () =
  (* S2PL phantom protection: a scanner's next-key S locks block a
     concurrent insert into the scanned range until the scanner commits. *)
  let env = make_env ~tables:[ "t" ] ~rows:[ many_rows ] () in
  let insert_done = ref (-1.0) in
  let _ =
    script env ~at:0.0 ~gap:0.5 ~isolation:s2pl
      [ (fun t -> ignore (Txn.scan ~lo:"k05" ~hi:"k10" t "t")); (fun _ -> ()) ]
  in
  Sim.spawn env.sim (fun () ->
      Sim.delay env.sim 0.1;
      ignore (Db.run_retry env.db s2pl (fun t -> Txn.insert t "t" "k05a" "phantom"));
      insert_done := Sim.now env.sim);
  Sim.run ~until:1e6 env.sim;
  Alcotest.(check bool) "insert waited for scanner" true (!insert_done > 0.9)

let test_s2pl_insert_outside_range_not_blocked () =
  let env = make_env ~tables:[ "t" ] ~rows:[ many_rows ] () in
  let insert_done = ref (-1.0) in
  let _ =
    script env ~at:0.0 ~gap:0.5 ~isolation:s2pl
      [ (fun t -> ignore (Txn.scan ~lo:"k05" ~hi:"k10" t "t")); (fun _ -> ()) ]
  in
  Sim.spawn env.sim (fun () ->
      Sim.delay env.sim 0.1;
      ignore (Db.run_retry env.db s2pl (fun t -> Txn.insert t "t" "k15a" "outside"));
      insert_done := Sim.now env.sim);
  Sim.run ~until:1e6 env.sim;
  Alcotest.(check bool) "insert outside range proceeded" true
    (!insert_done > 0.0 && !insert_done < 0.3)

let test_s2pl_scan_sees_insert_it_waited_for () =
  (* T0 w(k3); T1's scan up to k4 waits for k3's row lock; T0 inserts k2,
     whose gap T1 has not locked yet, and commits. Once its locks are held
     the scan must find k2 too, not return the k3 and k4 it collected
     before the wait. *)
  let env = make_env ~tables:[ "t" ] ~rows:[ ("t", [ ("k3", "0"); ("k4", "0") ]) ] () in
  let rows = ref [] in
  let r0 =
    script env ~at:0.0 ~gap:0.2 ~isolation:s2pl
      [ (fun t -> Txn.write t "t" "k3" "1"); (fun t -> Txn.insert t "t" "k2" "1") ]
  in
  let r1 =
    script env ~at:0.1 ~isolation:s2pl
      [ (fun t -> rows := Txn.scan ~hi:"k4" t "t"); (fun t -> ignore (Txn.read t "t" "k2")) ]
  in
  run_procs env [];
  check_outcome "writer commits" Committed r0;
  check_outcome "scanner commits" Committed r1;
  Alcotest.(check (list (pair string string)))
    "scan rows" [ ("k2", "1"); ("k3", "1"); ("k4", "0") ] !rows

let test_rc_scan_sees_latest () =
  let env = make_env ~tables:[ "t" ] ~rows:[ many_rows ] () in
  Sim.spawn env.sim (fun () ->
      let reader = Db.begin_txn env.db Types.Read_committed in
      let before = List.length (Txn.scan reader "t") in
      ignore (atomically env ssi (fun t -> Txn.insert t "t" "zz" "new"));
      let after = List.length (Txn.scan reader "t") in
      Txn.commit reader;
      Alcotest.(check int) "RC sees rows committed mid-transaction" (before + 1) after);
  Sim.run ~until:1e6 env.sim

let test_ro_txn_rejects_writes () =
  let env = make_env ~tables:[ "t" ] ~rows:[ many_rows ] () in
  Sim.spawn env.sim (fun () ->
      match
        Db.run ~read_only:true env.db ssi (fun t ->
            ignore (Txn.read t "t" "k00");
            Txn.write t "t" "k00" "nope")
      with
      | Error (Types.Internal_error _) -> ()
      | _ -> Alcotest.fail "expected rejection of write in READ ONLY txn");
  Sim.run ~until:1e6 env.sim;
  Alcotest.(check (option string)) "value untouched" (Some "0") (peek env "t" "k00")

(* {1 Page granularity (Berkeley DB profile)} *)

let page_config () =
  {
    (Config.bdb ()) with
    Config.record_history = true;
    btree_fanout = 4 (* tiny pages to exercise splits *);
  }

let test_page_mode_write_skew_prevented () =
  let env = make_env ~config:{ (page_config ()) with Config.ssi = Config.Basic }
      ~tables:[ "acct" ] ~rows:[ accounts ] ()
  in
  let withdraw from other t =
    let a = int_of_string (Txn.read_exn t "acct" from) in
    let b = int_of_string (Txn.read_exn t "acct" other) in
    if a + b > 70 then Txn.write t "acct" from (string_of_int (a - 70))
  in
  let r1 = script env ~at:0.0 ~gap:0.02 ~isolation:ssi [ withdraw "x" "y" ] in
  let r2 = script env ~at:0.005 ~gap:0.02 ~isolation:ssi [ withdraw "y" "x" ] in
  run_procs env [];
  let outcomes = List.sort compare [ outcome_to_string !r1; outcome_to_string !r2 ] in
  Alcotest.(check bool) "at least one aborts at page granularity" true
    (outcomes <> [ "committed"; "committed" ])

let test_page_mode_fcw_is_page_level () =
  (* Two SI transactions updating different rows on the same page: the
     second aborts under page-level first-committer-wins (the Berkeley DB
     behaviour of §6.1.5). *)
  let rows = ("t", List.init 3 (fun i -> (Printf.sprintf "k%d" i, "0"))) in
  let env = make_env ~config:(page_config ()) ~tables:[ "t" ] ~rows:[ rows ] () in
  let r1 =
    script env ~at:0.0 ~gap:0.04 ~isolation:si
      [ (fun t -> ignore (Txn.read_exn t "t" "k0")); (fun t -> Txn.write t "t" "k0" "a") ]
  in
  let r2 =
    script env ~at:0.01 ~gap:0.04 ~isolation:si
      [ (fun t -> ignore (Txn.read_exn t "t" "k1")); (fun t -> Txn.write t "t" "k1" "b") ]
  in
  run_procs env [];
  check_outcome "first commits" Committed r1;
  check_outcome "second hits page-level FCW" (Aborted Types.Update_conflict) r2

let test_page_mode_split_conflicts_with_readers () =
  (* §6.1.5: an insert that splits pages (here including the root) registers
     conflicts with concurrent SSI readers via page stamps. *)
  let rows = ("t", List.init 16 (fun i -> (Printf.sprintf "k%02d" i, "0"))) in
  let env = make_env ~config:(page_config ()) ~tables:[ "t" ] ~rows:[ rows ] () in
  (* Reader: reads twice around the splitter's commit; with out+in edges it
     may abort — what we check is that the rw edge got recorded at all. *)
  let seen_conflict = ref false in
  let _ =
    script env ~at:0.0 ~gap:0.05 ~isolation:ssi
      [
        (fun t -> ignore (Txn.read_exn t "t" "k00"));
        (fun t ->
          ignore (Txn.read_exn t "t" "k15");
          seen_conflict := (t : Internal.txn).Internal.out_conflict <> Internal.No_conflict);
      ]
  in
  let _ =
    script env ~at:0.01 ~gap:0.005 ~isolation:ssi
      (List.init 8 (fun i t -> Txn.insert t "t" (Printf.sprintf "k%02d_x" i) "new"))
  in
  run_procs env [];
  Alcotest.(check bool) "reader observed rw edge from structural change" true !seen_conflict

(* A writer X-locks the leaf that holds its key, and an insert queued ahead
   of it can split that leaf and move the key while it waits: it must then
   lock the key's new leaf too. T1 writes k1; T3 (inserting k0a) and then
   T2 (locking k3 for update) queue behind it; T3 splits the leaf, moving
   k2 and k3 to a new one, and commits. T4 reads k2 and writes k3; T2
   writes k2 from the value it read for k3. Were T2 to hold only the old
   leaf, T4 would pass without waiting: under S2PL both would commit a
   non-serializable history, under SI and SSI T2 would fail
   first-committer-wins on the new leaf. *)
let test_page_mode_lock_follows_split () =
  List.iter
    (fun isolation ->
      let name = Types.isolation_to_string isolation in
      let rows = ("t", List.init 4 (fun i -> (Printf.sprintf "k%d" i, "0"))) in
      let env = make_env ~config:(page_config ()) ~tables:[ "t" ] ~rows:[ rows ] () in
      let holds_leaf = ref false and read = ref "" in
      let r1 = script env ~at:0.0 ~gap:0.1 ~isolation [ (fun t -> Txn.write t "t" "k1" "1") ] in
      let r3 = script env ~at:0.01 ~isolation [ (fun t -> Txn.insert t "t" "k0a" "3") ] in
      let r2 =
        script env ~at:0.02 ~gap:0.2 ~isolation
          [
            (fun t ->
              read := Txn.read_for_update_exn t "t" "k3";
              let _, access = Mvstore.find_chain_path (Db.table_exn env.db "t") "k3" in
              holds_leaf :=
                List.for_all
                  (fun p ->
                    Lockmgr.holds_mode (Db.locks env.db) ~owner:(Txn.id t) ~mode:Lockmgr.X
                      (Internal.page_resource "t" p))
                  access.Btree.leaves);
            (fun t -> Txn.write t "t" "k2" (!read ^ "+2"));
          ]
      in
      let _ =
        script env ~at:0.2 ~isolation
          [ (fun t -> ignore (Txn.read t "t" "k2")); (fun t -> Txn.write t "t" "k3" "4") ]
      in
      run_procs env [];
      check_outcome (name ^ ": T1") Committed r1;
      check_outcome (name ^ ": T3 splits the leaf") Committed r3;
      Alcotest.(check bool) (name ^ ": T2 holds X on k3's leaf") true !holds_leaf;
      check_outcome (name ^ ": T2") Committed r2;
      Alcotest.(check bool) (name ^ ": serializable") true
        (Mvsg.is_serializable (Db.history env.db)))
    [ s2pl; si; ssi ]

(* An S2PL read at row granularity waits on the row's lock while the
   holder's insert splits the key's leaf. Once granted, the read finds the
   key again on its new leaf and, as the leaves differ, takes the row lock a
   second time before it reads. The eight rows fill one leaf of fanout 8:
   T1 X-locks k6, then inserts k0a, which splits the leaf and moves k6 to
   a new page; T2's read of k6 queues behind T1 in between. The lock
   requests and the final clock pin that second request. *)
let test_s2pl_row_read_relocks_after_split () =
  let rows = ("t", List.init 8 (fun i -> (Printf.sprintf "k%d" i, "0"))) in
  let env = make_env ~tables:[ "t" ] ~rows:[ rows ] () in
  let table = Db.table_exn env.db "t" in
  let leaves key = (snd (Mvstore.find_chain_path table key)).Btree.leaves in
  let before = leaves "k6" in
  let read = ref None in
  let r1 =
    script env ~at:0.0 ~gap:0.1 ~isolation:s2pl
      [ (fun t -> Txn.write t "t" "k6" "1"); (fun t -> Txn.insert t "t" "k0a" "2") ]
  in
  let r2 = script env ~at:0.05 ~isolation:s2pl [ (fun t -> read := Txn.read t "t" "k6") ] in
  run_procs env [];
  check_outcome "T1" Committed r1;
  check_outcome "T2" Committed r2;
  Alcotest.(check bool) "the insert moved k6 to another leaf" true (leaves "k6" <> before);
  Alcotest.(check (option string)) "T2 reads T1's write" (Some "1") !read;
  Alcotest.(check int) "lock requests" 5 (Lockmgr.requests (Db.locks env.db));
  Alcotest.(check string) "final clock" "0.21002200000000001" (Printf.sprintf "%.17g" (Sim.now env.sim))

let test_page_mode_random_ssi_serializable () =
  (* Whole-engine property at page granularity: SSI histories stay
     serializable even with page-level (coarse) conflict detection. *)
  for seed = 1 to 8 do
    let env =
      make_env ~config:(page_config ()) ~tables:[ "t" ]
        ~rows:[ ("t", List.init 12 (fun i -> (Printf.sprintf "k%02d" i, "100"))) ]
        ()
    in
    for client = 1 to 4 do
      Sim.spawn env.sim (fun () ->
          let st = Random.State.make [| seed; client |] in
          for _ = 1 to 10 do
            ignore
              (Db.run env.db ssi (fun t ->
                   let k1 = Printf.sprintf "k%02d" (Random.State.int st 12) in
                   let k2 = Printf.sprintf "k%02d" (Random.State.int st 12) in
                   let v1 = int_of_string (Option.value ~default:"0" (Txn.read t "t" k1)) in
                   Sim.delay env.sim (Random.State.float st 0.001);
                   let v2 = int_of_string (Option.value ~default:"0" (Txn.read t "t" k2)) in
                   if v1 + v2 > 0 then Txn.write t "t" k1 (string_of_int (v1 - 5))));
            Sim.delay env.sim (Random.State.float st 0.001)
          done)
    done;
    Sim.run ~until:1e6 env.sim;
    if not (Mvsg.is_serializable (Db.history env.db)) then
      Alcotest.failf "page-mode SSI seed %d not serializable" seed
  done


(* {1 Victim selection (3.7.2)} *)

(* The Example 3 shape in precise mode: when the pivot's write finds Tin's
   SIREAD (with Tout already committed), the dangerous structure appears
   with both endpoints (Tin, Tpivot) still active. Prefer_pivot aborts the
   pivot; Prefer_younger aborts Tin (it began later), and the pivot can
   commit because its in-edge now points at an aborted transaction. *)
let victim_scenario policy =
  let config = { (Config.test ()) with Config.victim = policy } in
  let env =
    make_env ~config ~tables:[ "t" ] ~rows:[ ("t", [ ("x", "0"); ("y", "0"); ("z", "0") ]) ] ()
  in
  let r_pivot =
    script env ~at:0.0 ~gap:0.1 ~isolation:Types.Serializable
      [ (fun t -> ignore (Txn.read_exn t "t" "y")); (fun t -> Txn.write t "t" "x" "1") ]
  in
  let r_out =
    script env ~at:0.02 ~gap:0.01 ~isolation:Types.Serializable
      [ (fun t -> Txn.write t "t" "y" "2"); (fun t -> Txn.write t "t" "z" "2") ]
  in
  (* Tin: long-running reader overlapping the pivot's write at ~0.10. *)
  let r_in =
    script env ~at:0.06 ~gap:0.08 ~isolation:Types.Serializable
      [ (fun t -> ignore (Txn.read_exn t "t" "x")); (fun t -> ignore (Txn.read_exn t "t" "z")) ]
  in
  run_procs env [];
  (!r_pivot, !r_out, !r_in)

let test_victim_prefer_pivot () =
  let r_pivot, r_out, r_in = victim_scenario Config.Prefer_pivot in
  Alcotest.check outcome_testable "Tout commits" Committed r_out;
  Alcotest.check outcome_testable "pivot aborts" (Aborted Types.Unsafe) r_pivot;
  Alcotest.check outcome_testable "Tin commits" Committed r_in

let test_victim_prefer_younger () =
  let r_pivot, r_out, r_in = victim_scenario Config.Prefer_younger in
  Alcotest.check outcome_testable "Tout commits" Committed r_out;
  Alcotest.check outcome_testable "younger Tin aborts" (Aborted Types.Unsafe) r_in;
  Alcotest.check outcome_testable "pivot survives" Committed r_pivot

let test_victim_younger_still_serializable () =
  (* Whole-engine property: the alternative policy must not lose safety. *)
  for seed = 1 to 6 do
    let config = { (Config.test ()) with Config.victim = Config.Prefer_younger } in
    let env =
      make_env ~config ~tables:[ "t" ]
        ~rows:[ ("t", List.init 4 (fun i -> (Printf.sprintf "k%d" i, "100"))) ]
        ()
    in
    for client = 1 to 4 do
      Sim.spawn env.sim (fun () ->
          let st = Random.State.make [| seed; client |] in
          for _ = 1 to 10 do
            ignore
              (Db.run env.db Types.Serializable (fun t ->
                   let k1 = Printf.sprintf "k%d" (Random.State.int st 4) in
                   let k2 = Printf.sprintf "k%d" (Random.State.int st 4) in
                   let v1 = int_of_string (Option.value ~default:"0" (Txn.read t "t" k1)) in
                   Sim.delay env.sim (Random.State.float st 0.001);
                   let v2 = int_of_string (Option.value ~default:"0" (Txn.read t "t" k2)) in
                   if v1 + v2 > 0 then Txn.write t "t" k1 (string_of_int (v1 - 5))));
            Sim.delay env.sim (Random.State.float st 0.001)
          done)
    done;
    Sim.run ~until:1e6 env.sim;
    if not (Mvsg.is_serializable (Db.history env.db)) then
      Alcotest.failf "prefer-younger seed %d not serializable" seed
  done


(* {1 Read-only snapshot refinement (extension)} *)

(* T_in is read-only and took its snapshot BEFORE T_out committed: the
   dangerous structure cannot close a cycle, so the refined check commits
   the pivot where the unrefined one aborts it. *)
let ro_refinement_scenario refinement =
  let config = { (Config.test ()) with Config.ro_refinement = refinement } in
  let env =
    make_env ~config ~tables:[ "t" ] ~rows:[ ("t", [ ("x", "0"); ("y", "0") ]) ] ()
  in
  (* b_in r_in(x) ... c_in late; pivot r(y) then w(x); Tout w(y) commits in
     between. Tin is DECLARED read-only so the refinement can apply while it
     is still active. *)
  let r_in = ref Pending in
  Sim.spawn env.sim (fun () ->
      let txn = Db.begin_txn ~read_only:true env.db Types.Serializable in
      match
        ignore (Txn.read_exn txn "t" "x");
        Sim.delay env.sim 0.12;
        Txn.commit txn
      with
      | () -> r_in := Committed
      | exception Types.Abort r -> r_in := Aborted r);
  let r_pivot =
    script env ~at:0.01 ~gap:0.08 ~isolation:Types.Serializable
      [ (fun t -> ignore (Txn.read_exn t "t" "y")); (fun t -> Txn.write t "t" "x" "1") ]
  in
  let r_out =
    script env ~at:0.03 ~gap:0.005 ~isolation:Types.Serializable
      [ (fun t -> Txn.write t "t" "y" "2") ]
  in
  run_procs env [];
  let ok = Mvsg.is_serializable (Db.history env.db) in
  (!r_in, !r_pivot, !r_out, ok)

let test_ro_refinement_avoids_false_positive () =
  let r_in, r_pivot, r_out, ok = ro_refinement_scenario true in
  Alcotest.check outcome_testable "Tin commits" Committed r_in;
  Alcotest.check outcome_testable "Tout commits" Committed r_out;
  Alcotest.check outcome_testable "pivot commits under refinement" Committed r_pivot;
  Alcotest.(check bool) "and the history is serializable" true ok

let test_without_refinement_pivot_aborts () =
  let r_in, r_pivot, r_out, ok = ro_refinement_scenario false in
  Alcotest.check outcome_testable "Tin commits" Committed r_in;
  Alcotest.check outcome_testable "Tout commits" Committed r_out;
  Alcotest.check outcome_testable "unrefined check aborts the pivot (false positive)"
    (Aborted Types.Unsafe) r_pivot;
  Alcotest.(check bool) "still serializable" true ok

let test_ro_refinement_still_blocks_read_only_anomaly () =
  (* Adversarial: Example 3's T_in is read-only, but there T_out commits
     BEFORE T_in's snapshot, so the refined check must still fire. *)
  let config =
    { (Config.test ()) with Config.ro_refinement = true; record_history = true }
  in
  let s = Interleave.sweep ~config ~isolation:Types.Serializable Interleave.read_only_anomaly_spec in
  Alcotest.(check int) "no non-serializable execution" 0 s.Interleave.non_serializable;
  let s_wskew = Interleave.sweep ~config ~isolation:Types.Serializable Interleave.write_skew_spec in
  Alcotest.(check int) "write skew still blocked" 0 s_wskew.Interleave.non_serializable

let test_ro_refinement_random_serializable () =
  for seed = 1 to 6 do
    let config = { (Config.test ()) with Config.ro_refinement = true } in
    let env =
      make_env ~config ~tables:[ "t" ]
        ~rows:[ ("t", List.init 4 (fun i -> (Printf.sprintf "k%d" i, "100"))) ]
        ()
    in
    for client = 1 to 4 do
      Sim.spawn env.sim (fun () ->
          let st = Random.State.make [| seed; client |] in
          for _ = 1 to 10 do
            ignore
              (Db.run env.db Types.Serializable (fun t ->
                   let k1 = Printf.sprintf "k%d" (Random.State.int st 4) in
                   let k2 = Printf.sprintf "k%d" (Random.State.int st 4) in
                   let v1 = int_of_string (Option.value ~default:"0" (Txn.read t "t" k1)) in
                   Sim.delay env.sim (Random.State.float st 0.001);
                   let v2 = int_of_string (Option.value ~default:"0" (Txn.read t "t" k2)) in
                   (* half the transactions are pure readers *)
                   if Random.State.bool st && v1 + v2 > 0 then
                     Txn.write t "t" k1 (string_of_int (v1 - 5))));
            Sim.delay env.sim (Random.State.float st 0.001)
          done)
    done;
    Sim.run ~until:1e6 env.sim;
    if not (Mvsg.is_serializable (Db.history env.db)) then
      Alcotest.failf "ro-refinement seed %d not serializable" seed
  done

(* {1 Read committed and odds and ends} *)

let test_read_committed_no_repeatable_read () =
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  Sim.spawn env.sim (fun () ->
      ignore
        (atomically env Types.Read_committed (fun t ->
             Txn.write t "acct" "x" "1" (* RC writes still X-lock *))));
  Sim.run ~until:1e6 env.sim;
  Alcotest.(check (option int)) "rc write committed" (Some 1) (peek_int env "acct" "x")

let test_missing_table_aborts () =
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  Sim.spawn env.sim (fun () ->
      match Db.run env.db ssi (fun t -> Txn.read t "nope" "x") with
      | Error (Types.Internal_error _) -> ()
      | _ -> Alcotest.fail "expected Internal_error");
  Sim.run ~until:1e6 env.sim

let test_missing_key_read_exn () =
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  Sim.spawn env.sim (fun () ->
      match Db.run env.db ssi (fun t -> Txn.read_exn t "acct" "nope") with
      | Error (Types.Internal_error _) -> ()
      | _ -> Alcotest.fail "expected Internal_error");
  Sim.run ~until:1e6 env.sim

let test_update_helper () =
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  Sim.spawn env.sim (fun () ->
      ignore
        (atomically env ssi (fun t ->
             Txn.update t "acct" "x" (function
               | Some v -> Some (string_of_int (int_of_string v * 2))
               | None -> None))));
  Sim.run ~until:1e6 env.sim;
  Alcotest.(check (option int)) "doubled" (Some 100) (peek_int env "acct" "x")

let test_suspension_for_pure_writer_with_out_conflict () =
  (* §3.7.3 note: with SIREAD upgrade, a transaction whose only retained
     state is an *outgoing* conflict must still be suspended. A pure writer
     whose write created an out edge... writers get in-edges; out-edges come
     from reads. Instead verify the simpler contract: a pure (blind) writer
     with no conflicts is NOT suspended. *)
  let env = make_env ~tables:[ "acct" ] ~rows:[ accounts ] () in
  Sim.spawn env.sim (fun () ->
      let overlapper = Db.begin_txn env.db ssi in
      ignore (Txn.read overlapper "acct" "y");
      ignore (atomically env ssi (fun t -> Txn.write t "acct" "x" "7"));
      Alcotest.(check int) "blind writer not suspended" 0 (Db.suspended_count env.db);
      Txn.commit overlapper);
  Sim.run ~until:1e6 env.sim

let test_insert_after_delete_same_txn () =
  let env = make_env ~tables:[ "t" ] ~rows:[ ("t", [ ("a", "1") ]) ] () in
  Sim.spawn env.sim (fun () ->
      ignore
        (atomically env ssi (fun t ->
             Alcotest.(check bool) "deleted" true (Txn.delete t "t" "a");
             Txn.insert t "t" "a" "2";
             Alcotest.(check (option string)) "reinserted visible" (Some "2")
               (Txn.read t "t" "a"))));
  Sim.run ~until:1e6 env.sim;
  Alcotest.(check (option string)) "committed" (Some "2") (peek env "t" "a")

let test_delete_missing_key () =
  let env = make_env ~tables:[ "t" ] () in
  Sim.spawn env.sim (fun () ->
      ignore
        (atomically env ssi (fun t ->
             Alcotest.(check bool) "delete absent returns false" false (Txn.delete t "t" "zz"))));
  Sim.run ~until:1e6 env.sim

let suite =
  [
    ("fu reads current value", `Quick, test_fu_reads_current_value);
    ("fu blocks concurrent writer", `Quick, test_fu_blocks_concurrent_writer);
    ("fu first statement never FCW-aborts (4.5)", `Quick, test_fu_first_statement_never_fcw_aborts);
    ("fu avoids S2PL upgrade deadlock", `Quick, test_fu_no_upgrade_deadlock_under_s2pl);
    ("plain RMW upgrade-deadlocks under S2PL", `Quick,
     test_plain_read_then_write_upgrade_deadlocks_under_s2pl);
    ("fu keeps vulnerable edges detectable", `Quick, test_fu_vulnerable_edge_still_detected);
    ("scan limit results", `Quick, test_scan_limit_results);
    ("scan limit skips tombstones", `Quick, test_scan_limit_skips_tombstones);
    ("scan limit locks only prefix", `Quick, test_scan_limit_locks_only_prefix);
    ("S2PL gap lock blocks insert", `Quick, test_s2pl_gap_lock_blocks_insert);
    ("S2PL insert outside range not blocked", `Quick, test_s2pl_insert_outside_range_not_blocked);
    ("S2PL scan sees the insert it waited for", `Quick, test_s2pl_scan_sees_insert_it_waited_for);
    ("RC scan sees latest", `Quick, test_rc_scan_sees_latest);
    ("read-only txn rejects writes", `Quick, test_ro_txn_rejects_writes);
    ("page mode write skew prevented", `Quick, test_page_mode_write_skew_prevented);
    ("page mode FCW is page-level", `Quick, test_page_mode_fcw_is_page_level);
    ("page splits conflict with readers", `Quick, test_page_mode_split_conflicts_with_readers);
    ("page lock follows a split", `Quick, test_page_mode_lock_follows_split);
    ("S2PL row read relocks after a split", `Quick, test_s2pl_row_read_relocks_after_split);
    ("page mode random SSI serializable", `Slow, test_page_mode_random_ssi_serializable);
    ("victim prefer pivot", `Quick, test_victim_prefer_pivot);
    ("victim prefer younger", `Quick, test_victim_prefer_younger);
    ("prefer younger still serializable", `Slow, test_victim_younger_still_serializable);
    ("ro refinement avoids false positive", `Quick, test_ro_refinement_avoids_false_positive);
    ("without refinement pivot aborts", `Quick, test_without_refinement_pivot_aborts);
    ("ro refinement blocks real anomalies", `Quick, test_ro_refinement_still_blocks_read_only_anomaly);
    ("ro refinement random serializable", `Slow, test_ro_refinement_random_serializable);
    ("read committed basics", `Quick, test_read_committed_no_repeatable_read);
    ("missing table aborts", `Quick, test_missing_table_aborts);
    ("missing key read_exn", `Quick, test_missing_key_read_exn);
    ("update helper", `Quick, test_update_helper);
    ("blind writer not suspended", `Quick, test_suspension_for_pure_writer_with_out_conflict);
    ("insert after delete in txn", `Quick, test_insert_after_delete_same_txn);
    ("delete missing key", `Quick, test_delete_missing_key);
  ]

let () = Alcotest.run "engine2" [ ("engine2", suite) ]
