(* Tests for the three benchmarks: program semantics, invariants under
   serializable algorithms, known anomalies under SI, and driver plumbing. *)

open Core
open Testutil

let mk_env ?config () =
  let config = match config with Some c -> c | None -> Config.test () in
  let sim = Sim.create () in
  let db = Db.create ~config sim in
  { sim; db }

(* {1 SmallBank} *)

let smallbank_env ?config ?(customers = 10) () =
  let env = mk_env ?config () in
  Smallbank.setup env.db ~customers ();
  env

let test_smallbank_programs () =
  let env = smallbank_env () in
  Sim.spawn env.sim (fun () ->
      let n0 = Smallbank.name_of 0 and n1 = Smallbank.name_of 1 in
      let bal = atomically env Types.Serializable (fun t -> Smallbank.bal n0 t) in
      Alcotest.(check int) "initial balance" 20_000 bal;
      atomically env Types.Serializable (fun t -> Smallbank.dc n0 500 t);
      atomically env Types.Serializable (fun t -> Smallbank.ts n0 300 t);
      let bal = atomically env Types.Serializable (fun t -> Smallbank.bal n0 t) in
      Alcotest.(check int) "after deposits" 20_800 bal;
      atomically env Types.Serializable (fun t -> Smallbank.amg n0 n1 t);
      let bal0 = atomically env Types.Serializable (fun t -> Smallbank.bal n0 t) in
      let bal1 = atomically env Types.Serializable (fun t -> Smallbank.bal n1 t) in
      Alcotest.(check int) "amalgamated source" 0 bal0;
      Alcotest.(check int) "amalgamated target" 40_800 bal1;
      (* WriteCheck with sufficient funds: no penalty. *)
      atomically env Types.Serializable (fun t -> Smallbank.wc n1 800 t);
      let bal1 = atomically env Types.Serializable (fun t -> Smallbank.bal n1 t) in
      Alcotest.(check int) "check cashed without penalty" 40_000 bal1;
      (* Overdraft: $1 penalty. *)
      atomically env Types.Serializable (fun t -> Smallbank.wc n0 100 t);
      let bal0 = atomically env Types.Serializable (fun t -> Smallbank.bal n0 t) in
      Alcotest.(check int) "overdraft penalty" (-101) bal0);
  Sim.run ~until:1e6 env.sim

let test_smallbank_ts_overdraft_rolls_back () =
  let env = smallbank_env () in
  Sim.spawn env.sim (fun () ->
      let n = Smallbank.name_of 2 in
      let r = Db.run env.db Types.Serializable (fun t -> Smallbank.ts n (-999_999) t) in
      Alcotest.(check bool) "user abort" true (r = Error Types.User_abort);
      let bal = atomically env Types.Serializable (fun t -> Smallbank.bal n t) in
      Alcotest.(check int) "unchanged" 20_000 bal);
  Sim.run ~until:1e6 env.sim

(* The SmallBank anomaly of §2.8.4 (after Fekete et al. 2004): Bal sees a
   state (TS's new saving but WC's old checking) that no serial order of
   {WC, TS, Bal} can produce — WC is the pivot of Bal -> WC -> TS. Timeline:
   WC reads early and commits late; TS commits in between; Bal reads after
   TS's commit but before WC's. *)
let smallbank_skew isolation =
  let env = smallbank_env ~customers:2 () in
  let n = Smallbank.name_of 0 in
  Sim.spawn env.sim (fun () ->
      atomically env Types.Serializable (fun t ->
          Txn.write t Smallbank.saving "id000000" "100";
          Txn.write t Smallbank.checking "id000000" "0"));
  Sim.run ~until:1e6 env.sim;
  Db.clear_history env.db;
  let bal_saw = ref (-1) in
  (* WC(80): reads at ~0.00, writes checking at ~0.08, commits ~0.16. *)
  let r_wc =
    script env ~at:0.0 ~gap:0.08 ~isolation
      [
        (fun t ->
          let s = int_of_string (Txn.read_exn t Smallbank.saving "id000000") in
          let c = int_of_string (Txn.read_exn t Smallbank.checking "id000000") in
          ignore (s, c));
        (fun t -> Txn.write t Smallbank.checking "id000000" (string_of_int (0 - 80)));
      ]
  in
  (* TS(-50): runs and commits at ~0.02. *)
  let r_ts = script env ~at:0.02 ~gap:0.005 ~isolation [ (fun t -> Smallbank.ts n (-50) t) ] in
  (* Bal: reads at ~0.05, after TS committed, before WC commits. *)
  let r_bal =
    script env ~at:0.05 ~gap:0.005 ~isolation [ (fun t -> bal_saw := Smallbank.bal n t) ]
  in
  run_procs env [];
  (!r_wc, !r_ts, !r_bal, !bal_saw, Db.history env.db)

let test_smallbank_skew_si () =
  let r_wc, r_ts, r_bal, bal_saw, history = smallbank_skew Types.Snapshot in
  Alcotest.check outcome_testable "WC commits" Committed r_wc;
  Alcotest.check outcome_testable "TS commits" Committed r_ts;
  Alcotest.check outcome_testable "Bal commits" Committed r_bal;
  Alcotest.(check int) "Bal saw TS's saving but not WC's checking" 50 bal_saw;
  Alcotest.(check bool) "history is not serializable" false (Mvsg.is_serializable history)

let test_smallbank_skew_ssi () =
  let r_wc, r_ts, r_bal, _, history = smallbank_skew Types.Serializable in
  let outcomes =
    List.sort compare [ outcome_to_string r_wc; outcome_to_string r_ts; outcome_to_string r_bal ]
  in
  Alcotest.(check bool) "not all three committed" true
    (outcomes <> [ "committed"; "committed"; "committed" ]);
  Alcotest.(check bool) "committed history serializable" true (Mvsg.is_serializable history)

let test_smallbank_driver_all_levels () =
  List.iter
    (fun isolation ->
      let make_db sim =
        let db = Db.create ~config:{ (Config.test ()) with Config.record_history = false } sim in
        Smallbank.setup db ~customers:50 ();
        db
      in
      let r =
        Driver.run_once ~make_db
          ~mix:(Smallbank.mix ~customers:50 ())
          {
            Driver.default_config with
            Driver.isolation;
            mpl = 5;
            warmup = 0.05;
            duration = 0.3;
          }
      in
      Alcotest.(check bool)
        (Types.isolation_to_string isolation ^ " commits")
        true (r.Driver.commits > 100))
    [ Types.Snapshot; Types.Serializable; Types.S2pl ]

let test_smallbank_history_serializable_under_ssi () =
  let make_db sim =
    let db = Db.create ~config:(Config.test ()) sim in
    Smallbank.setup db ~customers:5 ();
    db
  in
  let sim = Sim.create () in
  let db = make_db sim in
  for client = 1 to 4 do
    Sim.spawn sim (fun () ->
        let st = Random.State.make [| 77; client |] in
        let mix = Smallbank.mix ~customers:5 () in
        for _ = 1 to 15 do
          let prog = Driver.pick mix st in
          ignore (Db.run_retry db Types.Serializable (prog.Driver.p_body st));
          Sim.delay sim (Random.State.float st 0.001)
        done)
  done;
  Sim.run ~until:1e6 sim;
  Alcotest.(check bool) "history serializable" true (Mvsg.is_serializable (Db.history db))

(* {1 sibench} *)

let test_sibench_query_update () =
  let env = mk_env () in
  Sibench.setup env.db ~items:20 ();
  Sim.spawn env.sim (fun () ->
      let q = atomically env Types.Serializable (fun t -> Sibench.query t) in
      Alcotest.(check (option (pair string int))) "min is row 0" (Some (Sibench.key_of 0, 0)) q;
      let st = Random.State.make [| 1 |] in
      atomically env Types.Serializable (fun t -> Sibench.update ~items:20 st t);
      ());
  Sim.run ~until:1e6 env.sim;
  Alcotest.(check int) "one increment" (Sibench.initial_total ~items:20 + 1) (Sibench.total env.db)

let test_sibench_updates_never_lost () =
  (* Every committed update adds exactly 1 to the table total (no lost
     updates) under every isolation level. *)
  List.iter
    (fun isolation ->
      let items = 10 in
      let sim = Sim.create () in
      let db = Db.create ~config:(Config.test ()) sim in
      Sibench.setup db ~items ();
      let committed = ref 0 in
      for client = 1 to 6 do
        Sim.spawn sim (fun () ->
            let st = Random.State.make [| 5; client |] in
            for _ = 1 to 20 do
              (match Db.run db isolation (fun t -> Sibench.update ~items st t) with
              | Ok () -> incr committed
              | Error _ -> ());
              Sim.delay sim (Random.State.float st 0.0005)
            done)
      done;
      Sim.run ~until:1e6 sim;
      Alcotest.(check int)
        (Types.isolation_to_string isolation ^ ": total = initial + commits")
        (Sibench.initial_total ~items + !committed)
        (Sibench.total db))
    [ Types.Snapshot; Types.Serializable; Types.S2pl ]

let test_sibench_no_unsafe_aborts () =
  (* §5.2: a single rw edge in the SDG — no write skew is possible, so
     Serializable SI should almost never abort queries or updates with the
     unsafe error at modest contention, and never deadlock. *)
  let make_db sim =
    let db = Db.create ~config:{ (Config.test ()) with Config.record_history = false } sim in
    Sibench.setup db ~items:100 ();
    db
  in
  let r =
    Driver.run_once ~make_db
      ~mix:(Sibench.mix ~items:100 ())
      {
        Driver.default_config with
        Driver.isolation = Types.Serializable;
        mpl = 4;
        warmup = 0.05;
        duration = 0.3;
      }
  in
  Alcotest.(check bool) "committed work" true (r.Driver.commits > 100);
  Alcotest.(check int) "no deadlocks" 0 r.Driver.deadlocks

(* {1 TPC-C++} *)

let small_scale =
  { Tpcc.warehouses = 1; districts = 2; customers_per_district = 5; items = 50; initial_orders = 6 }

let tpcc_env ?config () =
  let env = mk_env ?config () in
  Tpcc.setup env.db ~scale:small_scale ();
  env

let test_tpcc_setup_consistent () =
  let env = tpcc_env () in
  Tpcc.check_consistency env.db ~scale:small_scale

let test_tpcc_new_order () =
  let env = tpcc_env () in
  Sim.spawn env.sim (fun () ->
      let st = Random.State.make [| 3 |] in
      let before =
        atomically env Types.Serializable (fun t ->
            fst (Tpcc.parse_district (Txn.read_exn t Tpcc.district (Tpcc.dkey 0 0))))
      in
      (* Run new orders until one targets district 0 (random d in 0..1). *)
      let placed = ref 0 in
      for _ = 1 to 10 do
        match Db.run env.db Types.Serializable (fun t -> Tpcc.new_order_txn small_scale st t) with
        | Ok () -> incr placed
        | Error Types.User_abort -> () (* 1% invalid item rollback *)
        | Error r -> Alcotest.failf "unexpected abort %s" (Types.abort_reason_to_string r)
      done;
      let after =
        atomically env Types.Serializable (fun t ->
            fst (Tpcc.parse_district (Txn.read_exn t Tpcc.district (Tpcc.dkey 0 0))))
      in
      Alcotest.(check bool) "district counter advanced" true (after >= before);
      Alcotest.(check bool) "orders placed" true (!placed > 5));
  Sim.run ~until:1e6 env.sim;
  Tpcc.check_consistency env.db ~scale:small_scale

let test_tpcc_delivery_clears_new_order () =
  let env = tpcc_env () in
  Sim.spawn env.sim (fun () ->
      let st = Random.State.make [| 4 |] in
      (* Deliver everything (enough attempts for both districts). *)
      for _ = 1 to 40 do
        ignore (Db.run_retry env.db Types.Serializable (fun t -> Tpcc.delivery_txn small_scale st t))
      done;
      let remaining =
        atomically env Types.Serializable (fun t -> List.length (Txn.scan t Tpcc.new_order))
      in
      Alcotest.(check int) "all orders delivered" 0 remaining);
  Sim.run ~until:1e6 env.sim;
  Tpcc.check_consistency env.db ~scale:small_scale

let test_tpcc_credit_check_sets_status () =
  let env = tpcc_env () in
  Sim.spawn env.sim (fun () ->
      (* Force customer 0/0/0 over their limit via owed balance, then run
         the real credit-check transaction until it hits that customer. *)
      atomically env Types.Serializable (fun t ->
          Txn.write t Tpcc.customer (Tpcc.ckey 0 0 0)
            (Tpcc.customer_row ~balance:60_000 ~credit_lim:50_000 ~delivery_cnt:0));
      let st = Random.State.make [| 9 |] in
      for _ = 1 to 30 do
        ignore (Db.run_retry env.db Types.Serializable (fun t ->
            Tpcc.credit_check_txn small_scale st t))
      done;
      let credit =
        atomically env Types.Serializable (fun t ->
            Txn.read_exn t Tpcc.customer_credit (Tpcc.ckey 0 0 0))
      in
      Alcotest.(check string) "bad credit detected" "BC" credit);
  Sim.run ~until:1e6 env.sim

let run_tpcc_mixed ?(scale = small_scale) ?mix ~isolation ~seed () =
  let config = Config.test () in
  let sim = Sim.create () in
  let db = Db.create ~config sim in
  Tpcc.setup db ~scale ();
  let mix = match mix with Some m -> m | None -> Tpcc.mix ~credit_check:true scale in
  for client = 1 to 5 do
    Sim.spawn sim (fun () ->
        let st = Random.State.make [| seed; client |] in
        for _ = 1 to 12 do
          let prog = Driver.pick mix st in
          ignore (Db.run_retry db isolation (prog.Driver.p_body st));
          Sim.delay sim (Random.State.float st 0.001)
        done)
  done;
  Sim.run ~until:1e6 sim;
  db

(* An extra-hot variant for anomaly hunting: one district, two customers,
   and a mix dominated by the NEWO/CCHECK write-skew pair of §5.3.3. *)
let hot_scale =
  { Tpcc.warehouses = 1; districts = 1; customers_per_district = 2; items = 30; initial_orders = 4 }

let hot_mix =
  [
    Driver.program ~weight:3.0 "NEWO" (fun st t -> Tpcc.new_order_txn hot_scale st t);
    Driver.program ~weight:3.0 "CCHECK" (fun st t -> Tpcc.credit_check_txn hot_scale st t);
    Driver.program ~weight:1.0 "PAY" (fun st t -> Tpcc.payment_txn hot_scale st t);
    Driver.program ~weight:1.0 "DLVY" (fun st t -> Tpcc.delivery_txn hot_scale st t);
  ]

let test_tpcc_ssi_serializable_and_consistent () =
  for seed = 1 to 5 do
    let db = run_tpcc_mixed ~isolation:Types.Serializable ~seed () in
    Tpcc.check_consistency db ~scale:small_scale;
    if not (Mvsg.is_serializable (Db.history db)) then
      Alcotest.failf "seed %d: TPC-C++ SSI history not serializable" seed
  done;
  (* Also under the hottest contention. *)
  for seed = 1 to 8 do
    let db =
      run_tpcc_mixed ~scale:hot_scale ~mix:hot_mix ~isolation:Types.Serializable ~seed ()
    in
    if not (Mvsg.is_serializable (Db.history db)) then
      Alcotest.failf "hot seed %d: TPC-C++ SSI history not serializable" seed
  done

let test_tpcc_si_eventually_non_serializable () =
  (* §5.3.3: with Credit Check in the mix, SI admits non-serializable
     executions; high contention (two customers, one district) exposes
     them. *)
  let anomalous = ref 0 in
  for seed = 1 to 12 do
    let db = run_tpcc_mixed ~scale:hot_scale ~mix:hot_mix ~isolation:Types.Snapshot ~seed () in
    if not (Mvsg.is_serializable (Db.history db)) then incr anomalous
  done;
  Alcotest.(check bool) "anomalies appear under SI" true (!anomalous > 0)

let test_tpcc_driver_smoke () =
  let scale = Tpcc.tiny ~warehouses:1 in
  let make_db sim =
    let db = Db.create ~config:{ (Config.test ()) with Config.record_history = false } sim in
    Tpcc.setup db ~scale ();
    db
  in
  List.iter
    (fun isolation ->
      let r =
        Driver.run_once ~make_db ~mix:(Tpcc.mix scale)
          {
            Driver.default_config with
            Driver.isolation;
            mpl = 4;
            warmup = 0.05;
            duration = 0.3;
          }
      in
      Alcotest.(check bool)
        (Types.isolation_to_string isolation ^ " tpcc commits")
        true (r.Driver.commits > 50))
    [ Types.Snapshot; Types.Serializable; Types.S2pl ]

let test_tpcc_stock_level_mix () =
  let scale = Tpcc.tiny ~warehouses:1 in
  let make_db sim =
    let db = Db.create ~config:{ (Config.test ()) with Config.record_history = false } sim in
    Tpcc.setup db ~scale ();
    db
  in
  let r =
    Driver.run_once ~make_db
      ~mix:(Tpcc.stock_level_mix scale)
      {
        Driver.default_config with
        Driver.isolation = Types.Serializable;
        mpl = 3;
        warmup = 0.05;
        duration = 0.3;
      }
  in
  let slev = Option.value ~default:0 (List.assoc_opt "SLEV" r.Driver.per_program) in
  let newo = Option.value ~default:0 (List.assoc_opt "NEWO" r.Driver.per_program) in
  Alcotest.(check bool) "SLEV dominates 10:1" true (slev > 4 * max 1 newo)


let test_tpcc_invariants_all_levels () =
  (* TPC-C clause-3.3 consistency conditions after concurrent runs (MPL 5)
     under every isolation level: warehouse YTD = sum of district YTDs
     (3.3.2.1) and the order / new_order / order_line cardinality
     invariants (3.3.2.2-3.3.2.5). Even plain SI preserves these — every
     invariant-coupled update (Payment's two YTD rows, New Order's
     district counter + inserts) happens inside one transaction, and
     first-committer-wins forbids lost updates; the violations SI does
     admit are serializability anomalies, which the next test pins down. *)
  List.iter
    (fun isolation ->
      for seed = 1 to 3 do
        let db = run_tpcc_mixed ~isolation ~seed () in
        (try Tpcc.check_consistency db ~scale:small_scale
         with Tpcc.Inconsistent msg ->
           Alcotest.failf "%s seed %d: %s" (Types.isolation_to_string isolation) seed msg);
        try Tpcc.check_ytd db ~scale:small_scale
        with Tpcc.Inconsistent msg ->
          Alcotest.failf "%s seed %d: %s" (Types.isolation_to_string isolation) seed msg
      done)
    [ Types.Snapshot; Types.Serializable; Types.S2pl ]

let test_tpcc_plain_si_anomaly_free () =
  (* Fig 2.8 / §2.8.1: the plain TPC-C mix (no Credit Check) has no
     dangerous structure in its SDG, so SI admits no non-serializable
     execution of it — the motivating observation the TPC-C++ extension
     (§5.3) was designed to break. Checked dynamically under the hottest
     contention profile (one district, two customers), where the CCHECK
     variant of this mix demonstrably does produce anomalies
     ([test_tpcc_si_eventually_non_serializable]). *)
  let plain_hot_mix =
    [
      Driver.program ~weight:3.0 "NEWO" (fun st t -> Tpcc.new_order_txn hot_scale st t);
      Driver.program ~weight:3.0 "PAY" (fun st t -> Tpcc.payment_txn hot_scale st t);
      Driver.program ~weight:1.0 "DLVY" (fun st t -> Tpcc.delivery_txn hot_scale st t);
      Driver.program ~weight:1.0 ~read_only:true "OSTAT" (fun st t ->
          Tpcc.order_status_txn hot_scale st t);
      Driver.program ~weight:1.0 ~read_only:true "SLEV" (fun st t ->
          Tpcc.stock_level_txn hot_scale st t);
    ]
  in
  for seed = 1 to 12 do
    let db =
      run_tpcc_mixed ~scale:hot_scale ~mix:plain_hot_mix ~isolation:Types.Snapshot ~seed ()
    in
    if not (Mvsg.is_serializable (Db.history db)) then
      Alcotest.failf "seed %d: plain TPC-C produced an SI anomaly" seed;
    try Tpcc.check_ytd db ~scale:hot_scale
    with Tpcc.Inconsistent msg -> Alcotest.failf "seed %d: %s" seed msg
  done

let test_tpcc_s2pl_consistent () =
  for seed = 1 to 3 do
    let db = run_tpcc_mixed ~isolation:Types.S2pl ~seed () in
    Tpcc.check_consistency db ~scale:small_scale;
    if not (Mvsg.is_serializable (Db.history db)) then
      Alcotest.failf "seed %d: S2PL TPC-C++ history not serializable" seed
  done

let test_smallbank_fixes_prevent_anomaly_dynamically () =
  (* The static fixes of 2.8.5, run at plain SI, must prevent the
     Bal/WC/TS anomaly that unfixed SI admits (cross-validation of the SDG
     analysis with the engine). We re-run the smallbank_skew scenario with
     each fix applied to the transaction bodies. *)
  List.iter
    (fun (name, fix) ->
      let env = smallbank_env ~customers:2 () in
      let n = Smallbank.name_of 0 in
      Sim.spawn env.sim (fun () ->
          atomically env Types.Serializable (fun t ->
              Txn.write t Smallbank.saving "id000000" "100";
              Txn.write t Smallbank.checking "id000000" "0"));
      Sim.run ~until:1e6 env.sim;
      Db.clear_history env.db;
      let _ =
        script env ~at:0.0 ~gap:0.08 ~isolation:Types.Snapshot
          [ (fun t -> Smallbank.wc ~fix n 80 t) ]
      in
      let _ =
        script env ~at:0.02 ~gap:0.005 ~isolation:Types.Snapshot
          [ (fun t -> Smallbank.ts ~fix n (-50) t) ]
      in
      let _ =
        script env ~at:0.05 ~gap:0.005 ~isolation:Types.Snapshot
          [ (fun t -> ignore (Smallbank.bal ~fix n t)) ]
      in
      run_procs env [];
      Alcotest.(check bool)
        (name ^ " keeps SI serializable")
        true
        (Mvsg.is_serializable (Db.history env.db)))
    [
      ("MaterializeWT", Smallbank.Materialize_wt);
      ("PromoteWT", Smallbank.Promote_wt);
      ("MaterializeBW", Smallbank.Materialize_bw);
      ("PromoteBW", Smallbank.Promote_bw);
    ]


let test_tpcc_order_status_and_stock_level () =
  let env = tpcc_env () in
  Sim.spawn env.sim (fun () ->
      let st = Random.State.make [| 21 |] in
      (* Both read-only transactions must run cleanly against the initial
         data for many parameter draws. *)
      for _ = 1 to 20 do
        (match Db.run ~read_only:true env.db Types.Serializable (fun t ->
             Tpcc.order_status_txn small_scale st t) with
        | Ok () -> ()
        | Error r -> Alcotest.failf "OSTAT aborted: %s" (Types.abort_reason_to_string r));
        match Db.run ~read_only:true env.db Types.Serializable (fun t ->
            Tpcc.stock_level_txn small_scale st t) with
        | Ok () -> ()
        | Error r -> Alcotest.failf "SLEV aborted: %s" (Types.abort_reason_to_string r)
      done);
  Sim.run ~until:1e6 env.sim;
  Alcotest.(check int) "read-only txns leave no aborts" 0
    (Db.stats env.db).Internal.aborts_unsafe

let test_tpcc_payment_updates_balance () =
  let env = tpcc_env () in
  Sim.spawn env.sim (fun () ->
      let before =
        atomically env Types.Serializable (fun t ->
            let b, _, _ = Tpcc.parse_customer (Txn.read_exn t Tpcc.customer (Tpcc.ckey 0 0 0)) in
            b)
      in
      (* Drive payments until customer 0/0/0 receives one. *)
      let st = Random.State.make [| 31 |] in
      for _ = 1 to 60 do
        ignore (Db.run_retry env.db Types.Serializable (fun t ->
            Tpcc.payment_txn small_scale st t))
      done;
      let after =
        atomically env Types.Serializable (fun t ->
            let b, _, _ = Tpcc.parse_customer (Txn.read_exn t Tpcc.customer (Tpcc.ckey 0 0 0)) in
            b)
      in
      Alcotest.(check bool) "some payment reduced the balance" true (after <= before));
  Sim.run ~until:1e6 env.sim

let test_gc_under_concurrency_preserves_snapshots () =
  (* GC must never reclaim a version an active snapshot still needs. *)
  let env = smallbank_env ~customers:3 () in
  Sim.spawn env.sim (fun () ->
      let reader = Db.begin_txn env.db Types.Snapshot in
      let v0 = int_of_string (Txn.read_exn reader Smallbank.checking "id000000") in
      (* Concurrent writers churn versions; GC runs in between. *)
      for i = 1 to 10 do
        ignore (atomically env Types.Serializable (fun t ->
            Txn.write t Smallbank.checking "id000000" (string_of_int i)));
        ignore (Db.gc env.db)
      done;
      let v1 = int_of_string (Txn.read_exn reader Smallbank.checking "id000000") in
      Txn.commit reader;
      Alcotest.(check int) "snapshot stable across gc" v0 v1);
  Sim.run ~until:1e6 env.sim

(* {1 Driver} *)

let test_driver_stats () =
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "ci of constant" (5.0, 0.0)
    (Stats.ci95 [ 5.0; 5.0; 5.0 ]);
  let m, ci = Stats.ci95 [ 1.0; 2.0; 3.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 2.0 m;
  Alcotest.(check bool) "ci positive" true (ci > 0.0);
  Alcotest.(check (float 1e-9)) "stddev" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ])

let test_driver_window () =
  (* Throughput counted only inside the measurement window. *)
  let make_db sim =
    let db = Db.create ~config:(Config.test ()) sim in
    Sibench.setup db ~items:10 ();
    db
  in
  let r =
    Driver.run_once ~make_db
      ~mix:(Sibench.mix ~items:10 ())
      { Driver.default_config with Driver.mpl = 1; warmup = 0.1; duration = 0.1 }
  in
  let r2 =
    Driver.run_once ~make_db
      ~mix:(Sibench.mix ~items:10 ())
      { Driver.default_config with Driver.mpl = 1; warmup = 0.1; duration = 0.2 }
  in
  Alcotest.(check bool) "longer window, more commits" true (r2.Driver.commits > r.Driver.commits);
  let tput_ratio = r2.Driver.throughput /. r.Driver.throughput in
  Alcotest.(check bool) "throughput roughly stable" true (tput_ratio > 0.7 && tput_ratio < 1.4)

(* The customer names and ids are written digit by digit; they must be the
   strings "%06d" formatting makes (keys, and so page layout, depend on
   them). *)
let test_smallbank_names () =
  List.iter
    (fun i ->
      Alcotest.(check string) "name_of" (Printf.sprintf "cust%06d" i) (Smallbank.name_of i);
      Alcotest.(check string) "id_of" (Printf.sprintf "id%06d" i) (Smallbank.id_of i))
    ([ 0; 9; 10; 99_999; 999_999; 1_000_000; 1_234_567; max_int ]
    @ List.init 1000 (fun i -> i * 37))

(* Each TPC-C key builder writes the string of its Printf format, numbers
   wider than their padding included (warehouse 1234, order 10^9). *)
let prop_tpcc_keys =
  let num = QCheck.Gen.(oneof [ int_bound 150; int_bound 10_000_000_000; return 1234 ]) in
  QCheck.Test.make ~name:"tpcc keys match printf" ~count:1000
    (QCheck.make ~print:QCheck.Print.(quad int int int int) QCheck.Gen.(quad num num num num))
    (fun (w, d, c, o) ->
      Tpcc.wkey w = Printf.sprintf "w%03d" w
      && Tpcc.dkey w d = Printf.sprintf "w%03d:d%02d" w d
      && Tpcc.ckey w d c = Printf.sprintf "w%03d:d%02d:c%05d" w d c
      && Tpcc.ikey c = Printf.sprintf "i%06d" c
      && Tpcc.skey w c = Printf.sprintf "w%03d:i%06d" w c
      && Tpcc.okey w d o = Printf.sprintf "w%03d:d%02d:o%08d" w d o
      && Tpcc.olkey w d o c = Printf.sprintf "w%03d:d%02d:o%08d:%02d" w d o c
      && Tpcc.cokey w d c o = Printf.sprintf "w%03d:d%02d:c%05d:o%08d" w d c o)

(* The row codec TPC-C++ used before its rows were written and read in
   place, kept as the reference: fields split on '|' and joined with it,
   each through [string_of_int] or [int_of_string]. *)
module Split_rows = struct
  let fields s = String.split_on_char '|' s

  let join = String.concat "|"

  let district_row ~next_o ~ytd = join [ string_of_int next_o; string_of_int ytd ]

  let parse_district s =
    match fields s with
    | [ next_o; ytd ] -> (int_of_string next_o, int_of_string ytd)
    | _ -> invalid_arg "district row"

  let customer_row ~balance ~credit_lim ~delivery_cnt =
    join [ string_of_int balance; string_of_int credit_lim; string_of_int delivery_cnt ]

  let parse_customer s =
    match fields s with
    | [ b; lim; dc ] -> (int_of_string b, int_of_string lim, int_of_string dc)
    | _ -> invalid_arg "customer row"

  let stock_row ~qty ~ytd ~cnt = join [ string_of_int qty; string_of_int ytd; string_of_int cnt ]

  let parse_stock s =
    match fields s with
    | [ q; y; c ] -> (int_of_string q, int_of_string y, int_of_string c)
    | _ -> invalid_arg "stock row"

  let order_row ~c ~carrier ~ol_cnt =
    join [ string_of_int c; string_of_int carrier; string_of_int ol_cnt ]

  let parse_order s =
    match fields s with
    | [ c; car; n ] -> (int_of_string c, int_of_string car, int_of_string n)
    | _ -> invalid_arg "order row"

  let ol_row ~i ~qty ~amount ~delivered =
    join
      [ string_of_int i; string_of_int qty; string_of_int amount; (if delivered then "1" else "0") ]

  let parse_ol s =
    match fields s with
    | [ i; q; a; d ] -> (int_of_string i, int_of_string q, int_of_string a, d = "1")
    | _ -> invalid_arg "order line row"
end

(* What a parser gives for a row: its tuple or the exception it raises. *)
let outcome parse s = match parse s with v -> Ok v | exception e -> Error e

(* Every row builder gives the reference's bytes for any ints, negative
   ones and [min_int] included, and every parser the reference's tuple on
   them. On arbitrary rows, with a field too many or too few, an empty
   field, a non-digit, a sign, an overflow or a form [int_of_string] also
   accepts ("0x1F", "1_000"), every parser gives the same tuple or raises
   the same exception: [Invalid_argument] naming the row for a wrong field
   count, [int_of_string]'s [Failure] for a bad number. *)
let prop_tpcc_rows =
  let open QCheck.Gen in
  let num = oneof [ int; int_range (-1000) 1000; small_nat; oneofl [ min_int; max_int; 0; -1 ] ] in
  let field =
    oneof
      [
        map string_of_int num;
        oneofl
          [ ""; "-"; "+7"; "1a"; "x"; " 3"; "0x1F"; "1_000"; "-0"; "007"; "1"; "0"; "11";
            "99999999999999999999"; "-9223372036854775809"; "4611686018427387903" ];
      ]
  in
  let row = map (String.concat "|") (list_size (int_range 0 6) field) in
  let ints = list_repeat 4 num in
  QCheck.Test.make ~name:"tpcc rows match the split codec" ~count:2000
    (QCheck.make
       ~print:QCheck.Print.(pair (list int) (list string))
       (pair ints (list_repeat 5 row)))
    (fun (ns, rows) ->
      let a, b, c, d = match ns with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false in
      let delivered = d mod 2 = 0 in
      let built =
        [
          (Tpcc.district_row ~next_o:a ~ytd:b, Split_rows.district_row ~next_o:a ~ytd:b);
          ( Tpcc.customer_row ~balance:a ~credit_lim:b ~delivery_cnt:c,
            Split_rows.customer_row ~balance:a ~credit_lim:b ~delivery_cnt:c );
          (Tpcc.stock_row ~qty:a ~ytd:b ~cnt:c, Split_rows.stock_row ~qty:a ~ytd:b ~cnt:c);
          (Tpcc.order_row ~c:a ~carrier:b ~ol_cnt:c, Split_rows.order_row ~c:a ~carrier:b ~ol_cnt:c);
          ( Tpcc.ol_row ~i:a ~qty:b ~amount:c ~delivered,
            Split_rows.ol_row ~i:a ~qty:b ~amount:c ~delivered );
        ]
      in
      List.for_all (fun (x, y) -> String.equal x y) built
      && List.for_all
           (fun s ->
             outcome Tpcc.parse_district s = outcome Split_rows.parse_district s
             && outcome Tpcc.parse_customer s = outcome Split_rows.parse_customer s
             && outcome Tpcc.parse_stock s = outcome Split_rows.parse_stock s
             && outcome Tpcc.parse_order s = outcome Split_rows.parse_order s
             && outcome Tpcc.parse_ol s = outcome Split_rows.parse_ol s)
           (List.map snd built @ rows))

let suite =
  [
    ("smallbank program semantics", `Quick, test_smallbank_programs);
    ("smallbank names match printf", `Quick, test_smallbank_names);
    QCheck_alcotest.to_alcotest prop_tpcc_keys;
    QCheck_alcotest.to_alcotest prop_tpcc_rows;
    ("smallbank TS overdraft rolls back", `Quick, test_smallbank_ts_overdraft_rolls_back);
    ("smallbank write skew under SI", `Quick, test_smallbank_skew_si);
    ("smallbank skew prevented under SSI", `Quick, test_smallbank_skew_ssi);
    ("smallbank driver all levels", `Slow, test_smallbank_driver_all_levels);
    ("smallbank SSI history serializable", `Slow, test_smallbank_history_serializable_under_ssi);
    ("sibench query and update", `Quick, test_sibench_query_update);
    ("sibench updates never lost", `Slow, test_sibench_updates_never_lost);
    ("sibench no unsafe aborts", `Slow, test_sibench_no_unsafe_aborts);
    ("tpcc setup consistent", `Quick, test_tpcc_setup_consistent);
    ("tpcc new order", `Quick, test_tpcc_new_order);
    ("tpcc delivery clears new_order", `Quick, test_tpcc_delivery_clears_new_order);
    ("tpcc credit check sets status", `Quick, test_tpcc_credit_check_sets_status);
    ("tpcc SSI serializable + consistent", `Slow, test_tpcc_ssi_serializable_and_consistent);
    ("tpcc SI eventually non-serializable", `Slow, test_tpcc_si_eventually_non_serializable);
    ("tpcc driver smoke", `Slow, test_tpcc_driver_smoke);
    ("tpcc stock level mix", `Slow, test_tpcc_stock_level_mix);
    ("tpcc S2PL consistent", `Slow, test_tpcc_s2pl_consistent);
    ("tpcc invariants at MPL 5, all levels", `Slow, test_tpcc_invariants_all_levels);
    ("tpcc plain mix SI-anomaly-free (fig 2.8)", `Slow, test_tpcc_plain_si_anomaly_free);
    ("smallbank fixes prevent anomaly", `Quick, test_smallbank_fixes_prevent_anomaly_dynamically);
    ("tpcc order status and stock level", `Quick, test_tpcc_order_status_and_stock_level);
    ("tpcc payment updates balance", `Quick, test_tpcc_payment_updates_balance);
    ("gc preserves active snapshots", `Quick, test_gc_under_concurrency_preserves_snapshots);
    ("driver stats", `Quick, test_driver_stats);
    ("driver measurement window", `Slow, test_driver_window);
  ]

let () = Alcotest.run "benchmarks" [ ("benchmarks", suite) ]
