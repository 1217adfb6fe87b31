(* Abort-provenance tests: certificate shapes pinned for the three abort
   families (SSI pivot on write skew, S2PL-style deadlock cycle,
   first-committer-wins), DOT snapshot well-formedness, JSON export
   well-formedness, and the fuzzer coupling — a fixed-seed certified
   campaign in which every row-level pivot edge must exist in the MVSG
   oracle's graph and every certificate-bearing case must replay through
   its codec line to identical outcomes and certificate shapes. *)

open Core
open Testutil

let ssi = Types.Serializable

let si = Types.Snapshot

let prov_obs () = Obs.create ~trace:false ~metrics:false ~provenance:true ()

(* Quote/escape-aware JSON sanity (same discipline as test_obs). *)
let check_json s =
  let depth = ref 0 and in_str = ref false and esc = ref false and ok = ref true in
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

let check_dot msg dot =
  match Obs.dot_validate dot with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invalid DOT (%s):\n%s" msg e dot

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* {1 SSI pivot certificate on classic write skew} *)

(* Schedule both reads of both transactions before either write. T0 commits
   first, becoming a committed pivot (in-edge from T1's read of k0, out-edge
   to T1's write of k1); T1's final write must then abort Unsafe and emit an
   [Ssi_pivot] certificate naming T0 as the pivot and T1 as the victim. *)
let write_skew_order = [ 0; 0; 1; 1; 0; 1 ]

let run_write_skew () =
  let obs = prov_obs () in
  let r =
    Interleave.run_interleaving ~obs ~isolation:ssi Interleave.write_skew_spec write_skew_order
  in
  (r, Obs.certs obs)

let test_write_skew_cert_shape () =
  let r, certs = run_write_skew () in
  (match r.Interleave.outcomes with
  | [ None; Some Types.Unsafe ] -> ()
  | o ->
      Alcotest.failf "unexpected outcomes: %s"
        (String.concat ","
           (List.map
              (function None -> "commit" | Some a -> Types.abort_reason_to_string a)
              o)));
  match certs with
  | [ c ] -> (
      Alcotest.(check string) "reason" "unsafe" c.Obs.c_reason;
      match c.Obs.c_cert with
      | Obs.Ssi_pivot
          {
            sp_victim;
            sp_pivot;
            sp_policy;
            sp_t_in;
            sp_t_out;
            sp_in_edge;
            sp_out_edge;
            sp_in_state;
            sp_out_state;
            _;
          } ->
          (* In the 2-transaction write skew both transactions are pivots of
             the rw cycle; the marking transaction becomes dangerous when the
             second edge lands and, under abort-early + prefer-pivot,
             self-aborts: victim = pivot, and both neighbours are the other
             (already committed) transaction. *)
          Alcotest.(check int) "victim is the pivot" sp_pivot sp_victim;
          Alcotest.(check int) "cert_victim agrees" sp_victim (Obs.cert_victim c);
          Alcotest.(check string) "policy" "prefer-pivot" sp_policy;
          let other =
            match sp_t_in with Some o -> o | None -> Alcotest.fail "t_in missing"
          in
          Alcotest.(check bool) "neighbour is the other txn" true (other <> sp_pivot);
          Alcotest.(check (option int)) "t_out is the same neighbour" (Some other) sp_t_out;
          Alcotest.(check bool) "both endpoint states committed" true
            (sp_in_state = Obs.Ep_committed && sp_out_state = Obs.Ep_committed);
          let edge name e (reader, writer) =
            match e with
            | None -> Alcotest.failf "missing %s edge" name
            | Some e ->
                Alcotest.(check int) (name ^ " reader") reader e.Obs.ce_reader;
                Alcotest.(check int) (name ^ " writer") writer e.Obs.ce_writer;
                Alcotest.(check bool)
                  (name ^ " row resource") true
                  (String.length e.Obs.ce_resource > 2
                  && String.sub e.Obs.ce_resource 0 2 = "r/")
          in
          edge "in" sp_in_edge (other, sp_pivot);
          edge "out" sp_out_edge (sp_pivot, other)
      | _ -> Alcotest.fail "expected an Ssi_pivot certificate")
  | certs -> Alcotest.failf "expected exactly one certificate, got %d" (List.length certs)

let test_write_skew_cert_exports () =
  let _, certs = run_write_skew () in
  let c = List.hd certs in
  Alcotest.(check bool) "JSON export well-formed" true (check_json (Obs.cert_to_json c));
  Alcotest.(check bool) "shape names the pivot structure" true
    (String.length (Obs.cert_shape c) > 0 && contains_sub (Obs.cert_shape c) "ssi-pivot");
  check_dot "pivot snapshot" c.Obs.c_dot;
  Alcotest.(check bool) "snapshot is the ssi digraph" true (contains_sub c.Obs.c_dot "digraph ssi");
  Alcotest.(check bool) "snapshot carries an rw edge" true (contains_sub c.Obs.c_dot "rw:")

(* Two provenance runs of the same schedule emit byte-identical
   certificates (JSON and DOT included) — the repro contract. *)
let test_certs_deterministic () =
  let _, c1 = run_write_skew () in
  let _, c2 = run_write_skew () in
  Alcotest.(check (list string))
    "byte-identical certificate exports"
    (List.map Obs.cert_to_json c1) (List.map Obs.cert_to_json c2)

(* Provenance off (the default sink): same run, no certificates, outcomes
   unchanged. *)
let test_provenance_off_is_free () =
  let obs = Obs.create () in
  let r =
    Interleave.run_interleaving ~obs ~isolation:ssi Interleave.write_skew_spec write_skew_order
  in
  let r_plain, certs = run_write_skew () in
  Alcotest.(check int) "no certificates collected" 0 (Obs.cert_count obs);
  Alcotest.(check bool) "outcomes identical with provenance on" true
    (r.Interleave.outcomes = r_plain.Interleave.outcomes);
  Alcotest.(check bool) "provenance run did certify" true (certs <> [])

(* {1 Deadlock certificate} *)

let test_deadlock_cert () =
  let config = { (Config.test ()) with Config.detection = Lockmgr.Immediate } in
  let env = make_env ~config ~tables:[ "t" ] ~rows:[ ("t", [ ("x", "0"); ("y", "0") ]) ] () in
  let obs = prov_obs () in
  Db.set_obs env.db obs;
  (* T1: w(x) .. w(y); T2: w(y) .. w(x) — T2's second write closes the
     cycle, so immediate detection kills T2 at the request. *)
  let r1 =
    script env ~at:0.0 ~gap:0.02 ~isolation:si
      [ (fun t -> Txn.write t "t" "x" "1"); (fun t -> Txn.write t "t" "y" "1") ]
  in
  let r2 =
    script env ~at:0.005 ~gap:0.02 ~isolation:si
      [ (fun t -> Txn.write t "t" "y" "2"); (fun t -> Txn.write t "t" "x" "2") ]
  in
  run_procs env [];
  check_outcome "T1 commits" Committed r1;
  check_outcome "T2 deadlocks" (Aborted Types.Deadlock) r2;
  match Obs.certs obs with
  | [ c ] -> (
      Alcotest.(check string) "reason" "deadlock" c.Obs.c_reason;
      match c.Obs.c_cert with
      | Obs.Deadlock_cycle { dc_victim; dc_cycle; dc_waits } ->
          Alcotest.(check int) "cycle has both owners" 2 (List.length (List.sort_uniq compare dc_cycle));
          Alcotest.(check bool) "victim heads the cycle" true (List.hd dc_cycle = dc_victim);
          Alcotest.(check bool) "victim's blocked resource recorded" true
            (List.mem_assoc dc_victim dc_waits);
          Alcotest.(check bool) "shape counts the cycle" true
            (contains_sub (Obs.cert_shape c) "deadlock");
          check_dot "waits-for snapshot" c.Obs.c_dot;
          Alcotest.(check bool) "waits-for digraph" true
            (contains_sub c.Obs.c_dot "digraph deadlock")
      | _ -> Alcotest.fail "expected a Deadlock_cycle certificate")
  | certs -> Alcotest.failf "expected exactly one certificate, got %d" (List.length certs)

(* {1 First-committer-wins certificate} *)

let test_fcw_cert () =
  let env = make_env ~tables:[ "t" ] ~rows:[ ("t", [ ("x", "0") ]) ] () in
  let obs = prov_obs () in
  Db.set_obs env.db obs;
  let t2_id = ref (-1) in
  (* T2 overwrites x and commits inside T1's [read .. write] window. *)
  let r1 =
    script env ~at:0.0 ~gap:0.05 ~isolation:si
      [ (fun t -> ignore (Txn.read t "t" "x")); (fun t -> Txn.write t "t" "x" "1") ]
  in
  let r2 =
    script env ~at:0.01 ~isolation:si
      [
        (fun t ->
          t2_id := Txn.id t;
          Txn.write t "t" "x" "2");
      ]
  in
  run_procs env [];
  check_outcome "T2 commits" Committed r2;
  check_outcome "T1 hits first-committer-wins" (Aborted Types.Update_conflict) r1;
  match Obs.certs obs with
  | [ c ] -> (
      Alcotest.(check string) "reason" "update-conflict" c.Obs.c_reason;
      match c.Obs.c_cert with
      | Obs.Fcw_block { fb_resource; fb_blocking_writer; fb_blocking_commit; fb_snapshot; _ } ->
          Alcotest.(check string) "resource" "r/t/x" fb_resource;
          Alcotest.(check int) "blocking writer is T2" !t2_id fb_blocking_writer;
          Alcotest.(check bool) "blocking version is post-snapshot" true
            (fb_blocking_commit > fb_snapshot);
          Alcotest.(check bool) "shape names the resource kind" true
            (contains_sub (Obs.cert_shape c) "fcw")
      | _ -> Alcotest.fail "expected an Fcw_block certificate")
  | certs -> Alcotest.failf "expected exactly one certificate, got %d" (List.length certs)

(* {1 Live dependency-graph snapshots} *)

let test_db_dot_snapshot () =
  let env = make_env ~tables:[ "t" ] ~rows:[ ("t", [ ("x", "0"); ("y", "0") ]) ] () in
  let obs = prov_obs () in
  Db.set_obs env.db obs;
  Sim.spawn env.sim (fun () ->
      let t1 = Db.begin_txn env.db ssi in
      let t2 = Db.begin_txn env.db ssi in
      ignore (Txn.read t1 "t" "x");
      Txn.write t2 "t" "x" "1";
      let dot = Db.dot_snapshot env.db in
      check_dot "live snapshot" dot;
      Alcotest.(check bool) "both txns present" true
        (contains_sub dot (Printf.sprintf "T%d" (Txn.id t1))
        && contains_sub dot (Printf.sprintf "T%d" (Txn.id t2)));
      Alcotest.(check bool) "rw edge rendered" true (contains_sub dot "rw:");
      Txn.commit t2;
      Txn.commit t1);
  Sim.run env.sim

(* {1 Fuzzer coupling (satellite): certified campaign against the MVSG
   oracle} *)

(* A hand-built write-skew fuzz case exercises the whole chain: certified
   run, oracle filter, codec replay. *)
let write_skew_case =
  Interleave.
    {
      Fuzzcase.specs = [ [ R "k0"; R "k1"; W "k0" ]; [ R "k0"; R "k1"; W "k1" ] ];
      ro = [ false; false ];
      init = [ ("k0", "0"); ("k1", "0") ];
      schedule = [ 0; 0; 1; 1; 0; 1 ];
      cfg = Fuzzcase.default_point;
    }

let test_certified_case_clean () =
  let cc = Fuzzcert.check_case write_skew_case in
  Alcotest.(check bool) "emits a certificate" true (cc.Fuzzcert.cc_certs > 0);
  Alcotest.(check (list string)) "no oracle mismatches" [] cc.Fuzzcert.cc_mismatches;
  Alcotest.(check bool) "replays through its codec line" true cc.Fuzzcert.cc_replay_ok

(* The acceptance campaign: 1000 fixed-seed cases over the default matrix.
   Every row-level edge cited by an SSI certificate with both endpoints
   committed must appear as an Rw edge in the oracle MVSG, and every
   certificate-bearing case must replay byte-identically. *)
let test_certified_campaign_1k () =
  let ca = Fuzzcert.campaign ~seed:20080605 ~cases:1000 ~matrix:Fuzzcase.matrix_default () in
  Alcotest.(check int) "cases run" 1000 ca.Fuzzcert.ca_cases;
  Alcotest.(check bool) "campaign produced certificates" true (ca.Fuzzcert.ca_certs > 0);
  Alcotest.(check bool) "oracle-checkable edges found" true (ca.Fuzzcert.ca_edges_checked > 0);
  Alcotest.(check int) "every checked edge matched"
    ca.Fuzzcert.ca_edges_checked ca.Fuzzcert.ca_edges_matched;
  (match ca.Fuzzcert.ca_failures with
  | [] -> ()
  | (line, why) :: _ ->
      Alcotest.failf "%d failing case(s); first: %s\n%s"
        (List.length ca.Fuzzcert.ca_failures) why line);
  Alcotest.(check bool) "a sizeable share of cases certified" true
    (ca.Fuzzcert.ca_certified > 20)

let () =
  Alcotest.run "provenance"
    [
      ( "ssi-pivot",
        [
          ("write-skew certificate shape", `Quick, test_write_skew_cert_shape);
          ("JSON and DOT exports", `Quick, test_write_skew_cert_exports);
          ("certificates deterministic", `Quick, test_certs_deterministic);
          ("provenance off emits nothing", `Quick, test_provenance_off_is_free);
        ] );
      ( "deadlock",
        [ ("cycle certificate", `Quick, test_deadlock_cert) ] );
      ( "fcw",
        [ ("blocking-version certificate", `Quick, test_fcw_cert) ] );
      ( "snapshots",
        [ ("live DOT snapshot", `Quick, test_db_dot_snapshot) ] );
      ( "fuzz-coupling",
        [
          ("hand-built write-skew case", `Quick, test_certified_case_clean);
          ("1k-case certified campaign", `Slow, test_certified_campaign_1k);
        ] );
    ]
