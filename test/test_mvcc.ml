(* Tests for the multiversion storage layer. *)

let mk () = Mvstore.create ~fanout:4 "t"

let install_value t key ~commit_ts ~creator v =
  Mvstore.install (Mvstore.ensure_chain t key) ~value:v ~commit_ts ~creator

let test_visibility () =
  let t = mk () in
  install_value t "a" ~commit_ts:5 ~creator:1 (Some "v5");
  install_value t "a" ~commit_ts:10 ~creator:2 (Some "v10");
  Alcotest.(check (option string)) "before any" None (Mvstore.read t "a" ~snapshot:4);
  Alcotest.(check (option string)) "at first" (Some "v5") (Mvstore.read t "a" ~snapshot:5);
  Alcotest.(check (option string)) "between" (Some "v5") (Mvstore.read t "a" ~snapshot:9);
  Alcotest.(check (option string)) "at second" (Some "v10") (Mvstore.read t "a" ~snapshot:10);
  Alcotest.(check (option string)) "after" (Some "v10") (Mvstore.read t "a" ~snapshot:99);
  Alcotest.(check (option string)) "latest" (Some "v10") (Mvstore.read_latest t "a")

let test_tombstone () =
  let t = mk () in
  install_value t "a" ~commit_ts:5 ~creator:1 (Some "v");
  install_value t "a" ~commit_ts:10 ~creator:2 None;
  Alcotest.(check (option string)) "visible before delete" (Some "v") (Mvstore.read t "a" ~snapshot:7);
  Alcotest.(check (option string)) "deleted after" None (Mvstore.read t "a" ~snapshot:12);
  Alcotest.(check (option string)) "latest deleted" None (Mvstore.read_latest t "a");
  (* The index entry must remain for conflict detection until GC. *)
  Alcotest.(check int) "index entry kept" 1 (Mvstore.key_count t)

let test_newer_versions () =
  let t = mk () in
  install_value t "a" ~commit_ts:5 ~creator:1 (Some "v5");
  install_value t "a" ~commit_ts:10 ~creator:2 (Some "v10");
  install_value t "a" ~commit_ts:15 ~creator:3 (Some "v15");
  let chain = Option.get (Mvstore.find_chain t "a") in
  let newer = Mvstore.newer_versions chain ~than:7 in
  Alcotest.(check (list int)) "newer than 7" [ 15; 10 ]
    (List.map (fun (v : Mvstore.version) -> v.Mvstore.commit_ts) newer);
  Alcotest.(check (list int)) "creators" [ 3; 2 ]
    (List.map (fun (v : Mvstore.version) -> v.Mvstore.creator) newer);
  Alcotest.(check bool) "has_newer 7" true (Mvstore.has_newer chain ~than:7);
  Alcotest.(check bool) "has_newer 15" false (Mvstore.has_newer chain ~than:15)

let test_install_order_enforced () =
  let t = mk () in
  install_value t "a" ~commit_ts:10 ~creator:1 (Some "x");
  Alcotest.check_raises "decreasing ts rejected"
    (Invalid_argument "Mvstore.install: commit timestamps must increase along a chain")
    (fun () -> install_value t "a" ~commit_ts:10 ~creator:2 (Some "y"))

let test_successor_and_scan () =
  let t = mk () in
  List.iter (fun k -> install_value t k ~commit_ts:1 ~creator:1 (Some k)) [ "a"; "c"; "e" ];
  Alcotest.(check (option string)) "successor" (Some "c") (Mvstore.committed_successor t "a");
  Alcotest.(check (option string)) "successor mid-gap" (Some "c")
    (Mvstore.committed_successor t "b");
  Alcotest.(check (option string)) "supremum" None (Mvstore.committed_successor t "e");
  Alcotest.(check (option string)) "min" (Some "a") (Mvstore.min_key t);
  let seen = ref [] in
  let _ = Mvstore.scan_chains t ~lo:"b" ~hi:"e" (fun k _ -> seen := k :: !seen) in
  Alcotest.(check (list string)) "scan range" [ "c"; "e" ] (List.rev !seen);
  ignore (Mvstore.ensure_chain t "d");
  Alcotest.(check (option string)) "uncommitted entry skipped" (Some "e")
    (Mvstore.committed_successor t "c")

let test_gc_drops_old_versions () =
  let t = mk () in
  install_value t "a" ~commit_ts:1 ~creator:1 (Some "v1");
  install_value t "a" ~commit_ts:2 ~creator:2 (Some "v2");
  install_value t "a" ~commit_ts:3 ~creator:3 (Some "v3");
  Alcotest.(check int) "three versions" 3 (Mvstore.version_count t);
  let removed = Mvstore.gc t ~min_snapshot:2 in
  Alcotest.(check int) "no keys removed" 0 removed;
  (* v1 is unreadable by any snapshot >= 2; v2 is still the visible version
     at snapshot 2. *)
  Alcotest.(check int) "two versions left" 2 (Mvstore.version_count t);
  Alcotest.(check (option string)) "snapshot 2 still reads v2" (Some "v2")
    (Mvstore.read t "a" ~snapshot:2)

let test_gc_reclaims_dead_tombstones () =
  let t = mk () in
  install_value t "a" ~commit_ts:1 ~creator:1 (Some "v");
  install_value t "a" ~commit_ts:2 ~creator:2 None;
  install_value t "b" ~commit_ts:1 ~creator:1 (Some "w");
  let removed = Mvstore.gc t ~min_snapshot:5 in
  Alcotest.(check int) "tombstoned key reclaimed" 1 removed;
  Alcotest.(check int) "live key kept" 1 (Mvstore.key_count t);
  Alcotest.(check (option string)) "live key readable" (Some "w") (Mvstore.read t "b" ~snapshot:5)

let test_gc_keeps_recent_tombstones () =
  let t = mk () in
  install_value t "a" ~commit_ts:1 ~creator:1 (Some "v");
  install_value t "a" ~commit_ts:10 ~creator:2 None;
  (* A transaction with snapshot 5 can still read "v", so nothing is
     reclaimable. *)
  let removed = Mvstore.gc t ~min_snapshot:5 in
  Alcotest.(check int) "nothing removed" 0 removed;
  Alcotest.(check (option string)) "old snapshot reads through tombstone" (Some "v")
    (Mvstore.read t "a" ~snapshot:5)

let test_empty_chain_reclaimed () =
  let t = mk () in
  ignore (Mvstore.ensure_chain t "a");
  Alcotest.(check int) "entry exists" 1 (Mvstore.key_count t);
  let removed = Mvstore.gc t ~min_snapshot:1 in
  Alcotest.(check int) "empty chain removed" 1 removed

(* Property: visibility is the newest version at or below the snapshot. *)
let prop_visibility commits =
  let t = mk () in
  let sorted = List.sort_uniq compare commits in
  List.iter (fun ts -> install_value t "k" ~commit_ts:ts ~creator:ts (Some (string_of_int ts))) sorted;
  List.for_all
    (fun snap ->
      let expected =
        List.fold_left (fun acc ts -> if ts <= snap then Some ts else acc) None sorted
      in
      Mvstore.read t "k" ~snapshot:snap = Option.map string_of_int expected)
    (List.init 30 (fun i -> i))

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200 ~name:"visibility = newest at-or-below snapshot"
         QCheck.(list_of_size Gen.(int_bound 20) (int_range 1 25))
         prop_visibility);
  ]

let suite =
  [
    ("visibility by snapshot", `Quick, test_visibility);
    ("tombstones", `Quick, test_tombstone);
    ("newer versions", `Quick, test_newer_versions);
    ("install order enforced", `Quick, test_install_order_enforced);
    ("successor and scan", `Quick, test_successor_and_scan);
    ("gc drops old versions", `Quick, test_gc_drops_old_versions);
    ("gc reclaims dead tombstones", `Quick, test_gc_reclaims_dead_tombstones);
    ("gc keeps recent tombstones", `Quick, test_gc_keeps_recent_tombstones);
    ("gc reclaims empty chains", `Quick, test_empty_chain_reclaimed);
  ]

let () = Alcotest.run "mvcc" [ ("mvcc", suite); ("mvcc-props", qcheck_tests) ]
