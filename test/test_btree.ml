(* Tests for the B+tree substrate, including model-based property tests
   against a sorted association list. *)

let key i = Printf.sprintf "k%06d" i

let test_empty () =
  let t = Btree.create ~fanout:4 () in
  Alcotest.(check int) "empty length" 0 (Btree.length t);
  Alcotest.(check (option string)) "find missing" None (Btree.find t "x");
  Alcotest.(check (option string)) "min" None (Btree.min_key t);
  Alcotest.(check (option string)) "max" None (Btree.max_key t);
  Alcotest.(check (option string)) "succ" None (Btree.successor t "a");
  Btree.check_invariants t

let test_insert_find () =
  let t = Btree.create ~fanout:4 () in
  for i = 0 to 99 do
    Btree.insert t (key i) i
  done;
  Btree.check_invariants t;
  Alcotest.(check int) "length" 100 (Btree.length t);
  for i = 0 to 99 do
    Alcotest.(check (option int)) "find" (Some i) (Btree.find t (key i))
  done;
  Alcotest.(check (option int)) "find absent" None (Btree.find t "zzz")

let test_replace () =
  let t = Btree.create ~fanout:4 () in
  Btree.insert t "a" 1;
  Btree.insert t "a" 2;
  Alcotest.(check int) "no duplicate" 1 (Btree.length t);
  Alcotest.(check (option int)) "replaced" (Some 2) (Btree.find t "a")

let test_splits_grow_height () =
  let t = Btree.create ~fanout:4 () in
  Alcotest.(check int) "height 1" 1 (Btree.height t);
  let grew = ref false in
  for i = 0 to 199 do
    Btree.insert t (key i) i;
    if (Btree.footprint t).Btree.modified <> [] then grew := true
  done;
  Btree.check_invariants t;
  Alcotest.(check bool) "splits happened" true !grew;
  Alcotest.(check bool) "height grew" true (Btree.height t > 2);
  Alcotest.(check bool) "many pages" true (Btree.page_count t > 50)

let test_root_split_reports_new_root () =
  let t = Btree.create ~fanout:4 () in
  let old_root = Btree.root_id t in
  let saw_new_root = ref false in
  for i = 0 to 20 do
    Btree.insert t (key i) i;
    let modified = (Btree.footprint t).Btree.modified in
    if List.mem (Btree.root_id t) modified && Btree.root_id t <> old_root then saw_new_root := true
  done;
  Alcotest.(check bool) "root changed" true (Btree.root_id t <> old_root);
  Alcotest.(check bool) "new root reported as modified" true !saw_new_root

let test_descent_path () =
  let t = Btree.create ~fanout:4 () in
  for i = 0 to 199 do
    Btree.insert t (key i) i
  done;
  ignore (Btree.find t (key 57));
  let access = Btree.footprint t in
  Alcotest.(check int) "path length = height" (Btree.height t) (List.length access.Btree.path);
  Alcotest.(check int) "first is root" (Btree.root_id t) (List.hd access.Btree.path)

(* Every operation walks from the root once, at any height, an insert
   included; reading the footprint walks nowhere. *)
let test_descents () =
  let t = Btree.create ~fanout:4 () in
  let adds n what f =
    let before = Btree.descents t in
    f ();
    Alcotest.(check int) what n (Btree.descents t - before)
  in
  adds 1 "insert into a fresh tree" (fun () -> Btree.insert t (key 0) 0);
  for i = 1 to 199 do
    adds 1 "insert" (fun () -> Btree.insert t (key i) i)
  done;
  adds 1 "find_or_add of a present key" (fun () ->
      ignore (Btree.find_or_add t (key 57) (fun () -> 57)));
  adds 1 "find_or_add of a new key" (fun () ->
      ignore (Btree.find_or_add t (key 500) (fun () -> 500)));
  adds 1 "find" (fun () -> ignore (Btree.find t (key 57)));
  adds 0 "footprint" (fun () -> ignore (Btree.footprint t));
  adds 1 "iter_range" (fun () -> Btree.iter_range t ~lo:(key 10) (fun _ _ -> ()));
  adds 1 "successor" (fun () -> ignore (Btree.successor t (key 57)));
  adds 1 "successor_where" (fun () ->
      ignore (Btree.successor_where t (key 57) (fun v -> v > 150)));
  adds 1 "remove" (fun () -> ignore (Btree.remove t (key 57)))

(* The structure stamp moves on a new key, a split and a remove, and only
   then. *)
let test_stamp () =
  let t = Btree.create ~fanout:4 () in
  let moves what expected f =
    let before = Btree.stamp t in
    f ();
    Alcotest.(check bool) what expected (Btree.stamp t <> before)
  in
  for i = 0 to 3 do
    moves "new key" true (fun () -> Btree.insert t (key i) i)
  done;
  moves "new key that splits" true (fun () ->
      Btree.insert t (key 4) 4;
      Alcotest.(check bool) "split reported" true ((Btree.footprint t).Btree.splits <> []));
  moves "new key by find_or_add" true (fun () ->
      ignore (Btree.find_or_add t (key 5) (fun () -> 5)));
  moves "remove" true (fun () -> ignore (Btree.remove t (key 5)));
  moves "find" false (fun () -> ignore (Btree.find t (key 2)));
  moves "footprint" false (fun () -> ignore (Btree.footprint t));
  moves "find_or_add of a present key" false (fun () ->
      Alcotest.(check int) "present value" 2 (Btree.find_or_add t (key 2) (fun () -> -1)));
  moves "replace" false (fun () -> Btree.insert t (key 2) 20);
  moves "scan" false (fun () -> Btree.iter_range t (fun _ _ -> ()));
  moves "successor" false (fun () -> ignore (Btree.successor t (key 2)));
  moves "remove of an absent key" false (fun () -> ignore (Btree.remove t (key 99)));
  Btree.check_invariants t

(* One walk finds or adds: its footprint is a find's for a present key and
   an insert's for a new one, [make] runs only for a new key, and [splits]
   counts the pages the insert split. *)
let test_find_or_add () =
  let build () =
    let t = Btree.create ~fanout:4 () in
    for i = 0 to 99 do
      Btree.insert t (key (2 * i)) (2 * i)
    done;
    t
  in
  let t = build () and reference = build () in
  let made = ref 0 in
  let make v () =
    incr made;
    v
  in
  for i = 0 to 199 do
    let k = key i in
    let splits = Btree.splits t in
    if i mod 2 = 0 then begin
      let v = Btree.find_or_add t k (make (-1)) in
      Alcotest.(check (option int)) "present value" (Btree.find reference k) (Some v)
    end
    else begin
      Alcotest.(check int) "added value" i (Btree.find_or_add t k (make i));
      Btree.insert reference k i
    end;
    let a = Btree.footprint t in
    Alcotest.(check bool) "a find's or an insert's footprint" true (a = Btree.footprint reference);
    Alcotest.(check int) "one split counted per split pair" (List.length a.Btree.splits)
      (Btree.splits t - splits)
  done;
  Alcotest.(check int) "made once per new key" 100 !made;
  Btree.check_invariants t;
  Alcotest.(check bool) "same tree" true (Btree.to_list t = Btree.to_list reference)

let test_reverse_and_random_insertion_orders () =
  let mk order =
    let t = Btree.create ~fanout:5 () in
    List.iter (fun i -> Btree.insert t (key i) i) order;
    Btree.check_invariants t;
    Btree.to_list t
  in
  let fwd = mk (List.init 150 Fun.id) in
  let rev = mk (List.rev (List.init 150 Fun.id)) in
  let st = Random.State.make [| 7 |] in
  let shuffled =
    List.map snd
      (List.sort compare (List.map (fun i -> (Random.State.bits st, i)) (List.init 150 Fun.id)))
  in
  let rnd = mk shuffled in
  Alcotest.(check bool) "reverse = forward" true (fwd = rev);
  Alcotest.(check bool) "random = forward" true (fwd = rnd)

let test_remove () =
  let t = Btree.create ~fanout:4 () in
  for i = 0 to 49 do
    Btree.insert t (key i) i
  done;
  for i = 0 to 49 do
    if i mod 2 = 0 then Alcotest.(check bool) "removed" true (Btree.remove t (key i))
  done;
  Alcotest.(check bool) "remove absent" false (Btree.remove t (key 0));
  Btree.check_invariants t;
  Alcotest.(check int) "half left" 25 (Btree.length t);
  for i = 0 to 49 do
    let expect = if i mod 2 = 0 then None else Some i in
    Alcotest.(check (option int)) "post-remove find" expect (Btree.find t (key i))
  done

let test_successor () =
  let t = Btree.create ~fanout:4 () in
  List.iter (fun i -> Btree.insert t (key i) i) [ 10; 20; 30; 40 ];
  Alcotest.(check (option string)) "succ below min" (Some (key 10)) (Btree.successor t "");
  Alcotest.(check (option string)) "succ of member" (Some (key 20)) (Btree.successor t (key 10));
  Alcotest.(check (option string)) "succ between" (Some (key 20)) (Btree.successor t (key 15));
  Alcotest.(check (option string)) "succ of max" None (Btree.successor t (key 40))

let test_successor_across_leaves () =
  let t = Btree.create ~fanout:4 () in
  for i = 0 to 99 do
    Btree.insert t (key (2 * i)) i
  done;
  for i = 0 to 98 do
    Alcotest.(check (option string))
      "successor of odd key"
      (Some (key ((2 * i) + 2)))
      (Btree.successor t (key ((2 * i) + 1)))
  done

let test_range_scan () =
  let t = Btree.create ~fanout:4 () in
  for i = 0 to 99 do
    Btree.insert t (key i) i
  done;
  let got = ref [] in
  Btree.iter_range t ~lo:(key 10) ~hi:(key 19) (fun _ v -> got := v :: !got);
  Alcotest.(check (list int)) "range 10..19" (List.init 10 (fun i -> 10 + i)) (List.rev !got);
  let all = ref 0 in
  Btree.iter_range t (fun _ _ -> incr all);
  Alcotest.(check int) "unbounded" 100 !all;
  let empty = ref 0 in
  Btree.iter_range t ~lo:(key 50) ~hi:(key 49) (fun _ _ -> incr empty);
  Alcotest.(check int) "empty range" 0 !empty

let test_range_access_leaves () =
  let t = Btree.create ~fanout:4 () in
  for i = 0 to 99 do
    Btree.insert t (key i) i
  done;
  Btree.iter_range t ~lo:(key 0) ~hi:(key 99) (fun _ _ -> ());
  (* A scan over everything must visit every leaf. *)
  let leaves = List.length (Btree.footprint t).Btree.leaves in
  Alcotest.(check bool) "visits many leaves" true (leaves >= 25);
  Btree.iter_range t ~lo:(key 5) ~hi:(key 5) (fun _ _ -> ());
  Alcotest.(check int) "point scan one leaf" 1 (List.length (Btree.footprint t).Btree.leaves)

let test_min_max () =
  let t = Btree.create ~fanout:4 () in
  for i = 5 to 95 do
    Btree.insert t (key i) i
  done;
  Alcotest.(check (option string)) "min" (Some (key 5)) (Btree.min_key t);
  Alcotest.(check (option string)) "max" (Some (key 95)) (Btree.max_key t)


let test_empty_string_key () =
  let t = Btree.create ~fanout:4 () in
  Btree.insert t "" 0;
  Btree.insert t "a" 1;
  Alcotest.(check (option int)) "empty key stored" (Some 0) (Btree.find t "");
  Alcotest.(check (option string)) "min is empty" (Some "") (Btree.min_key t);
  Alcotest.(check (option string)) "successor of empty" (Some "a") (Btree.successor t "")

let test_long_and_binary_keys () =
  let t = Btree.create ~fanout:4 () in
  let keys = [ String.make 500 'z'; "\x00\x01"; "\xff\xfe"; "middle" ] in
  List.iteri (fun i k -> Btree.insert t k i) keys;
  Btree.check_invariants t;
  List.iteri (fun i k -> Alcotest.(check (option int)) "roundtrip" (Some i) (Btree.find t k)) keys

let test_scan_early_exit () =
  let t = Btree.create ~fanout:4 () in
  for i = 0 to 99 do
    Btree.insert t (key i) i
  done;
  let seen = ref 0 in
  Btree.iter_range t (fun _ _ ->
      incr seen;
      if !seen >= 5 then raise Exit);
  Alcotest.(check int) "stopped after five" 5 !seen;
  (* five keys span at most three tiny leaves; a full scan visits ~30+ *)
  Alcotest.(check bool) "visited only a prefix of leaves" true
    (List.length (Btree.footprint t).Btree.leaves <= 3)

let test_remove_then_reinsert () =
  let t = Btree.create ~fanout:4 () in
  for i = 0 to 29 do
    Btree.insert t (key i) i
  done;
  for i = 0 to 29 do
    ignore (Btree.remove t (key i))
  done;
  Alcotest.(check int) "emptied" 0 (Btree.length t);
  Btree.check_invariants t;
  for i = 0 to 29 do
    Btree.insert t (key i) (i * 2)
  done;
  Btree.check_invariants t;
  Alcotest.(check (option int)) "reinserted" (Some 14) (Btree.find t (key 7))

(* The tree's layout, pinned as one MD5: pseudo-random, ascending and
   descending key runs with removes (a third of the random keys, then a
   contiguous block, so whole leaves empty) and re-inserts, at fanouts 4, 8
   and 64, then [find_or_add] of new keys (which split) and of present
   ones, and range scans, some stopped early. The digest covers the
   footprint of every insert, [find_or_add] and scan (path,
   leaves, modified pages and split pairs), each value [find_or_add] gives,
   each key a scan visits, each remove's result, each remaining key's path
   and leaf, and the final page count, height, stamp and descent count.
   Descending runs matter: TPC-C++ loads its order tables newest key first.
   A change to how leaves store their keys, or to how a walk's footprint
   is found, must keep every page id, split and count. *)
let layout_digest () =
  let buf = Buffer.create 65536 in
  let ints l =
    List.iter (fun i -> Buffer.add_string buf (string_of_int i ^ ",")) l;
    Buffer.add_char buf ';'
  in
  let footprint t =
    let a = Btree.footprint t in
    ints a.path;
    ints a.leaves;
    ints a.modified;
    List.iter (fun (o, n) -> ints [ o; n ]) a.splits;
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun fanout ->
      let t = Btree.create ~fanout () in
      let x = ref 7 in
      let rand () =
        x := ((!x * 1103515245) + 12345) land 0xFFFFFF;
        !x mod 5000
      in
      let random = List.init 700 (fun _ -> rand ()) in
      let insert i =
        Btree.insert t (key i) i;
        footprint t
      in
      let remove i = Buffer.add_string buf (if Btree.remove t (key i) then "r" else "-") in
      List.iter insert random;
      List.iter insert (List.init 300 (fun i -> 5000 + i));
      List.iter insert (List.init 300 (fun i -> 9999 - i));
      List.iter insert (List.init 200 (fun i -> 4800 - (7 * i)));
      List.iteri (fun j i -> if j mod 3 = 0 then remove i) random;
      List.iter remove (List.init 150 (fun i -> 5100 + i));
      List.iter remove (List.init 120 (fun i -> 9999 - i));
      List.iter insert (List.init 60 (fun i -> 5249 - (2 * i)));
      List.iter insert (List.init 40 (fun i -> 9900 + i));
      let find_or_add i =
        ints [ Btree.find_or_add t (key i) (fun () -> -i) ];
        footprint t
      in
      List.iter find_or_add (List.init 120 (fun i -> 10_000 + (3 * i)));
      List.iter find_or_add (List.init 80 (fun i -> 5101 + (2 * i)));
      List.iter find_or_add (List.init 100 (fun _ -> rand ()));
      let scan ?lo ?hi ?stop () =
        let seen = ref 0 in
        Btree.iter_range t ?lo:(Option.map key lo) ?hi:(Option.map key hi) (fun k v ->
            Buffer.add_string buf k;
            ints [ v ];
            incr seen;
            if Some !seen = stop then raise Exit);
        footprint t
      in
      scan ();
      scan ~lo:4000 ~hi:5300 ();
      scan ~lo:9950 ();
      scan ~hi:120 ();
      scan ~lo:5101 ~hi:5101 ();
      scan ~lo:9990 ~hi:9000 ();
      scan ~lo:100 ~stop:7 ();
      scan ~lo:5000 ~hi:10_300 ~stop:40 ();
      Btree.check_invariants t;
      List.iter
        (fun (k, _) ->
          ignore (Btree.find t k);
          let a = Btree.footprint t in
          ints a.Btree.path;
          ints a.Btree.leaves)
        (Btree.to_list t);
      ints [ Btree.page_count t; Btree.height t; Btree.stamp t; Btree.descents t ])
    [ 4; 8; 64 ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_layout_pin () =
  Alcotest.(check string) "layout digest" "bcb10bc86824f6b94e72504802239754" (layout_digest ())

(* Put a fresh value under [k] and return only a weak pointer to it, so
   the tree holds the one strong reference. *)
let[@inline never] add_weak t k =
  let v = ref (String.length k) in
  let w = Weak.create 1 in
  Weak.set w 0 (Some v);
  Btree.insert t k v;
  w

let freed w =
  Gc.full_major ();
  not (Weak.check w 0)

(* A removed or replaced value is not kept alive by the tree: not in the
   middle of a leaf, not as a leaf's last key, not when a leaf empties. *)
let test_removed_value_freed () =
  let t = Btree.create ~fanout:8 () in
  (* keys 0..8 split the root leaf into [0..4] and [5..8]; 9 then lands in
     the right leaf, which has room to spare after it *)
  let ws = Array.init 12 (fun i -> add_weak t (key i)) in
  ignore (Btree.remove t (key 11));
  Alcotest.(check bool) "leaf's last key" true (freed ws.(11));
  ignore (Btree.remove t (key 7));
  Alcotest.(check bool) "middle of a leaf" true (freed ws.(7));
  (* the refills above left copies of key 5's value in the spare slots *)
  let w5 = add_weak t (key 5) in
  Alcotest.(check bool) "replaced value" true (freed ws.(5));
  List.iter (fun i -> ignore (Btree.remove t (key i))) [ 5; 6; 8; 9; 10 ];
  Btree.check_invariants t;
  List.iter
    (fun (i, w) ->
      Alcotest.(check bool) (Printf.sprintf "emptied leaf, key %d" i) true (freed w))
    [ (5, w5); (6, ws.(6)); (8, ws.(8)); (9, ws.(9)); (10, ws.(10)) ];
  Alcotest.(check bool) "a kept value stays" false (freed ws.(3));
  Alcotest.(check (option int)) "kept value found" (Some 7)
    (Option.map ( ! ) (Btree.find t (key 3)))

(* Model-based qcheck properties: a script of inserts/removes against the
   tree must agree with a reference assoc-list model. *)

type op = Insert of int * int | Remove of int | Find of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> Insert (k, v)) (int_bound 200) (int_bound 1000));
        (2, map (fun k -> Remove k) (int_bound 200));
        (3, map (fun k -> Find k) (int_bound 200));
      ])

let show_op = function
  | Insert (k, v) -> Printf.sprintf "Insert(%d,%d)" k v
  | Remove k -> Printf.sprintf "Remove(%d)" k
  | Find k -> Printf.sprintf "Find(%d)" k

let arb_ops = QCheck.make ~print:QCheck.Print.(list show_op) QCheck.Gen.(list_size (int_bound 400) op_gen)

let prop_model ops =
  let t = Btree.create ~fanout:4 () in
  let model = Hashtbl.create 64 in
  List.for_all
    (fun op ->
      match op with
      | Insert (k, v) ->
          Btree.insert t (key k) v;
          Hashtbl.replace model (key k) v;
          true
      | Remove k ->
          let a = Btree.remove t (key k) in
          let b = Hashtbl.mem model (key k) in
          Hashtbl.remove model (key k);
          a = b
      | Find k -> Btree.find t (key k) = Hashtbl.find_opt model (key k))
    ops
  &&
  (Btree.check_invariants t;
   let sorted_model =
     List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
   in
   Btree.to_list t = sorted_model)

let prop_successor_matches_model ops =
  let t = Btree.create ~fanout:4 () in
  let model = Hashtbl.create 64 in
  List.iter
    (function
      | Insert (k, v) ->
          Btree.insert t (key k) v;
          Hashtbl.replace model (key k) v
      | Remove k ->
          ignore (Btree.remove t (key k));
          Hashtbl.remove model (key k)
      | Find _ -> ())
    ops;
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) model []) in
  let even v = v mod 2 = 0 in
  List.for_all
    (fun probe ->
      let expected = List.find_opt (fun k -> k > key probe) keys in
      let expected_even =
        List.find_opt (fun k -> k > key probe && even (Hashtbl.find model k)) keys
      in
      Btree.successor t (key probe) = expected
      && Btree.successor_where t (key probe) even = expected_even)
    (List.init 20 (fun i -> i * 10))

(* Range scans after a random insert/remove script agree with the sorted
   assoc-list model, for a grid of [lo, hi) probes including empty, point,
   partial and full ranges. *)
let prop_scan_matches_model ops =
  let t = Btree.create ~fanout:4 () in
  let model = Hashtbl.create 64 in
  List.iter
    (function
      | Insert (k, v) ->
          Btree.insert t (key k) v;
          Hashtbl.replace model (key k) v
      | Remove k ->
          ignore (Btree.remove t (key k));
          Hashtbl.remove model (key k)
      | Find _ -> ())
    ops;
  let sorted = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []) in
  let probes =
    (None, None)
    :: List.concat_map
         (fun lo -> List.map (fun hi -> (Some (key lo), Some (key hi))) [ lo - 1; lo; lo + 17; 300 ])
         [ 0; 13; 100; 199 ]
  in
  List.for_all
    (fun (lo, hi) ->
      let expected =
        List.filter
          (fun (k, _) ->
            (match lo with None -> true | Some l -> k >= l)
            && match hi with None -> true | Some h -> k <= h)
          sorted
      in
      let got =
        List.rev (Btree.fold_range t ?lo ?hi ~init:[] ~f:(fun acc k v -> (k, v) :: acc))
      in
      got = expected)
    probes

(* Structural bounds for insert-only scripts: splits leave every page at
   least half full, so an N-key tree with fanout f has at most
   ~N / floor((f+1)/2) leaves and logarithmic height. (Removal voids the
   occupancy bound by design — deletion is lazy — so the bound is only
   asserted before any Remove.) *)
let prop_insert_only_bounds keys =
  let fanout = 4 in
  let t = Btree.create ~fanout () in
  List.iter (fun k -> Btree.insert t (key k) k) keys;
  Btree.check_invariants t;
  let n = Btree.length t in
  let min_fill = (fanout + 1) / 2 in
  let max_leaves = max 1 (n / min_fill * 2) in
  (* height h implies at least 2^(h-2) leaves (internal nodes keep >= 2
     children after a split), so h <= 2 + log2(leaves). *)
  let max_height = 2 + int_of_float (ceil (log (float_of_int (max 2 max_leaves)) /. log 2.0)) in
  Btree.page_count t <= (2 * max_leaves) + max_height
  && Btree.height t <= max_height
  && n = List.length (List.sort_uniq compare keys)

(* Every page id other than the initial root 0 is allocated by a split, and
   every split must be reported in the access footprint: the union of
   reported (old, new) pairs accounts for every page in the tree. The engine
   relies on this to carry SIREAD locks and page stamps across splits. *)
let prop_splits_reported keys =
  let t = Btree.create ~fanout:4 () in
  let reported = Hashtbl.create 64 in
  Hashtbl.replace reported 0 ();
  List.for_all
    (fun k ->
      Btree.insert t (key k) k;
      let access = Btree.footprint t in
      List.for_all
        (fun (old_id, new_id) ->
          let fresh = not (Hashtbl.mem reported new_id) in
          Hashtbl.replace reported new_id ();
          (* the old side must already be a known page, and both must be
             listed as structurally modified *)
          fresh && Hashtbl.mem reported old_id
          && List.mem old_id access.Btree.modified
          && List.mem new_id access.Btree.modified)
        access.Btree.splits)
    keys
  && List.for_all (Hashtbl.mem reported) (Btree.all_pages t)

let arb_keys =
  QCheck.make
    ~print:QCheck.Print.(list int)
    QCheck.Gen.(list_size (int_bound 500) (int_bound 300))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:200 ~name:"btree agrees with assoc model" arb_ops prop_model;
      QCheck.Test.make ~count:100 ~name:"successor agrees with model" arb_ops
        prop_successor_matches_model;
      QCheck.Test.make ~count:100 ~name:"range scans agree with model" arb_ops
        prop_scan_matches_model;
      QCheck.Test.make ~count:100 ~name:"insert-only occupancy and height bounds" arb_keys
        prop_insert_only_bounds;
      QCheck.Test.make ~count:100 ~name:"splits fully reported in access" arb_keys
        prop_splits_reported;
    ]

let suite =
  [
    ("empty tree", `Quick, test_empty);
    ("insert and find", `Quick, test_insert_find);
    ("replace existing", `Quick, test_replace);
    ("splits grow height", `Quick, test_splits_grow_height);
    ("root split reported", `Quick, test_root_split_reports_new_root);
    ("descent path", `Quick, test_descent_path);
    ("descent count", `Quick, test_descents);
    ("structure stamp", `Quick, test_stamp);
    ("find_or_add", `Quick, test_find_or_add);
    ("insertion order independence", `Quick, test_reverse_and_random_insertion_orders);
    ("remove", `Quick, test_remove);
    ("successor", `Quick, test_successor);
    ("successor across leaves", `Quick, test_successor_across_leaves);
    ("range scan", `Quick, test_range_scan);
    ("range access leaves", `Quick, test_range_access_leaves);
    ("min and max", `Quick, test_min_max);
    ("empty string key", `Quick, test_empty_string_key);
    ("long and binary keys", `Quick, test_long_and_binary_keys);
    ("scan early exit", `Quick, test_scan_early_exit);
    ("remove then reinsert", `Quick, test_remove_then_reinsert);
    ("layout pin", `Quick, test_layout_pin);
    ("removed value freed", `Quick, test_removed_value_freed);
  ]

let () = Alcotest.run "btree" [ ("btree", suite); ("btree-props", qcheck_tests) ]
