(* Tests for the DPOR schedule explorer: cross-validation against full
   enumeration (the soundness oracle), the reduction criterion, the
   equivalence property over generated programs, streaming-enumeration
   regressions, and the reduction-metrics plumbing. *)

open Core

let levels = [ Types.Serializable; Types.Snapshot; Types.S2pl ]

let level_name = Types.isolation_to_string

let canonical_specs =
  [
    ("paper", Interleave.paper_spec);
    ("write-skew", Interleave.write_skew_spec);
    ("read-only", Interleave.read_only_anomaly_spec);
  ]

(* {1 Cross-validation: canonical specs × prototype matrix × levels}

   The explorer's whole claim: on every program small enough to enumerate,
   the DPOR digest set equals the full-enumeration digest set, at every
   isolation level and matrix point. *)

let test_cross_validate_canonical () =
  List.iter
    (fun cfg ->
      let config = Fuzzcase.config_of_point cfg in
      List.iter
        (fun (sname, spec) ->
          List.iter
            (fun iso ->
              let v = Explore.cross_validate ~config ~isolation:iso spec in
              let label =
                Printf.sprintf "%s/%s/%s" (Fuzzcase.point_to_string cfg) sname (level_name iso)
              in
              Alcotest.(check (list string)) (label ^ " digest sets equal") v.Explore.v_full
                v.Explore.v_dpor;
              Alcotest.(check bool)
                (Printf.sprintf "%s executed %d <= bound %d" label v.Explore.v_stats.Explore.executed
                   v.Explore.v_stats.Explore.bound)
                true
                (v.Explore.v_stats.Explore.executed <= v.Explore.v_stats.Explore.bound))
            levels)
        canonical_specs)
    Fuzzcase.matrix_default

(* {1 Reduction criterion}

   On the 5-transaction §4.7 chain the explorer must execute at most a
   quarter of the multinomial bound (the acceptance threshold; in practice
   it lands near 5%). *)

let test_reduction_factor () =
  let _, st = Explore.explore ~isolation:Types.Serializable Interleave.paper_spec_5 in
  Alcotest.(check int) "bound is the multinomial count" 5040 st.Explore.bound;
  Alcotest.(check bool)
    (Printf.sprintf "executed %d <= bound/4 = %d" st.Explore.executed (st.Explore.bound / 4))
    true
    (st.Explore.executed <= st.Explore.bound / 4)

(* {1 Explored schedules carry no MVSG violation}

   Serializable-guaranteeing levels must stay anomaly-free on every
   schedule the explorer actually runs — checked via the [on_run] oracle,
   not just via digests. *)

let test_no_mvsg_violations_explored () =
  List.iter
    (fun iso ->
      List.iter
        (fun (sname, spec) ->
          let violations = ref 0 in
          let _ =
            Explore.explore ~isolation:iso
              ~on_run:(fun r -> if not r.Interleave.serializable then incr violations)
              spec
          in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: MVSG violations among explored schedules" sname
               (level_name iso))
            0 !violations)
        (("write-skew-3", Interleave.write_skew_spec_3) :: canonical_specs))
    [ Types.Serializable; Types.S2pl ]

(* {1 Equivalence property over generated programs}

   A fixed-seed Fuzzgen stream of small (≤ 3 txns, ≤ 3 ops each) programs
   across the granularity × variant matrix: for every case and level the
   DPOR digest set must equal full enumeration. Inserts, deletes, scans and
   user aborts are all in the generator's vocabulary, so this exercises gap
   and page footprints, not just point reads/writes. *)

let test_equivalence_property () =
  let st = Random.State.make [| 0xD9_0E |] in
  let profile = { Fuzzgen.p_max_txns = 3; p_max_ops = 3; p_max_keys = 4 } in
  let points = Array.of_list Fuzzcase.matrix_default in
  for i = 0 to 11 do
    let cfg = points.(i mod Array.length points) in
    let case = Fuzzgen.case ~profile st ~cfg in
    let config = Fuzzcase.config_of_point cfg in
    let iso = List.nth levels (i mod 3) in
    let v =
      Explore.cross_validate ~config ~init:case.Fuzzcase.init ~ro:case.Fuzzcase.ro
        ~isolation:iso case.Fuzzcase.specs
    in
    let label =
      Printf.sprintf "case %d [%s] %s under %s" i
        (String.concat " | " (List.map Interleave.spec_to_string case.Fuzzcase.specs))
        (Fuzzcase.point_to_string cfg) (level_name iso)
    in
    Alcotest.(check (list string)) (label ^ ": digest sets equal") v.Explore.v_full
      v.Explore.v_dpor
  done

(* {1 An S2PL page scan locks the pages it reads after a wait}

   The shrunk failure of `fuzz --cases 10000 --seed 1 --matrix full`. T2's
   scan waits for an S lock on the fanout-4 leaf T0 X-locked; T0's second
   write creates k4, which splits that leaf and moves k3 to a new page. A
   scan that locks only the pages it collected before the wait leaves k3
   open to T1's delete: T2 then reads k3 at two versions and misses T0's
   k4. Explored to completion, no schedule may commit a non-serializable
   history. *)

let page_scan_case =
  {|ssi-fuzz-repro v3
cfg granularity=page ssi=basic gap_locking=0 abort_early=1 victim=younger ro_refinement=0 upgrade_siread=0 memory_budget=0 wal_flush=0 checkpoint_interval=0
init k1=0
init k2=0
init k3=0
txn ro=0 w(k0);w(k4)
txn ro=0 r(k2);del(k3)
txn ro=0 scan(-,k4,-);r(k3)
schedule 0 2 1 1 2 0
|}

let test_page_scan_after_split () =
  let c =
    match Fuzzcase.of_string page_scan_case with Ok (c, _) -> c | Error e -> Alcotest.fail e
  in
  let config = Fuzzcase.config_of_point c.Fuzzcase.cfg in
  List.iter
    (fun iso ->
      let violations = ref 0 in
      let _, st =
        Explore.explore ~config ~init:c.Fuzzcase.init ~ro:c.Fuzzcase.ro ~isolation:iso
          ~on_run:(fun r -> if not r.Interleave.serializable then incr violations)
          c.Fuzzcase.specs
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: non-serializable among %d explored schedules" (level_name iso)
           st.Explore.executed)
        0 !violations)
    levels

(* {1 Corpus pin}

   A fixed Fuzzgen corpus explored over the unbounded points of the full
   matrix (both granularities, both victim policies, both deadlock
   detectors) at every level. Every program's reduction counts and digest
   set fold into one MD5, so a change to the explorer's bookkeeping that
   moves any count, or any outcome, on any of these programs fails here.
   The canonical specs alone never run Prefer_younger victims. *)

let corpus_fingerprint () =
  let points =
    Array.of_list (List.filter (fun p -> p.Fuzzcase.memory_budget = 0) Fuzzcase.matrix_full)
  in
  let st = Random.State.make [| 0xC0_2B05 |] in
  let programs = 60 in
  let b = Buffer.create 65536 in
  let executed = ref 0 in
  for i = 0 to programs - 1 do
    let cfg = points.(i * Array.length points / programs) in
    (* Programs past 3,000 interleavings are redrawn; the rest stay small
       enough that the corpus runs about 9,000 schedules. *)
    let rec draw () =
      let c = Fuzzgen.case st ~cfg in
      if Interleave.count_interleavings c.Fuzzcase.specs > 3000 then draw () else c
    in
    let case = draw () in
    let config = Fuzzcase.config_of_point cfg in
    List.iter
      (fun iso ->
        let digests, s =
          Explore.explore ~config ~init:case.Fuzzcase.init ~ro:case.Fuzzcase.ro ~isolation:iso
            case.Fuzzcase.specs
        in
        executed := !executed + s.Explore.executed;
        Printf.bprintf b "%d %s %d %d %d %d %d\n" i (level_name iso) s.Explore.executed
          s.Explore.backtracks s.Explore.sleep_hits s.Explore.sleep_blocked s.Explore.duplicates;
        List.iter (fun d -> Printf.bprintf b " %s\n" d) digests)
      levels
  done;
  (!executed, Digest.to_hex (Digest.string (Buffer.contents b)))

let test_corpus_pin () =
  let executed, fingerprint = corpus_fingerprint () in
  Alcotest.(check (pair int string))
    "schedules executed and fingerprint of counts and digests"
    (9129, "093f6cd10320bc8fcaeba14bad5e0089")
    (executed, fingerprint)

(* {1 The interned dependency test}

   [Footprint.conflict], and the wake check's [Footprint.live_conflict],
   against the string-list definition they replace: a write meets a read
   or a write of the same name, except that two writes of one visibility
   shadow commute (a shadow write still meets a shadow read). Names repeat
   and include shadows and pseudo-resources; the entry side also gets the
   snapshot-pin reads of its data names' shadows, built through the table;
   the live side draws some names the table has never seen. *)

let shadowed res = String.length res >= 2 && res.[0] = 'c' && res.[1] = '/'

let data_name res =
  res <> "clock" && res <> "tid"
  && not (String.length res >= 2 && res.[1] = '/' && (res.[0] = 'x' || res.[0] = 'c'))

let string_conflict (r1, w1) (r2, w2) =
  List.exists (fun res -> List.mem res r2 || ((not (shadowed res)) && List.mem res w2)) w1
  || List.exists (fun res -> List.mem res r1) w2

let seen_names =
  [|
    "r/t/k0"; "r/t/k1"; "g/t/k1"; "p/t/0"; "c/r/t/k0"; "c/r/t/k1"; "c/p/t/0"; "x/3"; "clock"; "tid";
  |]

let unseen_names = [| "r/t/k7"; "c/r/t/k7"; "c/g/t/k1"; "x/9" |]

let arb_footprints =
  let names pool = QCheck.Gen.(list_size (int_bound 6) (oneofa pool)) in
  let fp pool = QCheck.Gen.pair (names pool) (names pool) in
  let print_fp (r, w) = "r[" ^ String.concat " " r ^ "] w[" ^ String.concat " " w ^ "]" in
  QCheck.make
    ~print:(fun (a, b, pin, live) ->
      String.concat " / " [ print_fp a; print_fp b; string_of_bool pin; print_fp live ])
    QCheck.Gen.(
      quad (fp seen_names) (fp seen_names) bool (fp (Array.append seen_names unseen_names)))

let prop_footprint_conflict =
  QCheck.Test.make ~name:"interned conflicts match the string-list definition" ~count:2000
    arb_footprints (fun ((r1, w1), (r2, w2), pin, (lr, lw)) ->
      let names = Footprint.create () in
      let f1 = Footprint.of_names names ~reads:r1 ~writes:w1 in
      let f2 = Footprint.of_names names ~reads:r2 ~writes:w2 in
      let f2, r2 =
        if not pin then (f2, r2)
        else
          let ids = Array.to_list (Array.append f2.Footprint.reads f2.Footprint.writes) in
          let shadows =
            List.filter_map
              (fun id -> if Footprint.is_data id then Some (Footprint.shadow names id) else None)
              ids
          in
          ( Footprint.add_reads f2 (Array.of_list shadows),
            List.map (fun res -> "c/" ^ res) (List.filter data_name (r2 @ w2)) @ r2 )
      in
      Footprint.conflict f1 f2 = string_conflict (r1, w1) (r2, w2)
      && Footprint.conflict f2 f1 = string_conflict (r2, w2) (r1, w1)
      && Footprint.live_conflict names ~reads:lr ~writes:lw f2
         = string_conflict (lr, lw) (r2, w2))

(* {1 Parallel frontier determinism} *)

let test_parallel_determinism () =
  let seq, st1 = Explore.explore ~isolation:Types.Serializable Interleave.read_only_anomaly_spec in
  let par, st4 =
    Par.with_pool ~j:4 (fun pool ->
        Explore.explore ~pool ~isolation:Types.Serializable Interleave.read_only_anomaly_spec)
  in
  Alcotest.(check (list string)) "digests identical at -j 1 and -j 4" seq par;
  Alcotest.(check int) "schedule counts identical" st1.Explore.executed st4.Explore.executed;
  Alcotest.(check int) "backtracks identical" st1.Explore.backtracks st4.Explore.backtracks

(* {1 Streaming enumeration regressions (satellite: sweep memory)}

   [interleavings_seq] must enumerate lazily: taking a handful of schedules
   of a 369600-schedule spec may not allocate anything near the
   materialized list's footprint, and the streamed count must equal the
   closed-form multinomial. *)

let test_streaming_count () =
  let n = Seq.fold_left (fun a _ -> a + 1) 0 (Interleave.interleavings_seq Interleave.paper_spec_5) in
  Alcotest.(check int) "streamed count = multinomial" 5040 n;
  Alcotest.(check int) "closed form agrees" 5040
    (Interleave.count_interleavings Interleave.paper_spec_5);
  Alcotest.(check int) "write-skew 4-cycle bound" 369600
    (Interleave.count_interleavings Interleave.write_skew_spec_4)

let test_streaming_is_lazy () =
  (* A full materialization of write_skew_spec_4 is 369600 schedules × 12
     ops ≈ hundreds of MB of list cells. Taking the first 10 must stay
     under a loose 8 MB ceiling (one path through the merge tree plus
     per-element overhead). *)
  let before = Gc.allocated_bytes () in
  let taken = ref 0 in
  let seq = ref (Interleave.interleavings_seq Interleave.write_skew_spec_4) in
  (try
     for _ = 1 to 10 do
       match !seq () with
       | Seq.Nil -> raise Exit
       | Seq.Cons (sched, rest) ->
           assert (List.length sched = 12);
           incr taken;
           seq := rest
     done
   with Exit -> ());
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "took 10 schedules" 10 !taken;
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f bytes for 10 of 369600 schedules" allocated)
    true
    (allocated < 8_000_000.)

let () =
  Alcotest.run "explore"
    [
      ( "dpor",
        [
          ("cross-validate canonical specs x matrix", `Slow, test_cross_validate_canonical);
          ("reduction factor on the 5-chain", `Quick, test_reduction_factor);
          ("no MVSG violations among explored schedules", `Slow, test_no_mvsg_violations_explored);
          ("equivalence property on generated programs", `Slow, test_equivalence_property);
          ("S2PL page scan after a split", `Quick, test_page_scan_after_split);
          ("corpus pin over the full matrix", `Quick, test_corpus_pin);
          ("parallel frontier determinism", `Quick, test_parallel_determinism);
        ] );
      ("footprint", [ QCheck_alcotest.to_alcotest prop_footprint_conflict ]);
      ( "streaming",
        [
          ("streamed enumeration count", `Quick, test_streaming_count);
          ("enumeration is lazy", `Quick, test_streaming_is_lazy);
        ] );
    ]
