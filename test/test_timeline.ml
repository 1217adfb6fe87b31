(* Timeline telemetry: window arithmetic, densification, wasted-work
   conservation, per-class SLO accounting and the Page–Hinkley detector.

   Synthetic-event tests pin exact values: with dyadic window widths
   (0.25 s) the window index floor(ts/w) is exact, so every expectation is
   an integer or an exact float — no tolerance games. End-to-end tests run
   the real driver under a tracing sink and check the structural
   invariants (conservation, purity, merge determinism) instead. *)

open Core

let feq = Alcotest.float 1e-9

(* {1 Synthetic-event helpers} *)

let commit ~ts ~start =
  ( ts,
    Obs.Txn_commit
      { txn = 1; start; commit_ts = 1; n_writes = 1; retained_siread = 0; retained_record = 0 } )

let abort ~ts ~start reason = (ts, Obs.Txn_abort { txn = 1; start; reason })

let mem ~ts ~siread ~retained ~summary =
  ( ts,
    Obs.Mem_sample
      { siread; retained_siread = retained; retained_record = 0; summary } )

let cls ~ts name outcome latency = (ts, Obs.Class_outcome { cls = name; outcome; latency })

(* {1 Window boundaries} *)

(* Windows are [k*w, (k+1)*w): an event exactly on a boundary belongs to
   the upper window; events at or past the horizon clamp into the last
   window instead of growing the array. *)
let test_window_boundaries () =
  let w = 0.25 in
  let events =
    [
      commit ~ts:0.0 ~start:0.0;
      (* window 0, first instant *)
      commit ~ts:0.249999 ~start:0.0;
      (* still window 0 *)
      commit ~ts:0.25 ~start:0.0;
      (* exactly the boundary: window 1 *)
      commit ~ts:0.75 ~start:0.5;
      (* window 3 *)
      commit ~ts:1.0 ~start:0.9;
      (* at the horizon: clamps into window 3 *)
      commit ~ts:9.9 ~start:9.0;
      (* far past the horizon: clamps too *)
    ]
  in
  let tl = Timeline.of_events ~window:w ~horizon:1.0 events [] in
  Alcotest.(check int) "window count = horizon/w" 4 (Array.length tl.Timeline.tl_windows);
  Alcotest.check feq "width preserved" w tl.Timeline.tl_width;
  let commits = Array.map (fun b -> b.Timeline.w_commits) tl.Timeline.tl_windows in
  Alcotest.(check (array int)) "per-window commit counts" [| 2; 1; 0; 3 |] commits;
  (* throughput is commits/width *)
  let tput = Timeline.series tl "throughput" in
  Alcotest.check feq "throughput window 0" 8.0 tput.(0);
  Alcotest.check feq "throughput window 2" 0.0 tput.(2)

let test_window_count_minimum () =
  (* no events, tiny horizon: still one window; empty-event list with no
     horizon defaults to last-ts 0 *)
  let tl = Timeline.of_events ~window:0.25 [] [] in
  Alcotest.(check int) "minimum one window" 1 (Array.length tl.Timeline.tl_windows);
  Alcotest.(check int) "empty window" 0 tl.Timeline.tl_windows.(0).Timeline.w_commits

(* {1 Abort taxonomy and wasted work (synthetic)} *)

let test_reason_taxonomy_and_work () =
  let w = 0.25 in
  let events =
    [
      commit ~ts:0.1 ~start:0.0;
      (* 0.1 s committed work in window 0 *)
      abort ~ts:0.2 ~start:0.05 "deadlock";
      abort ~ts:0.3 ~start:0.1 "update-conflict";
      abort ~ts:0.35 ~start:0.1 "unsafe";
      abort ~ts:0.4 ~start:0.1 "user-abort";
      abort ~ts:0.45 ~start:0.2 "internal: boom";
    ]
  in
  let tl = Timeline.of_events ~window:w ~horizon:0.5 events [] in
  let b0 = tl.Timeline.tl_windows.(0) and b1 = tl.Timeline.tl_windows.(1) in
  Alcotest.(check int) "deadlock in w0" 1 b0.Timeline.w_aborts.Timeline.rc_deadlock;
  Alcotest.(check int) "fcw in w1" 1 b1.Timeline.w_aborts.Timeline.rc_fcw;
  Alcotest.(check int) "unsafe in w1" 1 b1.Timeline.w_aborts.Timeline.rc_unsafe;
  Alcotest.(check int) "user in w1" 1 b1.Timeline.w_aborts.Timeline.rc_user;
  Alcotest.(check int) "other in w1" 1 b1.Timeline.w_aborts.Timeline.rc_other;
  Alcotest.check feq "committed work w0" 0.1 b0.Timeline.w_work_committed;
  Alcotest.check feq "wasted work w0 = deadlock span" 0.15 b0.Timeline.w_work_wasted;
  (* w1 wasted = 0.2 + 0.25 + 0.3 + 0.25 *)
  Alcotest.check feq "wasted work w1" 1.0 b1.Timeline.w_work_wasted;
  let tt = Timeline.totals tl in
  Alcotest.(check int) "total error aborts" 4 tt.Timeline.tt_aborts;
  Alcotest.(check int) "total user aborts" 1 tt.Timeline.tt_user;
  Alcotest.check feq "total wasted" 1.15 tt.Timeline.tt_work_wasted

(* {1 Unsafe-abort granularity split} *)

let gedge resource =
  { Obs.ce_reader = 1; ce_writer = 2; ce_source = Obs.Siread_vs_x; ce_resource = resource }

let gcert ~ts ?in_edge ?out_edge () =
  {
    Obs.c_ts = ts;
    c_reason = "unsafe";
    c_cert =
      Obs.Ssi_pivot
        {
          sp_victim = 3;
          sp_policy = "prefer-pivot";
          sp_pivot = 3;
          sp_t_in = Some 1;
          sp_in_state = Obs.Ep_committed;
          sp_t_out = Some 2;
          sp_out_state = Obs.Ep_committed;
          sp_in_edge = in_edge;
          sp_out_edge = out_edge;
        };
    c_dot = "";
  }

(* Certificates split each window's unsafe aborts by blamed-resource
   granularity (canonical id prefix, out-edge preferred, falling back to
   the in-edge), and both attribution axes must sum with their
   unattributed slot back to rc_unsafe — nothing vanishes from a split. *)
let test_unsafe_granularity_split () =
  let w = 0.25 in
  let events =
    [
      abort ~ts:0.1 ~start:0.0 "unsafe";
      abort ~ts:0.15 ~start:0.0 "unsafe";
      abort ~ts:0.2 ~start:0.0 "unsafe";
      (* no certificate: must land in the unattributed slot *)
      abort ~ts:0.3 ~start:0.0 "unsafe";
    ]
  in
  let certs =
    [
      gcert ~ts:0.1 ~out_edge:(gedge "r/t/k1") ();
      (* unrecognisable out-edge prefix: granularity falls back to the
         in-edge (a page id) *)
      gcert ~ts:0.15 ~out_edge:(gedge "x?bogus") ~in_edge:(gedge "p/t/3") ();
      gcert ~ts:0.3 ~out_edge:(gedge "g/t/k9") ();
    ]
  in
  let tl = Timeline.of_events ~window:w ~horizon:0.5 events certs in
  let b0 = tl.Timeline.tl_windows.(0) and b1 = tl.Timeline.tl_windows.(1) in
  Alcotest.(check (array int))
    "w0 row/page/gap/unattributed" [| 1; 1; 0; 1 |] b0.Timeline.w_unsafe_gran;
  Alcotest.(check (array int))
    "w1 row/page/gap/unattributed" [| 0; 0; 1; 0 |] b1.Timeline.w_unsafe_gran;
  let gran = Timeline.series tl "unsafe-res-page" in
  Alcotest.(check (array (float 0.0))) "series view" [| 1.0; 0.0 |] gran;
  Array.iter
    (fun b ->
      let sum = Array.fold_left ( + ) 0 in
      Alcotest.(check int)
        "granularity split conserves rc_unsafe" b.Timeline.w_aborts.Timeline.rc_unsafe
        (sum b.Timeline.w_unsafe_gran);
      Alcotest.(check int)
        "source split conserves rc_unsafe" b.Timeline.w_aborts.Timeline.rc_unsafe
        (sum b.Timeline.w_unsafe_src))
    tl.Timeline.tl_windows

(* {1 Gauge densification} *)

(* A window with no Mem_sample carries the previous window's gauge forward;
   a window before the first sample stays 0. *)
let test_gauge_densification () =
  let events =
    [
      mem ~ts:0.3 ~siread:10 ~retained:5 ~summary:1;
      (* window 1 *)
      mem ~ts:0.35 ~siread:12 ~retained:6 ~summary:2;
      (* same window: last sample wins *)
      mem ~ts:1.1 ~siread:3 ~retained:1 ~summary:2;
      (* window 4 *)
    ]
  in
  let tl = Timeline.of_events ~window:0.25 ~horizon:1.5 events [] in
  let siread = Timeline.series tl "siread" in
  Alcotest.(check (array (float 0.0)))
    "siread gauges densified"
    [| 0.0; 12.0; 12.0; 12.0; 3.0; 3.0 |]
    siread;
  let retained = Timeline.series tl "retained" in
  Alcotest.check feq "retained carries forward" 6.0 retained.(3)

(* {1 Per-class SLO arithmetic} *)

let test_slo_eval () =
  let events =
    [
      (* class A: window 0 has 4 commits 1 abort (rate 0.25), fast;
         window 1 has 1 commit 0 aborts but slow p95 *)
      cls ~ts:0.1 "A" "commit" 0.001;
      cls ~ts:0.1 "A" "commit" 0.001;
      cls ~ts:0.1 "A" "commit" 0.001;
      cls ~ts:0.1 "A" "commit" 0.001;
      cls ~ts:0.1 "A" "unsafe" 0.002;
      cls ~ts:0.3 "A" "commit" 0.5;
      (* class B: only error aborts in window 0 -> infinite abort rate *)
      cls ~ts:0.05 "B" "deadlock" 0.01;
      cls ~ts:0.06 "B" "deadlock" 0.01;
    ]
  in
  let tl = Timeline.of_events ~window:0.25 ~horizon:0.5 events [] in
  let slo = { Timeline.slo_abort_rate = 0.5; slo_p95 = 0.1 } in
  match Timeline.slo_eval tl slo with
  | [ a; b ] ->
      Alcotest.(check string) "classes sorted" "A" a.Timeline.sr_class;
      Alcotest.(check int) "A active windows" 2 a.Timeline.sr_active;
      (* window 0: rate 1/4 <= 0.5 ok, p95 0.001 ok; window 1: rate 0 ok,
         p95 ~0.5 > 0.1 -> one p95 violation *)
      Alcotest.(check int) "A violations" 1 a.Timeline.sr_violations;
      Alcotest.(check int) "A p95 violations" 1 a.Timeline.sr_p95_viol;
      Alcotest.(check int) "A abort violations" 0 a.Timeline.sr_abort_viol;
      Alcotest.check feq "A time in violation" 0.25 a.Timeline.sr_time_in_violation;
      Alcotest.check feq "A worst abort rate" 0.25 a.Timeline.sr_worst_abort_rate;
      Alcotest.(check string) "B second" "B" b.Timeline.sr_class;
      Alcotest.(check int) "B active windows" 1 b.Timeline.sr_active;
      Alcotest.(check int) "B abort violations (infinite rate)" 1 b.Timeline.sr_abort_viol;
      Alcotest.(check bool)
        "B worst rate is infinite" true
        (b.Timeline.sr_worst_abort_rate = Float.infinity)
  | l -> Alcotest.failf "expected 2 class reports, got %d" (List.length l)

(* {1 Page–Hinkley change points} *)

(* A clean step up must fire one Up mark shortly after the step; the same
   detector on a stationary series must stay silent. Both cases are exact:
   the fold is pure float arithmetic over pinned inputs. *)
let step_timeline () =
  (* 20 windows of commits: 10 windows at 4/window, then 10 at 40/window *)
  let events =
    List.concat
      (List.init 20 (fun i ->
           let n = if i < 10 then 4 else 40 in
           let ts = (0.25 *. float_of_int i) +. 0.1 in
           List.init n (fun _ -> commit ~ts ~start:ts)))
  in
  Timeline.of_events ~window:0.25 ~horizon:5.0 events []

let test_change_point_step () =
  let tl = step_timeline () in
  match Timeline.change_points tl ~series:"throughput" with
  | [ mk ] ->
      Alcotest.(check string) "series name" "throughput" mk.Timeline.mk_series;
      Alcotest.(check bool) "direction up" true (mk.Timeline.mk_direction = `Up);
      Alcotest.(check bool)
        (Printf.sprintf "mark near the step (window %d)" mk.Timeline.mk_window)
        true
        (mk.Timeline.mk_window >= 10 && mk.Timeline.mk_window <= 12);
      Alcotest.check feq "ts = window start" (0.25 *. float_of_int mk.Timeline.mk_window)
        mk.Timeline.mk_ts
  | l -> Alcotest.failf "expected exactly 1 mark, got %d" (List.length l)

let test_change_point_stationary () =
  (* constant 8 commits per window: no alarm *)
  let events =
    List.concat
      (List.init 20 (fun i ->
           let ts = (0.25 *. float_of_int i) +. 0.1 in
           List.init 8 (fun _ -> commit ~ts ~start:ts)))
  in
  let tl = Timeline.of_events ~window:0.25 ~horizon:5.0 events [] in
  Alcotest.(check int)
    "stationary series stays silent" 0
    (List.length (Timeline.change_points tl ~series:"throughput"));
  (* all-zero series: lambda defaults to 0, detector disabled, no marks *)
  let empty = Timeline.of_events ~window:0.25 ~horizon:5.0 [] [] in
  Alcotest.(check int)
    "all-zero series stays silent" 0
    (List.length (Timeline.change_points empty ~series:"throughput"))

let test_change_point_down () =
  (* mirrored step: 40 then 4 per window fires a Down mark *)
  let events =
    List.concat
      (List.init 20 (fun i ->
           let n = if i < 10 then 40 else 4 in
           let ts = (0.25 *. float_of_int i) +. 0.1 in
           List.init n (fun _ -> commit ~ts ~start:ts)))
  in
  let tl = Timeline.of_events ~window:0.25 ~horizon:5.0 events [] in
  match Timeline.change_points tl ~series:"throughput" with
  | mk :: _ -> Alcotest.(check bool) "direction down" true (mk.Timeline.mk_direction = `Down)
  | [] -> Alcotest.fail "expected a Down mark"

(* {1 End-to-end: driver run under a tracing sink} *)

let sibench_make_db sim =
  let db = Db.create ~config:(Config.innodb ()) sim in
  Sibench.setup db ~items:50 ();
  db

let run_traced ?(seed = 1) () =
  let obs = Obs.create ~trace:true ~provenance:true () in
  let cfg =
    {
      Driver.default_config with
      Driver.isolation = Types.Serializable;
      mpl = 6;
      warmup = 0.05;
      duration = 0.2;
      seed;
    }
  in
  let r =
    Driver.run_once ~obs ~make_db:sibench_make_db ~mix:(Sibench.mix ~items:50 ()) cfg
  in
  (obs, r)

(* Conservation, end to end: the driver itself fails the run if the ledger
   is out of balance, and the reported split must cover all committed
   response time (the commit side of the ledger covers the whole run,
   warmup included, so it dominates the timeline's own committed sum). *)
let test_work_conservation_e2e () =
  let obs, r = run_traced () in
  Alcotest.(check bool) "some committed work" true (r.Driver.work_committed > 0.0);
  let tl = Option.get (Timeline.of_obs ~window:0.05 ~horizon:0.25 obs) in
  let tt = Timeline.totals tl in
  (* the timeline's commit-span sum is derived from the same events, so it
     must equal the engine ledger's committed side exactly: both are sums
     of the identical (ts - start) floats in the same order *)
  Alcotest.check feq "timeline committed work = engine ledger"
    r.Driver.work_committed tt.Timeline.tt_work_committed;
  Alcotest.check feq "timeline wasted work = engine ledger" r.Driver.work_wasted
    tt.Timeline.tt_work_wasted

(* In-flight accounting: a transaction still open when the profile is taken
   shows up in wp_in_flight and the conservation check still balances. *)
let test_work_in_flight () =
  let sim = Sim.create () in
  let db = Db.create ~config:(Config.test ()) sim in
  ignore (Db.create_table db "t");
  Db.load db "t" [ ("k", "0") ];
  Sim.spawn sim (fun () ->
      ignore
        (Db.run db Types.Serializable (fun t ->
             ignore (Txn.read t "t" "k");
             Sim.delay sim 1.0)));
  (* run only until 0.5: the reader is still open *)
  Sim.run ~until:0.5 sim;
  let wp = Db.work_profile db in
  Alcotest.(check bool) "in-flight span open" true (wp.Db.wp_in_flight > 0.0);
  Alcotest.(check bool) "conserved with open txn" true (Db.work_conserved db);
  Sim.run sim;
  let wp2 = Db.work_profile db in
  Alcotest.check feq "drained to zero in-flight" 0.0 wp2.Db.wp_in_flight;
  Alcotest.(check bool) "conserved after drain" true (Db.work_conserved db);
  Alcotest.(check bool) "span banked as committed" true (wp2.Db.wp_committed >= 1.0)

(* {1 Purity and merge} *)

let test_of_obs_requires_tracing () =
  Alcotest.(check bool)
    "metrics-only sink yields no timeline" true
    (Timeline.of_obs ~window:0.1 (Obs.create ~metrics:true ()) = None);
  Alcotest.(check bool)
    "disabled sink yields no timeline" true
    (Timeline.of_obs ~window:0.1 Obs.disabled = None)

let csv tl =
  let buf = Buffer.create 1024 in
  Timeline.to_csv buf tl;
  Buffer.contents buf

let test_merge_order_insensitive () =
  let mk seed = Option.get (Timeline.of_obs ~window:0.05 ~horizon:0.25 (fst (run_traced ~seed ()))) in
  let a = mk 1 and b = mk 2 and c = mk 3 in
  Alcotest.(check string)
    "merge is order-insensitive (CSV bytes)"
    (csv (Timeline.merge [ a; b; c ]))
    (csv (Timeline.merge [ c; a; b ]));
  Alcotest.check_raises "merge [] rejected"
    (Invalid_argument "Timeline.merge: empty list") (fun () ->
      ignore (Timeline.merge []))

let test_merge_width_mismatch () =
  let a = Timeline.of_events ~window:0.25 ~horizon:0.5 [] [] in
  let b = Timeline.of_events ~window:0.5 ~horizon:0.5 [] [] in
  Alcotest.check_raises "width mismatch rejected"
    (Invalid_argument "Timeline.merge: window widths differ") (fun () ->
      ignore (Timeline.merge [ a; b ]))

(* Trace capture does not perturb the run: results with and without the
   timeline's tracing sink are identical (the standing obs contract,
   re-checked here because the timeline leans on it). *)
let test_timeline_off_purity () =
  let _, traced = run_traced () in
  let bare =
    Driver.run_once ~make_db:sibench_make_db ~mix:(Sibench.mix ~items:50 ())
      {
        Driver.default_config with
        Driver.isolation = Types.Serializable;
        mpl = 6;
        warmup = 0.05;
        duration = 0.2;
        seed = 1;
      }
  in
  Alcotest.(check int) "same commits" bare.Driver.commits traced.Driver.commits;
  Alcotest.check feq "same committed work" bare.Driver.work_committed
    traced.Driver.work_committed;
  Alcotest.check feq "same wasted work" bare.Driver.work_wasted traced.Driver.work_wasted

(* {1 Export formats} *)

let test_csv_and_ndjson_shape () =
  let tl =
    Timeline.of_events ~window:0.25 ~horizon:0.5
      [ commit ~ts:0.1 ~start:0.0; cls ~ts:0.1 "A" "commit" 0.1 ]
      []
  in
  let text = csv tl in
  let lines = String.split_on_char '\n' (String.trim text) in
  Alcotest.(check int) "header + one row per window" 3 (List.length lines);
  let header = List.hd lines in
  Alcotest.(check bool) "header starts with window,t0" true
    (String.length header > 9 && String.sub header 0 9 = "window,t0");
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in header") true
        (List.exists (String.equal name) (String.split_on_char ',' header)))
    Timeline.series_names;
  let buf = Buffer.create 256 in
  Timeline.to_ndjson buf tl;
  let nd = String.split_on_char '\n' (String.trim (Buffer.contents buf)) in
  Alcotest.(check int) "one json object per window" 2 (List.length nd);
  (* counter records are valid extra records for the trace writer: one per
     series per window *)
  let recs = Timeline.counter_records ~columns:[ "throughput"; "commits" ] tl in
  Alcotest.(check int) "2 series x 2 windows" 4 (List.length recs)

let () =
  Alcotest.run "timeline"
    [
      ( "windows",
        [
          ("boundary exactness", `Quick, test_window_boundaries);
          ("minimum window count", `Quick, test_window_count_minimum);
          ("reason taxonomy and work", `Quick, test_reason_taxonomy_and_work);
          ("unsafe granularity split", `Quick, test_unsafe_granularity_split);
          ("gauge densification", `Quick, test_gauge_densification);
        ] );
      ("slo", [ ("per-class arithmetic", `Quick, test_slo_eval) ]);
      ( "change-points",
        [
          ("step up detected", `Quick, test_change_point_step);
          ("stationary silent", `Quick, test_change_point_stationary);
          ("step down detected", `Quick, test_change_point_down);
        ] );
      ( "wasted-work",
        [
          ("conservation end to end", `Quick, test_work_conservation_e2e);
          ("in-flight accounting", `Quick, test_work_in_flight);
        ] );
      ( "structure",
        [
          ("of_obs requires tracing", `Quick, test_of_obs_requires_tracing);
          ("merge order-insensitive", `Quick, test_merge_order_insensitive);
          ("merge width mismatch", `Quick, test_merge_width_mismatch);
          ("tracing does not perturb results", `Quick, test_timeline_off_purity);
          ("csv/ndjson/counter shapes", `Quick, test_csv_and_ndjson_shape);
        ] );
    ]
