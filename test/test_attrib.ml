(* Root-cause attribution: space-saving sketch guarantees (qcheck'd against
   an exact counter), blame-pass edge-role semantics, the canonical
   resource-id escape, and the flight recorder (the ring cut, trigger
   evaluation against a streaming reference, bundle determinism).

   Everything here is synthetic — events and certificates are constructed
   directly, so each expectation is exact. End-to-end coverage of the live
   feed sites lives in the engine tests and the -j1/-j4 CI diff rules. *)

let feq = Alcotest.float 1e-9

let has_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* {1 Synthetic helpers} *)

let edge ?(source = Obs.Siread_vs_x) resource =
  { Obs.ce_reader = 1; ce_writer = 2; ce_source = source; ce_resource = resource }

let pivot_cert ~ts ?(reason = "unsafe") ?in_edge ?out_edge ?(dot = "") () =
  {
    Obs.c_ts = ts;
    c_reason = reason;
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
    c_dot = dot;
  }

let fcw_cert ~ts resource =
  {
    Obs.c_ts = ts;
    c_reason = "update-conflict";
    c_cert =
      Obs.Fcw_block
        {
          fb_txn = 1;
          fb_resource = resource;
          fb_blocking_commit = 5;
          fb_blocking_writer = 2;
          fb_snapshot = 3;
        };
    c_dot = "";
  }

let commit ~ts =
  ( ts,
    Obs.Txn_commit
      {
        txn = 1;
        start = 0.0;
        commit_ts = 1;
        n_writes = 1;
        retained_siread = 0;
        retained_record = 0;
      } )

let abort ~ts reason = (ts, Obs.Txn_abort { txn = 1; start = 0.0; reason })

let cls ~ts name outcome latency = (ts, Obs.Class_outcome { cls = name; outcome; latency })

let ev i = Obs.Txn_begin { txn = i; iso = "ssi"; ro = false }

(* {1 Sketch: space-saving guarantees} *)

(* Skewed key stream over a 26-key universe with an 8-entry sketch, so
   evictions actually happen. *)
let arb_keys =
  QCheck.make
    ~print:(fun l -> String.concat "," l)
    QCheck.Gen.(
      list_size (int_range 1 400)
        (map (Printf.sprintf "k%02d") (oneof [ int_bound 3; int_bound 25 ])))

let prop_sketch_bounds =
  QCheck.Test.make ~name:"space-saving bounds vs exact counts" ~count:300 arb_keys
    (fun keys ->
      let cap = 8 in
      let sk = Sketch.create ~capacity:cap in
      List.iter (fun k -> ignore (Sketch.touch sk k)) keys;
      let n = List.length keys in
      let exact : (string, int) Hashtbl.t = Hashtbl.create 32 in
      List.iter
        (fun k ->
          Hashtbl.replace exact k (1 + Option.value (Hashtbl.find_opt exact k) ~default:0))
        keys;
      if Sketch.total sk <> n then QCheck.Test.fail_report "total <> stream length";
      if Sketch.cardinality sk > cap then QCheck.Test.fail_report "cardinality > capacity";
      if Sketch.error_bound sk > n / cap then
        QCheck.Test.fail_reportf "error bound %d > N/capacity %d" (Sketch.error_bound sk)
          (n / cap);
      (* every tracked entry brackets its true frequency *)
      List.iter
        (fun (k, s) ->
          let t = Option.value (Hashtbl.find_opt exact k) ~default:0 in
          if not (t <= s.Sketch.st_count && s.Sketch.st_count <= t + s.Sketch.st_err) then
            QCheck.Test.fail_reportf "count bracket violated for %s: true %d, count %d, err %d"
              k t s.Sketch.st_count s.Sketch.st_err)
        (Sketch.entries sk);
      (* the top-k list is a superset of the exact heavy hitters *)
      Hashtbl.iter
        (fun k t ->
          if t > n / cap && Sketch.find sk k = None then
            QCheck.Test.fail_reportf "heavy hitter %s (freq %d > %d) not tracked" k t (n / cap))
        exact;
      true)

let prop_sketch_merge_deterministic =
  QCheck.Test.make ~name:"merge is deterministic and adds totals" ~count:200 arb_keys
    (fun keys ->
      let cap = 8 in
      let n = List.length keys in
      let half = n / 2 in
      let part p =
        let sk = Sketch.create ~capacity:cap in
        List.iteri (fun i k -> if (i < half) = p then ignore (Sketch.touch sk k)) keys;
        sk
      in
      let merged () =
        let into = Sketch.create ~capacity:cap in
        Sketch.merge ~into (part true);
        Sketch.merge ~into (part false);
        into
      in
      let a = merged () and b = merged () in
      if Sketch.total a <> n then QCheck.Test.fail_report "merged total <> sum of parts";
      let shape sk =
        List.map (fun (k, s) -> (k, s.Sketch.st_count, s.Sketch.st_err)) (Sketch.entries sk)
      in
      if shape a <> shape b then QCheck.Test.fail_report "same merge, different tables";
      true)

let test_evict_deterministic () =
  let sk = Sketch.create ~capacity:2 in
  let sa = Sketch.touch sk "a" in
  sa.Sketch.st_conflicts <- 7;
  ignore (Sketch.touch sk "b");
  (* full sketch, fresh key: evicts the min-count entry, smallest key on
     ties ("a"), inherits its count as the error and resets the payload *)
  let sc = Sketch.touch sk "c" in
  Alcotest.(check bool) "a evicted" true (Sketch.find sk "a" = None);
  Alcotest.(check int) "c inherits count" 2 sc.Sketch.st_count;
  Alcotest.(check int) "c err = victim count" 1 sc.Sketch.st_err;
  Alcotest.(check int) "payload reset on takeover" 0 sc.Sketch.st_conflicts;
  Alcotest.(check (list string))
    "entries ordered (count desc, key asc)" [ "c"; "b" ]
    (List.map fst (Sketch.entries sk))

(* {1 Blame pass} *)

let test_blame_roles () =
  let sk = Sketch.create ~capacity:8 in
  Attrib.blame sk
    [
      pivot_cert ~ts:0.01 ~in_edge:(edge "r/t/a") ~out_edge:(edge "r/t/b") ();
      pivot_cert ~ts:0.02 ~out_edge:(edge "r/t/b") ();
      (* non-unsafe certificates carry no pivot blame *)
      pivot_cert ~ts:0.03 ~reason:"doomed" ~in_edge:(edge "r/t/a") ~out_edge:(edge "r/t/b") ();
      (* FCW is fed live at the abort site; the post-hoc pass must skip it *)
      fcw_cert ~ts:0.04 "r/t/c";
    ];
  let stat k = Option.get (Sketch.find sk k) in
  Alcotest.(check int) "in-edge blame on a" 1 (stat "r/t/a").Sketch.st_blame_in;
  Alcotest.(check int) "out-edge blame on b" 2 (stat "r/t/b").Sketch.st_blame_out;
  Alcotest.(check int) "no stray in-blame on b" 0 (stat "r/t/b").Sketch.st_blame_in;
  Alcotest.(check bool) "fcw cert skipped" true (Sketch.find sk "r/t/c" = None);
  Alcotest.(check int) "one touch per blamed edge" 3 (Sketch.total sk)

let test_blame_windows () =
  let rows =
    Attrib.blame_windows ~window:0.05 ~horizon:0.1
      [
        pivot_cert ~ts:0.01 ~in_edge:(edge "r/t/a") ~out_edge:(edge "r/t/b") ();
        fcw_cert ~ts:0.07 "r/t/b";
        pivot_cert ~ts:0.08 ~in_edge:(edge "r/t/b") ~out_edge:(edge "r/t/b") ();
      ]
  in
  let shape r =
    (r.Attrib.wb_window, r.Attrib.wb_resource, r.Attrib.wb_in, r.Attrib.wb_out, r.Attrib.wb_fcw)
  in
  Alcotest.(check (list (pair int (pair string (pair int (pair int int))))))
    "rows sorted by (window, resource), roles split"
    [
      (0, ("r/t/a", (1, (0, 0))));
      (0, ("r/t/b", (0, (1, 0))));
      (1, ("r/t/b", (1, (1, 1))));
    ]
    (List.map
       (fun r ->
         let w, res, i, o, f = shape r in
         (w, (res, (i, (o, f)))))
       rows);
  Alcotest.check feq "window 1 starts at 0.05" 0.05 (List.nth rows 2).Attrib.wb_t0;
  let buf = Buffer.create 128 in
  Attrib.windows_csv buf rows;
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  Alcotest.(check string)
    "csv header" "window,t0,resource,blame_in,blame_out,blame_fcw" (List.hd lines);
  Alcotest.(check int) "csv rows" 3 (List.length lines - 2)

(* {1 Canonical resource-id escape} *)

let test_escape_pins () =
  Alcotest.(check string)
    "gap supremum" "g/t/%ff%ff(sup)"
    (Obs.res_id_escape "g/t/\xff\xff(sup)");
  Alcotest.(check string) "percent" "r/t/a%25b" (Obs.res_id_escape "r/t/a%b");
  Alcotest.(check string) "comma" "r/t/a%2cb" (Obs.res_id_escape "r/t/a,b");
  Alcotest.(check string) "quote and backslash" "%22%5c" (Obs.res_id_escape "\"\\");
  Alcotest.(check string) "plain id untouched" "p/sb_account/372" (Obs.res_id_escape "p/sb_account/372")

let prop_escape_embeddable =
  QCheck.Test.make ~name:"escape output embeds verbatim in CSV/JSON/DOT" ~count:500
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 24)))
    (fun s ->
      String.for_all
        (fun c ->
          Char.code c >= 0x21 && Char.code c < 0x7f && c <> ',' && c <> '"' && c <> '\\')
        (Obs.res_id_escape s))

(* {1 Flight recorder: ring} *)

(* The recorder over its own trace's timeline. *)
let record ~capacity ~window ~trigger events =
  Flightrec.run ~capacity ~trigger (Timeline.of_events ~window events []) events

let test_ring_wraparound () =
  let r, inc =
    record ~capacity:3 ~window:1.0 ~trigger:(Flightrec.Abort_storm 0.5)
      (List.init 5 (fun i -> (float_of_int (i + 1), ev (i + 1))))
  in
  Alcotest.(check bool) "no incident" true (inc = None);
  Alcotest.(check int) "length saturates" 3 (Flightrec.length r);
  Alcotest.(check int) "oldest dropped" 2 (Flightrec.drops r);
  Alcotest.(check (list (Alcotest.float 0.0)))
    "contents oldest first" [ 3.0; 4.0; 5.0 ]
    (List.map fst (Flightrec.contents r))

(* {1 Flight recorder: triggers} *)

let test_abort_storm_fires () =
  let events =
    [
      (* window 0: healthy *)
      commit ~ts:0.01;
      commit ~ts:0.02;
      (* window 1: 1 commit, 1 error abort -> rate 0.5 *)
      commit ~ts:0.06;
      abort ~ts:0.07 "unsafe";
      (* window 2: past the firing boundary, must stay out of the ring *)
      commit ~ts:0.12;
    ]
  in
  let rc, inc = record ~capacity:16 ~window:0.05 ~trigger:(Flightrec.Abort_storm 0.4) events in
  match inc with
  | None -> Alcotest.fail "abort storm did not fire"
  | Some i ->
      Alcotest.(check int) "fires on window 1" 1 i.Flightrec.in_window;
      Alcotest.check feq "incident ts = end of window" 0.1 i.Flightrec.in_ts;
      Alcotest.(check bool) "detail names the rate" true (has_sub i.Flightrec.in_detail "abort-rate 0.5");
      Alcotest.(check int) "ring holds exactly the pre-fire stream" 4 (Flightrec.length rc)

let test_abort_storm_user_excluded () =
  let events =
    [ commit ~ts:0.01; abort ~ts:0.02 "user-abort"; abort ~ts:0.03 "user-abort" ]
  in
  let rc, inc = record ~capacity:16 ~window:0.05 ~trigger:(Flightrec.Abort_storm 0.1) events in
  Alcotest.(check bool) "application rollbacks are not a storm" true (inc = None);
  Alcotest.(check int) "ring holds the tail" 3 (Flightrec.length rc)

let test_abort_storm_final_window () =
  (* end of stream must close the final partial window *)
  let _, inc =
    record ~capacity:4 ~window:0.05 ~trigger:(Flightrec.Abort_storm 0.4)
      [ abort ~ts:0.01 "unsafe" ]
  in
  match inc with
  | None -> Alcotest.fail "final partial window not evaluated"
  | Some i ->
      Alcotest.(check int) "window 0" 0 i.Flightrec.in_window;
      Alcotest.check feq "ts = end of window 0" 0.05 i.Flightrec.in_ts

let test_slo_trigger_fires () =
  let events =
    [
      cls ~ts:0.01 "pay" "commit" 0.01;
      cls ~ts:0.02 "pay" "unsafe" 0.015;
      cls ~ts:0.03 "pay" "unsafe" 0.02;
      cls ~ts:0.04 "browse" "commit" 0.01;
    ]
  in
  let slo = { Timeline.slo_abort_rate = 0.5; slo_p95 = 10.0 } in
  let _, inc = record ~capacity:8 ~window:0.05 ~trigger:(Flightrec.Slo_violation slo) events in
  match inc with
  | None -> Alcotest.fail "slo violation did not fire"
  | Some i ->
      Alcotest.(check bool) "detail names the class" true (has_sub i.Flightrec.in_detail "class pay");
      Alcotest.(check int) "fires on window 0" 0 i.Flightrec.in_window

let test_trigger_parse () =
  (match Flightrec.trigger_of_string "abort_rate:0.25" with
  | Ok (Flightrec.Abort_storm x) -> Alcotest.check feq "threshold" 0.25 x
  | _ -> Alcotest.fail "abort_rate:0.25 rejected");
  (match Flightrec.trigger_of_string "slo" with
  | Ok (Flightrec.Slo_violation s) ->
      Alcotest.check feq "default rate" 0.5 s.Timeline.slo_abort_rate;
      Alcotest.check feq "default p95" 0.1 s.Timeline.slo_p95
  | _ -> Alcotest.fail "slo rejected");
  (match Flightrec.trigger_of_string "slo:0.2:0.05" with
  | Ok (Flightrec.Slo_violation s) ->
      Alcotest.check feq "rate" 0.2 s.Timeline.slo_abort_rate;
      Alcotest.check feq "p95" 0.05 s.Timeline.slo_p95
  | _ -> Alcotest.fail "slo:0.2:0.05 rejected");
  (match Flightrec.trigger_of_string "regime" with
  | Ok (Flightrec.Regime s) -> Alcotest.(check string) "default series" "throughput" s
  | _ -> Alcotest.fail "regime rejected");
  List.iter
    (fun bad ->
      match Flightrec.trigger_of_string bad with
      | Ok _ -> Alcotest.failf "accepted %s" bad
      | Error _ -> ())
    [ "abort_rate:1.5"; "abort_rate:0"; "regime:bogus-series"; "garbage"; "slo:x:y" ]

(* {1 Flight recorder: streaming reference}

   The recorder as a fold over the event stream, with counters of its own:
   a window closes when an event of a later window arrives or the stream
   ends, the first window that meets the trigger stops the stream, and the
   ring holds the last [capacity] events pushed before that. *)

let reference ~capacity ~window ~trigger events =
  let num = Timeline.num in
  let eval evs =
    match trigger with
    | Flightrec.Abort_storm thr ->
        let count p = List.length (List.filter p evs) in
        let c = count (function Obs.Txn_commit _ -> true | _ -> false) in
        let a =
          count (function Obs.Txn_abort { reason; _ } -> reason <> "user-abort" | _ -> false)
        in
        let rate = float_of_int a /. float_of_int (c + a) in
        if a > 0 && rate >= thr then
          Some
            (Printf.sprintf "abort-rate %s >= %s (%d error aborts / %d commits)" (num rate)
               (num thr) a c)
        else None
    | Flightrec.Slo_violation { Timeline.slo_abort_rate = max_rate; slo_p95 = max_p95 } ->
        let check name =
          let c = ref 0 and a = ref 0 and h = Obs.hist_create () in
          List.iter
            (function
              | Obs.Class_outcome { cls; outcome = "commit" | "user-abort"; latency }
                when cls = name ->
                  incr c;
                  Obs.hist_add h latency
              | Obs.Class_outcome { cls; _ } when cls = name -> incr a
              | _ -> ())
            evs;
          let rate = if !c > 0 then float_of_int !a /. float_of_int !c else infinity in
          let p95 = if !c > 0 then Obs.hist_percentile h 0.95 else 0.0 in
          if !c + !a = 0 then None
          else if rate > max_rate then
            Some (Printf.sprintf "class %s abort-rate %s > %s" name (num rate) (num max_rate))
          else if p95 > max_p95 then
            Some (Printf.sprintf "class %s p95 %s > %s" name (num p95) (num max_p95))
          else None
        in
        List.find_map check [ "a"; "b"; "c" ]
    | Flightrec.Regime _ -> None
  in
  let pushed = ref [] and win = ref [] and cur = ref 0 and fired = ref None in
  let close_up_to target =
    while !fired = None && !cur < target do
      Option.iter (fun d -> fired := Some (!cur, d)) (eval (List.rev !win));
      win := [];
      incr cur
    done
  in
  List.iter
    (fun (ts, e) ->
      if !fired = None then close_up_to (int_of_float (Float.floor (ts /. window)));
      if !fired = None then begin
        pushed := (ts, e) :: !pushed;
        win := e :: !win
      end)
    events;
  if !fired = None then close_up_to (!cur + 1);
  let ring = List.rev (List.filteri (fun i _ -> i < capacity) !pushed) in
  (!fired, ring, max 0 (List.length !pushed - capacity))

(* Strictly rising timestamps below the horizon 1.0, over commits, error
   aborts of every reason, user aborts and class outcomes of three
   classes. *)
let gen_stream =
  let open QCheck.Gen in
  let event =
    frequency
      [
        (3, return (fun ts -> commit ~ts));
        ( 2,
          map
            (fun r ts -> abort ~ts r)
            (oneofl [ "deadlock"; "update-conflict"; "unsafe"; "duplicate-key" ]) );
        (1, return (fun ts -> abort ~ts "user-abort"));
        ( 4,
          map3
            (fun name outcome lat ts -> cls ~ts name outcome lat)
            (oneofl [ "a"; "b"; "c" ])
            (oneofl [ "commit"; "user-abort"; "unsafe"; "deadlock" ])
            (float_bound_inclusive 0.01) );
      ]
  in
  let* ticks = map (List.sort_uniq compare) (list_size (int_bound 300) (int_bound 99_999)) in
  let* makers = flatten_l (List.map (fun _ -> event) ticks) in
  let events = List.map2 (fun k mk -> mk (float_of_int k *. 1e-5)) ticks makers in
  let* window = float_range 0.01 0.1 and* capacity = int_range 1 10 in
  let* trigger =
    oneof
      [
        map (fun x -> Flightrec.Abort_storm x) (float_range 0.05 1.0);
        map2
          (fun r p -> Flightrec.Slo_violation { Timeline.slo_abort_rate = r; slo_p95 = p })
          (float_range 0.0 2.0) (float_range 0.001 0.01);
      ]
  in
  return (events, window, capacity, trigger)

let prop_matches_streaming_reference =
  QCheck.Test.make ~name:"triggers and ring match a streaming reference" ~count:500
    (QCheck.make
       ~print:(fun (evs, w, cap, tr) ->
         Printf.sprintf "%d events, window %g, capacity %d, trigger %s" (List.length evs) w cap
           (Flightrec.trigger_to_string tr))
       gen_stream)
    (fun (events, window, capacity, trigger) ->
      let tl = Timeline.of_events ~window ~horizon:1.0 events [] in
      let rc, inc = Flightrec.run ~capacity ~trigger tl events in
      let fired, ring, drops = reference ~capacity ~window ~trigger events in
      let got =
        Option.map (fun i -> Flightrec.(i.in_window, i.in_ts, i.in_detail)) inc
      and want = Option.map (fun (w, d) -> (w, float_of_int (w + 1) *. window, d)) fired in
      let show = Option.fold ~none:"none" ~some:(fun (w, _, d) -> Printf.sprintf "%d %s" w d) in
      if got <> want then
        QCheck.Test.fail_reportf "incident %s, reference %s" (show got) (show want);
      if List.map fst (Flightrec.contents rc) <> List.map fst ring then
        QCheck.Test.fail_report "ring differs from the reference";
      if Flightrec.drops rc <> drops then
        QCheck.Test.fail_reportf "drops %d, reference %d" (Flightrec.drops rc) drops;
      true)

(* {1 Bundle} *)

let test_bundle_deterministic () =
  let dot = "digraph ssi {\n  \"t1\" -> \"t3\";\n}\n" in
  let certs =
    [
      pivot_cert ~ts:0.03 ~in_edge:(edge "r/t/a") ~out_edge:(edge "r/t/b") ~dot ();
      (* a later snapshot, after the firing instant: must not be picked *)
      pivot_cert ~ts:0.2 ~in_edge:(edge "r/t/z") ~out_edge:(edge "r/t/z")
        ~dot:"digraph late {}\n" ();
    ]
  in
  let sk = Sketch.create ~capacity:8 in
  Attrib.blame sk certs;
  let events = [ commit ~ts:0.01; abort ~ts:0.03 "unsafe" ] in
  let rc, inc = record ~capacity:4 ~window:0.05 ~trigger:(Flightrec.Abort_storm 0.4) events in
  let incident =
    match inc with Some i -> i | None -> Alcotest.fail "expected an incident"
  in
  let render () =
    let b = Buffer.create 512 in
    Flightrec.write_bundle b ~recorder:rc ~incident ~sk ~top:5 ~certs;
    Buffer.contents b
  in
  let a = render () and b = render () in
  Alcotest.(check string) "bundle renders byte-identically" a b;
  List.iter
    (fun sub -> Alcotest.(check bool) (Printf.sprintf "bundle has %S" sub) true (has_sub a sub))
    [
      "# flight-recorder post-mortem bundle";
      "trigger: abort_rate:0.4";
      "--- ring ---";
      "--- contention ---";
      "sketch: updates=";
      "--- dot ---";
      "digraph ssi";
    ];
  Alcotest.(check bool) "post-incident snapshot excluded" false (has_sub a "digraph late");
  (* no snapshot at or before the firing instant -> explicit "none" *)
  let b2 = Buffer.create 512 in
  Flightrec.write_bundle b2 ~recorder:rc ~incident ~sk ~top:5
    ~certs:[ pivot_cert ~ts:0.2 ~out_edge:(edge "r/t/z") ~dot:"digraph late {}\n" () ];
  Alcotest.(check bool) "missing snapshot renders none" true
    (has_sub (Buffer.contents b2) "--- dot ---\nnone\n")

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "attrib"
    [
      ( "sketch",
        [
          qt prop_sketch_bounds;
          qt prop_sketch_merge_deterministic;
          Alcotest.test_case "deterministic eviction + payload reset" `Quick
            test_evict_deterministic;
        ] );
      ( "blame",
        [
          Alcotest.test_case "edge roles, fcw skipped" `Quick test_blame_roles;
          Alcotest.test_case "per-window series" `Quick test_blame_windows;
        ] );
      ( "escape",
        [
          Alcotest.test_case "canonical pins" `Quick test_escape_pins;
          qt prop_escape_embeddable;
        ] );
      ( "ring",
        [
          Alcotest.test_case "wraparound drops oldest" `Quick test_ring_wraparound;
        ] );
      ( "triggers",
        [
          Alcotest.test_case "abort storm fires at the boundary" `Quick test_abort_storm_fires;
          Alcotest.test_case "user aborts excluded" `Quick test_abort_storm_user_excluded;
          Alcotest.test_case "final partial window evaluated" `Quick
            test_abort_storm_final_window;
          Alcotest.test_case "slo violation fires" `Quick test_slo_trigger_fires;
          Alcotest.test_case "trigger parsing" `Quick test_trigger_parse;
          qt prop_matches_streaming_reference;
        ] );
      ("bundle", [ Alcotest.test_case "deterministic, self-contained" `Quick test_bundle_deterministic ]);
    ]
