(* Crash-recovery subsystem tests (PR 6):

   - WAL frame-codec properties: roundtrip over arbitrary binary payloads,
     and the torn-tail contract — every strict prefix of a valid image
     decodes to a record-prefix with the remainder reported as torn, never
     as an error; in-bounds corruption is an error.
   - The durable image of a running log, under group-commit callers,
     checkpoints and mid-flush tears, against a reference model of which
     records are hardened: the log encodes its image only when read, and
     must encode exactly the hardened records.
   - Durability boundaries in both WAL modes: a commit that returned under
     Flush_per_commit survives, one that crashed inside the commit window
     does not; in No_flush mode unhardened commits are lost by design and
     the checkpoint interval bounds the loss window.
   - Recovery semantics: in-doubt rollback, Commit-then-Abort replay (a
     Committing transaction rolled back after its records hit the log),
     conservative summary-table entries for recovered commits, and the
     publish-skip that lets the snapshot horizon advance past a rolled-back
     commit timestamp.
   - The fixed-seed crash-point campaign: >= 10k crash runs with zero
     recovery-oracle failures, identical with and without a domain pool. *)

open Core

(* {1 Codec properties} *)

let gen_bytes =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 12))

let gen_record =
  let open QCheck.Gen in
  frequency
    [
      (2, map (fun txn -> Wal.Begin { txn }) small_nat);
      ( 6,
        map
          (fun (txn, (table, key, value)) -> Wal.Write { txn; table; key; value })
          (pair small_nat (triple gen_bytes gen_bytes gen_bytes)) );
      ( 2,
        map
          (fun (txn, (table, key)) -> Wal.Delete { txn; table; key })
          (pair small_nat (pair gen_bytes gen_bytes)) );
      (3, map (fun (txn, ts) -> Wal.Commit { txn; ts }) (pair small_nat small_nat));
      (1, map (fun txn -> Wal.Abort { txn }) small_nat);
      ( 1,
        map
          (fun (watermark, next_ts) -> Wal.Checkpoint { watermark; next_ts })
          (pair small_nat small_nat) );
    ]

let arb_records =
  QCheck.make
    ~print:(fun rs -> String.escaped (Wal.encode rs))
    QCheck.Gen.(list_size (int_bound 12) gen_record)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"wal codec roundtrips arbitrary records" ~count:500 arb_records
    (fun rs -> Wal.decode (Wal.encode rs) = Ok (rs, 0))

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
  | _ :: _, [] -> false

(* Truncation at *every* byte position: decode must succeed, return a
   prefix of the original records, and report exactly the bytes past the
   last whole frame as torn (inside the header the whole prefix is torn). *)
let prop_codec_torn_tail =
  QCheck.Test.make ~name:"every strict prefix decodes with an exact torn tail" ~count:200
    arb_records (fun rs ->
      let s = Wal.encode rs in
      let ok = ref true in
      for i = 0 to String.length s - 1 do
        let p = String.sub s 0 i in
        match Wal.decode p with
        | Error _ -> ok := false
        | Ok (rs', torn) ->
            if not (is_prefix rs' rs) then ok := false
            else if i < String.length Wal.header then begin
              if rs' <> [] || torn <> i then ok := false
            end
            else if String.length (Wal.encode rs') + torn <> i then ok := false
      done;
      !ok)

(* The frame bytes are part of the durable image (and of every WAL byte
   count), so the encoder must keep writing exactly what the earlier
   Printf-based one did: this is that encoder, as the reference. *)
let printf_frame r =
  let esc s =
    String.concat ""
      (List.map
         (fun c ->
           match c with
           | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | ',' | '~' | '/' | '-' ->
               String.make 1 c
           | _ -> Printf.sprintf "%%%02X" (Char.code c))
         (List.init (String.length s) (String.get s)))
  in
  let p =
    match r with
    | Wal.Begin { txn } -> Printf.sprintf "B %d" txn
    | Wal.Write { txn; table; key; value } ->
        Printf.sprintf "W %d %s %s %s" txn (esc table) (esc key) (esc value)
    | Wal.Delete { txn; table; key } -> Printf.sprintf "D %d %s %s" txn (esc table) (esc key)
    | Wal.Commit { txn; ts } -> Printf.sprintf "C %d %d" txn ts
    | Wal.Abort { txn } -> Printf.sprintf "A %d" txn
    | Wal.Checkpoint { watermark; next_ts } -> Printf.sprintf "K %d %d" watermark next_ts
  in
  Printf.sprintf "%d:%s\n" (String.length p) p

let prop_codec_matches_printf =
  QCheck.Test.make ~name:"wal frames are the printf-encoded bytes" ~count:500 arb_records
    (fun rs ->
      let extremes =
        [ Wal.Commit { txn = max_int; ts = min_int }; Wal.Checkpoint { watermark = -1; next_ts = 0 } ]
      in
      let rs = rs @ extremes in
      Wal.encode rs = Wal.header ^ String.concat "" (List.map printf_frame rs))

let test_codec_corruption () =
  let reject what s =
    match Wal.decode s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  reject "bad header" "ssi-wal v9\n5:B 123\n";
  let img = Wal.encode [ Wal.Begin { txn = 1 } ] in
  reject "junk length prefix" (img ^ "x:B 2\n");
  reject "unknown record tag" (img ^ "5:Z 1 2\n");
  reject "missing terminator" (img ^ "3:B 2?7:C 2 9\n");
  (* A clean image with trailing garbage that happens to be digits is a torn
     frame, not corruption. *)
  match Wal.decode (img ^ "12") with
  | Ok (rs, 2) when rs = [ Wal.Begin { txn = 1 } ] -> ()
  | _ -> Alcotest.fail "digit-only tail should decode as torn"

(* {1 The durable image of a running log} *)

(* One log driven by an appender and [commit_flush] callers, each caller a
   process of its own that calls once. The appender's steps fall on whole
   seconds, calls on whole seconds plus 0.1 to 0.9 s, and a flush lasts
   0.7071 s, so no call and no appender step meets a flush's end or each
   other (calls may meet calls, which the reference may take in either
   order), and the reference below can replay the group commit in time
   order. *)
type step = Append of Wal.record | Harden | Checkpoint of int * int | Pause of int

type script = {
  flush : bool;  (** [Flush_per_commit] (else [No_flush]) *)
  steps : step list;
  calls : float list;  (** the times of the [commit_flush] calls *)
  tear : (int * int * int) option;  (** a [Crash_mid_flush] plan: flush, keep, torn *)
}

let latency = 0.7071

(* The image and byte count after each appender step but a pause, and at
   the end (after the crash, under a plan that fired). *)
let run_script sc =
  let sim = Sim.create () in
  let mode = if sc.flush then Wal.Flush_per_commit latency else Wal.No_flush in
  let wal = Wal.create sim ~mode in
  Option.iter
    (fun (flush, keep, torn) -> Wal.arm wal (Wal.Crash_mid_flush { flush; keep; torn }))
    sc.tear;
  let seen = ref [] in
  let look () = seen := (Wal.durable_log wal, Wal.durable_bytes wal) :: !seen in
  Sim.spawn sim (fun () ->
      List.iter
        (function
          | Pause p -> Sim.delay sim (float_of_int p)
          | step ->
              (match step with
              | Append r -> Wal.append wal r
              | Harden -> Wal.harden wal
              | Checkpoint (watermark, next_ts) -> Wal.checkpoint wal ~watermark ~next_ts
              | Pause _ -> ());
              look ())
        sc.steps);
  List.iter
    (fun at ->
      Sim.spawn sim (fun () ->
          Sim.delay sim at;
          Wal.commit_flush wal))
    sc.calls;
  (try Sim.run sim with Wal.Crash -> ());
  look ();
  List.rev !seen

(* The reference: the records appended, how many of them are hardened, and
   the image as [Wal.encode] of those. A seal (a flush leader's start, a
   checkpoint, a harden) closes the open batch at the log's current length.
   A flush hardens its batch when its delay ends, so records appended
   during the delay stay out of it, and a checkpoint during the delay
   hardens that batch first. A call waits for the batch open when it was
   made; at a flush's end, a waiter whose batch is still open leads the
   next flush. A [Crash_mid_flush] plan's flush hardens [keep] frames of
   its batch and [torn] bytes of the next, and the run stops. *)
let reference sc =
  let log = ref [] and len = ref 0 and hardened = ref 0 in
  let epoch = ref 0 and flushed = ref (-1) and flushes = ref 0 in
  let records n = List.filteri (fun i _ -> i < n) (List.rev !log) in
  let image () = Wal.encode (records !hardened) in
  let frame r =
    let s = Wal.encode [ r ] and h = String.length Wal.header in
    String.sub s h (String.length s - h)
  in
  let seal () =
    let target = !epoch in
    incr epoch;
    (target, !len)
  in
  let harden (target, upto) =
    hardened := max !hardened upto;
    flushed := max !flushed target
  in
  let append r =
    log := r :: !log;
    incr len
  in
  let steps =
    let t = ref 0.0 in
    List.filter_map
      (function
        | Pause p ->
            t := !t +. float_of_int p;
            None
        | s -> Some (!t, s))
      sc.steps
  in
  let seen = ref [] in
  let look img = seen := (img, String.length img) :: !seen in
  (* the flush in flight: its seal and end; the open batches waited for *)
  let in_flight = ref None and waiters = ref [] in
  let lead now = in_flight := Some (seal (), now +. latency) in
  let rec loop steps calls =
    let step_at = match steps with (t, _) :: _ -> t | [] -> infinity in
    let call_at = match calls with t :: _ -> t | [] -> infinity in
    let end_at = match !in_flight with Some (_, e) -> e | None -> infinity in
    if step_at < min call_at end_at then begin
      (match List.hd steps with
      | _, Append r -> append r
      | _, Harden -> harden (seal ())
      | _, Checkpoint (watermark, next_ts) ->
          append (Wal.Checkpoint { watermark; next_ts });
          harden (seal ())
      | _, Pause _ -> ());
      look (image ());
      loop (List.tl steps) calls
    end
    else if call_at < end_at then begin
      if sc.flush then
        if !in_flight = None then lead call_at else waiters := !epoch :: !waiters;
      loop steps (List.tl calls)
    end
    else if end_at < infinity then begin
      let ((_, sealed) as s), _ = Option.get !in_flight in
      in_flight := None;
      incr flushes;
      match sc.tear with
      | Some (f, keep, torn) when f = !flushes ->
          let batch = max 0 (sealed - !hardened) in
          let keep = max 0 (min keep batch) in
          let tail =
            if torn > 0 && keep < batch then
              let f = frame (List.nth (List.rev !log) (!hardened + keep)) in
              String.sub f 0 (min torn (String.length f - 1))
            else ""
          in
          look (Wal.encode (records (!hardened + keep)) ^ tail)
      | _ ->
          harden s;
          waiters := List.filter (fun upto -> !flushed < upto) !waiters;
          if !waiters <> [] then lead end_at;
          loop steps calls
    end
    else look (image ())
  in
  loop steps (List.sort compare sc.calls);
  List.rev !seen

let gen_script =
  let open QCheck.Gen in
  let step =
    frequency
      [
        (6, map (fun r -> Append r) gen_record);
        (1, return Harden);
        (1, map (fun (w, n) -> Checkpoint (w, n)) (pair small_nat small_nat));
        (3, map (fun p -> Pause p) (int_range 1 2));
      ]
  in
  let call =
    map
      (fun (s, m) -> float_of_int s +. (0.1 *. float_of_int m))
      (pair (int_bound 20) (int_range 1 9))
  in
  let* flush = bool in
  let* steps = list_size (int_bound 40) step in
  let* calls = list_size (int_bound 12) call in
  let* tear =
    if flush then
      frequency
        [
          (2, return None);
          (1, map Option.some (triple (int_range 1 4) (int_bound 4) (int_bound 12)));
        ]
    else return None
  in
  return { flush; steps; calls; tear }

let print_script sc =
  let step = function
    | Append r -> "append " ^ String.escaped (Wal.encode [ r ])
    | Harden -> "harden"
    | Checkpoint (w, n) -> Printf.sprintf "checkpoint %d %d" w n
    | Pause p -> Printf.sprintf "pause %d" p
  in
  Printf.sprintf "%s\nsteps: %s\ncalls: %s\ntear: %s"
    (if sc.flush then "flush per commit" else "no flush")
    (String.concat "; " (List.map step sc.steps))
    (String.concat " " (List.map (Printf.sprintf "%.1f") sc.calls))
    (match sc.tear with None -> "none" | Some (f, k, t) -> Printf.sprintf "flush:%d:%d:%d" f k t)

let prop_durable_image =
  QCheck.Test.make ~name:"durable image is the codec's image of the hardened records" ~count:500
    (QCheck.make ~print:print_script gen_script)
    (fun sc -> run_script sc = reference sc)

(* {1 Durability boundaries} *)

let flush_config =
  {
    (Config.test ()) with
    Config.wal_mode = Wal.Flush_per_commit 0.01;
    checkpoint_interval = None;
  }

let run_with_crash ?(config = Config.test ()) specs turns crash =
  Interleave.run_interleaving ~config ~crash ~isolation:Types.Serializable specs turns

let recover_result (r : Interleave.result) =
  match Db.recover (Sim.create ()) ~log:(Wal.durable_log (Db.wal r.Interleave.db)) with
  | Ok (db, rep) -> (db, rep)
  | Error e -> Alcotest.failf "recovery failed: %s" e

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Flush_per_commit: txn 1's commit flushed and returned before txn 2
   crashed in its commit window — txn 1 must survive, txn 2 must not. *)
let test_flushed_commit_survives () =
  let specs = Interleave.[ [ W "x" ]; [ W "y" ] ] in
  let order = [ 0; 1 ] in
  let r = run_with_crash ~config:flush_config specs order (Wal.Crash_at_commit_window 2) in
  Alcotest.(check bool) "crashed" true r.Interleave.crashed;
  let db, rep = recover_result r in
  Alcotest.(check int) "load + txn1 recovered" 2 rep.Db.r_committed;
  let dump = Db.dump_store db in
  Alcotest.(check bool) "txn1's write survives" true (contains dump "2:t0");
  Alcotest.(check bool) "txn2's unflushed write does not" false (contains dump "2:t1")

(* Flush_per_commit: a commit that never returned (crash between commit-ts
   assignment and the flush) must not survive — nothing of the transaction
   reached the durable image. *)
let test_commit_window_crash_lost () =
  let specs = Interleave.[ [ W "x" ] ] in
  let order = [ 0 ] in
  let r = run_with_crash ~config:flush_config specs order (Wal.Crash_at_commit_window 1) in
  Alcotest.(check bool) "crashed" true r.Interleave.crashed;
  let db, rep = recover_result r in
  Alcotest.(check int) "only the bulk load recovered" 1 rep.Db.r_committed;
  Alcotest.(check int) "nothing in doubt: records never hardened" 0 rep.Db.r_in_doubt;
  let dump = Db.dump_store db in
  Alcotest.(check bool) "x keeps its loaded value" true (contains dump "1:0");
  Alcotest.(check bool) "the crashed write is gone" false (contains dump "2:t0")

(* No_flush: commits are buffered only, so an unhardened commit is lost by
   design (the explicit expected-loss case) — but a checkpoint interval of 1
   hardens each commit right after it completes, bounding the loss window to
   the single in-flight transaction. *)
let test_no_flush_expected_loss () =
  let specs = Interleave.[ [ W "x" ]; [ W "y" ] ] in
  let order = [ 0; 1 ] in
  (* No checkpointing: everything after the bulk load is lost. *)
  let cfg = { (Config.test ()) with Config.checkpoint_interval = None } in
  let r = run_with_crash ~config:cfg specs order (Wal.Crash_at_commit_window 2) in
  let db, rep = recover_result r in
  Alcotest.(check int) "only the bulk load survives without checkpoints" 1 rep.Db.r_committed;
  Alcotest.(check bool) "txn1's commit lost" false (contains (Db.dump_store db) "2:t0");
  (* Checkpoint every commit: txn 1 was hardened by the checkpoint that
     followed its commit; only the in-flight txn 2 is lost. *)
  let cfg = { (Config.test ()) with Config.checkpoint_interval = Some 1 } in
  let r = run_with_crash ~config:cfg specs order (Wal.Crash_at_commit_window 2) in
  let db, rep = recover_result r in
  Alcotest.(check int) "checkpoint bounded the loss to one txn" 2 rep.Db.r_committed;
  let dump = Db.dump_store db in
  Alcotest.(check bool) "txn1 survives via the checkpoint" true (contains dump "2:t0");
  Alcotest.(check bool) "txn2 is the expected loss" false (contains dump "2:t1");
  Alcotest.(check int) "horizon restored from the checkpoint" 2 rep.Db.r_last_commit_ts

(* Mid-flush torn tail: keep Begin, tear the Write — the transaction is in
   doubt (no durable Commit) and must be rolled back entirely. *)
let test_torn_flush_in_doubt () =
  let specs = Interleave.[ [ W "x" ] ] in
  let order = [ 0 ] in
  let r =
    run_with_crash ~config:flush_config specs order
      (Wal.Crash_mid_flush { flush = 1; keep = 1; torn = 3 })
  in
  let db, rep = recover_result r in
  Alcotest.(check int) "one txn in doubt" 1 rep.Db.r_in_doubt;
  Alcotest.(check bool) "torn bytes discarded" true (rep.Db.r_torn_bytes > 0);
  Alcotest.(check bool) "no write applied" false (contains (Db.dump_store db) "2:t0")

(* {1 Recovery semantics} *)

(* Commit-then-Abort: a transaction killed while Committing (after its
   records, including Commit, reached the log) appends a compensating Abort
   record; replay must drop it entirely and count it once. *)
let test_commit_then_abort_replay () =
  let log =
    Wal.encode
      [
        Wal.Begin { txn = 3 };
        Wal.Write { txn = 3; table = "t"; key = "k"; value = "v" };
        Wal.Commit { txn = 3; ts = 1 };
        Wal.Abort { txn = 3 };
      ]
  in
  match Db.recover (Sim.create ()) ~log with
  | Error e -> Alcotest.failf "recovery failed: %s" e
  | Ok (db, rep) ->
      Alcotest.(check int) "aborted once" 1 rep.Db.r_aborted;
      Alcotest.(check int) "nothing committed" 0 rep.Db.r_committed;
      Alcotest.(check int) "nothing in doubt" 0 rep.Db.r_in_doubt;
      Alcotest.(check bool) "write dropped" false (contains (Db.dump_store db) "1:k")

(* Recovered commits above the checkpoint watermark leave conservative
   summary entries (SIREADs are volatile, §4.8 / Ports & Grittner): the
   post-recovery engine must err toward aborting, not toward admitting. *)
let test_recovery_conservative_summary () =
  let log =
    Wal.encode
      [
        Wal.Begin { txn = 2 };
        Wal.Write { txn = 2; table = "t"; key = "k"; value = "v" };
        Wal.Commit { txn = 2; ts = 1 };
      ]
  in
  match Db.recover (Sim.create ()) ~log with
  | Error e -> Alcotest.failf "recovery failed: %s" e
  | Ok (db, rep) ->
      Alcotest.(check int) "committed" 1 rep.Db.r_committed;
      Alcotest.(check bool) "conservative summary entries exist" true (Db.summary_size db > 0)

(* Publish-skip: rolling back a Committing transaction must let the
   snapshot horizon advance past its allocated (now unused) timestamp. *)
let test_publish_skip_horizon () =
  let sim = Sim.create () in
  let db = Db.create sim in
  let a = Internal.alloc_commit_ts db in
  let b = Internal.alloc_commit_ts db in
  Internal.publish_commit_ts db b;
  Alcotest.(check int) "horizon held below the unpublished hole" 0 (Db.last_commit_ts db);
  (* the rollback path publish-skips the abandoned timestamp *)
  Internal.publish_commit_ts db a;
  Alcotest.(check int) "horizon jumps past the hole" b (Db.last_commit_ts db)

(* {1 Repro codec cross-version} *)

(* v1 (no memory_budget) and v2 (no durability fields) repros must parse
   with the old defaults and roundtrip through the v3 magic unchanged. *)
let test_codec_v2_compat () =
  let v2 =
    "ssi-fuzz-repro v2\n\
     cfg granularity=row ssi=precise gap_locking=1 abort_early=1 victim=pivot \
     ro_refinement=0 upgrade_siread=1 memory_budget=4\n\
     init k0=0\n\
     txn ro=0 r(k0);w(k0)\n\
     schedule 0 0\n"
  in
  match Fuzzcase.of_string v2 with
  | Error e -> Alcotest.failf "v2 repro rejected: %s" e
  | Ok (c, _) -> (
      Alcotest.(check int) "v2 keeps its budget" 4 c.Fuzzcase.cfg.Fuzzcase.memory_budget;
      Alcotest.(check bool) "v2 parses as buffered WAL" false c.Fuzzcase.cfg.Fuzzcase.wal_flush;
      Alcotest.(check int) "v2 parses as checkpointing off" 0
        c.Fuzzcase.cfg.Fuzzcase.checkpoint_interval;
      let s = Fuzzcase.to_string c in
      Alcotest.(check bool) "re-emitted with the v3 magic" true
        (String.length s >= String.length Fuzzcase.magic
        && String.sub s 0 (String.length Fuzzcase.magic) = Fuzzcase.magic);
      match Fuzzcase.of_string s with
      | Ok (c', _) -> Alcotest.(check bool) "v2 -> v3 roundtrip" true (c = c')
      | Error e -> Alcotest.failf "v3 re-emit rejected: %s" e)

let test_codec_v3_durability_roundtrip () =
  let c =
    {
      Fuzzcase.specs = [ [ Interleave.W "k0" ] ];
      ro = [ false ];
      init = [ ("k0", "0") ];
      schedule = [ 0 ];
      cfg =
        { Fuzzcase.default_point with Fuzzcase.wal_flush = true; checkpoint_interval = 3 };
    }
  in
  match Fuzzcase.of_string (Fuzzcase.to_string c) with
  | Ok (c', _) ->
      Alcotest.(check bool) "wal_flush survives" true c'.Fuzzcase.cfg.Fuzzcase.wal_flush;
      Alcotest.(check int) "checkpoint_interval survives" 3
        c'.Fuzzcase.cfg.Fuzzcase.checkpoint_interval
  | Error e -> Alcotest.failf "v3 roundtrip failed: %s" e

(* {1 Campaigns} *)

(* The acceptance bar: >= 10k sampled crash points, every plan fires, zero
   recovery-oracle failures. Fixed seed, so this is one deterministic
   computation. *)
let test_campaign_10k () =
  let s =
    Fuzzrecover.run_campaign ~seed:1 ~cases:4250 ~matrix:Fuzzcase.matrix_full ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "at least 10k crash runs (got %d)" s.Fuzzrecover.cs_runs)
    true
    (s.Fuzzrecover.cs_runs >= 10_000);
  Alcotest.(check int) "every sampled plan fired" s.Fuzzrecover.cs_runs
    s.Fuzzrecover.cs_crashes;
  Alcotest.(check bool) "torn tails exercised" true (s.Fuzzrecover.cs_torn > 0);
  Alcotest.(check bool) "in-doubt rollbacks exercised" true (s.Fuzzrecover.cs_in_doubt > 0);
  Alcotest.(check int) "zero recovery-oracle failures" 0
    (List.length s.Fuzzrecover.cs_failures)

(* Shard/pool invariance: the campaign summary is identical sequentially,
   with a 3-domain pool, and across shard sizes. *)
let test_campaign_pool_invariance () =
  let fingerprint (s : Fuzzrecover.summary) =
    ( s.Fuzzrecover.cs_runs,
      s.Fuzzrecover.cs_crashes,
      s.Fuzzrecover.cs_torn,
      s.Fuzzrecover.cs_committed,
      s.Fuzzrecover.cs_in_doubt,
      s.Fuzzrecover.cs_replayed,
      List.length s.Fuzzrecover.cs_failures )
  in
  let seq =
    fingerprint (Fuzzrecover.run_campaign ~seed:3 ~cases:300 ~matrix:Fuzzcase.matrix_full ())
  in
  let odd_shards =
    fingerprint
      (Fuzzrecover.run_campaign ~shard_size:37 ~seed:3 ~cases:300
         ~matrix:Fuzzcase.matrix_full ())
  in
  Alcotest.(check bool) "shard-size invariant" true (seq = odd_shards);
  Par.with_pool ~j:3 (fun pool ->
      let par =
        fingerprint
          (Fuzzrecover.run_campaign ~pool ~seed:3 ~cases:300 ~matrix:Fuzzcase.matrix_full ())
      in
      Alcotest.(check bool) "pool invariant" true (seq = par))

(* A crash failure's repro roundtrips: serialize a synthetic failure, replay
   it, and get the same crash point and a passing oracle. *)
let test_crash_repro_roundtrip () =
  let d = Fuzzrecover.demo ~seed:1 () in
  let f =
    {
      Fuzzrecover.cf_index = 0;
      cf_case = d.Fuzzrecover.d_case;
      cf_plan = d.Fuzzrecover.d_plan;
      cf_violation = Fuzzrecover.No_crash;
    }
  in
  match Fuzzrecover.replay_string (Fuzzrecover.repro_string f) with
  | Error e -> Alcotest.failf "replay rejected: %s" e
  | Ok o ->
      Alcotest.(check bool) "same plan" true (o.Fuzzrecover.o_plan = d.Fuzzrecover.d_plan);
      Alcotest.(check bool) "oracle passes" true (o.Fuzzrecover.o_violation = None)

(* Every plan the crash fuzzer samples prints as a string that parses back
   to it. A plan that cannot fire is rejected: by the parser, and by a crash
   repro that carries it, in one line naming the plan. *)
let test_plan_strings () =
  let kinds = Hashtbl.create 3 in
  for seed = 1 to 8 do
    let d = Fuzzrecover.demo ~seed () in
    let wal = Db.wal (Fuzzrecover.reference_run d.Fuzzrecover.d_case).Interleave.db in
    List.iter
      (fun p ->
        Hashtbl.replace kinds (List.hd (String.split_on_char ':' (Wal.plan_to_string p))) ();
        if Wal.plan_of_string (Wal.plan_to_string p) <> Some p then
          Alcotest.failf "plan %s does not round-trip" (Wal.plan_to_string p))
      (Fuzzrecover.sample_plans (Random.State.make [| seed |]) wal)
  done;
  Alcotest.(check int) "append, flush and window plans sampled" 3 (Hashtbl.length kinds);
  List.iter
    (fun s -> Alcotest.(check bool) s true (Wal.plan_of_string s = None))
    [ "append:0"; "append:-1"; "window:0"; "flush:0:0:0"; "flush:1:-1:0"; "flush:1:0:-2" ];
  let d = Fuzzrecover.demo ~seed:1 () in
  let repro = Fuzzcase.to_string ~comment:[ "crash append:0" ] d.Fuzzrecover.d_case in
  match Fuzzrecover.replay_string repro with
  | Error e -> Alcotest.(check string) "replay error" "bad crash plan 'append:0'" e
  | Ok _ -> Alcotest.fail "a repro with plan append:0 replayed"

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "recovery"
    [
      ( "codec",
        [
          qt prop_codec_roundtrip;
          qt prop_codec_torn_tail;
          qt prop_codec_matches_printf;
          Alcotest.test_case "corruption rejected" `Quick test_codec_corruption;
          qt prop_durable_image;
        ] );
      ( "durability",
        [
          Alcotest.test_case "flushed commit survives" `Quick test_flushed_commit_survives;
          Alcotest.test_case "commit-window crash lost" `Quick test_commit_window_crash_lost;
          Alcotest.test_case "no-flush expected loss, checkpoint bounds it" `Quick
            test_no_flush_expected_loss;
          Alcotest.test_case "torn flush leaves txn in doubt" `Quick test_torn_flush_in_doubt;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "commit-then-abort replay" `Quick test_commit_then_abort_replay;
          Alcotest.test_case "conservative summary entries" `Quick
            test_recovery_conservative_summary;
          Alcotest.test_case "publish-skip advances the horizon" `Quick
            test_publish_skip_horizon;
        ] );
      ( "repro codec",
        [
          Alcotest.test_case "v2 compatibility" `Quick test_codec_v2_compat;
          Alcotest.test_case "v3 durability fields roundtrip" `Quick
            test_codec_v3_durability_roundtrip;
          Alcotest.test_case "crash repro roundtrip" `Quick test_crash_repro_roundtrip;
          Alcotest.test_case "crash plans that cannot fire rejected" `Quick test_plan_strings;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "pool/shard invariance" `Slow test_campaign_pool_invariance;
          Alcotest.test_case "10k crash points, zero failures" `Slow test_campaign_10k;
        ] );
    ]
