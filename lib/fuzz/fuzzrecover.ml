(* Crash-recovery fuzz campaign: sweep deterministic crash points across
   generated workloads and hold recovery to a three-part oracle.

   Each case first runs to completion with a never-firing fault plan armed,
   which makes the WAL's since-arm trigger counters a census of the run's
   crashable points (appends, physical flushes, commit windows). Plans are
   then sampled inside that census — so every sampled plan is guaranteed to
   fire — and for each plan the case is re-run until the injected crash
   abandons the simulated machine. Recovery replays the WAL's durable
   prefix into a fresh engine and must satisfy:

   - Committed prefix: the recovered store byte-equals the reference store
     truncated to the recovered snapshot horizon. The WAL hardens epochs in
     order and commit records are appended in ts order, so the durable
     committed set is a ts-prefix of the reference run's commits; recovery
     must reproduce exactly that prefix — no lost committed write, no
     resurrected uncommitted one.

   - Horizon honesty: the recovered store exposes no version above the
     restored [last_commit_ts] (subsumed by the prefix check against the
     reference, kept as a self-contained guard on the recovered engine).

   - Continuation serializability: re-running the case's scripts against
     the recovered engine must yield an MVSG-acyclic combined history,
     where recovered committed transactions enter the graph as synthesized
     records (their reads are unknown — SIREAD locks are volatile — so they
     contribute write edges only, and the engine's conservative summary
     flags may only cause extra aborts, never admit a cycle).

   Campaigns shard exactly like {!Fuzz.run_campaign}: per-case RNG streams
   keyed by (seed, cases, index) and associative merges keep the summary
   byte-identical between [-j 1] and [-j N]. *)

open Core

(* Armed in the reference run: counts crashable events, never fires. *)
let probe_plan = Wal.Crash_on_append max_int

type crash_violation =
  | No_crash  (** a plan sampled inside the census failed to fire *)
  | Recover_error of string  (** recovery rejected the durable log *)
  | Store_mismatch of { expected : string; got : string }
      (** recovered store differs from the reference's committed prefix *)
  | Future_version  (** recovered store exposes a version above the horizon *)
  | Continuation_failure of string
      (** post-recovery run: MVSG cycle or an internal error *)

let violation_to_string = function
  | No_crash -> "sampled crash plan did not fire"
  | Recover_error e -> "recovery failed: " ^ e
  | Store_mismatch _ -> "recovered store differs from the committed prefix"
  | Future_version -> "recovered store exposes a version above the restored horizon"
  | Continuation_failure e -> "post-recovery continuation: " ^ e

type outcome = {
  o_plan : Wal.plan;
  o_report : Db.recovery_report option;  (** [None] when recovery itself failed *)
  o_violation : crash_violation option;
}

(* Recovered committed transactions re-enter the serialization graph as
   write-only records: reads are unrecoverable (SIREAD state is volatile),
   and a snapshot of [ts - 1] is the latest — hence least concurrent, hence
   most conservative for the *oracle* — view consistent with commit order. *)
let synthesize_committed records =
  let aborted = Hashtbl.create 8 in
  List.iter
    (function Wal.Abort { txn } -> Hashtbl.replace aborted txn () | _ -> ())
    records;
  let writes = Hashtbl.create 16 in
  let add txn table key =
    let prev = try Hashtbl.find writes txn with Not_found -> [] in
    Hashtbl.replace writes txn ((table, key) :: prev)
  in
  List.iter
    (function
      | Wal.Write { txn; table; key; _ } | Wal.Delete { txn; table; key } -> add txn table key
      | _ -> ())
    records;
  List.filter_map
    (function
      | Wal.Commit { txn; ts } when txn <> 0 && not (Hashtbl.mem aborted txn) ->
          let ws = try Hashtbl.find writes txn with Not_found -> [] in
          Some
            {
              Types.h_id = txn;
              h_isolation = Types.Serializable;
              h_snapshot = ts - 1;
              h_commit = ts;
              h_reads = [];
              h_writes = List.sort_uniq compare ws;
            }
      | _ -> None)
    records

(* Run [c] to completion with the census probe armed; the result's engine
   carries the since-arm counters the plan sampler draws from. *)
let reference_run (c : Fuzzcase.t) : Interleave.result =
  Fuzzrun.run_case ~crash:probe_plan ~isolation:Types.Serializable c

(* Sample fault plans from the census of a completed reference run: a
   couple of append points, a mid-flush tear when the mode flushes at all,
   and a commit window when any writer committed. Every plan indexes a
   1-based event count the crash run is guaranteed to reach. *)
let sample_plans rng (wal : Wal.t) : Wal.plan list =
  let appends = Wal.armed_appends wal in
  let flushes = Wal.armed_flushes wal in
  let windows = Wal.armed_windows wal in
  let plans = ref [] in
  if appends > 0 then begin
    plans := Wal.Crash_on_append (1 + Random.State.int rng appends) :: !plans;
    if appends > 1 then
      plans := Wal.Crash_on_append (1 + Random.State.int rng appends) :: !plans
  end;
  if flushes > 0 then
    plans :=
      Wal.Crash_mid_flush
        {
          flush = 1 + Random.State.int rng flushes;
          keep = Random.State.int rng 6;
          torn = Random.State.int rng 8;
        }
      :: !plans;
  if windows > 0 then
    plans := Wal.Crash_at_commit_window (1 + Random.State.int rng windows) :: !plans;
  List.sort_uniq compare !plans

(* Crash [c] at [plan], recover from the durable prefix, apply the oracle.
   [reference] must be a completed {!reference_run} of the same case. *)
let check_crash (c : Fuzzcase.t) ~(reference : Interleave.result) plan : outcome =
  let r = Fuzzrun.run_case ~crash:plan ~isolation:Types.Serializable c in
  if not r.Interleave.crashed then
    { o_plan = plan; o_report = None; o_violation = Some No_crash }
  else
    let log = Wal.durable_log (Db.wal r.Interleave.db) in
    match Db.recover ~config:(Db.config r.Interleave.db) (Sim.create ()) ~log with
    | Error e -> { o_plan = plan; o_report = None; o_violation = Some (Recover_error e) }
    | Ok (db, report) ->
        let violation =
          let expected =
            Db.dump_store ~max_ts:report.Db.r_last_commit_ts reference.Interleave.db
          in
          let got = Db.dump_store db in
          if got <> expected then Some (Store_mismatch { expected; got })
          else if got <> Db.dump_store ~max_ts:report.Db.r_last_commit_ts db then
            Some Future_version
          else begin
            (* Continuation: the same scripts again, now against the
               recovered engine, judged together with the synthesized
               recovered commits. *)
            let recovered =
              match Wal.decode log with
              | Ok (records, _) -> synthesize_committed records
              | Error _ -> [] (* unreachable: recovery decoded the same log *)
            in
            let cont = Fuzzrun.run_case ~db ~isolation:Types.Serializable c in
            let internal =
              List.find_map
                (function Some (Types.Internal_error e) -> Some e | _ -> None)
                cont.Interleave.outcomes
            in
            match internal with
            | Some e -> Some (Continuation_failure ("internal error: " ^ e))
            | None ->
                if Mvsg.is_serializable (recovered @ cont.Interleave.history) then None
                else Some (Continuation_failure "combined history has an MVSG cycle")
          end
        in
        { o_plan = plan; o_report = Some report; o_violation = violation }

(* {1 Sharded campaigns} *)

type failure = {
  cf_index : int;  (** case index within the campaign *)
  cf_case : Fuzzcase.t;
  cf_plan : Wal.plan;
  cf_violation : crash_violation;
}

type summary = {
  cs_cases : int;  (** generated cases *)
  cs_runs : int;  (** crash runs executed (sampled plans) *)
  cs_crashes : int;  (** runs whose plan fired (all of them, or it's a failure) *)
  cs_torn : int;  (** recoveries that discarded a torn trailing frame *)
  cs_committed : int;  (** committed transactions reinstalled, summed *)
  cs_in_doubt : int;  (** in-doubt transactions rolled back, summed *)
  cs_aborted : int;  (** logged-abort transactions dropped, summed *)
  cs_replayed : int;  (** log records replayed, summed *)
  cs_failures : failure list;
}

type progress = { cp_done : int; cp_total : int; cp_runs : int; cp_failures : int }

type shard = {
  sh_cases : int;
  sh_runs : int;
  sh_crashes : int;
  sh_torn : int;
  sh_committed : int;
  sh_in_doubt : int;
  sh_aborted : int;
  sh_replayed : int;
  sh_failures : failure list; (* in (case, plan) order *)
}

(* Distinct RNG family from the differential fuzzer so the two campaigns
   explore independent case streams at equal seeds. *)
let case_rng ~seed ~cases i = Random.State.make [| 0xC8A54; (seed * cases) + i |]

(* Durability knobs are resampled per case — deterministically from the
   case's own RNG stream — so a campaign sweeps buffered and synchronous
   WAL modes and checkpoint cadences whatever matrix it was given. *)
let durability_point rng (cfg : Fuzzcase.cfg_point) =
  {
    cfg with
    Fuzzcase.wal_flush = Random.State.bool rng;
    checkpoint_interval = [| 0; 0; 2; 3 |].(Random.State.int rng 4);
  }

let run_shard ~profile ~seed ~cases ~points ~lo ~hi : shard =
  let runs = ref 0 and crashes = ref 0 and torn = ref 0 in
  let committed = ref 0 and in_doubt = ref 0 and aborted = ref 0 and replayed = ref 0 in
  let failures = ref [] in
  for i = lo to hi - 1 do
    let st = case_rng ~seed ~cases i in
    let cfg = durability_point st points.(i mod Array.length points) in
    let c = Fuzzgen.case ~profile st ~cfg in
    let reference = reference_run c in
    let plans = sample_plans st (Db.wal reference.Interleave.db) in
    List.iter
      (fun plan ->
        incr runs;
        let o = check_crash c ~reference plan in
        if o.o_violation <> Some No_crash then incr crashes;
        (match o.o_report with
        | Some rep ->
            if rep.Db.r_torn_bytes > 0 then incr torn;
            committed := !committed + rep.Db.r_committed;
            in_doubt := !in_doubt + rep.Db.r_in_doubt;
            aborted := !aborted + rep.Db.r_aborted;
            replayed := !replayed + rep.Db.r_replayed
        | None -> ());
        match o.o_violation with
        | Some v ->
            failures :=
              { cf_index = i; cf_case = c; cf_plan = plan; cf_violation = v } :: !failures
        | None -> ())
      plans
  done;
  {
    sh_cases = hi - lo;
    sh_runs = !runs;
    sh_crashes = !crashes;
    sh_torn = !torn;
    sh_committed = !committed;
    sh_in_doubt = !in_doubt;
    sh_aborted = !aborted;
    sh_replayed = !replayed;
    sh_failures = List.rev !failures;
  }

let run_campaign ?pool ?(shard_size = 250) ?(profile = Fuzzgen.default_profile)
    ?(on_progress = fun (_ : progress) -> ()) ~seed ~cases ~matrix () : summary =
  let points = Fuzzgen.matrix_points ~who:"Fuzzrecover.run_campaign" matrix in
  let done_cases = ref 0 and done_runs = ref 0 and done_failures = ref 0 in
  let report sh =
    done_cases := !done_cases + sh.sh_cases;
    done_runs := !done_runs + sh.sh_runs;
    done_failures := !done_failures + List.length sh.sh_failures;
    on_progress
      {
        cp_done = !done_cases;
        cp_total = cases;
        cp_runs = !done_runs;
        cp_failures = !done_failures;
      }
  in
  let shards =
    Fuzzgen.run_shards ?pool ~who:"Fuzzrecover.run_campaign" ~shard_size ~cases ~on_shard:report
      (run_shard ~profile ~seed ~cases ~points)
  in
  let sum f = List.fold_left (fun acc sh -> acc + f sh) 0 shards in
  {
    cs_cases = cases;
    cs_runs = sum (fun sh -> sh.sh_runs);
    cs_crashes = sum (fun sh -> sh.sh_crashes);
    cs_torn = sum (fun sh -> sh.sh_torn);
    cs_committed = sum (fun sh -> sh.sh_committed);
    cs_in_doubt = sum (fun sh -> sh.sh_in_doubt);
    cs_aborted = sum (fun sh -> sh.sh_aborted);
    cs_replayed = sum (fun sh -> sh.sh_replayed);
    cs_failures = List.concat_map (fun sh -> sh.sh_failures) shards;
  }

(* {1 Repro files}

   A crash failure serializes as a v3 repro whose comment carries the fault
   plan; {!replay_string} re-arms it and re-applies the oracle. *)

let crash_comment plan = "crash " ^ Wal.plan_to_string plan

(* The plan of a ["crash <plan>"] comment, or [None] for another comment. *)
let plan_of_comment cm =
  match String.split_on_char ' ' (String.trim cm) with
  | [ "crash"; p ] ->
      let bad = Printf.sprintf "bad crash plan '%s'" p in
      Some (Option.to_result ~none:bad (Wal.plan_of_string p))
  | _ -> None

let repro_string (f : failure) =
  Fuzzcase.to_string
    ~comment:[ crash_comment f.cf_plan; violation_to_string f.cf_violation ]
    f.cf_case

(* {1 One-shot demo}

   Deterministic single-case crash+recover+verify roundtrip for the CLI
   [recover] subcommand and the CI smoke rule: pick the first generated
   case (for the seed) that logs anything, crash it — by default halfway
   through its appends — recover, and run the full oracle. *)

type demo = { d_case : Fuzzcase.t; d_plan : Wal.plan; d_outcome : outcome }

let demo ?plan ~seed () : demo =
  let rec pick i =
    if i >= 100 then
      invalid_arg "Fuzzrecover.demo: no crashable case in the first 100 of this seed"
    else
      let st = case_rng ~seed ~cases:100 i in
      let cfg = durability_point st Fuzzcase.default_point in
      let c = Fuzzgen.case st ~cfg in
      let reference = reference_run c in
      if Wal.armed_appends (Db.wal reference.Interleave.db) > 0 then (c, reference)
      else pick (i + 1)
  in
  let c, reference = pick 0 in
  let plan =
    match plan with
    | Some p -> p
    | None ->
        let appends = Wal.armed_appends (Db.wal reference.Interleave.db) in
        Wal.Crash_on_append (max 1 ((appends + 1) / 2))
  in
  { d_case = c; d_plan = plan; d_outcome = check_crash c ~reference plan }

(* Replay a crash repro: parse the case, recover the plan from the first
   [# crash ...] comment, and run the oracle once. *)
let replay_string content : (outcome, string) result =
  let plan =
    List.find_map
      (fun l ->
        let l = String.trim l in
        if String.length l > 1 && l.[0] = '#' then
          plan_of_comment (String.sub l 1 (String.length l - 1))
        else None)
      (String.split_on_char '\n' content)
  in
  match plan with
  | None -> Error "no '# crash <plan>' comment in repro"
  | Some (Error e) -> Error e
  | Some (Ok plan) ->
      Result.bind (Fuzzcase.of_string content) (fun (c, _expect) ->
          let reference = reference_run c in
          Ok (check_crash c ~reference plan))
