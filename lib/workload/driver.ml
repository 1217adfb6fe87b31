(* Benchmark workload driver, modelled on db_perf (§6.1): MPL client
   processes each run a stream of transactions drawn from a weighted mix,
   with aborted transactions retried, and throughput / abort rates measured
   over a window after a warmup period. *)

open Core

type program = {
  p_name : string;
  p_weight : float;
  p_read_only : bool; (* declared READ ONLY (enables the RO refinement) *)
  (* The body runs inside a transaction; it may raise Types.Abort (e.g. an
     application rollback) and uses the per-client RNG for parameters. *)
  p_body : Random.State.t -> Txn.t -> unit;
}

let program ?(weight = 1.0) ?(read_only = false) name body =
  { p_name = name; p_weight = weight; p_read_only = read_only; p_body = body }

(* Per-program measurement: commits (completed work, including application
   rollbacks), the application-rollback subset, error-abort attempts, and a
   response-time histogram over completed transactions. *)
type program_stats = {
  ps_name : string;
  mutable ps_commits : int;
  mutable ps_user_aborts : int;
  mutable ps_aborts : int;
  ps_latency : Obs.hist;
}

type counters = {
  mutable commits : int;
  mutable user_aborts : int;
  mutable deadlocks : int;
  mutable conflicts : int;
  mutable unsafe : int;
  mutable other_aborts : int;
  mutable response_sum : float;
  by_program : (string, program_stats) Hashtbl.t;
}

type result = {
  mpl : int;
  seed : int;
  elapsed : float;
  commits : int;
  throughput : float; (* commits per simulated second *)
  user_aborts : int; (* application rollbacks among [commits] *)
  deadlocks : int;
  conflicts : int;
  unsafe : int;
  other_aborts : int;
  mean_response : float;
  aborts_per_commit : float;
  per_program : (string * int) list; (* commits by program name *)
  programs : program_stats list; (* full per-program stats, sorted by name *)
  metrics : Obs.metrics; (* engine metrics (zeros unless [obs] was passed) *)
  end_lock_table : int; (* lock-table entries when the window closed *)
  end_retained : int; (* committed transaction records still retained *)
  work_committed : float; (* engine ledger: begin->commit spans, sim s *)
  work_wasted : float; (* begin->abort spans (any reason), sim s *)
}

type config = {
  isolation : Types.isolation;
  mpl : int;
  warmup : float;
  duration : float;
  think_time : float;
  seed : int;
  max_retries : int;
}

let default_config =
  {
    isolation = Types.Snapshot;
    mpl = 1;
    warmup = 0.5;
    duration = 3.0;
    think_time = 0.0;
    seed = 1;
    max_retries = 1000;
  }

(* Weighted choice from the mix: the first program whose running weight
   total passes a uniform draw below the last total, or the head of [mix]
   if none does. [pick mix] sums the running totals once, left to right,
   the same float sums a walk of the list makes, so the driver applies it
   once per run. *)
let pick mix =
  let progs = Array.of_list mix in
  let totals = Array.make (Array.length progs) 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i p ->
      acc := !acc +. p.p_weight;
      totals.(i) <- !acc)
    progs;
  let total = !acc in
  fun st ->
    let x = Random.State.float st total in
    let i = ref 0 in
    while !i < Array.length totals && not (x < totals.(!i)) do
      incr i
    done;
    if !i < Array.length progs then progs.(!i) else List.hd mix

let program_stats c name =
  match Hashtbl.find_opt c.by_program name with
  | Some ps -> ps
  | None ->
      let ps =
        {
          ps_name = name;
          ps_commits = 0;
          ps_user_aborts = 0;
          ps_aborts = 0;
          ps_latency = Obs.hist_create ();
        }
      in
      Hashtbl.replace c.by_program name ps;
      ps

(* Driver-level lifecycle span: one [prog:<name>] B/E pair per program
   execution, spanning every retry. Out-of-band like all obs recording —
   derives only from simulated time, so traced and untraced runs measure
   identically. [tracing] is the run's sink when it traces, so nothing is
   built for a sink that does not. *)
let span tracing sim ~client prog which =
  match tracing with
  | Some o ->
      let name = "prog:" ^ prog.p_name in
      Obs.emit o ~ts:(Sim.now sim)
        (match which with
        | `B -> Obs.Span_b { tid = client; name; cat = "driver" }
        | `E -> Obs.Span_e { tid = client; name; cat = "driver" })
  | None -> ()

(* Class-outcome event for the timeline: one per transaction attempt
   outcome, tagged with the program (class) name, whose latency runs from
   [since]. Not gated by the measurement window — the timeline covers the
   whole run, warmup included. *)
let class_outcome tracing sim prog outcome ~since =
  match tracing with
  | Some o ->
      Obs.emit o ~ts:(Sim.now sim)
        (Obs.Class_outcome { cls = prog.p_name; outcome; latency = Sim.now sim -. since })
  | None -> ()

(* Run one (db, mix, config) measurement: returns counters over the window
   [warmup, warmup + duration]. [make_db] builds and populates the database
   (fresh per run so seeds are independent). When [obs] is given it is
   attached to the database (Db.set_obs) and its metrics snapshot lands in
   [result.metrics]; recording never perturbs the simulation, so results
   are identical with or without it. *)
let run_once ?obs ~make_db ~mix (cfg : config) : result =
  let sim = Sim.create () in
  let db : Db.t = make_db sim in
  (match obs with Some o -> Db.set_obs db o | None -> ());
  (* Progress guarantee: a transaction that consumed no simulated time at
     all (e.g. an immediate application rollback) must not let the client
     loop spin forever at one instant. *)
  let min_step = 1e-6 in
  let horizon = cfg.warmup +. cfg.duration in
  let c =
    {
      commits = 0;
      user_aborts = 0;
      deadlocks = 0;
      conflicts = 0;
      unsafe = 0;
      other_aborts = 0;
      response_sum = 0.0;
      by_program = Hashtbl.create 8;
    }
  in
  let in_window () =
    let now = Sim.now sim in
    now >= cfg.warmup && now < horizon
  in
  let count_abort name reason =
    if in_window () then begin
      let ps = program_stats c name in
      ps.ps_aborts <- ps.ps_aborts + 1;
      match reason with
      | Types.Deadlock -> c.deadlocks <- c.deadlocks + 1
      | Types.Update_conflict -> c.conflicts <- c.conflicts + 1
      | Types.Unsafe -> c.unsafe <- c.unsafe + 1
      | Types.Duplicate_key | Types.User_abort | Types.Internal_error _ ->
          c.other_aborts <- c.other_aborts + 1
    end
  in
  let count_commit ?(user_abort = false) name started =
    if in_window () then begin
      let latency = Sim.now sim -. started in
      c.commits <- c.commits + 1;
      c.response_sum <- c.response_sum +. latency;
      if user_abort then c.user_aborts <- c.user_aborts + 1;
      let ps = program_stats c name in
      ps.ps_commits <- ps.ps_commits + 1;
      if user_abort then ps.ps_user_aborts <- ps.ps_user_aborts + 1;
      Obs.hist_add ps.ps_latency latency
    end
  in
  let tracing = match obs with Some o when Obs.tracing o -> obs | Some _ | None -> None in
  let pick = pick mix in
  for client = 1 to cfg.mpl do
    Sim.spawn sim (fun () ->
        let st = Random.State.make [| cfg.seed; client; 0x551 |] in
        (* Built once per client, so a transaction builds no closure. *)
        let rec attempt prog started retries =
          let attempt_start = Sim.now sim in
          match Db.run ~read_only:prog.p_read_only db cfg.isolation (prog.p_body st) with
          | Ok () ->
              class_outcome tracing sim prog "commit" ~since:started;
              count_commit prog.p_name started
          | Error Types.User_abort ->
              (* Application rollback (e.g. SmallBank insufficient funds):
                 completed work, not an error — but counted apart so abort
                 accounting stays honest. *)
              class_outcome tracing sim prog "user-abort" ~since:started;
              count_commit ~user_abort:true prog.p_name started
          | Error reason ->
              class_outcome tracing sim prog (Types.abort_reason_to_string reason)
                ~since:attempt_start;
              count_abort prog.p_name reason;
              if retries < cfg.max_retries && Sim.now sim < horizon then
                attempt prog started (retries + 1)
        in
        let rec session () =
          if Sim.now sim < horizon then begin
            if cfg.think_time > 0.0 then Sim.delay sim (Random.State.float st (2.0 *. cfg.think_time));
            let prog = pick st in
            let started = Sim.now sim in
            span tracing sim ~client prog `B;
            attempt prog started 0;
            span tracing sim ~client prog `E;
            if Sim.now sim = started then Sim.delay sim min_step;
            session ()
          end
        in
        session ())
  done;
  Sim.run ~until:horizon sim;
  (* Wasted-work conservation: the engine's incrementally-maintained ledger
     must agree with an independent scan of the active table on every run —
     a violation means an abort or commit path skipped its banking hook, so
     fail loudly rather than report silently-wrong wasted-work numbers. *)
  if not (Db.work_conserved db) then
    failwith "Driver.run_once: wasted-work conservation violated (ledger out of balance)";
  let wp = Db.work_profile db in
  let programs =
    Hashtbl.fold (fun _ ps acc -> ps :: acc) c.by_program []
    |> List.sort (fun a b -> compare a.ps_name b.ps_name)
  in
  {
    end_lock_table = Db.lock_table_size db;
    end_retained = Db.retained_count db;
    work_committed = wp.Db.wp_committed;
    work_wasted = wp.Db.wp_wasted;
    mpl = cfg.mpl;
    seed = cfg.seed;
    elapsed = cfg.duration;
    commits = c.commits;
    throughput = float_of_int c.commits /. cfg.duration;
    user_aborts = c.user_aborts;
    deadlocks = c.deadlocks;
    conflicts = c.conflicts;
    unsafe = c.unsafe;
    other_aborts = c.other_aborts;
    mean_response = (if c.commits = 0 then 0.0 else c.response_sum /. float_of_int c.commits);
    per_program = List.map (fun ps -> (ps.ps_name, ps.ps_commits)) programs;
    programs;
    metrics =
      (match obs with Some o -> Obs.metrics_snapshot o | None -> Obs.metrics_create ());
    aborts_per_commit =
      (let aborts = c.deadlocks + c.conflicts + c.unsafe + c.other_aborts in
       if c.commits = 0 then float_of_int aborts
       else float_of_int aborts /. float_of_int c.commits);
  }

type summary = {
  s_mpl : int;
  s_throughput : float;
  s_ci : float;
  s_deadlock_rate : float; (* per commit *)
  s_conflict_rate : float;
  s_unsafe_rate : float;
  s_user_abort_rate : float; (* application rollbacks per commit *)
  s_mean_response : float; (* weighted by per-seed commit counts *)
  s_lock_table : float; (* mean lock-table entries at window close *)
  s_metrics : Obs.metrics option; (* merged engine metrics (with_metrics) *)
}

(* Run the same configuration across several seeds and aggregate. With
   [with_metrics] each run carries a metrics-only Obs sink and the merged
   metrics land in [s_metrics]. With [pool] the per-seed runs execute on
   the domain pool; each run is an isolated simulated world (fresh Sim, Db
   and Obs built inside the job), and results come back in seed order, so
   the summary is identical to the sequential path. *)
let run_seeds ?pool ?(with_metrics = false) ~make_db ~mix ~seeds (cfg : config) : summary =
  let results =
    Par.map ?pool
      (fun seed ->
        let obs = if with_metrics then Some (Obs.create ~metrics:true ()) else None in
        run_once ?obs ~make_db ~mix { cfg with seed })
      seeds
  in
  let tps = List.map (fun r -> r.throughput) results in
  let m, ci = Stats.ci95 tps in
  let total_commits = List.fold_left (fun a r -> a + r.commits) 0 results in
  let rate f =
    if total_commits = 0 then 0.0
    else float_of_int (List.fold_left (fun a r -> a + f r) 0 results) /. float_of_int total_commits
  in
  (* Mean response weighted by per-seed commit counts: the plain mean of
     per-seed means over-weighted seeds that happened to commit little. *)
  let mean_response =
    if total_commits = 0 then 0.0
    else
      List.fold_left (fun a r -> a +. (r.mean_response *. float_of_int r.commits)) 0.0 results
      /. float_of_int total_commits
  in
  let merged_metrics =
    if with_metrics then begin
      let into = Obs.metrics_create () in
      List.iter (fun r -> Obs.metrics_merge ~into r.metrics) results;
      Some into
    end
    else None
  in
  {
    s_mpl = cfg.mpl;
    s_throughput = m;
    s_ci = ci;
    s_deadlock_rate = rate (fun r -> r.deadlocks);
    s_conflict_rate = rate (fun r -> r.conflicts);
    s_unsafe_rate = rate (fun r -> r.unsafe);
    s_user_abort_rate = rate (fun r -> r.user_aborts);
    s_mean_response = mean_response;
    s_lock_table = Stats.mean (List.map (fun r -> float_of_int r.end_lock_table) results);
    s_metrics = merged_metrics;
  }
