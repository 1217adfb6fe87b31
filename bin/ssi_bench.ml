(* Command-line front-end for the reproduction:

   - [list]         enumerate the experiments (paper figures + ablations)
   - [run IDS..]    run experiments and print their tables
   - [sdg NAME]     static dependency graph analysis (§2.6/§2.8)
   - [explore]      DPOR schedule exploration; --validate adds the full
                    enumeration and its §4.7 counts
   - [fuzz]         differential history fuzzing with the MVSG oracle

   Examples:
     ssi_bench run fig6.1 fig6.8 --seeds 3 --duration 1.0
     ssi_bench sdg smallbank
     ssi_bench explore --spec write-skew --isolation si --validate
     ssi_bench explore --spec write-skew-4 --isolation ssi --stats -j 4
     ssi_bench fuzz --cases 10000 --seed 1 --matrix full --shrink-anomalies
     ssi_bench fuzz --replay fuzz-001.repro

   A bad flag value exits 124 before anything runs; a failed run or a file
   error exits 1. *)

open Cmdliner

(* {1 Converters}

   A value outside its converter's range is a command-line error naming
   the flag (exit 124) before anything runs, not a silently clamped, empty
   or unbounded run. *)

let checked of_string pp ~expected ~ok ~msg =
  let parse s =
    match of_string s with
    | Some n when ok n -> Ok n
    | Some _ -> Error (`Msg msg)
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
  in
  Arg.conv (parse, pp)

let int_at_least min =
  checked int_of_string_opt Format.pp_print_int ~expected:"an integer" ~ok:(( <= ) min)

let float_where ok ~msg =
  checked float_of_string_opt Format.pp_print_float ~expected:"a number" ~ok ~msg

(* Client, seed and case counts, table rows, sketch capacity. *)
let count = int_at_least 1 ~msg:"must be at least 1"

(* Sizes where 0 means none or off. *)
let size = int_at_least 0 ~msg:"must be 0 or more"

(* Simulated seconds. [float_of_string] reads "inf" and "nan", and neither
   would end a run. *)
let positive =
  float_where (fun x -> Float.is_finite x && x > 0.0) ~msg:"must be positive and finite"

let non_negative =
  float_where (fun x -> Float.is_finite x && x >= 0.0) ~msg:"must be 0 or more and finite"

(* One converter per name table; [alts] lists a table's names for the help. *)
let alts table = String.concat " | " (List.map fst table)

(* Converts to the (name, entry) pair, for outputs that echo the name. *)
let named table = Arg.enum (List.map (fun ((n, _) as e) -> (n, e)) table)

let isolation = Arg.enum Core.Types.isolation_names

let specs =
  Interleave.
    [
      ("write-skew", write_skew_spec);
      ("read-only-anomaly", read_only_anomaly_spec);
      ("paper-4.7", paper_spec);
      ("paper-4.7-4", paper_spec_4);
      ("paper-4.7-5", paper_spec_5);
      ("write-skew-3", write_skew_spec_3);
      ("write-skew-4", write_skew_spec_4);
      ("read-only-anomaly-4", read_only_anomaly_spec_4);
    ]

let spec = named specs

let matrix = named Fuzzcase.matrices

let series = Arg.enum (List.map (fun n -> (n, n)) Timeline.series_names)

(* [--slo RATE,P95]: the per-class abort-rate and p95 targets. *)
let slo =
  let parse s =
    match List.map float_of_string_opt (String.split_on_char ',' s) with
    | [ Some slo_abort_rate; Some slo_p95 ] -> Ok { Timeline.slo_abort_rate; slo_p95 }
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected RATE,P95" s))
  in
  Arg.conv (parse, fun ppf s -> Format.fprintf ppf "%g,%g" s.Timeline.slo_abort_rate s.slo_p95)

let trigger =
  let parse s = Result.map_error (fun e -> `Msg e) (Flightrec.trigger_of_string s) in
  Arg.conv (parse, fun ppf t -> Format.pp_print_string ppf (Flightrec.trigger_to_string t))

let plan =
  let parse s = Option.to_result ~none:(`Msg ("bad plan: " ^ s)) (Wal.plan_of_string s) in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Wal.plan_to_string p))

(* Shared [-j N]: run independent jobs (experiment points, per-seed runs,
   fuzz shards) on a domain pool. The output contract is that results are
   byte-identical for every N; the dune rules in bin/dune diff -j 1 against
   -j N runs to enforce it. *)
let jobs_arg =
  Arg.(
    value & opt count 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Run independent jobs on $(docv) domains (output is identical for any $(docv))")

(* A pool the runtime cannot start is a bad [-j] value too: one line naming
   the flag, exit 124. *)
let with_jobs j f =
  if j = 1 then f None
  else
    match Par.create j with
    | exception Invalid_argument e ->
        Printf.eprintf "ssi_bench: option '-j': %s\n" e;
        exit Cmd.Exit.cli_error
    | pool -> Fun.protect ~finally:(fun () -> Par.shutdown pool) (fun () -> f (Some pool))

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Collect and print engine metrics (conflict-edge sources, lock waits, high-water marks)")

(* {1 Files}

   Every file the CLI reads or writes goes through [on_file]: an I/O error
   is one line naming the file and exit 1, not an uncaught exception. *)

let on_file file f =
  try f file
  with Sys_error e ->
    let e = if String.starts_with ~prefix:file e then e else file ^ ": " ^ e in
    prerr_endline ("ssi_bench: " ^ e);
    exit 1

let read_file file = on_file file In_channel.(fun f -> with_open_bin f input_all)

let write_file file s =
  on_file file (fun f -> Out_channel.with_open_bin f (fun oc -> output_string oc s))

(* Write [b] to [file] and say so on stderr, so stdout stays the same with
   and without the file. *)
let export file b ~what =
  write_file file (Buffer.contents b);
  Printf.eprintf "%s written to %s\n%!" what file

(* One repro file per (text, violation) into [out], created if missing. *)
let write_repros out ~prefix repros =
  match out with
  | Some dir when repros <> [] ->
      on_file dir (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755);
      List.iteri
        (fun i (text, violation) ->
          let file = Filename.concat dir (Printf.sprintf "%s-%03d.repro" prefix i) in
          write_file file text;
          Printf.printf "  wrote %s (%s)\n" file violation)
        repros
  | _ -> ()

(* {1 Figure sweeps} *)

(* Unknown experiment ids fail before anything runs. *)
let check_experiments ids =
  match List.filter (fun id -> Experiments.find_figure id = None) ids with
  | [] -> ()
  | unknown ->
      prerr_endline ("unknown experiment: " ^ String.concat ", " unknown ^ " (see list)");
      exit 1

(* The sweep budget of run and report: --quick's smoke budget, or seeds
   1..N at each --mpl. *)
let budget_term =
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Fast smoke budget") in
  let seeds =
    Arg.(value & opt count 2 & info [ "seeds" ] ~doc:"Number of random seeds per point")
  in
  let duration =
    Arg.(value & opt positive 0.5 & info [ "duration" ] ~doc:"Measured simulated seconds per run")
  in
  let mpls =
    Arg.(
      value
      & opt (list count) [ 1; 2; 5; 10; 20 ]
      & info [ "mpl" ] ~doc:"Comma-separated multiprogramming levels")
  in
  let make quick seeds duration mpls =
    if quick then Experiments.quick_budget
    else
      {
        Experiments.seeds = List.init seeds (fun i -> i + 1);
        duration;
        warmup = duration /. 4.0;
        mpls;
        with_metrics = false;
      }
  in
  Term.(const make $ quick $ seeds $ duration $ mpls)

(* {1 The run point}

   One measured configuration. bench, timeline and attribute read it from
   the same flags; report's profiled run reads the bench- prefixed ones and
   is one seed with no memory budget. *)

type point = {
  p_workload : string;
  p_isolation : Core.Types.isolation;
  p_mpl : int;
  p_duration : float;
  p_warmup : float;
  p_seed : int;  (** base seed *)
  p_seeds : int;  (** seeds p_seed, p_seed + 1, ... *)
  p_memory_budget : int;  (** 0 = unbounded *)
}

(* [--workload] over [Experiments.workloads] ([extra] adds a subcommand's
   own names). *)
let workload_arg ?(extra = []) ~default ~doc () =
  let names = List.map fst Experiments.workloads @ extra in
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) names)) default
    & info [ "workload" ] ~docv:"NAME" ~doc:(doc ^ ": " ^ String.concat " | " names))

(* [seeds_doc] documents --seeds; without it the point is report's. *)
let point_term ?seeds_doc workload =
  let profiled = seeds_doc = None in
  let flag c default name doc =
    let name, doc =
      if profiled then ("bench-" ^ name, doc ^ " (profiled run)") else (name, doc)
    in
    Arg.(value & opt c default & info [ name ] ~doc)
  in
  let seeds, memory_budget =
    match seeds_doc with
    | None -> (Term.const 1, Term.const 0)
    | Some doc ->
        ( Arg.(value & opt count 1 & info [ "seeds" ] ~docv:"N" ~doc),
          Arg.(
            value
            & opt (int_at_least 0 ~msg:"must be 0 (unbounded) or a positive number of entries") 0
            & info [ "memory-budget" ] ~docv:"N"
                ~doc:
                  "Bound SIREAD/retained-transaction memory to $(docv) entries (0 = unbounded): \
                   row SIREADs promote to page granularity and old committed transactions are \
                   folded into a conservative summary under pressure") )
  in
  let make p_workload p_isolation p_mpl p_duration p_warmup p_seed p_seeds p_memory_budget =
    { p_workload; p_isolation; p_mpl; p_duration; p_warmup; p_seed; p_seeds; p_memory_budget }
  in
  Term.(
    const make $ workload
    $ flag isolation Core.Types.Serializable "isolation"
        ("Isolation level: " ^ alts Core.Types.isolation_names)
    $ flag count 10 "mpl" "Concurrent clients"
    $ flag positive 0.5 "duration" "Measured simulated seconds"
    $ flag non_negative 0.1 "warmup" "Warmup simulated seconds"
    $ flag Arg.int 1 "seed" "Random seed"
    $ seeds $ memory_budget)

let seed_list p = List.init p.p_seeds (fun i -> p.p_seed + i)

(* [p]'s registry workload (the name is validated by [workload_arg]); a
   positive memory budget bounds each fresh database. *)
let workload p =
  let tweak c =
    if p.p_memory_budget > 0 then { c with Core.Config.memory_budget = Some p.p_memory_budget }
    else c
  in
  List.assoc p.p_workload Experiments.workloads tweak

let driver_config p seed =
  {
    Driver.default_config with
    Driver.isolation = p.p_isolation;
    mpl = p.p_mpl;
    warmup = p.p_warmup;
    duration = p.p_duration;
    seed;
  }

(* The per-seed runner: each of [p]'s seeds under a fresh sink from
   [sink], on [jobs] domains. Results come back in seed order, so whatever
   is folded over them is byte-identical at any -j. *)
let run_point ~jobs ~sink p =
  let make_db, mix = workload p in
  with_jobs jobs (fun pool ->
      Par.map ?pool
        (fun seed ->
          let obs = sink () in
          (Driver.run_once ~obs ~make_db ~mix (driver_config p seed), obs))
        (seed_list p))

(* Per-run traces would interleave, so --trace takes one seed. *)
let check_trace trace p =
  if trace <> None && p.p_seeds > 1 then begin
    prerr_endline "--trace requires --seeds 1 (a trace captures one run)";
    exit 1
  end

(* {1 Subcommands} *)

let list_cmd =
  let run () =
    print_endline "Available experiments (see DESIGN.md for the per-figure index):";
    (* Building a plan runs nothing: its points are closures. *)
    let width =
      List.fold_left (fun w (id, _) -> max w (String.length id)) 0 Experiments.all_figures
    in
    List.iter
      (fun (id, plan) ->
        Printf.printf "  %-*s %s\n" width id (plan Experiments.quick_budget).Experiments.pl_title)
      Experiments.all_figures
  in
  Cmd.v (Cmd.info "list" ~doc:"List available experiments") Term.(const run $ const ())

let ids_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc:"Experiment ids (see list)")

let run_cmd =
  let run ids budget metrics jobs =
    let ids = if ids = [] then List.map fst Experiments.all_figures else ids in
    check_experiments ids;
    let budget = { budget with Experiments.with_metrics = metrics } in
    with_jobs jobs (fun pool -> Experiments.run_many ?pool ~budget Fmt.stdout ids)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run experiments and print throughput/abort tables")
    Term.(const run $ ids_arg $ budget_term $ metrics_arg $ jobs_arg)

(* One measured benchmark run, with optional Chrome-trace capture. The
   stdout report is byte-identical with or without --trace: tracing records
   events out-of-band and never perturbs the simulation. *)
let bench_cmd =
  let point =
    point_term
      ~seeds_doc:
        "Aggregate over $(docv) seeds (base seed, base+1, ...) instead of one detailed run; \
         pairs with -j to run the seeds in parallel"
      (workload_arg ~default:"smallbank" ~doc:"Workload" ())
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a Chrome-trace JSON array (chrome://tracing, ui.perfetto.dev) to $(docv)")
  in
  let run p trace metrics jobs =
    let budget = p.p_memory_budget in
    let pp_memory m =
      Printf.printf "  memory budget:    %d entries\n" budget;
      Printf.printf "    siread-live hwm:  %d\n" m.Obs.m_siread_live_hwm;
      Printf.printf "    retained hwm:     %d (siread=%d plain=%d)\n" m.Obs.m_retained_hwm
        m.Obs.m_retained_siread_hwm m.Obs.m_retained_record_hwm;
      Printf.printf "    promotions:       %d\n" m.Obs.m_promotions;
      Printf.printf "    summarized txns:  %d\n" m.Obs.m_summarized;
      Printf.printf "    summary hwm:      %d\n" m.Obs.m_summary_hwm;
      Printf.printf "    pressure events:  %d\n" m.Obs.m_budget_pressure
    in
    check_trace trace p;
    if p.p_seeds > 1 then begin
      (* Aggregate mode: several independent seeds, optionally in parallel. *)
      let make_db, mix = workload p in
      let s =
        with_jobs jobs (fun pool ->
            Driver.run_seeds ?pool ~with_metrics:(metrics || budget > 0) ~make_db ~mix
              ~seeds:(seed_list p) (driver_config p p.p_seed))
      in
      Printf.printf "workload=%s isolation=%s mpl=%d seeds=%d..%d window=%.2fs\n" p.p_workload
        (Fuzzrun.level_name p.p_isolation) p.p_mpl p.p_seed
        (p.p_seed + p.p_seeds - 1)
        p.p_duration;
      Printf.printf "  throughput:       %.1f +/- %.1f tps (95%% ci)\n" s.Driver.s_throughput
        s.Driver.s_ci;
      Printf.printf "  deadlocks/commit: %.4f\n" s.Driver.s_deadlock_rate;
      Printf.printf "  conflicts/commit: %.4f\n" s.Driver.s_conflict_rate;
      Printf.printf "  unsafe/commit:    %.4f\n" s.Driver.s_unsafe_rate;
      Printf.printf "  user aborts:      %.4f /commit\n" s.Driver.s_user_abort_rate;
      Printf.printf "  mean response:    %.6fs\n" s.Driver.s_mean_response;
      Printf.printf "  lock table:       %.1f entries at close\n" s.Driver.s_lock_table;
      Option.iter
        (fun m ->
          if budget > 0 then pp_memory m;
          if metrics then Fmt.pr "%a@." Obs.pp_metrics m)
        s.Driver.s_metrics
    end
    else begin
      let sink () = Obs.create ~trace:(trace <> None) ~metrics:(metrics || budget > 0) () in
      let r, obs = List.hd (run_point ~jobs:1 ~sink p) in
      Printf.printf "workload=%s isolation=%s mpl=%d seed=%d window=%.2fs\n" p.p_workload
        (Fuzzrun.level_name p.p_isolation) p.p_mpl p.p_seed p.p_duration;
      Printf.printf "  commits:          %d (%.0f tps)\n" r.Driver.commits r.Driver.throughput;
      Printf.printf "  user aborts:      %d\n" r.Driver.user_aborts;
      Printf.printf "  deadlocks:        %d\n" r.Driver.deadlocks;
      Printf.printf "  fcw conflicts:    %d\n" r.Driver.conflicts;
      Printf.printf "  unsafe aborts:    %d\n" r.Driver.unsafe;
      Printf.printf "  other aborts:     %d\n" r.Driver.other_aborts;
      Printf.printf "  mean response:    %.6fs\n" r.Driver.mean_response;
      Printf.printf "  aborts/commit:    %.4f\n" r.Driver.aborts_per_commit;
      if budget > 0 then pp_memory r.Driver.metrics;
      List.iter
        (fun ps ->
          Printf.printf "  program %-10s commits=%d user_aborts=%d aborts=%d p50=%.2gs p99=%.2gs\n"
            ps.Driver.ps_name ps.Driver.ps_commits ps.Driver.ps_user_aborts ps.Driver.ps_aborts
            (Obs.hist_percentile ps.Driver.ps_latency 0.50)
            (Obs.hist_percentile ps.Driver.ps_latency 0.99))
        r.Driver.programs;
      if metrics then Fmt.pr "%a@." Obs.pp_metrics r.Driver.metrics;
      Option.iter
        (fun file ->
          on_file file (fun f -> Obs.write_trace_file f obs);
          (* stderr, so stdout stays identical with and without --trace *)
          Printf.eprintf "trace: %d events written to %s\n%!" (Obs.event_count obs) file)
        trace
    end
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"One measured benchmark run; optionally capture a Chrome trace and engine metrics")
    Term.(const run $ point $ trace_arg $ metrics_arg $ jobs_arg)

let csv_arg doc = Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let ndjson_arg doc = Arg.(value & opt (some string) None & info [ "ndjson" ] ~docv:"FILE" ~doc)

let window_arg doc =
  Arg.(value & opt positive 0.05 & info [ "window" ] ~docv:"SECONDS" ~doc)

(* Windowed sim-time telemetry: run a workload under a tracing sink, build
   a Timeline (lib/obs/timeline.ml) per seed, merge, and export. Stdout is
   byte-identical at any -j (per-seed worlds are independent; the merge is
   order-insensitive), which the dune rules diff to enforce. *)
let timeline_cmd =
  let point =
    point_term ~seeds_doc:"Merge timelines over $(docv) seeds (base, base+1, ...); pairs with -j"
      (workload_arg ~default:"sibench" ~extra:[ "retention" ]
         ~doc:
           "Workload (retention: bounded-memory loop with a pinned snapshot released at 60% of \
            the horizon; ignores --isolation)"
         ())
  in
  let series_arg =
    Arg.(
      value
      & opt (some (list series)) None
      & info [ "series" ] ~docv:"NAMES"
          ~doc:"Comma-separated series to export (default: all; see the CSV header)")
  in
  let slo_arg =
    Arg.(
      value
      & opt (some slo) None
      & info [ "slo" ] ~docv:"RATE,P95"
          ~doc:
            "Evaluate per-class SLOs: max error aborts per completed transaction and max p95 \
             response (simulated seconds), e.g. 0.2,0.01")
  in
  let annotate_arg =
    Arg.(
      value
      & opt (some series) None
      & info [ "annotate" ] ~docv:"SERIES"
          ~doc:"Detect regime shifts (Page-Hinkley) on $(docv) and print the marks")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write one Chrome-trace file combining lifecycle spans, resource counters and the \
             timeline series as counter tracks (requires --seeds 1)")
  in
  let run p window columns csv ndjson slo annotate trace jobs =
    check_trace trace p;
    let retention = p.p_workload = "retention" in
    let sinks =
      if retention then
        let memory_budget = if p.p_memory_budget > 0 then Some p.p_memory_budget else None in
        with_jobs jobs (fun pool ->
            Par.map ?pool
              (fun seed ->
                fst
                  (Experiments.retention_timeline_run ?memory_budget ~mpl:p.p_mpl
                     ~warmup:p.p_warmup ~duration:p.p_duration ~seed ()))
              (seed_list p))
      else
        let sink () = Obs.create ~trace:true ~provenance:true ~metrics:true () in
        List.map snd (run_point ~jobs ~sink p)
    in
    let horizon = p.p_warmup +. p.p_duration in
    let tl =
      Timeline.merge (List.map (fun o -> Option.get (Timeline.of_obs ~window ~horizon o)) sinks)
    in
    let windows = Array.length tl.Timeline.tl_windows in
    Printf.printf "timeline workload=%s isolation=%s mpl=%d seeds=%d..%d window=%.4fs windows=%d\n"
      p.p_workload
      (if retention then "ssi" else Fuzzrun.level_name p.p_isolation)
      p.p_mpl p.p_seed
      (p.p_seed + p.p_seeds - 1)
      tl.Timeline.tl_width windows;
    let tt = Timeline.totals tl in
    Printf.printf
      "totals: commits=%d aborts=%d user-aborts=%d work-committed=%.6fs work-wasted=%.6fs\n"
      tt.Timeline.tt_commits tt.Timeline.tt_aborts tt.Timeline.tt_user
      tt.Timeline.tt_work_committed tt.Timeline.tt_work_wasted;
    let csv_buf = Buffer.create 4096 in
    Timeline.to_csv ?columns csv_buf tl;
    (match csv with
    | None -> print_string (Buffer.contents csv_buf)
    | Some file -> export file csv_buf ~what:(Printf.sprintf "csv: %d windows" windows));
    Option.iter
      (fun file ->
        let buf = Buffer.create 4096 in
        Timeline.to_ndjson buf tl;
        export file buf ~what:(Printf.sprintf "ndjson: %d windows" windows))
      ndjson;
    Option.iter
      (fun slo ->
        List.iter
          (fun sr ->
            Printf.printf
              "slo class=%s active=%d violations=%d (abort-rate=%d p95=%d) \
               time-in-violation=%.4fs worst-abort-rate=%.4g worst-p95=%.4gs\n"
              sr.Timeline.sr_class sr.Timeline.sr_active sr.Timeline.sr_violations
              sr.Timeline.sr_abort_viol sr.Timeline.sr_p95_viol sr.Timeline.sr_time_in_violation
              sr.Timeline.sr_worst_abort_rate sr.Timeline.sr_worst_p95)
          (Timeline.slo_eval tl slo))
      slo;
    Option.iter
      (fun name ->
        let marks = Timeline.change_points tl ~series:name in
        Printf.printf "regime-shifts series=%s count=%d\n" name (List.length marks);
        List.iter
          (fun mk ->
            Printf.printf "mark series=%s window=%d t0=%.4fs direction=%s\n" mk.Timeline.mk_series
              mk.Timeline.mk_window mk.Timeline.mk_ts
              (match mk.Timeline.mk_direction with `Up -> "up" | `Down -> "down"))
          marks)
      annotate;
    Option.iter
      (fun file ->
        let o = List.hd sinks in
        let extra = Timeline.counter_records ?columns tl in
        on_file file (fun f -> Obs.write_trace_file ~extra f o);
        Printf.eprintf "trace: %d events + timeline counters written to %s\n%!"
          (Obs.event_count o) file)
      trace
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Windowed sim-time telemetry: throughput, abort taxonomy, latency percentiles, \
          retention gauges, wasted work, per-class SLOs and regime-shift marks")
    Term.(
      const run $ point
      $ window_arg "Window width in simulated seconds"
      $ series_arg
      $ csv_arg "Write the CSV to $(docv) instead of stdout"
      $ ndjson_arg "Also write one JSON object per window to $(docv)"
      $ slo_arg $ annotate_arg $ trace_arg $ jobs_arg)

let attribute_cmd =
  let point =
    point_term ~seeds_doc:"Merge sketches over $(docv) seeds (base, base+1, ...); pairs with -j"
      (workload_arg ~default:"sibench" ~doc:"Workload" ())
  in
  let top_arg =
    Arg.(value & opt count 10 & info [ "top" ] ~docv:"K" ~doc:"Rows in the contention table")
  in
  let sketch_arg =
    Arg.(
      value & opt count 256
      & info [ "sketch" ] ~docv:"CAP"
          ~doc:"Space-saving sketch capacity (distinct resources tracked; bounds the error)")
  in
  let flightrec_arg =
    Arg.(
      value & opt size 0
      & info [ "flightrec" ] ~docv:"CAP"
          ~doc:
            "Attach a flight recorder with a $(docv)-event ring to the base seed's run (0 = \
             off); pairs with --trigger and --bundle")
  in
  let trigger_arg =
    Arg.(
      value
      & opt trigger (Result.get_ok (Flightrec.trigger_of_string "abort_rate:0.5"))
      & info [ "trigger" ] ~docv:"SPEC"
          ~doc:"Trigger: abort_rate:X | slo | slo:RATE:P95 | regime | regime:SERIES")
  in
  let bundle_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "bundle" ] ~docv:"FILE"
          ~doc:"Write the post-mortem bundle to $(docv) when the trigger fires")
  in
  let run p window top sketch_cap csv ndjson flightrec trigger bundle jobs =
    let sink () = Obs.create ~trace:true ~provenance:true ~metrics:true ~sketch:sketch_cap () in
    let per_seed = List.map snd (run_point ~jobs ~sink p) in
    (* Merge per-seed sketches and fold certificate blame, both in seed
       order, so the result is byte-identical at any -j. *)
    let sk = Sketch.create ~capacity:sketch_cap in
    List.iter (fun o -> Sketch.merge ~into:sk (Option.get (Obs.sketch o))) per_seed;
    let all_certs = List.concat_map Obs.certs per_seed in
    Attrib.blame sk all_certs;
    Printf.printf
      "attribution workload=%s isolation=%s mpl=%d seeds=%d..%d window=%.4fs sketch-capacity=%d\n"
      p.p_workload (Fuzzrun.level_name p.p_isolation) p.p_mpl p.p_seed
      (p.p_seed + p.p_seeds - 1)
      window sketch_cap;
    let buf = Buffer.create 4096 in
    Attrib.render_summary buf sk;
    Attrib.render_table buf ~top sk;
    print_string (Buffer.contents buf);
    let horizon = p.p_warmup +. p.p_duration in
    let export_rows name render =
      Option.iter (fun file ->
          let rows = Attrib.blame_windows ~window ~horizon all_certs in
          let b = Buffer.create 4096 in
          render b rows;
          export file b ~what:(Printf.sprintf "%s: %d blame rows" name (List.length rows)))
    in
    export_rows "csv" Attrib.windows_csv csv;
    export_rows "ndjson" Attrib.windows_ndjson ndjson;
    if flightrec > 0 then begin
      let o = List.hd per_seed in
      let certs = Obs.certs o and events = Obs.events o in
      let tl = Timeline.of_events ~window ~horizon events certs in
      let recorder, incident = Flightrec.run ~capacity:flightrec ~trigger tl events in
      match incident with
      | None ->
          Printf.printf "flight-recorder: no incident (trigger %s; ring %d/%d, %d dropped)\n"
            (Flightrec.trigger_to_string trigger)
            (Flightrec.length recorder) (Flightrec.capacity recorder) (Flightrec.drops recorder)
      | Some inc -> (
          Printf.printf "flight-recorder: incident window=%d t=%.4fs %s\n" inc.Flightrec.in_window
            inc.Flightrec.in_ts inc.Flightrec.in_detail;
          let b = Buffer.create 4096 in
          Flightrec.write_bundle b ~recorder ~incident:inc ~sk ~top ~certs;
          match bundle with
          | Some file -> export file b ~what:(Printf.sprintf "bundle: %d bytes" (Buffer.length b))
          | None -> print_string (Buffer.contents b))
    end
  in
  Cmd.v
    (Cmd.info "attribute"
       ~doc:
         "Root-cause attribution: per-resource contention profile (space-saving sketch over \
          conflict edges, lock waits, SIREAD grants and FCW blocks, with abort blame split by \
          certificate edge role) plus an anomaly-triggered flight recorder")
    Term.(
      const run $ point
      $ window_arg "Window width for the per-window blame series, simulated seconds"
      $ top_arg $ sketch_arg
      $ csv_arg "Write the per-window blame series as CSV to $(docv)"
      $ ndjson_arg "Write the per-window blame series as one JSON object per line to $(docv)"
      $ flightrec_arg $ trigger_arg $ bundle_arg $ jobs_arg)

let sdg_cmd =
  let name_arg =
    Arg.(
      value
      & pos 0 string "smallbank"
      & info [] ~docv:"NAME"
          ~doc:
            "Graph: smallbank | smallbank-materialize-wt | smallbank-promote-wt | \
             smallbank-materialize-bw | smallbank-promote-bw | tpcc | tpccpp")
  in
  let run name =
    let g =
      match name with
      | "smallbank" -> Some (Catalog.smallbank ())
      | "smallbank-materialize-wt" -> Some (Catalog.smallbank_materialize_wt ())
      | "smallbank-promote-wt" -> Some (Catalog.smallbank_promote_wt ())
      | "smallbank-materialize-bw" -> Some (Catalog.smallbank_materialize_bw ())
      | "smallbank-promote-bw" -> Some (Catalog.smallbank_promote_bw ())
      | "tpcc" -> Some (Catalog.tpcc ())
      | "tpccpp" -> Some (Catalog.tpccpp ())
      | _ -> None
    in
    match g with
    | None ->
        prerr_endline ("unknown graph: " ^ name);
        exit 1
    | Some g ->
        Fmt.pr "Static dependency graph '%s' (rw! = vulnerable anti-dependency):@.%a@." name
          Sdg.pp g;
        let ds = Sdg.dangerous_structures g in
        if ds = [] then
          Fmt.pr "No dangerous structure: every SI execution is serializable (Theorem 3).@."
        else begin
          Fmt.pr "DANGEROUS: pivots %a@." Fmt.(list ~sep:comma string) (Sdg.pivots g);
          List.iter
            (fun d ->
              Fmt.pr "  %s -rw!-> %s -rw!-> %s@." d.Sdg.d_in d.Sdg.d_pivot d.Sdg.d_out)
            ds
        end
  in
  Cmd.v
    (Cmd.info "sdg" ~doc:"Analyse a static dependency graph for dangerous structures")
    Term.(const run $ name_arg)

(* [explore]: the DPOR schedule explorer. --validate also runs the full
   enumeration of §4.7 and prints its counts from the same pass that
   checks the outcome-digest set. Output is sorted and deterministic,
   byte-identical at any -j (bin/dune diffs -j1 vs -j4). *)
let explore_cmd =
  let spec_arg =
    Arg.(
      value
      & opt spec (List.hd specs)
      & info [ "spec" ] ~docv:"NAME" ~doc:("Transaction set: " ^ alts specs))
  in
  let iso_arg =
    Arg.(
      value
      & opt isolation Core.Types.Serializable
      & info [ "isolation" ] ~docv:"LEVEL" ~doc:(alts Core.Types.isolation_names))
  in
  let matrix_arg =
    Arg.(
      value
      & opt (some matrix) None
      & info [ "matrix" ] ~docv:"NAME"
          ~doc:
            "Explore once per configuration point of the named matrix (default | full) \
             instead of the single test configuration")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print reduction metrics (backtracks, sleep hits, duplicate traces)")
  in
  let validate_arg =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Also run the full enumeration, print its counts (all-committed, \
             non-serializable, unsafe and other aborts) and fail unless its outcome-digest set \
             matches (multinomial cost: small specs only)")
  in
  let run (spec_name, spec) isolation matrix stats validate jobs =
    let points = match matrix with None -> [ None ] | Some (_, m) -> List.map Option.some m in
    let failed = ref false in
    with_jobs jobs (fun pool ->
        List.iter
          (fun point ->
            let config = Option.map Fuzzcase.config_of_point point in
            let label = match point with None -> "test" | Some p -> Fuzzcase.point_to_string p in
            let digests, st = Explore.explore ?config ?pool ~isolation spec in
            Printf.printf "spec=%s isolation=%s config=%s\n" spec_name
              (Fuzzrun.level_name isolation) label;
            Printf.printf "  schedules executed: %d of %d (%.1fx reduction)\n"
              st.Explore.executed st.Explore.bound
              (float_of_int st.Explore.bound /. float_of_int (max 1 st.Explore.executed));
            Printf.printf "  distinct outcomes:  %d\n" (List.length digests);
            if stats then begin
              Printf.printf "  backtracks:         %d\n" st.Explore.backtracks;
              Printf.printf "  sleep hits:         %d\n" st.Explore.sleep_hits;
              Printf.printf "  sleep blocked:      %d\n" st.Explore.sleep_blocked;
              Printf.printf "  duplicate traces:   %d\n" st.Explore.duplicates
            end;
            List.iter (fun d -> Printf.printf "  outcome %s\n" d) digests;
            if validate then begin
              let full, s = Explore.sweep_digests ?config ~isolation spec in
              Printf.printf
                "  interleavings:      %d\n\
                \  all-committed:      %d\n\
                \  non-serializable:   %d\n\
                \  unsafe aborts:      %d\n\
                \  other aborts:       %d\n"
                s.Interleave.total s.Interleave.all_committed s.Interleave.non_serializable
                s.Interleave.unsafe_aborts s.Interleave.other_aborts;
              if full = digests then
                Printf.printf "  validate: OK (full enumeration agrees, %d outcomes)\n"
                  (List.length full)
              else begin
                Printf.printf "  validate: MISMATCH (dpor %d outcomes, full %d)\n"
                  (List.length digests) (List.length full);
                failed := true
              end
            end)
          points);
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "DPOR schedule explorer: exhaustively check a transaction set's outcomes while \
          executing only race-distinct interleavings (§4.7); --validate cross-checks them \
          against the full enumeration")
    Term.(const run $ spec_arg $ iso_arg $ matrix_arg $ stats_arg $ validate_arg $ jobs_arg)

let fuzz_cmd =
  let cases_arg =
    Arg.(value & opt count 1000 & info [ "cases" ] ~doc:"Number of generated cases")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Campaign seed") in
  let matrix_arg =
    Arg.(
      value
      & opt matrix ("full", Fuzzcase.matrix_full)
      & info [ "matrix" ] ~docv:"NAME"
          ~doc:"Configuration matrix: full (all knob combinations) | default (paper profiles)")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR" ~doc:"Write a repro file per oracle violation into $(docv)")
  in
  let shrink_arg =
    Arg.(
      value & flag
      & info [ "shrink-anomalies" ]
          ~doc:"Also minimise committed SI anomalies and print one repro per class")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay a repro file and verify the recorded history digests; ignores other flags")
  in
  let demo_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "demo-repro" ] ~docv:"FILE"
          ~doc:
            "Write the shrunk write-skew SI anomaly found by the campaign to $(docv) (implies \
             --shrink-anomalies)")
  in
  let crash_arg =
    Arg.(
      value & flag
      & info [ "crash" ]
          ~doc:
            "Crash-recovery campaign: per case, sweep deterministic crash points (append / \
             mid-flush torn tail / commit window), recover from the WAL's durable prefix and \
             verify the committed-prefix, horizon and continuation-serializability oracles")
  in
  let print_case c = print_string (Fuzzcase.to_string c) in
  (* A crash repro carries its fault plan as a '# crash <plan>' comment;
     route those to the crash-recovery replayer. *)
  let do_crash_replay file content =
    match Fuzzrecover.replay_string content with
    | Error e ->
        Printf.eprintf "replay %s: %s\n" file e;
        exit 1
    | Ok o -> (
        Printf.printf "crash plan %s\n" (Wal.plan_to_string o.Fuzzrecover.o_plan);
        (match o.Fuzzrecover.o_report with
        | Some rep ->
            Printf.printf
              "recovered: %d records, %d committed, %d in-doubt, %d aborted, %d torn bytes, \
               horizon %d\n"
              rep.Core.Db.r_replayed rep.Core.Db.r_committed rep.Core.Db.r_in_doubt
              rep.Core.Db.r_aborted rep.Core.Db.r_torn_bytes rep.Core.Db.r_last_commit_ts
        | None -> ());
        match o.Fuzzrecover.o_violation with
        | None -> print_endline "replay OK: recovery matches the committed prefix"
        | Some v ->
            Printf.printf "oracle violation: %s\n" (Fuzzrecover.violation_to_string v);
            print_endline "replay FAILED";
            exit 1)
  in
  let do_replay file content =
    match Fuzz.replay_string content with
    | Error e ->
        Printf.eprintf "replay %s: %s\n" file e;
        exit 1
    | Ok r ->
        List.iter
          (fun rc ->
            Printf.printf "%-4s expected=%s got=%s %s\n" rc.Fuzz.rc_level rc.Fuzz.rc_expected
              rc.Fuzz.rc_got
              (if rc.Fuzz.rc_ok then "OK" else "MISMATCH"))
          r.Fuzz.rp_checks;
        (match r.Fuzz.rp_violation with
        | Some v -> Printf.printf "oracle violation: %s\n" (Fuzzrun.violation_to_string v)
        | None -> ());
        if not r.Fuzz.rp_ok then
          List.iter
            (fun lr ->
              Printf.printf "-- %s history --\n%s\n"
                (Fuzzrun.level_name lr.Fuzzrun.l_isolation)
                lr.Fuzzrun.l_history_text)
            r.Fuzz.rp_reports;
        if r.Fuzz.rp_ok then print_endline "replay OK: histories identical at every level"
        else begin
          print_endline "replay FAILED";
          exit 1
        end
  in
  let campaign cases seed (matrix_name, matrix) out shrink demo jobs =
    let on_progress p =
      Printf.eprintf "  %d/%d cases (si anomalies %d, unsafe %d)\n%!" p.Fuzz.pr_done
        p.Fuzz.pr_total p.Fuzz.pr_anomalies p.Fuzz.pr_unsafe
    in
    let shrink_anomalies = shrink || demo <> None in
    let s =
      with_jobs jobs (fun pool ->
          Fuzz.run_campaign ?pool ~shrink_anomalies ~on_progress ~seed ~cases ~matrix ())
    in
    Printf.printf
      "fuzz seed=%d matrix=%s (%d points): %d cases\n\
      \  si anomalies:     %d\n\
      \  ssi unsafe:       %d\n\
      \  false positives:  %d (%.1f%% of unsafe)\n\
      \  oracle failures:  %d\n"
      seed matrix_name (List.length matrix) s.Fuzz.s_cases s.Fuzz.s_si_anomalies
      s.Fuzz.s_ssi_unsafe s.Fuzz.s_false_positives
      (if s.Fuzz.s_ssi_unsafe = 0 then 0.0
       else 100.0 *. float_of_int s.Fuzz.s_false_positives /. float_of_int s.Fuzz.s_ssi_unsafe)
      (List.length s.Fuzz.s_failures);
    write_repros out ~prefix:"fuzz"
      (List.map
         (fun f ->
           let v = Fuzzrun.violation_to_string f.Fuzz.f_violation in
           (Fuzz.repro_string ~comment:[ v ] f.Fuzz.f_shrunk, v))
         s.Fuzz.s_failures);
    if shrink_anomalies then
      List.iter
        (fun (cls, c) ->
          Printf.printf "\nshrunk SI anomaly [%s]:\n" cls;
          print_case c)
        s.Fuzz.s_anomalies;
    (match demo with
    | Some file -> (
        match
          match List.assoc_opt "write-skew" s.Fuzz.s_anomalies with
          | Some c -> Some ("write-skew", c)
          | None -> ( match s.Fuzz.s_anomalies with a :: _ -> Some a | [] -> None)
        with
        | Some (cls, c) ->
            write_file file (Fuzz.repro_string ~comment:[ "shrunk SI anomaly: " ^ cls ] c);
            Printf.printf "\ndemo repro [%s] written to %s\n" cls file
        | None ->
            prerr_endline "no SI anomaly found to write as demo repro";
            exit 1)
    | None -> ());
    List.iter
      (fun f ->
        Printf.printf "\nVIOLATION: %s\nshrunk case:\n"
          (Fuzzrun.violation_to_string f.Fuzz.f_violation);
        print_case f.Fuzz.f_shrunk)
      s.Fuzz.s_failures;
    if s.Fuzz.s_failures <> [] then exit 1
  in
  let crash_campaign cases seed (matrix_name, matrix) out jobs =
    let on_progress p =
      Printf.eprintf "  %d/%d cases (%d crash runs, %d failures)\n%!" p.Fuzzrecover.cp_done
        p.Fuzzrecover.cp_total p.Fuzzrecover.cp_runs p.Fuzzrecover.cp_failures
    in
    let s =
      with_jobs jobs (fun pool ->
          Fuzzrecover.run_campaign ?pool ~on_progress ~seed ~cases ~matrix ())
    in
    Printf.printf
      "fuzz --crash seed=%d matrix=%s: %d cases, %d crash runs\n\
      \  crashes fired:    %d\n\
      \  torn tails:       %d\n\
      \  records replayed: %d\n\
      \  committed txns:   %d\n\
      \  in-doubt dropped: %d\n\
      \  logged aborts:    %d\n\
      \  oracle failures:  %d\n"
      seed matrix_name s.Fuzzrecover.cs_cases s.Fuzzrecover.cs_runs s.Fuzzrecover.cs_crashes
      s.Fuzzrecover.cs_torn s.Fuzzrecover.cs_replayed s.Fuzzrecover.cs_committed
      s.Fuzzrecover.cs_in_doubt s.Fuzzrecover.cs_aborted
      (List.length s.Fuzzrecover.cs_failures);
    write_repros out ~prefix:"crash"
      (List.map
         (fun f ->
           ( Fuzzrecover.repro_string f,
             Fuzzrecover.violation_to_string f.Fuzzrecover.cf_violation ))
         s.Fuzzrecover.cs_failures);
    List.iter
      (fun f ->
        Printf.printf "\nVIOLATION at case %d, plan %s: %s\ncase:\n" f.Fuzzrecover.cf_index
          (Wal.plan_to_string f.Fuzzrecover.cf_plan)
          (Fuzzrecover.violation_to_string f.Fuzzrecover.cf_violation);
        print_case f.Fuzzrecover.cf_case)
      s.Fuzzrecover.cs_failures;
    if s.Fuzzrecover.cs_failures <> [] then exit 1
  in
  let run cases seed matrix out shrink replay demo crash jobs =
    match replay with
    | Some file ->
        let content = read_file file in
        let is_crash_repro =
          List.exists
            (fun l -> String.starts_with ~prefix:"# crash " (String.trim l))
            (String.split_on_char '\n' content)
        in
        if is_crash_repro then do_crash_replay file content else do_replay file content
    | None ->
        if crash then crash_campaign cases seed matrix out jobs
        else campaign cases seed matrix out shrink demo jobs
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential history fuzzing: random transaction programs executed under SSI/SI/S2PL \
          and judged by the MVSG oracle; --crash sweeps WAL crash points against the recovery \
          oracle instead")
    Term.(
      const run $ cases_arg $ seed_arg $ matrix_arg $ out_arg $ shrink_arg $ replay_arg
      $ demo_arg $ crash_arg $ jobs_arg)

(* [recover]: one deterministic crash+recover+verify roundtrip, printed in
   full — the quickstart (and CI smoke) companion to [fuzz --crash]. *)
let recover_cmd =
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Case-selection seed") in
  let plan_arg =
    Arg.(
      value
      & opt (some plan) None
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Fault plan: append:N | flush:F:K:T | window:N (default: crash halfway through \
             the case's WAL appends)")
  in
  let run seed plan =
    let d = Fuzzrecover.demo ?plan ~seed () in
    Printf.printf "case (seed %d):\n%s" seed (Fuzzcase.to_string d.Fuzzrecover.d_case);
    Printf.printf "crash plan: %s\n" (Wal.plan_to_string d.Fuzzrecover.d_plan);
    let o = d.Fuzzrecover.d_outcome in
    (match o.Fuzzrecover.o_report with
    | Some rep ->
        Printf.printf
          "recovery: replayed %d records -> %d committed, %d in-doubt rolled back, %d logged \
           aborts, %d torn bytes discarded\n\
           restored horizon: last_commit_ts=%d, retention watermark=%d\n"
          rep.Core.Db.r_replayed rep.Core.Db.r_committed rep.Core.Db.r_in_doubt
          rep.Core.Db.r_aborted rep.Core.Db.r_torn_bytes rep.Core.Db.r_last_commit_ts
          rep.Core.Db.r_watermark
    | None -> ());
    match o.Fuzzrecover.o_violation with
    | None -> print_endline "verify OK: recovered store equals the committed prefix"
    | Some v ->
        Printf.printf "verify FAILED: %s\n" (Fuzzrecover.violation_to_string v);
        exit 1
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Crash one generated workload at a deterministic WAL fault point, recover from the \
          durable log prefix and verify the recovery oracle")
    Term.(const run $ seed_arg $ plan_arg)

(* [report]: one self-contained Markdown document from three ingredient
   sets — figure sweeps, a profiled benchmark run (with ASCII utilisation
   sparklines on simulated time) and the abort-provenance harvest of a
   fixed-seed fuzz campaign. Everything derives from simulated time and
   fixed seeds, so the same invocation is byte-identical on any host and
   at any -j; bin/dune diffs -j1 against -j4 to enforce it. *)
let report_cmd =
  let figures_arg =
    Arg.(
      value
      & opt (list string) [ "fig6.7" ]
      & info [ "figures" ] ~docv:"IDS"
          ~doc:"Comma-separated experiment ids to include as figure tables (see list)")
  in
  let point =
    point_term (workload_arg ~default:"sibench" ~doc:"Workload of the profiled run" ())
  in
  let fcases_arg =
    Arg.(
      value & opt size 200
      & info [ "fuzz-cases" ] ~doc:"Cases in the provenance-harvest fuzz campaign")
  in
  let fseed_arg =
    Arg.(value & opt int 1 & info [ "fuzz-seed" ] ~doc:"Seed of the fuzz campaign")
  in
  let matrix_arg =
    Arg.(
      value
      & opt matrix ("default", Fuzzcase.matrix_default)
      & info [ "matrix" ] ~docv:"NAME" ~doc:"Fuzz configuration matrix: full | default")
  in
  let topk_arg =
    Arg.(
      value & opt size 5
      & info [ "topk" ] ~doc:"Distinct certificate shapes detailed in the provenance section")
  in
  let bins_arg =
    Arg.(
      value & opt count 64 & info [ "bins" ] ~doc:"Width of the utilisation sparklines, in bins")
  in
  let out_arg =
    Arg.(
      value & opt string "-"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the report to $(docv) (- for stdout)")
  in
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:
            "Also write one abort certificate's Graphviz snapshot (the dependency graph at \
             abort time) to $(docv); prefers an SSI pivot certificate, synthesises the \
             write-skew demo if the campaign emitted none")
  in
  let check_dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "check-dot" ] ~docv:"FILE"
          ~doc:
            "Validate $(docv) with the in-repo DOT parser and exit (used by the CI smoke \
             rule); ignores every other flag")
  in
  (* The write-skew demo schedule: both transactions read both keys on
     overlapping snapshots, then write disjoint keys. Under SSI the final
     write completes a two-transaction rw cycle, so the engine aborts the
     writer with a pivot certificate. *)
  let demo_dot () =
    let obs = Obs.create ~trace:false ~metrics:false ~provenance:true () in
    let _ =
      Interleave.run_interleaving ~obs ~isolation:Core.Types.Serializable
        Interleave.write_skew_spec [ 0; 0; 1; 1; 0; 1 ]
    in
    match Obs.certs obs with
    | c :: _ -> c.Obs.c_dot
    | [] ->
        prerr_endline "internal error: write-skew demo emitted no certificate";
        exit 1
  in
  let run figures budget p fcases fseed (matrix_name, matrix) topk bins out dot check_dot jobs =
    match check_dot with
    | Some file -> (
        match Obs.dot_validate (read_file file) with
        | Ok () -> Printf.printf "%s: DOT OK\n" file
        | Error e ->
            Printf.eprintf "%s: invalid DOT: %s\n" file e;
            exit 1)
    | None ->
        check_experiments figures;
        let plans = List.map (fun id -> Option.get (Experiments.find_figure id) budget) figures in
        let figs = with_jobs jobs (fun pool -> Experiments.eval_plans ?pool plans) in
        (* Profiled run: trace on (lifecycle spans + resource samples),
           metrics on, plus the contention sketch and certificates feeding
           the report's hot-resources and incidents sections. Tracing is
           out-of-band, so the measured numbers are identical to an
           untraced run. *)
        let sink () = Obs.create ~trace:true ~provenance:true ~sketch:256 () in
        let r, obs = List.hd (run_point ~jobs:1 ~sink p) in
        let iso = Fuzzrun.level_name p.p_isolation in
        let bench =
          {
            Report.b_label =
              Printf.sprintf "%s %s mpl=%d seed=%d window=%.2fs" p.p_workload iso p.p_mpl p.p_seed
                p.p_duration;
            b_result = r;
            b_obs = obs;
            b_t0 = p.p_warmup;
            b_t1 = p.p_warmup +. p.p_duration;
          }
        in
        let certs = Fuzzcert.collect_certs ~seed:fseed ~cases:fcases ~matrix () in
        let campaign =
          [
            Printf.sprintf
              "Harvest of a fixed-seed fuzz campaign: seed=%d, %d cases over the `%s` matrix \
               (%d points), run at SSI with provenance enabled. Each shape below carries one \
               example certificate and the codec line that replays it."
              fseed fcases matrix_name (List.length matrix);
          ]
        in
        let preamble =
          [
            "Everything below derives from simulated time and fixed seeds: re-running the";
            "same `ssi_bench report` invocation reproduces this file byte for byte, on any";
            "host and at any `-j`.";
            "";
            Printf.sprintf "- figure sweeps: %s (seeds=%d, window=%.2fs, mpl=%s)"
              (match figures with [] -> "none" | l -> String.concat ", " l)
              (List.length budget.Experiments.seeds)
              budget.Experiments.duration
              (String.concat "," (List.map string_of_int budget.Experiments.mpls));
            Printf.sprintf "- profiled run: %s at %s, mpl=%d, seed=%d, %.2fs after %.2fs warmup"
              p.p_workload iso p.p_mpl p.p_seed p.p_duration p.p_warmup;
            Printf.sprintf "- abort provenance: %d fuzz cases, seed=%d, matrix=%s" fcases fseed
              matrix_name;
          ]
        in
        let doc =
          Report.build ~bins ~topk ~title:"SSI reproduction — experiment report" ~preamble
            ~figures:figs ~bench:(Some bench) ~campaign ~certs ()
        in
        (match out with
        | "-" -> print_string doc
        | file ->
            write_file file doc;
            Printf.eprintf "report: %d bytes written to %s\n%!" (String.length doc) file);
        Option.iter
          (fun file ->
            let d =
              match
                List.find_opt
                  (fun ((c : Obs.certificate), _) ->
                    match c.Obs.c_cert with Obs.Ssi_pivot _ -> true | _ -> false)
                  certs
              with
              | Some (c, _) -> c.Obs.c_dot
              | None -> ( match certs with (c, _) :: _ -> c.Obs.c_dot | [] -> demo_dot ())
            in
            (match Obs.dot_validate d with
            | Ok () -> ()
            | Error e ->
                Printf.eprintf "internal error: emitted invalid DOT: %s\n" e;
                exit 1);
            write_file file d;
            Printf.eprintf "dot: %d bytes written to %s\n%!" (String.length d) file)
          dot
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render one self-contained Markdown report: figure tables, a profiled run with \
          utilisation sparklines, and top-k abort certificates from a fuzz campaign")
    Term.(
      const run $ figures_arg $ budget_term $ point $ fcases_arg $ fseed_arg $ matrix_arg
      $ topk_arg $ bins_arg $ out_arg $ dot_arg $ check_dot_arg $ jobs_arg)

let () =
  let info =
    Cmd.info "ssi_bench" ~version:"1.0"
      ~doc:"Reproduction toolkit for 'Serializable Isolation for Snapshot Databases'"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            bench_cmd;
            timeline_cmd;
            attribute_cmd;
            report_cmd;
            sdg_cmd;
            explore_cmd;
            fuzz_cmd;
            recover_cmd;
            Perf_cmd.cmd;
          ]))
