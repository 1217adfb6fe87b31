(* Command-line front-end for the reproduction:

   - [list]         enumerate the experiments (paper figures + ablations)
   - [run IDS..]    run experiments and print their tables
   - [sdg NAME]     static dependency graph analysis (§2.6/§2.8)
   - [interleave]   exhaustive interleaving sweeps (§4.7)
   - [explore]      DPOR schedule exploration (same coverage, far fewer runs)
   - [fuzz]         differential history fuzzing with the MVSG oracle

   Examples:
     ssi_bench run fig6.1 fig6.8 --seeds 3 --duration 1.0
     ssi_bench sdg smallbank
     ssi_bench interleave --spec write-skew --isolation si
     ssi_bench explore --spec write-skew-4 --isolation ssi --stats -j 4
     ssi_bench fuzz --cases 10000 --seed 1 --matrix full --shrink-anomalies
     ssi_bench fuzz --replay fuzz-001.repro *)

open Cmdliner

let list_cmd =
  let run () =
    print_endline "Available experiments (see DESIGN.md for the per-figure index):";
    List.iter
      (fun (id, title) -> Printf.printf "  %-18s %s\n" id title)
      Experiments.titles
  in
  Cmd.v (Cmd.info "list" ~doc:"List available experiments") Term.(const run $ const ())

let ids_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc:"Experiment ids (see list)")

let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"Fast smoke budget")

(* Shared [-j N]: run independent jobs (experiment points, per-seed runs,
   fuzz shards) on a domain pool. The output contract is that results are
   byte-identical for every N; the dune rules in bin/dune diff -j 1 against
   -j N runs to enforce it. *)
let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Run independent jobs on $(docv) domains (output is identical for any $(docv))")

let with_jobs j f =
  if j <= 1 then f None else Par.with_pool ~j (fun p -> f (Some p))

(* Integer options with a lower bound: a value below [min] is a
   command-line error naming the flag (exit 124), not a silently clamped,
   empty or unbounded run. *)
let int_at_least min ~msg =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | Some _ -> Error (`Msg msg)
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Client and seed counts. *)
let count = int_at_least 1 ~msg:"must be at least 1"

(* Shared [--memory-budget N] of bench, timeline and attribute: 0 (the
   default) means unbounded. *)
let memory_budget_arg =
  Arg.(
    value
    & opt (int_at_least 0 ~msg:"must be 0 (unbounded) or a positive number of entries") 0
    & info [ "memory-budget" ] ~docv:"N"
        ~doc:
          "Bound SIREAD/retained-transaction memory to $(docv) entries (0 = unbounded): row \
           SIREADs promote to page granularity and old committed transactions are folded into \
           a conservative summary under pressure")

let with_memory_budget n c = if n > 0 then { c with Core.Config.memory_budget = Some n } else c

let read_file f =
  let ic = open_in_bin f in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file f s =
  let oc = open_out_bin f in
  output_string oc s;
  close_out oc

(* Shared by [bench] and [report]. *)
let isolation_of_string = function
  | "si" -> Some Core.Types.Snapshot
  | "ssi" -> Some Core.Types.Serializable
  | "s2pl" -> Some Core.Types.S2pl
  | "rc" -> Some Core.Types.Read_committed
  | _ -> None

(* Shared [--workload] of bench, timeline, attribute and report: one enum
   over [Experiments.workloads] ([extra] adds a subcommand's own names). *)
let workload_arg ?(extra = []) ~default ~doc () =
  let names = List.map fst Experiments.workloads @ extra in
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) names)) default
    & info [ "workload" ] ~docv:"NAME" ~doc:(doc ^ ": " ^ String.concat " | " names))

(* A registry workload by name (already validated by [workload_arg]). *)
let workload ?(memory_budget = 0) name =
  List.assoc name Experiments.workloads (with_memory_budget memory_budget)

(* Unknown experiment ids fail before anything runs. *)
let check_experiments ids =
  match List.filter (fun id -> Experiments.find_figure id = None) ids with
  | [] -> ()
  | unknown ->
      prerr_endline ("unknown experiment: " ^ String.concat ", " unknown ^ " (see list)");
      exit 1

let seeds_arg =
  Arg.(value & opt count 2 & info [ "seeds" ] ~doc:"Number of random seeds per point")

let duration_arg =
  Arg.(value & opt float 0.5 & info [ "duration" ] ~doc:"Measured simulated seconds per run")

let mpl_arg =
  Arg.(
    value
    & opt (list count) [ 1; 2; 5; 10; 20 ]
    & info [ "mpl" ] ~doc:"Comma-separated multiprogramming levels")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Collect and print engine metrics (conflict-edge sources, lock waits, high-water marks)")

let run_cmd =
  let run ids quick seeds duration mpls metrics jobs =
    let budget =
      if quick then { Experiments.quick_budget with Experiments.with_metrics = metrics }
      else
        {
          Experiments.seeds = List.init seeds (fun i -> i + 1);
          duration;
          warmup = duration /. 4.0;
          mpls;
          with_metrics = metrics;
        }
    in
    let ids = if ids = [] then List.map fst Experiments.all_figures else ids in
    check_experiments ids;
    with_jobs jobs (fun pool -> Experiments.run_many ?pool ~budget Fmt.stdout ids)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run experiments and print throughput/abort tables")
    Term.(
      const run $ ids_arg $ quick_arg $ seeds_arg $ duration_arg $ mpl_arg $ metrics_arg
      $ jobs_arg)

(* One measured benchmark run, with optional Chrome-trace capture. The
   stdout report is byte-identical with or without --trace: tracing records
   events out-of-band and never perturbs the simulation. *)
let bench_cmd =
  let workload_arg = workload_arg ~default:"smallbank" ~doc:"Workload" () in
  let mpl_arg = Arg.(value & opt count 10 & info [ "mpl" ] ~doc:"Number of concurrent clients") in
  let duration_arg =
    Arg.(value & opt float 0.5 & info [ "duration" ] ~doc:"Measured simulated seconds")
  in
  let warmup_arg =
    Arg.(value & opt float 0.1 & info [ "warmup" ] ~doc:"Warmup simulated seconds")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed") in
  let iso_arg =
    Arg.(value & opt string "ssi" & info [ "isolation" ] ~doc:"si | ssi | s2pl | rc")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a Chrome-trace JSON array (chrome://tracing, ui.perfetto.dev) to $(docv)")
  in
  let bench_seeds_arg =
    Arg.(
      value & opt count 1
      & info [ "seeds" ] ~docv:"N"
          ~doc:
            "Aggregate over $(docv) seeds (base seed, base+1, ...) instead of one detailed run; \
             pairs with -j to run the seeds in parallel")
  in
  let run name mpl duration warmup seed iso trace metrics nseeds mem_budget jobs =
    let isolation =
      match isolation_of_string iso with
      | Some i -> i
      | None ->
          prerr_endline ("unknown isolation: " ^ iso);
          exit 1
    in
    let make_db, mix = workload ~memory_budget:mem_budget name in
    let cfg =
      { Driver.default_config with Driver.isolation; mpl; warmup; duration; seed }
    in
    let pp_memory m =
      Printf.printf "  memory budget:    %d entries\n" mem_budget;
      Printf.printf "    siread-live hwm:  %d\n" m.Obs.m_siread_live_hwm;
      Printf.printf "    retained hwm:     %d (siread=%d plain=%d)\n" m.Obs.m_retained_hwm
        m.Obs.m_retained_siread_hwm m.Obs.m_retained_record_hwm;
      Printf.printf "    promotions:       %d\n" m.Obs.m_promotions;
      Printf.printf "    summarized txns:  %d\n" m.Obs.m_summarized;
      Printf.printf "    summary hwm:      %d\n" m.Obs.m_summary_hwm;
      Printf.printf "    pressure events:  %d\n" m.Obs.m_budget_pressure
    in
    if nseeds > 1 then begin
      (* Aggregate mode: several independent seeds, optionally in parallel.
         Per-run traces would interleave, so --trace is single-run only. *)
      if trace <> None then begin
        prerr_endline "--trace requires --seeds 1 (a trace captures one run)";
        exit 1
      end;
      let seeds = List.init nseeds (fun i -> seed + i) in
      let s =
        with_jobs jobs (fun pool ->
            Driver.run_seeds ?pool
              ~with_metrics:(metrics || mem_budget > 0)
              ~make_db ~mix ~seeds cfg)
      in
      Printf.printf "workload=%s isolation=%s mpl=%d seeds=%d..%d window=%.2fs\n" name iso mpl
        seed (seed + nseeds - 1) duration;
      Printf.printf "  throughput:       %.1f +/- %.1f tps (95%% ci)\n" s.Driver.s_throughput
        s.Driver.s_ci;
      Printf.printf "  deadlocks/commit: %.4f\n" s.Driver.s_deadlock_rate;
      Printf.printf "  conflicts/commit: %.4f\n" s.Driver.s_conflict_rate;
      Printf.printf "  unsafe/commit:    %.4f\n" s.Driver.s_unsafe_rate;
      Printf.printf "  user aborts:      %.4f /commit\n" s.Driver.s_user_abort_rate;
      Printf.printf "  mean response:    %.6fs\n" s.Driver.s_mean_response;
      Printf.printf "  lock table:       %.1f entries at close\n" s.Driver.s_lock_table;
      (match s.Driver.s_metrics with
      | Some m when mem_budget > 0 -> pp_memory m
      | _ -> ());
      match s.Driver.s_metrics with
      | Some m when metrics -> Fmt.pr "%a@." Obs.pp_metrics m
      | _ -> ()
    end
    else begin
    let obs =
      if trace <> None || metrics || mem_budget > 0 then
        Some (Obs.create ~trace:(trace <> None) ())
      else None
    in
    let r = Driver.run_once ?obs ~make_db ~mix cfg in
    Printf.printf "workload=%s isolation=%s mpl=%d seed=%d window=%.2fs\n" name iso mpl seed
      duration;
    Printf.printf "  commits:          %d (%.0f tps)\n" r.Driver.commits r.Driver.throughput;
    Printf.printf "  user aborts:      %d\n" r.Driver.user_aborts;
    Printf.printf "  deadlocks:        %d\n" r.Driver.deadlocks;
    Printf.printf "  fcw conflicts:    %d\n" r.Driver.conflicts;
    Printf.printf "  unsafe aborts:    %d\n" r.Driver.unsafe;
    Printf.printf "  other aborts:     %d\n" r.Driver.other_aborts;
    Printf.printf "  mean response:    %.6fs\n" r.Driver.mean_response;
    Printf.printf "  aborts/commit:    %.4f\n" r.Driver.aborts_per_commit;
    if mem_budget > 0 then pp_memory r.Driver.metrics;
    List.iter
      (fun ps ->
        Printf.printf "  program %-10s commits=%d user_aborts=%d aborts=%d p50=%.2gs p99=%.2gs\n"
          ps.Driver.ps_name ps.Driver.ps_commits ps.Driver.ps_user_aborts ps.Driver.ps_aborts
          (Obs.hist_percentile ps.Driver.ps_latency 0.50)
          (Obs.hist_percentile ps.Driver.ps_latency 0.99))
      r.Driver.programs;
    if metrics then Fmt.pr "%a@." Obs.pp_metrics r.Driver.metrics;
    (match (trace, obs) with
    | Some file, Some o ->
        Obs.write_trace_file file o;
        (* stderr, so stdout stays identical with and without --trace *)
        Printf.eprintf "trace: %d events written to %s\n%!" (Obs.event_count o) file
    | _ -> ())
    end
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"One measured benchmark run; optionally capture a Chrome trace and engine metrics")
    Term.(
      const run $ workload_arg $ mpl_arg $ duration_arg $ warmup_arg $ seed_arg $ iso_arg
      $ trace_arg $ metrics_arg $ bench_seeds_arg $ memory_budget_arg $ jobs_arg)

(* Windowed sim-time telemetry: run a workload under a tracing sink, build
   a Timeline (lib/obs/timeline.ml) per seed, merge, and export. Stdout is
   byte-identical at any -j (per-seed worlds are independent; the merge is
   order-insensitive), which the dune rules diff to enforce. *)
let timeline_cmd =
  let workload_arg =
    workload_arg ~default:"sibench" ~extra:[ "retention" ]
      ~doc:
        "Workload (retention: bounded-memory loop with a pinned snapshot released at 60% of \
         the horizon; ignores --isolation)"
      ()
  in
  let mpl_arg = Arg.(value & opt count 10 & info [ "mpl" ] ~doc:"Number of concurrent clients") in
  let duration_arg =
    Arg.(value & opt float 0.5 & info [ "duration" ] ~doc:"Measured simulated seconds")
  in
  let warmup_arg =
    Arg.(value & opt float 0.1 & info [ "warmup" ] ~doc:"Warmup simulated seconds")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base random seed") in
  let iso_arg =
    Arg.(value & opt string "ssi" & info [ "isolation" ] ~doc:"si | ssi | s2pl | rc")
  in
  let tl_seeds_arg =
    Arg.(
      value & opt count 1
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Merge timelines over $(docv) seeds (base, base+1, ...); pairs with -j")
  in
  let window_arg =
    Arg.(
      value & opt float 0.05
      & info [ "window" ] ~docv:"SECONDS" ~doc:"Window width in simulated seconds")
  in
  let series_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "series" ] ~docv:"NAMES"
          ~doc:"Comma-separated series to export (default: all; see the CSV header)")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Write the CSV to $(docv) instead of stdout")
  in
  let ndjson_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ndjson" ] ~docv:"FILE" ~doc:"Also write one JSON object per window to $(docv)")
  in
  let slo_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "slo" ] ~docv:"RATE,P95"
          ~doc:
            "Evaluate per-class SLOs: max error aborts per completed transaction and max p95 \
             response (simulated seconds), e.g. 0.2,0.01")
  in
  let annotate_arg =
    Arg.(
      value
      & opt (some string) None
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
  let run name mpl duration warmup seed iso nseeds window series_sel csv ndjson slo annotate trace
      mem_budget jobs =
    if window <= 0.0 then begin
      prerr_endline "--window must be positive";
      exit 1
    end;
    if trace <> None && nseeds > 1 then begin
      prerr_endline "--trace requires --seeds 1 (a trace captures one run)";
      exit 1
    end;
    let columns =
      match series_sel with
      | None -> None
      | Some s ->
          let cols = String.split_on_char ',' s |> List.filter (fun c -> c <> "") in
          List.iter
            (fun c ->
              if not (List.mem c Timeline.series_names) then begin
                prerr_endline
                  ("unknown series: " ^ c ^ " (known: "
                  ^ String.concat ", " Timeline.series_names
                  ^ ")");
                exit 1
              end)
            cols;
          Some cols
    in
    let horizon = warmup +. duration in
    let memory_budget = if mem_budget > 0 then Some mem_budget else None in
    let run_seed s : Timeline.t * Obs.t =
      if name = "retention" then begin
        let obs, hz =
          Experiments.retention_timeline_run ?memory_budget ~mpl ~warmup ~duration ~seed:s ()
        in
        (Option.get (Timeline.of_obs ~window ~horizon:hz obs), obs)
      end
      else begin
        let isolation =
          match isolation_of_string iso with
          | Some i -> i
          | None ->
              prerr_endline ("unknown isolation: " ^ iso);
              exit 1
        in
        let make_db, mix = workload ~memory_budget:mem_budget name in
        let obs = Obs.create ~trace:true ~provenance:true ~metrics:true () in
        let cfg =
          { Driver.default_config with Driver.isolation; mpl; warmup; duration; seed = s }
        in
        ignore (Driver.run_once ~obs ~make_db ~mix cfg);
        (Option.get (Timeline.of_obs ~window ~horizon obs), obs)
      end
    in
    let seeds = List.init nseeds (fun i -> seed + i) in
    let per_seed = with_jobs jobs (fun pool -> Par.map ?pool run_seed seeds) in
    let tl = Timeline.merge (List.map fst per_seed) in
    Printf.printf "timeline workload=%s isolation=%s mpl=%d seeds=%d..%d window=%.4fs windows=%d\n"
      name
      (if name = "retention" then "ssi" else iso)
      mpl seed
      (seed + nseeds - 1)
      tl.Timeline.tl_width
      (Array.length tl.Timeline.tl_windows);
    let tt = Timeline.totals tl in
    Printf.printf
      "totals: commits=%d aborts=%d user-aborts=%d work-committed=%.6fs work-wasted=%.6fs\n"
      tt.Timeline.tt_commits tt.Timeline.tt_aborts tt.Timeline.tt_user
      tt.Timeline.tt_work_committed tt.Timeline.tt_work_wasted;
    let csv_buf = Buffer.create 4096 in
    Timeline.to_csv ?columns csv_buf tl;
    (match csv with
    | None -> print_string (Buffer.contents csv_buf)
    | Some file ->
        write_file file (Buffer.contents csv_buf);
        Printf.eprintf "csv: %d windows written to %s\n%!" (Array.length tl.Timeline.tl_windows)
          file);
    (match ndjson with
    | None -> ()
    | Some file ->
        let buf = Buffer.create 4096 in
        Timeline.to_ndjson buf tl;
        write_file file (Buffer.contents buf);
        Printf.eprintf "ndjson: %d windows written to %s\n%!"
          (Array.length tl.Timeline.tl_windows) file);
    (match slo with
    | None -> ()
    | Some spec ->
        let slo =
          match String.split_on_char ',' spec with
          | [ a; p ] -> (
              match (float_of_string_opt a, float_of_string_opt p) with
              | Some slo_abort_rate, Some slo_p95 -> { Timeline.slo_abort_rate; slo_p95 }
              | _ ->
                  prerr_endline ("bad --slo (want RATE,P95): " ^ spec);
                  exit 1)
          | _ ->
              prerr_endline ("bad --slo (want RATE,P95): " ^ spec);
              exit 1
        in
        List.iter
          (fun sr ->
            Printf.printf
              "slo class=%s active=%d violations=%d (abort-rate=%d p95=%d) \
               time-in-violation=%.4fs worst-abort-rate=%.4g worst-p95=%.4gs\n"
              sr.Timeline.sr_class sr.Timeline.sr_active sr.Timeline.sr_violations
              sr.Timeline.sr_abort_viol sr.Timeline.sr_p95_viol sr.Timeline.sr_time_in_violation
              sr.Timeline.sr_worst_abort_rate sr.Timeline.sr_worst_p95)
          (Timeline.slo_eval tl slo));
    (match annotate with
    | None -> ()
    | Some name ->
        if not (List.mem name Timeline.series_names) then begin
          prerr_endline ("unknown series: " ^ name);
          exit 1
        end;
        let marks = Timeline.change_points tl ~series:name in
        Printf.printf "regime-shifts series=%s count=%d\n" name (List.length marks);
        List.iter
          (fun mk ->
            Printf.printf "mark series=%s window=%d t0=%.4fs direction=%s\n" mk.Timeline.mk_series
              mk.Timeline.mk_window mk.Timeline.mk_ts
              (match mk.Timeline.mk_direction with `Up -> "up" | `Down -> "down"))
          marks);
    match (trace, per_seed) with
    | Some file, (_, o) :: _ ->
        Obs.write_trace_file ~extra:(Timeline.counter_records ?columns tl) file o;
        Printf.eprintf "trace: %d events + timeline counters written to %s\n%!"
          (Obs.event_count o) file
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Windowed sim-time telemetry: throughput, abort taxonomy, latency percentiles, \
          retention gauges, wasted work, per-class SLOs and regime-shift marks")
    Term.(
      const run $ workload_arg $ mpl_arg $ duration_arg $ warmup_arg $ seed_arg $ iso_arg
      $ tl_seeds_arg $ window_arg $ series_arg $ csv_arg $ ndjson_arg $ slo_arg $ annotate_arg
      $ trace_arg $ memory_budget_arg $ jobs_arg)

let attribute_cmd =
  let workload_arg = workload_arg ~default:"sibench" ~doc:"Workload" () in
  let mpl_arg = Arg.(value & opt count 10 & info [ "mpl" ] ~doc:"Number of concurrent clients") in
  let duration_arg =
    Arg.(value & opt float 0.5 & info [ "duration" ] ~doc:"Measured simulated seconds")
  in
  let warmup_arg =
    Arg.(value & opt float 0.1 & info [ "warmup" ] ~doc:"Warmup simulated seconds")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base random seed") in
  let iso_arg =
    Arg.(value & opt string "ssi" & info [ "isolation" ] ~doc:"si | ssi | s2pl | rc")
  in
  let at_seeds_arg =
    Arg.(
      value & opt count 1
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Merge sketches over $(docv) seeds (base, base+1, ...); pairs with -j")
  in
  let window_arg =
    Arg.(
      value & opt float 0.05
      & info [ "window" ] ~docv:"SECONDS"
          ~doc:"Window width for the per-window blame series, simulated seconds")
  in
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc:"Rows in the contention table")
  in
  let sketch_arg =
    Arg.(
      value & opt int 256
      & info [ "sketch" ] ~docv:"CAP"
          ~doc:"Space-saving sketch capacity (distinct resources tracked; bounds the error)")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Write the per-window blame series as CSV to $(docv)")
  in
  let ndjson_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ndjson" ] ~docv:"FILE"
          ~doc:"Write the per-window blame series as one JSON object per line to $(docv)")
  in
  let flightrec_arg =
    Arg.(
      value & opt int 0
      & info [ "flightrec" ] ~docv:"CAP"
          ~doc:
            "Attach a flight recorder with a $(docv)-event ring to the base seed's run (0 = \
             off); pairs with --trigger and --bundle")
  in
  let trigger_arg =
    Arg.(
      value
      & opt string "abort_rate:0.5"
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
  let run name mpl duration warmup seed iso nseeds window top sketch_cap csv ndjson flightrec
      trigger bundle mem_budget jobs =
    if window <= 0.0 then begin
      prerr_endline "--window must be positive";
      exit 1
    end;
    if sketch_cap < 1 then begin
      prerr_endline "--sketch must be at least 1";
      exit 1
    end;
    if top < 1 then begin
      prerr_endline "--top must be at least 1";
      exit 1
    end;
    let trig =
      if flightrec = 0 then None
      else
        match Flightrec.trigger_of_string trigger with
        | Ok t -> Some t
        | Error e ->
            prerr_endline ("bad --trigger: " ^ e);
            exit 1
    in
    let isolation =
      match isolation_of_string iso with
      | Some i -> i
      | None ->
          prerr_endline ("unknown isolation: " ^ iso);
          exit 1
    in
    let make_db, mix = workload ~memory_budget:mem_budget name in
    let horizon = warmup +. duration in
    let run_seed s : Obs.t =
      let obs = Obs.create ~trace:true ~provenance:true ~metrics:true ~sketch:sketch_cap () in
      let cfg =
        { Driver.default_config with Driver.isolation; mpl; warmup; duration; seed = s }
      in
      ignore (Driver.run_once ~obs ~make_db ~mix cfg);
      obs
    in
    let seeds = List.init nseeds (fun i -> seed + i) in
    let per_seed = with_jobs jobs (fun pool -> Par.map ?pool run_seed seeds) in
    (* Merge per-seed sketches and fold certificate blame, both in seed
       order — Par.map already returns in input order, so the result is
       byte-identical at any -j. *)
    let sk = Sketch.create ~capacity:sketch_cap in
    List.iter (fun o -> Sketch.merge ~into:sk (Option.get (Obs.sketch o))) per_seed;
    let all_certs = List.concat_map Obs.certs per_seed in
    Attrib.blame sk all_certs;
    Printf.printf
      "attribution workload=%s isolation=%s mpl=%d seeds=%d..%d window=%.4fs sketch-capacity=%d\n"
      name iso mpl seed
      (seed + nseeds - 1)
      window sketch_cap;
    let buf = Buffer.create 4096 in
    Attrib.render_summary buf sk;
    Attrib.render_table buf ~top sk;
    print_string (Buffer.contents buf);
    (match csv with
    | None -> ()
    | Some file ->
        let rows = Attrib.blame_windows ~window ~horizon all_certs in
        let b = Buffer.create 4096 in
        Attrib.windows_csv b rows;
        write_file file (Buffer.contents b);
        Printf.eprintf "csv: %d blame rows written to %s\n%!" (List.length rows) file);
    (match ndjson with
    | None -> ()
    | Some file ->
        let rows = Attrib.blame_windows ~window ~horizon all_certs in
        let b = Buffer.create 4096 in
        Attrib.windows_ndjson b rows;
        write_file file (Buffer.contents b);
        Printf.eprintf "ndjson: %d blame rows written to %s\n%!" (List.length rows) file);
    match (trig, per_seed) with
    | Some trigger, o :: _ ->
        let events = Obs.events o and certs = Obs.certs o in
        let recorder, incident =
          Flightrec.run ~capacity:flightrec ~window ~horizon ~trigger events certs
        in
        (match incident with
        | None ->
            Printf.printf "flight-recorder: no incident (trigger %s; ring %d/%d, %d dropped)\n"
              (Flightrec.trigger_to_string trigger)
              (Flightrec.length recorder) (Flightrec.capacity recorder)
              (Flightrec.drops recorder)
        | Some inc ->
            Printf.printf "flight-recorder: incident window=%d t=%.4fs %s\n"
              inc.Flightrec.in_window inc.Flightrec.in_ts inc.Flightrec.in_detail;
            let b = Buffer.create 4096 in
            Flightrec.write_bundle b ~recorder ~incident:inc ~sk ~top ~certs;
            (match bundle with
            | Some file ->
                write_file file (Buffer.contents b);
                Printf.eprintf "bundle: %d bytes written to %s\n%!" (Buffer.length b) file
            | None -> print_string (Buffer.contents b)))
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "attribute"
       ~doc:
         "Root-cause attribution: per-resource contention profile (space-saving sketch over \
          conflict edges, lock waits, SIREAD grants and FCW blocks, with abort blame split by \
          certificate edge role) plus an anomaly-triggered flight recorder")
    Term.(
      const run $ workload_arg $ mpl_arg $ duration_arg $ warmup_arg $ seed_arg $ iso_arg
      $ at_seeds_arg $ window_arg $ top_arg $ sketch_arg $ csv_arg $ ndjson_arg $ flightrec_arg
      $ trigger_arg $ bundle_arg $ memory_budget_arg $ jobs_arg)

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

(* Shared by [interleave] and [explore]. *)
let spec_of_string = function
  | "write-skew" -> Some Interleave.write_skew_spec
  | "read-only-anomaly" -> Some Interleave.read_only_anomaly_spec
  | "paper-4.7" -> Some Interleave.paper_spec
  | "paper-4.7-4" -> Some Interleave.paper_spec_4
  | "paper-4.7-5" -> Some Interleave.paper_spec_5
  | "write-skew-3" -> Some Interleave.write_skew_spec_3
  | "write-skew-4" -> Some Interleave.write_skew_spec_4
  | "read-only-anomaly-4" -> Some Interleave.read_only_anomaly_spec_4
  | _ -> None

let spec_doc =
  "write-skew | read-only-anomaly | paper-4.7 | paper-4.7-4 | paper-4.7-5 | write-skew-3 | \
   write-skew-4 | read-only-anomaly-4"

let interleave_cmd =
  let spec_arg =
    Arg.(
      value
      & opt string "write-skew"
      & info [ "spec" ] ~doc:("Transaction set: " ^ spec_doc))
  in
  let iso_arg =
    Arg.(value & opt string "si" & info [ "isolation" ] ~doc:"si | ssi | s2pl | rc")
  in
  let run spec iso =
    let spec_txns =
      match spec_of_string spec with
      | Some s -> s
      | None ->
          prerr_endline ("unknown spec: " ^ spec);
          exit 1
    in
    let isolation =
      match isolation_of_string iso with
      | Some i -> i
      | None ->
          prerr_endline ("unknown isolation: " ^ iso);
          exit 1
    in
    let s = Interleave.sweep ~isolation spec_txns in
    Printf.printf
      "spec=%s isolation=%s: %d interleavings\n\
      \  all-committed:    %d\n\
      \  non-serializable: %d\n\
      \  unsafe aborts:    %d\n\
      \  other aborts:     %d\n"
      spec iso s.Interleave.total s.Interleave.all_committed s.Interleave.non_serializable
      s.Interleave.unsafe_aborts s.Interleave.other_aborts
  in
  Cmd.v
    (Cmd.info "interleave"
       ~doc:"Exhaustively execute all interleavings of a transaction set (§4.7)")
    Term.(const run $ spec_arg $ iso_arg)

(* [explore]: the DPOR schedule explorer — same outcome coverage as a full
   [interleave] sweep at a fraction of the executions. Output is sorted and
   deterministic, byte-identical at any -j (bin/dune diffs -j1 vs -j4). *)
let explore_cmd =
  let spec_arg =
    Arg.(
      value
      & opt string "write-skew"
      & info [ "spec" ] ~doc:("Transaction set: " ^ spec_doc))
  in
  let iso_arg =
    Arg.(value & opt string "ssi" & info [ "isolation" ] ~doc:"si | ssi | s2pl | rc")
  in
  let matrix_arg =
    Arg.(
      value
      & opt (some string) None
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
            "Also run the full enumeration and fail unless its outcome-digest set matches \
             (multinomial cost: small specs only)")
  in
  let run spec iso matrix stats validate jobs =
    let spec_txns =
      match spec_of_string spec with
      | Some s -> s
      | None ->
          prerr_endline ("unknown spec: " ^ spec);
          exit 1
    in
    let isolation =
      match isolation_of_string iso with
      | Some i -> i
      | None ->
          prerr_endline ("unknown isolation: " ^ iso);
          exit 1
    in
    let points =
      match matrix with
      | None -> [ None ]
      | Some name -> (
          match Fuzzcase.matrix_of_string name with
          | Some m -> List.map (fun p -> Some p) m
          | None ->
              prerr_endline ("unknown matrix: " ^ name);
              exit 1)
    in
    let failed = ref false in
    with_jobs jobs (fun pool ->
        List.iter
          (fun point ->
            let config = Option.map Fuzzcase.config_of_point point in
            let label =
              match point with
              | None -> "test"
              | Some p -> Fuzzcase.point_to_string p
            in
            let digests, st = Explore.explore ?config ?pool ~isolation spec_txns in
            Printf.printf "spec=%s isolation=%s config=%s\n" spec iso label;
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
              let full = Explore.sweep_digests ?config ~isolation spec_txns in
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
          executing only race-distinct interleavings")
    Term.(const run $ spec_arg $ iso_arg $ matrix_arg $ stats_arg $ validate_arg $ jobs_arg)

let fuzz_cmd =
  let cases_arg =
    Arg.(value & opt int 1000 & info [ "cases" ] ~doc:"Number of generated cases")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Campaign seed") in
  let matrix_arg =
    Arg.(
      value & opt string "full"
      & info [ "matrix" ]
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
  let do_replay file =
    match Fuzz.replay_string (read_file file) with
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
  let campaign cases seed matrix_name out shrink demo jobs =
    let matrix =
      match Fuzzcase.matrix_of_string matrix_name with
      | Some m -> m
      | None ->
          prerr_endline ("unknown matrix: " ^ matrix_name);
          exit 1
    in
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
    (match out with
    | Some dir when s.Fuzz.s_failures <> [] ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iteri
          (fun i f ->
            let file = Filename.concat dir (Printf.sprintf "fuzz-%03d.repro" i) in
            write_file file
              (Fuzz.repro_string
                 ~comment:[ Fuzzrun.violation_to_string f.Fuzz.f_violation ]
                 f.Fuzz.f_shrunk);
            Printf.printf "  wrote %s (%s)\n" file
              (Fuzzrun.violation_to_string f.Fuzz.f_violation))
          s.Fuzz.s_failures
    | _ -> ());
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
          | None -> (
              match s.Fuzz.s_anomalies with a :: _ -> Some a | [] -> None)
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
  let crash_campaign cases seed matrix_name out jobs =
    let matrix =
      match Fuzzcase.matrix_of_string matrix_name with
      | Some m -> m
      | None ->
          prerr_endline ("unknown matrix: " ^ matrix_name);
          exit 1
    in
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
    (match out with
    | Some dir when s.Fuzzrecover.cs_failures <> [] ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iteri
          (fun i f ->
            let file = Filename.concat dir (Printf.sprintf "crash-%03d.repro" i) in
            write_file file (Fuzzrecover.repro_string f);
            Printf.printf "  wrote %s (%s)\n" file
              (Fuzzrecover.violation_to_string f.Fuzzrecover.cf_violation))
          s.Fuzzrecover.cs_failures
    | _ -> ());
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
            (fun l ->
              let l = String.trim l in
              String.length l > 7 && String.sub l 0 8 = "# crash ")
            (String.split_on_char '\n' content)
        in
        if is_crash_repro then do_crash_replay file content else do_replay file
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
      & opt (some string) None
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Fault plan: append:N | flush:F:K:T | window:N (default: crash halfway through \
             the case's WAL appends)")
  in
  let run seed plan =
    let plan =
      match plan with
      | None -> None
      | Some s -> (
          match Wal.plan_of_string s with
          | Some p -> Some p
          | None ->
              prerr_endline ("bad plan: " ^ s);
              exit 1)
    in
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
  let workload_arg = workload_arg ~default:"sibench" ~doc:"Workload of the profiled run" () in
  let bmpl_arg =
    Arg.(value & opt count 10 & info [ "bench-mpl" ] ~doc:"Clients in the profiled run")
  in
  let bdur_arg =
    Arg.(
      value & opt float 0.5
      & info [ "bench-duration" ] ~doc:"Measured simulated seconds of the profiled run")
  in
  let bwarm_arg =
    Arg.(
      value & opt float 0.1
      & info [ "bench-warmup" ] ~doc:"Warmup simulated seconds of the profiled run")
  in
  let bseed_arg =
    Arg.(value & opt int 1 & info [ "bench-seed" ] ~doc:"Seed of the profiled run")
  in
  let biso_arg =
    Arg.(
      value & opt string "ssi"
      & info [ "bench-isolation" ] ~doc:"Isolation of the profiled run: si | ssi | s2pl | rc")
  in
  let fcases_arg =
    Arg.(
      value & opt int 200
      & info [ "fuzz-cases" ] ~doc:"Cases in the provenance-harvest fuzz campaign")
  in
  let fseed_arg =
    Arg.(value & opt int 1 & info [ "fuzz-seed" ] ~doc:"Seed of the fuzz campaign")
  in
  let matrix_arg =
    Arg.(
      value & opt string "default"
      & info [ "matrix" ] ~doc:"Fuzz configuration matrix: full | default")
  in
  let topk_arg =
    Arg.(
      value & opt int 5
      & info [ "topk" ] ~doc:"Distinct certificate shapes detailed in the provenance section")
  in
  let bins_arg =
    Arg.(
      value & opt int 64 & info [ "bins" ] ~doc:"Width of the utilisation sparklines, in bins")
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
        Interleave.write_skew_spec
        Interleave.[ (0, R "x"); (0, R "y"); (1, R "x"); (1, R "y"); (0, W "x"); (1, W "y") ]
    in
    match Obs.certs obs with
    | c :: _ -> c.Obs.c_dot
    | [] ->
        prerr_endline "internal error: write-skew demo emitted no certificate";
        exit 1
  in
  let run figures quick seeds duration mpls name bmpl bdur bwarm bseed biso fcases fseed
      matrix_name topk bins out dot check_dot jobs =
    match check_dot with
    | Some file -> (
        match Obs.dot_validate (read_file file) with
        | Ok () -> Printf.printf "%s: DOT OK\n" file
        | Error e ->
            Printf.eprintf "%s: invalid DOT: %s\n" file e;
            exit 1)
    | None ->
        let isolation =
          match isolation_of_string biso with
          | Some i -> i
          | None ->
              prerr_endline ("unknown isolation: " ^ biso);
              exit 1
        in
        check_experiments figures;
        let make_db, mix = workload name in
        let matrix =
          match Fuzzcase.matrix_of_string matrix_name with
          | Some m -> m
          | None ->
              prerr_endline ("unknown matrix: " ^ matrix_name);
              exit 1
        in
        let budget =
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
        let plans = List.map (fun id -> Option.get (Experiments.find_figure id) budget) figures in
        let figs = with_jobs jobs (fun pool -> Experiments.eval_plans ?pool plans) in
        (* Profiled run: trace on (lifecycle spans + resource samples),
           metrics on, plus the contention sketch and certificates feeding
           the report's hot-resources and incidents sections. Tracing is
           out-of-band, so the measured numbers are identical to an
           untraced run. *)
        let obs = Obs.create ~trace:true ~provenance:true ~sketch:256 () in
        let cfg =
          {
            Driver.default_config with
            Driver.isolation;
            mpl = bmpl;
            warmup = bwarm;
            duration = bdur;
            seed = bseed;
          }
        in
        let r = Driver.run_once ~obs ~make_db ~mix cfg in
        let bench =
          {
            Report.b_label =
              Printf.sprintf "%s %s mpl=%d seed=%d window=%.2fs" name biso bmpl bseed bdur;
            b_result = r;
            b_obs = obs;
            b_t0 = bwarm;
            b_t1 = bwarm +. bdur;
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
              name biso bmpl bseed bdur bwarm;
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
        match dot with
        | None -> ()
        | Some file ->
            let d =
              match
                List.find_opt
                  (fun ((c : Obs.certificate), _) ->
                    match c.Obs.c_cert with Obs.Ssi_pivot _ -> true | _ -> false)
                  certs
              with
              | Some (c, _) -> c.Obs.c_dot
              | None -> (
                  match certs with (c, _) :: _ -> c.Obs.c_dot | [] -> demo_dot ())
            in
            (match Obs.dot_validate d with
            | Ok () -> ()
            | Error e ->
                Printf.eprintf "internal error: emitted invalid DOT: %s\n" e;
                exit 1);
            write_file file d;
            Printf.eprintf "dot: %d bytes written to %s\n%!" (String.length d) file
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render one self-contained Markdown report: figure tables, a profiled run with \
          utilisation sparklines, and top-k abort certificates from a fuzz campaign")
    Term.(
      const run $ figures_arg $ quick_arg $ seeds_arg $ duration_arg $ mpl_arg $ workload_arg
      $ bmpl_arg $ bdur_arg $ bwarm_arg $ bseed_arg $ biso_arg $ fcases_arg $ fseed_arg
      $ matrix_arg $ topk_arg $ bins_arg $ out_arg $ dot_arg $ check_dot_arg $ jobs_arg)

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
            interleave_cmd;
            explore_cmd;
            fuzz_cmd;
            recover_cmd;
            Perf_cmd.cmd;
          ]))
