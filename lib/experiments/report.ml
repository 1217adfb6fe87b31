(* Self-contained Markdown experiment report.

   [build] renders one document from three optional ingredient sets —
   figure sweeps (throughput/abort tables), a profiled benchmark run
   (headline numbers, per-resource ASCII utilisation sparklines on
   simulated time, lifecycle-span counts, latency percentiles) and the
   abort-provenance harvest of a fuzz campaign (top-k certificate shapes
   with one JSON certificate and codec repro line per shape).

   Everything printed derives from simulated time and fixed seeds: the same
   invocation produces byte-identical reports on any host and at any -j,
   which is what lets the CI smoke rule diff reports instead of eyeballing
   them. *)

let bpf = Printf.bprintf

(* {1 ASCII sparklines} *)

(* 9-level ASCII ramp: index 0 is "idle", 8 is "full". *)
let ramp = " .:-=+*#@"

let spark_char ~vmax v =
  if v <= 0 || vmax <= 0 then ramp.[0]
  else
    let idx =
      int_of_float (Float.ceil (float_of_int v /. float_of_int vmax *. 8.0))
    in
    ramp.[max 1 (min 8 idx)]

let sparkline ~vmax values =
  String.init (Array.length values) (fun i -> spark_char ~vmax values.(i))

(* Float variant, self-normalising to the series max. *)
let sparkline_f values =
  let vmax = Array.fold_left Float.max 0.0 values in
  String.init (Array.length values) (fun i ->
      let v = values.(i) in
      if v <= 0.0 || vmax <= 0.0 then ramp.[0]
      else ramp.[max 1 (min 8 (int_of_float (Float.ceil (v /. vmax *. 8.0))))])

(* Bin a chronological step series [(ts, v)] into [bins] buckets over
   [t0, t1]: each bucket keeps the max of the values in force during it
   (samples are state changes; the value holds until the next sample). *)
let bin_series ~t0 ~t1 ~bins samples =
  let arr = Array.make bins 0 in
  if t1 <= t0 then arr
  else begin
    let bin_of ts = int_of_float (float_of_int bins *. (ts -. t0) /. (t1 -. t0)) in
    let cur = ref 0 and j = ref 0 in
    List.iter
      (fun (ts, v) ->
        let b = bin_of ts in
        while !j < b && !j < bins do
          arr.(!j) <- max arr.(!j) !cur;
          incr j
        done;
        if b >= 0 && b < bins then arr.(b) <- max arr.(b) v;
        cur := v)
      samples;
    while !j < bins do
      arr.(!j) <- max arr.(!j) !cur;
      incr j
    done;
    arr
  end

(* {1 Figure tables} *)

let figure_md buf (f : Experiments.figure) =
  bpf buf "### %s — %s\n\n" f.Experiments.fig_id f.Experiments.title;
  bpf buf "Paper expectation: %s\n\n" f.Experiments.expected;
  (* throughput *)
  bpf buf "| MPL |";
  List.iter (fun s -> bpf buf " %s tps (±95%%) |" s.Experiments.label) f.Experiments.series;
  bpf buf "\n|---|";
  List.iter (fun _ -> bpf buf "---|") f.Experiments.series;
  bpf buf "\n";
  List.iteri
    (fun i mpl ->
      bpf buf "| %d |" mpl;
      List.iter
        (fun s ->
          let p = List.nth s.Experiments.points i in
          bpf buf " %.0f ±%.0f |" p.Driver.s_throughput p.Driver.s_ci)
        f.Experiments.series;
      bpf buf "\n")
    f.Experiments.mpls;
  (* abort rates, % of commits *)
  bpf buf "\n| MPL |";
  List.iter
    (fun s -> bpf buf " %s dl/fcw/unsafe %%commits |" s.Experiments.label)
    f.Experiments.series;
  bpf buf "\n|---|";
  List.iter (fun _ -> bpf buf "---|") f.Experiments.series;
  bpf buf "\n";
  List.iteri
    (fun i mpl ->
      bpf buf "| %d |" mpl;
      List.iter
        (fun s ->
          let p = List.nth s.Experiments.points i in
          bpf buf " %.2f / %.2f / %.2f |"
            (100.0 *. p.Driver.s_deadlock_rate)
            (100.0 *. p.Driver.s_conflict_rate)
            (100.0 *. p.Driver.s_unsafe_rate))
        f.Experiments.series;
      bpf buf "\n")
    f.Experiments.mpls;
  bpf buf "\n"

(* {1 Profiled benchmark section} *)

type bench_section = {
  b_label : string;  (** e.g. ["sibench ssi mpl=10 seed=1"] *)
  b_result : Driver.result;
  b_obs : Obs.t;  (** the tracing sink the run was measured with *)
  b_t0 : float;  (** window start (end of warmup), simulated seconds *)
  b_t1 : float;  (** window end *)
}

let span_counts obs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (_, e) ->
      match e with
      | Obs.Span_b { name; _ } ->
          Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name))
      | _ -> ())
    (Obs.events obs);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let bench_md buf ~bins (b : bench_section) =
  let r = b.b_result in
  bpf buf "### Profiled run — %s\n\n" b.b_label;
  bpf buf "| metric | value |\n|---|---|\n";
  bpf buf "| commits | %d (%.0f tps) |\n" r.Driver.commits r.Driver.throughput;
  bpf buf "| deadlocks | %d |\n" r.Driver.deadlocks;
  bpf buf "| fcw conflicts | %d |\n" r.Driver.conflicts;
  bpf buf "| unsafe aborts | %d |\n" r.Driver.unsafe;
  bpf buf "| other aborts | %d |\n" r.Driver.other_aborts;
  bpf buf "| mean response | %.6f s |\n" r.Driver.mean_response;
  let m = r.Driver.metrics in
  bpf buf "| commit latency p50/p99 | %.2g / %.2g s |\n"
    (Obs.hist_percentile m.Obs.m_commit_latency 0.50)
    (Obs.hist_percentile m.Obs.m_commit_latency 0.99);
  bpf buf "| lock-wait p99 | %.2g s |\n" (Obs.hist_percentile m.Obs.m_lock_wait 0.99);
  bpf buf "| rw edges (nv/sx/ps/gap/uw) | %d/%d/%d/%d/%d |\n" m.Obs.m_conflict_newer_version
    m.Obs.m_conflict_siread_x m.Obs.m_conflict_page_stamp m.Obs.m_conflict_gap
    m.Obs.m_conflict_unknown;
  bpf buf "| doomed victims | %d |\n" m.Obs.m_doomed;
  bpf buf "| siread / retained HWM | %d / %d |\n" m.Obs.m_siread_hwm m.Obs.m_retained_hwm;
  bpf buf "| work committed / wasted | %.4f / %.4f s |\n" r.Driver.work_committed
    r.Driver.work_wasted;
  (match span_counts b.b_obs with
  | [] -> ()
  | spans ->
      bpf buf "\nLifecycle spans recorded: %s.\n"
        (String.concat ", " (List.map (fun (n, c) -> Printf.sprintf "%s ×%d" n c) spans)));
  (* per-resource utilisation timelines, max per bin over the window *)
  let series = Obs.resource_series b.b_obs in
  if series <> [] then begin
    bpf buf
      "\nResource timelines over the %.2fs–%.2fs window (simulated time, `%s` = idle→full, \
       max per bin):\n\n```\n"
      b.b_t0 b.b_t1 ramp;
    let width =
      List.fold_left (fun w (name, _) -> max w (String.length name)) 0 series
    in
    List.iter
      (fun (name, samples) ->
        let busy =
          bin_series ~t0:b.b_t0 ~t1:b.b_t1 ~bins
            (List.map (fun (ts, in_use, _) -> (ts, in_use)) samples)
        in
        let queue =
          bin_series ~t0:b.b_t0 ~t1:b.b_t1 ~bins
            (List.map (fun (ts, _, q) -> (ts, q)) samples)
        in
        let bmax = Array.fold_left max 0 busy and qmax = Array.fold_left max 0 queue in
        bpf buf "%-*s busy  |%s| max %d\n" width name (sparkline ~vmax:bmax busy) bmax;
        bpf buf "%-*s queue |%s| max %d\n" width "" (sparkline ~vmax:qmax queue) qmax)
      series;
    bpf buf "```\n"
  end;
  (* Windowed timeline sparklines: the same data the `timeline` subcommand
     exports as CSV, rendered inline. One window per bin over the whole run
     (warmup included, unlike the resource timelines above), each series
     self-normalised; `^` marks are Page–Hinkley regime shifts detected on
     the throughput series. *)
  let timeline = Timeline.of_obs ~window:(b.b_t1 /. float_of_int bins) ~horizon:b.b_t1 b.b_obs in
  (match timeline with
  | None -> ()
  | Some tl ->
      let pick =
        [ "throughput"; "abort-rate"; "p95-response"; "siread"; "retained"; "work-wasted" ]
      in
      bpf buf
        "\nTimeline over 0–%.2fs (%d windows of %.4fs, `%s` = min→max per series):\n\n```\n"
        b.b_t1 (Array.length tl.Timeline.tl_windows) tl.Timeline.tl_width ramp;
      let width = List.fold_left (fun w n -> max w (String.length n)) 0 pick in
      List.iter
        (fun name ->
          let xs = Timeline.series tl name in
          let vmax = Array.fold_left Float.max 0.0 xs in
          bpf buf "%-*s |%s| max %.4g\n" width name (sparkline_f xs) vmax)
        pick;
      (* A stiffer lambda than the change_points default (2x the series mean
         instead of 0.5x): at 64 fine-grained windows ordinary
         window-to-window oscillation would otherwise alarm constantly, and
         the report should only flag sustained shifts. *)
      let tput = Timeline.series tl "throughput" in
      let mean =
        if Array.length tput = 0 then 0.0
        else Array.fold_left ( +. ) 0.0 tput /. float_of_int (Array.length tput)
      in
      (match
         (if mean > 0.0 then Timeline.change_points ~lambda:(2.0 *. mean) tl ~series:"throughput"
          else Timeline.change_points tl ~series:"throughput")
       with
      | [] -> ()
      | marks ->
          let line = Bytes.make (Array.length tl.Timeline.tl_windows) ' ' in
          List.iter
            (fun mk ->
              if mk.Timeline.mk_window < Bytes.length line then
                Bytes.set line mk.Timeline.mk_window '^')
            marks;
          bpf buf "%-*s |%s| %s\n" width "regime" (Bytes.to_string line)
            (String.concat ", "
               (List.map
                  (fun mk ->
                    Printf.sprintf "%s@%.2fs"
                      (match mk.Timeline.mk_direction with `Up -> "up" | `Down -> "down")
                      mk.Timeline.mk_ts)
                  marks)));
      bpf buf "```\n");
  (* Hot resources: the top of the per-resource contention sketch, with
     certificate blame folded in, when the profiled run carried one. *)
  (match Obs.sketch b.b_obs with
  | None -> ()
  | Some sk ->
      Attrib.blame sk (Obs.certs b.b_obs);
      let rows = Attrib.table ~top:5 sk in
      if rows <> [] then begin
        let summary = Buffer.create 96 in
        Attrib.render_summary summary sk;
        bpf buf "\nHot resources (top %d of the contention sketch; %s):\n\n" (List.length rows)
          (String.trim (Buffer.contents summary));
        bpf buf "| resource | count | conflicts | blame in/out/fcw | lock-wait s | siread |\n";
        bpf buf "|---|---|---|---|---|---|\n";
        List.iter
          (fun (r, s) ->
            bpf buf "| `%s` | %d | %d | %d/%d/%d | %.9g | %d |\n" (Obs.res_id_escape r)
              s.Sketch.st_count s.Sketch.st_conflicts s.Sketch.st_blame_in s.Sketch.st_blame_out
              s.Sketch.st_blame_fcw s.Sketch.st_lock_wait s.Sketch.st_siread)
          rows
      end);
  (* Incidents: check an abort-storm flight recorder on the sparkline
     timeline; report the firing (or its absence) so a quiet run still
     shows the trigger that was armed. *)
  Option.iter
    (fun tl ->
      let trigger = Flightrec.Abort_storm 0.3 in
      let recorder, incident = Flightrec.run ~capacity:64 ~trigger tl (Obs.events b.b_obs) in
      match incident with
      | None ->
          bpf buf "\nIncidents: none (flight recorder armed with trigger `%s`, ring %d/%d).\n"
            (Flightrec.trigger_to_string trigger)
            (Flightrec.length recorder) (Flightrec.capacity recorder)
      | Some inc ->
          bpf buf "\nIncidents: trigger `%s` fired at window %d (t=%.4fs): %s; frozen ring %d/%d \
                   (%d dropped).\n"
            inc.Flightrec.in_trigger inc.Flightrec.in_window inc.Flightrec.in_ts
            inc.Flightrec.in_detail (Flightrec.length recorder) (Flightrec.capacity recorder)
            (Flightrec.drops recorder))
    timeline;
  bpf buf "\n"

(* {1 Abort-provenance section} *)

(* Group certificates by shape, count them, keep the first example of each
   (with its repro line), order by count descending then shape. *)
let group_certs (certs : (Obs.certificate * string) list) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (c, repro) ->
      let shape = Obs.cert_shape c in
      match Hashtbl.find_opt tbl shape with
      | Some (n, ex) -> Hashtbl.replace tbl shape (n + 1, ex)
      | None -> Hashtbl.add tbl shape (1, (c, repro)))
    certs;
  Hashtbl.fold (fun shape (n, ex) acc -> (shape, n, ex) :: acc) tbl []
  |> List.sort (fun (s1, n1, _) (s2, n2, _) ->
         match compare n2 n1 with 0 -> compare s1 s2 | c -> c)

let certs_md buf ~topk ~campaign (certs : (Obs.certificate * string) list) =
  bpf buf "## Abort provenance\n\n";
  List.iter (fun line -> bpf buf "%s\n" line) campaign;
  if campaign <> [] then bpf buf "\n";
  if certs = [] then bpf buf "No abort certificates were emitted.\n\n"
  else begin
    let groups = group_certs certs in
    bpf buf "%d certificates, %d distinct shapes. Top %d:\n\n" (List.length certs)
      (List.length groups)
      (min topk (List.length groups));
    bpf buf "| # | count | shape |\n|---|---|---|\n";
    List.iteri
      (fun i (shape, n, _) -> if i < topk then bpf buf "| %d | %d | %s |\n" (i + 1) n shape)
      groups;
    bpf buf "\n";
    List.iteri
      (fun i (shape, n, (c, repro)) ->
        if i < topk then begin
          bpf buf "### #%d %s (×%d)\n\n" (i + 1) shape n;
          bpf buf "Example certificate (reason `%s`, victim T%d, t=%.4fs):\n\n```json\n%s\n```\n\n"
            c.Obs.c_reason (Obs.cert_victim c) c.Obs.c_ts (Obs.cert_to_json c);
          bpf buf "Replay it (`ssi_bench fuzz --replay` on this codec case):\n\n```\n%s```\n\n"
            repro
        end)
      groups
  end

(* {1 Assembly} *)

let build ?(bins = 64) ?(topk = 5) ~title ~preamble ~figures ~bench ~campaign ~certs () =
  let buf = Buffer.create 8192 in
  bpf buf "# %s\n\n" title;
  List.iter (fun line -> bpf buf "%s\n" line) preamble;
  if preamble <> [] then bpf buf "\n";
  if figures <> [] then begin
    bpf buf "## Figures\n\n";
    List.iter (figure_md buf) figures
  end;
  (match bench with
  | None -> ()
  | Some b ->
      bpf buf "## Profiler\n\n";
      bench_md buf ~bins b);
  certs_md buf ~topk ~campaign certs;
  Buffer.contents buf
