(* [ssi_bench perf]: the perf points' counts beside their wall-clock times,
   the observability-overhead arms, and the time to regenerate two figures
   at -j 1 and -j N.

   The counts are deterministic and gated in `dune runtest`
   (test/test_pins.ml holds them to test/pins.txt); here they are printed
   only. Wall clock depends on the host and whatever else runs on it, so
   the points' times are reported as a median and quartiles and never
   gated. The command fails (exit 1) when a point's check differs between
   repetitions, when an obs-overhead arm exceeds its bound, or when the
   figures print different output at -j 1 and -j N. *)

open Cmdliner

let failed = ref false

let fail fmt =
  Printf.ksprintf
    (fun s ->
      failed := true;
      prerr_endline ("perf: " ^ s))
    fmt

let time f =
  let t0 = Unix.gettimeofday () in
  ignore (f ());
  Unix.gettimeofday () -. t0

(* The lower quartile, median and upper quartile. *)
let quartiles l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  (a.(n / 4), a.(n / 2), a.(3 * n / 4))

(* {1 Points} *)

let points () =
  let reps = 7 in
  Printf.printf "%-20s %7s %7s %s  wall ns/unit: median [quartiles] of %d\n" "point" "units"
    "check"
    (String.concat " " (List.map (Printf.sprintf "%10s") Perfpoints.counters))
    reps;
  List.iter
    (fun (name, run) ->
      let samples = List.init reps (fun _ -> run ()) in
      let s = List.hd samples in
      if List.exists (fun s' -> s'.Perfpoints.check <> s.Perfpoints.check) samples then
        fail "%s: check differs between repetitions" name;
      let per_unit s' = 1e9 *. s'.Perfpoints.wall /. float_of_int s'.Perfpoints.units in
      let q1, med, q3 = quartiles (List.map per_unit samples) in
      let count c =
        match List.assoc_opt c s.Perfpoints.counts with
        | Some v -> Printf.sprintf "%10.2f" v
        | None -> Printf.sprintf "%10s" "-"
      in
      Printf.printf "%-20s %7d %7d %s  %10.0f [%.0f, %.0f]\n%!" name s.Perfpoints.units
        s.Perfpoints.check
        (String.concat " " (List.map count Perfpoints.counters))
        med q1 q3)
    Perfpoints.points

(* {1 Observability overhead}

   "Zero cost when no sink is installed": every hot-path observability call
   is guarded on the sink's channel flags. Each arm runs a workload without
   and then with its sink side, back to back, alternating which goes first;
   its delta is the median of the paired per-repetition ratios over [n_pairs]
   pairs, so slow drift and one-sided noise neither hide nor fake an
   overhead. With 11 pairs, identical code read +10.09% once in three runs
   on a shared 2-core machine; 21 pairs narrow the median's spread.
   - commit-path and lock-acquire-release attach a sink with every channel
     off (test_pins holds their words equal to the no-sink run's).
   - commit-path-sketch attaches a sink with only the attribution sketch on.
   - timeline-build runs traced on both sides; its sink side also builds the
     run's timeline, work the other side does not do (+7% to +21% measured
     on a shared machine), so its bound is 30%. The ratio grows as the
     commit path gets cheaper; the timeline-only point counts the build's
     words by itself.
   The other arms' bound is [max_overhead]: identical code measured -6.6% to
   +5.9% on a shared machine, so a tighter wall-clock bound fails on noise. *)

let max_overhead = 10.0

let n_pairs = 21

let quiet on = if on then Some (Obs.create ~trace:false ~metrics:false ()) else None

let arms =
  [
    ("commit-path", 8000, max_overhead, fun on n -> Perfpoints.commit_path ?obs:(quiet on) n);
    ( "lock-acquire-release",
      40_000,
      max_overhead,
      fun on n -> Perfpoints.lock_path ?obs:(quiet on) n );
    ("timeline-build", 8000, 30.0, fun build n -> Perfpoints.timeline_build ~build n);
    ( "commit-path-sketch",
      8000,
      max_overhead,
      fun on n -> if on then Perfpoints.commit_path_sketch n else Perfpoints.commit_path n );
  ]

let obs_overhead () =
  print_endline "obs-overhead arm       median wall: no sink, sink side    delta  bound";
  List.iter
    (fun (name, runs, bound, run) ->
      let pairs =
        List.init n_pairs (fun i ->
            let side on = time (fun () -> run on runs) in
            if i mod 2 = 0 then
              let off = side false in
              (off, side true)
            else
              let on = side true in
              (side false, on))
      in
      let median l =
        let _, m, _ = quartiles l in
        m
      in
      let delta = 100.0 *. (median (List.map (fun (off, on) -> on /. off) pairs) -. 1.0) in
      Printf.printf "%-20s %10.4fs %10.4fs %+8.2f%% %5.0f%%\n%!" name
        (median (List.map fst pairs))
        (median (List.map snd pairs))
        delta bound;
      if delta > bound then
        fail "%s: observability overhead %+.2f%% exceeds %.0f%%" name delta bound)
    arms

(* {1 Figures at -j 1 and -j N}

   Only identical output is required: the wall times include whatever else
   the machine is doing. *)
let figures () =
  let ids = [ "fig6.7"; "fig6.12" ] in
  let regenerate pool =
    let buf = Buffer.create 4096 in
    let fmt = Format.formatter_of_buffer buf in
    let wall =
      time (fun () -> Experiments.run_many ?pool ~budget:Experiments.quick_budget fmt ids)
    in
    Format.pp_print_flush fmt ();
    (wall, Buffer.contents buf)
  in
  let j = Par.recommended () in
  let wall_1, out_1 = regenerate None in
  let wall_j, out_j = Par.with_pool ~j (fun pool -> regenerate (Some pool)) in
  let what = Printf.sprintf "run %s --quick" (String.concat " " ids) in
  Printf.printf "%s: -j 1 %.2fs, -j %d %.2fs\n%!" what wall_1 j wall_j;
  if out_1 <> out_j then fail "%s: output differs at -j 1 and -j %d" what j

let run () =
  points ();
  obs_overhead ();
  figures ();
  if !failed then exit 1

let cmd =
  Cmd.v
    (Cmd.info "perf"
       ~doc:
         "Print the perf points' counts and wall times; fail on a check that differs between \
          repetitions, an obs-overhead arm above its bound, or figure output that differs at -j \
          1 and -j N")
    Term.(const run $ const ())
