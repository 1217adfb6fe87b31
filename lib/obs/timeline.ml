(* Windowed sim-time telemetry built from an Obs event buffer (see
   timeline.mli and DESIGN.md "Timeline telemetry").

   Construction is a single chronological pass over the events plus one
   pass over the certificates: O(1) work per event into a preallocated
   window array, no simulator access, no RNG, no wall clock — so a
   timeline is a pure function of the trace and byte-identical wherever it
   is built (any -j, any host). A run without a tracing sink never reaches
   this module ([of_obs] returns [None] before allocating anything). *)

type reason_counts = {
  mutable rc_deadlock : int;
  mutable rc_fcw : int;
  mutable rc_unsafe : int;
  mutable rc_user : int;
  mutable rc_other : int;
}

type window = {
  mutable w_commits : int;
  w_aborts : reason_counts;
  w_unsafe_src : int array;
  w_unsafe_gran : int array;
  w_response : Obs.hist;
  w_lock_wait : Obs.hist;
  mutable w_wal_flushes : int;
  mutable w_wal_queue : int;
  mutable w_siread : int;
  mutable w_retained : int;
  mutable w_summary : int;
  mutable w_work_committed : float;
  mutable w_work_wasted : float;
}

(* Indices 0-4 follow Obs.conflict_source declaration order; the last slot
   collects unsafe aborts with no certificate edge to attribute (for
   example when the sink had provenance off). *)
let unsafe_src_names =
  [| "newer-version"; "siread-x"; "page-stamp"; "gap"; "unknown-writer"; "unattributed" |]

let src_index = function
  | Obs.Newer_version -> 0
  | Obs.Siread_vs_x -> 1
  | Obs.Page_stamp -> 2
  | Obs.Gap -> 3
  | Obs.Unknown_writer -> 4

(* Second attribution axis over the same certificates: the granularity of
   the blamed resource, read off the canonical id prefix ("r|p|g/..."). The
   last slot again absorbs whatever no certificate edge could attribute. *)
let unsafe_gran_names = [| "row"; "page"; "gap"; "unattributed" |]

let gran_index resource =
  if String.length resource = 0 then None
  else
    match resource.[0] with
    | 'r' -> Some 0
    | 'p' -> Some 1
    | 'g' -> Some 2
    | _ -> None

type class_window = {
  mutable cw_commits : int;
  mutable cw_aborts : int;
  cw_latency : Obs.hist;
}

type t = {
  tl_width : float;
  tl_windows : window array;
  tl_classes : (string * class_window array) list;
}

let window_create () =
  {
    w_commits = 0;
    w_aborts = { rc_deadlock = 0; rc_fcw = 0; rc_unsafe = 0; rc_user = 0; rc_other = 0 };
    w_unsafe_src = Array.make (Array.length unsafe_src_names) 0;
    w_unsafe_gran = Array.make (Array.length unsafe_gran_names) 0;
    w_response = Obs.hist_create ();
    w_lock_wait = Obs.hist_create ();
    w_wal_flushes = 0;
    w_wal_queue = 0;
    w_siread = 0;
    w_retained = 0;
    w_summary = 0;
    w_work_committed = 0.0;
    w_work_wasted = 0.0;
  }

let class_window_create () = { cw_commits = 0; cw_aborts = 0; cw_latency = Obs.hist_create () }

(* {1 The window grid} *)

let window_count ~window ~horizon = max 1 (int_of_float (Float.ceil (horizon /. window)))

(* floor(ts / width), clamped: an event exactly at k*window lands in window
   k (lower-inclusive), and events at or past the horizon (e.g. the closing
   instant itself) clamp into the last window rather than growing the
   array. *)
let window_of ~window ~count ts =
  let i = int_of_float (Float.floor (ts /. window)) in
  if i < 0 then 0 else if i >= count then count - 1 else i

(* One fixed numeric format for every telemetry export ("%.9g": enough
   digits to round-trip the counts and sim-time sums that actually occur,
   no trailing-zero noise), so equal data prints byte-identically — the
   property the -j1/-j4 diff rules pin. *)
let num v = Printf.sprintf "%.9g" v

(* {1 Construction} *)

let of_events ~window ?horizon events certs =
  if not (window > 0.0) then invalid_arg "Timeline.of_events: window width must be positive";
  let horizon =
    match horizon with
    | Some h -> h
    | None ->
        let last = List.fold_left (fun acc (ts, _) -> Float.max acc ts) 0.0 events in
        List.fold_left (fun acc c -> Float.max acc c.Obs.c_ts) last certs
  in
  let n = window_count ~window ~horizon in
  let w = Array.init n (fun _ -> window_create ()) in
  let idx ts = window_of ~window ~count:n ts in
  let has_mem = Array.make n false in
  let classes : (string, class_window array) Hashtbl.t = Hashtbl.create 8 in
  let class_rows cls =
    match Hashtbl.find_opt classes cls with
    | Some rows -> rows
    | None ->
        let rows = Array.init n (fun _ -> class_window_create ()) in
        Hashtbl.add classes cls rows;
        rows
  in
  List.iter
    (fun (ts, e) ->
      match e with
      | Obs.Txn_commit { start; _ } ->
          let b = w.(idx ts) in
          let span = ts -. start in
          b.w_commits <- b.w_commits + 1;
          Obs.hist_add b.w_response span;
          b.w_work_committed <- b.w_work_committed +. span
      | Obs.Txn_abort { start; reason; _ } ->
          let b = w.(idx ts) in
          let rc = b.w_aborts in
          (match reason with
          | "deadlock" -> rc.rc_deadlock <- rc.rc_deadlock + 1
          | "update-conflict" -> rc.rc_fcw <- rc.rc_fcw + 1
          | "unsafe" -> rc.rc_unsafe <- rc.rc_unsafe + 1
          | "user-abort" -> rc.rc_user <- rc.rc_user + 1
          | _ -> rc.rc_other <- rc.rc_other + 1);
          (* Wasted work: the whole begin->abort span is attributed to the
             abort window, for every reason including application rollbacks
             — at the engine level the span produced no committed effect. *)
          b.w_work_wasted <- b.w_work_wasted +. (ts -. start)
      | Obs.Lock_grant { waited; _ } ->
          if waited > 0.0 then Obs.hist_add w.(idx ts).w_lock_wait waited
      | Obs.Wal_flush { queued; _ } ->
          let b = w.(idx ts) in
          b.w_wal_flushes <- b.w_wal_flushes + 1;
          if queued > b.w_wal_queue then b.w_wal_queue <- queued
      | Obs.Mem_sample { siread; retained_siread; retained_record; summary } ->
          (* Gauge: the last sample in the window wins (chronological
             iteration), densified across quiet windows below. *)
          let i = idx ts in
          w.(i).w_siread <- siread;
          w.(i).w_retained <- retained_siread + retained_record;
          w.(i).w_summary <- summary;
          has_mem.(i) <- true
      | Obs.Class_outcome { cls; outcome; latency } -> (
          let cw = (class_rows cls).(idx ts) in
          match outcome with
          | "commit" | "user-abort" ->
              cw.cw_commits <- cw.cw_commits + 1;
              Obs.hist_add cw.cw_latency latency
          | _ -> cw.cw_aborts <- cw.cw_aborts + 1)
      | _ -> ())
    events;
  (* Unsafe-abort attribution, two axes over the same certificates: the
     detection source of the pivot edge (outgoing edge preferred — it is
     the edge that completed the dangerous structure) and the granularity
     of the blamed resource (row/page/gap from the canonical id prefix).
     The granularity axis falls back to the other edge's resource when the
     preferred edge's id has no recognisable prefix, so fewer aborts land
     in its unattributed slot. *)
  List.iter
    (fun c ->
      if c.Obs.c_reason = "unsafe" then
        match c.Obs.c_cert with
        | Obs.Ssi_pivot { sp_out_edge; sp_in_edge; _ } -> (
            match (sp_out_edge, sp_in_edge) with
            | Some e, other | (None as other), Some e ->
                let b = w.(idx c.Obs.c_ts) in
                let s = src_index e.Obs.ce_source in
                b.w_unsafe_src.(s) <- b.w_unsafe_src.(s) + 1;
                let gran =
                  match gran_index e.Obs.ce_resource with
                  | Some g -> Some g
                  | None -> Option.bind other (fun o -> gran_index o.Obs.ce_resource)
                in
                Option.iter
                  (fun g -> b.w_unsafe_gran.(g) <- b.w_unsafe_gran.(g) + 1)
                  gran
            | None, None -> ())
        | _ -> ())
    certs;
  (* Whatever the certificates could not attribute stays visible as its own
     slot instead of silently vanishing from either split. *)
  Array.iter
    (fun b ->
      let attributed = ref 0 in
      for s = 0 to 4 do
        attributed := !attributed + b.w_unsafe_src.(s)
      done;
      b.w_unsafe_src.(5) <- max 0 (b.w_aborts.rc_unsafe - !attributed);
      let gran_attributed = ref 0 in
      for g = 0 to 2 do
        gran_attributed := !gran_attributed + b.w_unsafe_gran.(g)
      done;
      b.w_unsafe_gran.(3) <- max 0 (b.w_aborts.rc_unsafe - !gran_attributed))
    w;
  (* Densify the retention gauges: a window with no commit (hence no
     Mem_sample) carries the previous window's state forward, so the series
     reads as the level that was actually in force, not as a dip to zero. *)
  for i = 1 to n - 1 do
    if not has_mem.(i) then begin
      w.(i).w_siread <- w.(i - 1).w_siread;
      w.(i).w_retained <- w.(i - 1).w_retained;
      w.(i).w_summary <- w.(i - 1).w_summary
    end
  done;
  let tl_classes =
    Hashtbl.fold (fun name rows acc -> (name, rows) :: acc) classes []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { tl_width = window; tl_windows = w; tl_classes }

let of_obs ~window ?horizon obs =
  if not (Obs.tracing obs) then None
  else Some (of_events ~window ?horizon (Obs.events obs) (Obs.certs obs))

(* {1 Merge} *)

let merge = function
  | [] -> invalid_arg "Timeline.merge: empty list"
  | first :: _ as tls ->
      let width = first.tl_width in
      List.iter
        (fun tl ->
          if tl.tl_width <> width then
            invalid_arg "Timeline.merge: window widths differ")
        tls;
      let n = List.fold_left (fun acc tl -> max acc (Array.length tl.tl_windows)) 0 tls in
      let w = Array.init n (fun _ -> window_create ()) in
      List.iter
        (fun tl ->
          Array.iteri
            (fun i src ->
              let dst = w.(i) in
              dst.w_commits <- dst.w_commits + src.w_commits;
              dst.w_aborts.rc_deadlock <- dst.w_aborts.rc_deadlock + src.w_aborts.rc_deadlock;
              dst.w_aborts.rc_fcw <- dst.w_aborts.rc_fcw + src.w_aborts.rc_fcw;
              dst.w_aborts.rc_unsafe <- dst.w_aborts.rc_unsafe + src.w_aborts.rc_unsafe;
              dst.w_aborts.rc_user <- dst.w_aborts.rc_user + src.w_aborts.rc_user;
              dst.w_aborts.rc_other <- dst.w_aborts.rc_other + src.w_aborts.rc_other;
              Array.iteri
                (fun s v -> dst.w_unsafe_src.(s) <- dst.w_unsafe_src.(s) + v)
                src.w_unsafe_src;
              Array.iteri
                (fun g v -> dst.w_unsafe_gran.(g) <- dst.w_unsafe_gran.(g) + v)
                src.w_unsafe_gran;
              Obs.hist_merge ~into:dst.w_response src.w_response;
              Obs.hist_merge ~into:dst.w_lock_wait src.w_lock_wait;
              dst.w_wal_flushes <- dst.w_wal_flushes + src.w_wal_flushes;
              if src.w_wal_queue > dst.w_wal_queue then dst.w_wal_queue <- src.w_wal_queue;
              (* Seeds are independent simulated worlds, so summing their
                 retention gauges would describe no real machine; the max
                 reads as "worst seed at this point of the run". *)
              if src.w_siread > dst.w_siread then dst.w_siread <- src.w_siread;
              if src.w_retained > dst.w_retained then dst.w_retained <- src.w_retained;
              if src.w_summary > dst.w_summary then dst.w_summary <- src.w_summary;
              dst.w_work_committed <- dst.w_work_committed +. src.w_work_committed;
              dst.w_work_wasted <- dst.w_work_wasted +. src.w_work_wasted)
            tl.tl_windows)
        tls;
      let class_tbl : (string, class_window array) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun tl ->
          List.iter
            (fun (name, rows) ->
              let dst =
                match Hashtbl.find_opt class_tbl name with
                | Some d -> d
                | None ->
                    let d = Array.init n (fun _ -> class_window_create ()) in
                    Hashtbl.add class_tbl name d;
                    d
              in
              Array.iteri
                (fun i src ->
                  dst.(i).cw_commits <- dst.(i).cw_commits + src.cw_commits;
                  dst.(i).cw_aborts <- dst.(i).cw_aborts + src.cw_aborts;
                  Obs.hist_merge ~into:dst.(i).cw_latency src.cw_latency)
                rows)
            tl.tl_classes)
        tls;
      let tl_classes =
        Hashtbl.fold (fun name rows acc -> (name, rows) :: acc) class_tbl []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      { tl_width = width; tl_windows = w; tl_classes }

(* {1 Series access} *)

let series_names =
  [
    "throughput";
    "commits";
    "aborts";
    "abort-rate";
    "deadlock";
    "fcw";
    "unsafe";
    "user-abort";
    "other";
    "unsafe-newer-version";
    "unsafe-siread-x";
    "unsafe-page-stamp";
    "unsafe-gap";
    "unsafe-unknown-writer";
    "unsafe-unattributed";
    "unsafe-res-row";
    "unsafe-res-page";
    "unsafe-res-gap";
    "unsafe-res-unattributed";
    "mean-response";
    "p95-response";
    "lock-waits";
    "mean-lock-wait";
    "siread";
    "retained";
    "summary";
    "wal-flushes";
    "wal-queue";
    "work-committed";
    "work-wasted";
  ]

let error_aborts b =
  b.w_aborts.rc_deadlock + b.w_aborts.rc_fcw + b.w_aborts.rc_unsafe + b.w_aborts.rc_other

let series tl name =
  let f =
    match name with
    | "throughput" -> fun b -> float_of_int b.w_commits /. tl.tl_width
    | "commits" -> fun b -> float_of_int b.w_commits
    | "aborts" -> fun b -> float_of_int (error_aborts b)
    | "abort-rate" ->
        fun b ->
          let a = error_aborts b in
          let total = b.w_commits + a in
          if total = 0 then 0.0 else float_of_int a /. float_of_int total
    | "deadlock" -> fun b -> float_of_int b.w_aborts.rc_deadlock
    | "fcw" -> fun b -> float_of_int b.w_aborts.rc_fcw
    | "unsafe" -> fun b -> float_of_int b.w_aborts.rc_unsafe
    | "user-abort" -> fun b -> float_of_int b.w_aborts.rc_user
    | "other" -> fun b -> float_of_int b.w_aborts.rc_other
    | "unsafe-newer-version" -> fun b -> float_of_int b.w_unsafe_src.(0)
    | "unsafe-siread-x" -> fun b -> float_of_int b.w_unsafe_src.(1)
    | "unsafe-page-stamp" -> fun b -> float_of_int b.w_unsafe_src.(2)
    | "unsafe-gap" -> fun b -> float_of_int b.w_unsafe_src.(3)
    | "unsafe-unknown-writer" -> fun b -> float_of_int b.w_unsafe_src.(4)
    | "unsafe-unattributed" -> fun b -> float_of_int b.w_unsafe_src.(5)
    | "unsafe-res-row" -> fun b -> float_of_int b.w_unsafe_gran.(0)
    | "unsafe-res-page" -> fun b -> float_of_int b.w_unsafe_gran.(1)
    | "unsafe-res-gap" -> fun b -> float_of_int b.w_unsafe_gran.(2)
    | "unsafe-res-unattributed" -> fun b -> float_of_int b.w_unsafe_gran.(3)
    | "mean-response" -> fun b -> Obs.hist_mean b.w_response
    | "p95-response" ->
        fun b -> if Obs.hist_count b.w_response = 0 then 0.0 else Obs.hist_percentile b.w_response 0.95
    | "lock-waits" -> fun b -> float_of_int (Obs.hist_count b.w_lock_wait)
    | "mean-lock-wait" -> fun b -> Obs.hist_mean b.w_lock_wait
    | "siread" -> fun b -> float_of_int b.w_siread
    | "retained" -> fun b -> float_of_int b.w_retained
    | "summary" -> fun b -> float_of_int b.w_summary
    | "wal-flushes" -> fun b -> float_of_int b.w_wal_flushes
    | "wal-queue" -> fun b -> float_of_int b.w_wal_queue
    | "work-committed" -> fun b -> b.w_work_committed
    | "work-wasted" -> fun b -> b.w_work_wasted
    | _ -> invalid_arg ("Timeline.series: unknown series " ^ name)
  in
  Array.map f tl.tl_windows

type totals = {
  tt_commits : int;
  tt_aborts : int;
  tt_user : int;
  tt_work_committed : float;
  tt_work_wasted : float;
}

let totals tl =
  Array.fold_left
    (fun acc b ->
      {
        tt_commits = acc.tt_commits + b.w_commits;
        tt_aborts = acc.tt_aborts + error_aborts b;
        tt_user = acc.tt_user + b.w_aborts.rc_user;
        tt_work_committed = acc.tt_work_committed +. b.w_work_committed;
        tt_work_wasted = acc.tt_work_wasted +. b.w_work_wasted;
      })
    { tt_commits = 0; tt_aborts = 0; tt_user = 0; tt_work_committed = 0.0; tt_work_wasted = 0.0 }
    tl.tl_windows

(* {1 Export} *)

let to_csv ?(columns = series_names) buf tl =
  let cols = List.map (fun c -> (c, series tl c)) columns in
  Buffer.add_string buf "window,t0";
  List.iter
    (fun (c, _) ->
      Buffer.add_char buf ',';
      Buffer.add_string buf c)
    cols;
  Buffer.add_char buf '\n';
  Array.iteri
    (fun i _ ->
      Buffer.add_string buf (string_of_int i);
      Buffer.add_char buf ',';
      Buffer.add_string buf (num (float_of_int i *. tl.tl_width));
      List.iter
        (fun (_, xs) ->
          Buffer.add_char buf ',';
          Buffer.add_string buf (num xs.(i)))
        cols;
      Buffer.add_char buf '\n')
    tl.tl_windows

let to_ndjson buf tl =
  let cols = List.map (fun c -> (c, series tl c)) series_names in
  Array.iteri
    (fun i _ ->
      Buffer.add_string buf (Printf.sprintf {|{"window":%d,"t0":%s|} i (num (float_of_int i *. tl.tl_width)));
      List.iter
        (fun (c, xs) -> Buffer.add_string buf (Printf.sprintf {|,"%s":%s|} c (num xs.(i))))
        cols;
      Buffer.add_string buf "}\n")
    tl.tl_windows

let counter_records ?(columns = series_names) tl =
  let cols = List.map (fun c -> (c, series tl c)) columns in
  let out = ref [] in
  Array.iteri
    (fun i _ ->
      let ts = float_of_int i *. tl.tl_width in
      List.iter
        (fun (c, xs) ->
          let buf = Buffer.create 96 in
          Obs.trace_counter buf ~name:("tl:" ^ c) ~ts [ ("v", num xs.(i)) ];
          out := Buffer.contents buf :: !out)
        cols)
    tl.tl_windows;
  List.rev !out

(* {1 Per-class SLOs} *)

type slo = { slo_abort_rate : float; slo_p95 : float }

type slo_report = {
  sr_class : string;
  sr_active : int;
  sr_violations : int;
  sr_abort_viol : int;
  sr_p95_viol : int;
  sr_time_in_violation : float;
  sr_worst_abort_rate : float;
  sr_worst_p95 : float;
}

let class_rates cw =
  if cw.cw_commits + cw.cw_aborts = 0 then None
  else
    let rate =
      if cw.cw_commits > 0 then float_of_int cw.cw_aborts /. float_of_int cw.cw_commits
      else infinity
    in
    let p95 =
      if Obs.hist_count cw.cw_latency = 0 then 0.0 else Obs.hist_percentile cw.cw_latency 0.95
    in
    Some (rate, p95)

let slo_eval tl slo =
  List.map
    (fun (name, rows) ->
      let active = ref 0 and viol = ref 0 and aviol = ref 0 and pviol = ref 0 in
      let worst_rate = ref 0.0 and worst_p95 = ref 0.0 in
      Array.iter
        (fun cw ->
          match class_rates cw with
          | None -> ()
          | Some (rate, p95) ->
              incr active;
              if rate > !worst_rate then worst_rate := rate;
              if p95 > !worst_p95 then worst_p95 := p95;
              let av = rate > slo.slo_abort_rate in
              let pv = p95 > slo.slo_p95 in
              if av then incr aviol;
              if pv then incr pviol;
              if av || pv then incr viol)
        rows;
      {
        sr_class = name;
        sr_active = !active;
        sr_violations = !viol;
        sr_abort_viol = !aviol;
        sr_p95_viol = !pviol;
        sr_time_in_violation = float_of_int !viol *. tl.tl_width;
        sr_worst_abort_rate = !worst_rate;
        sr_worst_p95 = !worst_p95;
      })
    tl.tl_classes

(* {1 Change-point detection}

   Two-sided Page-Hinkley. For an upward shift: with a running mean mu_t,
   accumulate m_t += x_t - mu_t - delta and track its minimum M_t; under a
   stationary series m_t drifts down (the -delta drag) together with M_t,
   while after a sustained upward step x_t - mu_t stays positive and
   m_t - M_t grows past lambda. The downward side mirrors the deviation.
   State resets after each alarm so consecutive shifts each get a mark.
   Pure fold over the series: no RNG, no clock, deterministic. *)

type mark = {
  mk_window : int;
  mk_ts : float;
  mk_series : string;
  mk_direction : [ `Up | `Down ];
}

let change_points ?delta ?lambda tl ~series:name =
  let xs = series tl name in
  let n = Array.length xs in
  let mean = if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let delta = match delta with Some d -> d | None -> 0.05 *. mean in
  let lambda = match lambda with Some l -> l | None -> 0.5 *. mean in
  if not (lambda > 0.0) then []
  else begin
    let marks = ref [] in
    let count = ref 0 and mu = ref 0.0 in
    let m_up = ref 0.0 and min_up = ref 0.0 in
    let m_dn = ref 0.0 and min_dn = ref 0.0 in
    let reset () =
      count := 0;
      mu := 0.0;
      m_up := 0.0;
      min_up := 0.0;
      m_dn := 0.0;
      min_dn := 0.0
    in
    Array.iteri
      (fun i x ->
        incr count;
        mu := !mu +. ((x -. !mu) /. float_of_int !count);
        m_up := !m_up +. (x -. !mu -. delta);
        if !m_up < !min_up then min_up := !m_up;
        m_dn := !m_dn +. (!mu -. x -. delta);
        if !m_dn < !min_dn then min_dn := !m_dn;
        let mk direction =
          marks :=
            { mk_window = i; mk_ts = float_of_int i *. tl.tl_width; mk_series = name; mk_direction = direction }
            :: !marks;
          reset ()
        in
        if !m_up -. !min_up > lambda then mk `Up
        else if !m_dn -. !min_dn > lambda then mk `Down)
      xs;
    List.rev !marks
  end
