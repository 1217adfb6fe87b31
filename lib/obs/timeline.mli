(** Windowed sim-time telemetry over an {!Obs} event buffer.

    A timeline slices simulated time into fixed-width windows
    [[k*w, (k+1)*w)] and maintains, per window: commit throughput, aborts
    split by the full reason taxonomy (and unsafe aborts further split by
    rw-edge detection source when the sink recorded certificates),
    response-time and lock-wait histograms, memory-retention gauges (live
    SIREAD entries / retained records / summary size), WAL flush counts and
    queue depth, and committed vs. wasted sim-time work. On top sit
    per-transaction-class SLO accounting and a deterministic two-sided
    Page–Hinkley change-point detector.

    Everything derives from the event buffer alone — building a timeline
    never touches the simulator, so it is byte-identical at any [-j] and a
    run with no tracing sink pays nothing ({!of_obs} returns [None]). *)

(** Error-abort counts by reason ({!Core}'s taxonomy; user aborts are
    completed work but counted apart). *)
type reason_counts = {
  mutable rc_deadlock : int;
  mutable rc_fcw : int;  (** first-committer-wins ([Update_conflict]) *)
  mutable rc_unsafe : int;  (** SSI dangerous-structure aborts *)
  mutable rc_user : int;  (** application rollbacks *)
  mutable rc_other : int;  (** duplicate-key / internal errors *)
}

(** One fixed-width window of series state. Gauges ([w_siread],
    [w_retained], [w_summary]) hold the last sample at or before the end of
    the window (empty windows are densified by carrying the previous value
    forward); everything else counts events inside the window. *)
type window = {
  mutable w_commits : int;
  w_aborts : reason_counts;
  w_unsafe_src : int array;
      (** unsafe aborts by certificate edge source — indices follow
          {!unsafe_src_names}; the last slot is "unattributed" (no
          certificate, e.g. provenance off) *)
  w_unsafe_gran : int array;
      (** the same unsafe aborts by blamed-resource granularity
          (row/page/gap from the canonical id prefix, falling back to the
          other pivot edge when the preferred one has no recognisable
          prefix) — indices follow {!unsafe_gran_names}; both splits sum
          with their unattributed slot to [rc_unsafe] per window *)
  w_response : Obs.hist;  (** begin→commit latency of commits in the window *)
  w_lock_wait : Obs.hist;  (** blocking lock waits granted in the window *)
  mutable w_wal_flushes : int;
  mutable w_wal_queue : int;  (** max records still pending at a flush *)
  mutable w_siread : int;  (** live SIREAD lock-table entries *)
  mutable w_retained : int;  (** retained committed-transaction records *)
  mutable w_summary : int;  (** summary-table entries *)
  mutable w_work_committed : float;
      (** sim-time span (begin→commit) of transactions committing here *)
  mutable w_work_wasted : float;
      (** sim-time span (begin→abort) of transactions aborting here —
          the work thrown away, whatever the abort reason *)
}

val unsafe_src_names : string array

val unsafe_gran_names : string array

(** Per-class (workload program) per-window state, from [Class_outcome]
    events. [cw_commits] includes application rollbacks (completed work);
    [cw_aborts] counts error-abort attempts. *)
type class_window = {
  mutable cw_commits : int;
  mutable cw_aborts : int;
  cw_latency : Obs.hist;  (** response time of completed transactions *)
}

type t = {
  tl_width : float;  (** window width, simulated seconds *)
  tl_windows : window array;
  tl_classes : (string * class_window array) list;  (** sorted by name *)
}

(** {1 The window grid}

    Every per-window view of a trace — this module, {!Attrib.blame_windows}
    and {!Flightrec.run} — slices time with these two functions and prints
    numbers with {!num}. *)

(** [ceil (horizon / window)], minimum 1. *)
val window_count : window:float -> horizon:float -> int

(** [floor (ts / window)] clamped into [[0, count - 1]]: windows are
    lower-inclusive, and a timestamp at or beyond the horizon lands in the
    last window. *)
val window_of : window:float -> count:int -> float -> int

(** The one numeric format of every telemetry export (["%.9g"]). *)
val num : float -> string

(** {1 Construction} *)

(** Build a timeline from chronological events and certificates. [horizon]
    fixes the window count ({!window_count}) so trailing quiet windows are
    materialised (densification); it defaults to the last event or
    certificate timestamp. Events at or beyond the horizon clamp into the
    last window. [window] must be positive. *)
val of_events :
  window:float ->
  ?horizon:float ->
  (float * Obs.event) list ->
  Obs.certificate list ->
  t

(** [of_obs ~window obs] builds a timeline from a tracing sink's buffer;
    [None] unless {!Obs.tracing} — a disabled sink allocates no series
    state. *)
val of_obs : window:float -> ?horizon:float -> Obs.t -> t option

(** Merge per-seed timelines (same window width, or [Invalid_argument]):
    counts, histograms and work sums add; retention gauges take the
    cross-seed max (each seed is an independent simulated world, so the
    merged gauge reads "worst seed at this time"). Class lists union by
    name. [merge []] is [Invalid_argument]. *)
val merge : t list -> t

(** {1 Series access} *)

(** Names accepted by {!series} (and the CSV/ndjson column set). *)
val series_names : string list

(** One per-window float series by name; raises [Invalid_argument] on an
    unknown name. Derived series: ["throughput"] = commits/width,
    ["abort-rate"] = error aborts / (commits + error aborts),
    ["p95-response"] / ["mean-response"] / ["mean-lock-wait"] come from the
    per-window histograms. *)
val series : t -> string -> float array

type totals = {
  tt_commits : int;
  tt_aborts : int;  (** error aborts; user aborts are in [tt_user] *)
  tt_user : int;
  tt_work_committed : float;
  tt_work_wasted : float;
}

val totals : t -> totals

(** {1 Export} *)

(** CSV: header then one row per window ([window,t0,...] plus [columns],
    default {!series_names}). Numbers are printed with a fixed format, so
    identical timelines render byte-identically. *)
val to_csv : ?columns:string list -> Buffer.t -> t -> unit

(** One JSON object per window per line, same fields as the CSV. *)
val to_ndjson : Buffer.t -> t -> unit

(** Chrome-trace counter records (one ["C"] record per series per window,
    named ["tl:<series>"]) for {!Obs.write_trace}'s [extra] — the timeline
    renders alongside spans and resource counters in one viewer. *)
val counter_records : ?columns:string list -> t -> string list

(** {1 Per-class SLOs} *)

type slo = {
  slo_abort_rate : float;  (** max error aborts per completed transaction *)
  slo_p95 : float;  (** max p95 response, simulated seconds *)
}

type slo_report = {
  sr_class : string;
  sr_active : int;  (** windows with any activity for this class *)
  sr_violations : int;  (** windows violating either target *)
  sr_abort_viol : int;
  sr_p95_viol : int;
  sr_time_in_violation : float;  (** [violations * width], simulated seconds *)
  sr_worst_abort_rate : float;
  sr_worst_p95 : float;
}

(** Error aborts per completed transaction and p95 response of one class
    window, [None] when the class was quiet in it. With error aborts and
    no completions the rate is [infinity]. *)
val class_rates : class_window -> (float * float) option

(** Evaluate [slo] per class per window ({!class_rates} against each
    target; quiet windows skipped). *)
val slo_eval : t -> slo -> slo_report list

(** {1 Change-point detection}

    Two-sided Page–Hinkley over a named series. Deterministic pure fold:
    running mean [mu_t], cumulative deviation [m_t += x_t - mu_t -. delta]
    (and the mirrored sum for downward shifts), alarm when the deviation
    exceeds its running minimum by more than [lambda]; state resets after
    each alarm. [delta] defaults to [0.05 * mean(series)], [lambda] to
    [0.5 * mean(series)] — scale-free defaults that fire on a sustained
    step and stay quiet on a stationary series. *)

type mark = {
  mk_window : int;
  mk_ts : float;  (** window start time *)
  mk_series : string;
  mk_direction : [ `Up | `Down ];
}

val change_points : ?delta:float -> ?lambda:float -> t -> series:string -> mark list
