(** Observability: one engine probe. Each choke point builds one typed
    {!event} and calls {!emit}; the sink passes it to the consumers it was
    created with — the trace buffer (Chrome-trace exporter, timeline, flight
    recorder), the metrics fold (log-bucket latency histograms, conflict
    counters, high-water marks) and the per-resource sketch fold.

    Everything recorded derives only from simulated time, transaction ids
    and resource names; recording never touches the simulator or any RNG, so
    benchmark results are byte-identical with any consumer on or off. Call
    sites guard with {!on} (events a counter reads) or {!tracing} (events
    only the trace reads) before building an event, making a disabled sink
    cost a single branch. *)

(** {1 Conflict-edge sources} *)

(** Where an rw-antidependency was detected; splitting counters by source
    makes the paper's §6.1.5 false-positive discussion measurable. *)
type conflict_source =
  | Newer_version  (** read ignored a version newer than the snapshot *)
  | Siread_vs_x  (** SIREAD met a concurrent X lock (either order) *)
  | Page_stamp  (** page updated after the snapshot (Berkeley DB mode) *)
  | Gap  (** edge on a next-key gap resource (phantom protection) *)
  | Unknown_writer  (** writer's record gone; conservative self-edge *)

val conflict_source_to_string : conflict_source -> string

(** {1 Abort provenance}

    Structured certificates attached to aborts: for SSI the full pivot
    triple [T_in ->rw T_pivot ->rw T_out] with the resource and detection
    source behind each edge, endpoint commit-states and the victim-policy
    rule that fired; for S2PL the deadlock cycle; for first-committer-wins
    the blocking version. Plain int/string data — the engine fills these in
    and renders the DOT snapshot. *)

(** Commit-state of a pivot neighbour at the instant the victim was
    chosen. *)
type endpoint_state = Ep_active | Ep_committing | Ep_committed | Ep_aborted | Ep_gone

val endpoint_state_to_string : endpoint_state -> string

(** One recorded rw-antidependency: [ce_reader] read something [ce_writer]
    (concurrently) wrote, detected via [ce_source] on [ce_resource]
    (["r/<table>/<key>"], ["g/<table>/<key>"], or ["p/<table>/<page>"]). *)
type cert_edge = {
  ce_reader : int;
  ce_writer : int;
  ce_source : conflict_source;
  ce_resource : string;
}

type cert =
  | Ssi_pivot of {
      sp_victim : int;
      sp_policy : string;  (** which victim rule fired, e.g. ["prefer-pivot"] *)
      sp_pivot : int;
      sp_t_in : int option;  (** [None]: self-edge (squashed [Self_conflict]) *)
      sp_in_state : endpoint_state;
      sp_t_out : int option;
      sp_out_state : endpoint_state;
      sp_in_edge : cert_edge option;  (** edge detail, when recorded *)
      sp_out_edge : cert_edge option;
    }
  | Deadlock_cycle of {
      dc_victim : int;
      dc_cycle : int list;  (** owners in cycle order, victim first *)
      dc_waits : (int * string) list;  (** owner -> resource it waits on *)
    }
  | Fcw_block of {
      fb_txn : int;
      fb_resource : string;
      fb_blocking_commit : int;  (** commit ts of the blocking version *)
      fb_blocking_writer : int;  (** [-1] when the writer id is unknown *)
      fb_snapshot : int;
    }

type certificate = {
  c_ts : float;  (** simulated time of the abort decision *)
  c_reason : string;  (** abort reason, e.g. ["unsafe"], ["deadlock"] *)
  c_cert : cert;
  c_dot : string;  (** Graphviz snapshot of the live dep graph; [""] if off *)
}

val cert_victim : certificate -> int

(** Canonical grouping label: pivot shape (edge sources + endpoint states)
    for SSI, cycle length for deadlocks, resource kind for FCW. *)
val cert_shape : certificate -> string

(** One self-contained JSON object, single line, no trailing newline. *)
val cert_to_json : certificate -> string

(** Escape a string for a double-quoted Graphviz DOT label (quotes,
    backslashes, non-printable bytes). *)
val dot_escape : string -> string

(** Structural well-formedness check for the DOT snapshots emitted with
    {!dot_escape}-escaped labels: digraph header, per-line balanced quoted
    strings, [;]-terminated statements, balanced braces. Returns the first
    offending line on failure. Used by the test suite and the CI smoke
    target (no Graphviz needed). *)
val dot_validate : string -> (unit, string) result

(** {1 Log-bucket histograms} *)

(** Fixed power-of-two buckets from 1ns; {!hist_add} allocates nothing. *)
type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_max : float;
  h_b : int array;
}

val hist_create : unit -> hist

(** Bucket index for a latency of [v_ns] nanoseconds: bucket [i] covers
    [[2^i, 2^{i+1})] ns, lower-inclusive, computed with [Float.frexp] so a
    value exactly on a bucket boundary lands in the same bucket on every
    platform (no libm [log2] rounding). Values below 1ns clamp to bucket 0,
    values at or above [2^64] ns to the last bucket. *)
val hist_bucket_of_ns : float -> int

val hist_add : hist -> float -> unit

val hist_count : hist -> int

val hist_mean : hist -> float

val hist_max : hist -> float

(** p-quantile estimate, linearly interpolated within the target bucket
    (assuming a uniform spread of ranks across the bucket) and clamped to
    {!hist_max} — so a one-sample histogram returns the exact value. *)
val hist_percentile : hist -> float -> float

val hist_copy : hist -> hist

val hist_merge : into:hist -> hist -> unit

(** {1 Metrics} *)

type metrics = {
  m_commit_latency : hist;  (** begin to commit, simulated seconds *)
  m_abort_latency : hist;  (** begin to rollback *)
  m_lock_wait : hist;  (** per blocking lock acquisition *)
  mutable m_conflict_newer_version : int;
  mutable m_conflict_siread_x : int;
  mutable m_conflict_page_stamp : int;
  mutable m_conflict_gap : int;
  mutable m_conflict_unknown : int;
  mutable m_doomed : int;  (** victims doomed by another transaction *)
  mutable m_wal_flushes : int;
  mutable m_cleanup_runs : int;  (** cleanup passes that released records *)
  mutable m_cleanup_released : int;  (** committed records released *)
  mutable m_siread_hwm : int;  (** max SIREAD locks held by one txn *)
  mutable m_retained_hwm : int;
      (** max retained committed-txn records (both kinds together) *)
  mutable m_retained_siread_hwm : int;
      (** max retained committed txns still holding SIREAD locks *)
  mutable m_retained_record_hwm : int;
      (** max retained plain committed records (no SIREADs) *)
  mutable m_siread_live_hwm : int;  (** max live SIREAD lock-table entries *)
  mutable m_promotions : int;  (** row→page SIREAD granularity promotions *)
  mutable m_summarized : int;  (** committed txns folded into the summary *)
  mutable m_summary_hwm : int;  (** max summary-table entries *)
  mutable m_budget_pressure : int;  (** commits that triggered summarization *)
  mutable m_checkpoints : int;  (** WAL checkpoint records hardened *)
}

val metrics_create : unit -> metrics

val metrics_copy : metrics -> metrics

val metrics_merge : into:metrics -> metrics -> unit

val conflict_sources : metrics -> (conflict_source * int) list

val conflict_total : metrics -> int

val pp_metrics : Format.formatter -> metrics -> unit

(** {1 Events}

    The trace buffer keeps every event except the counter-only ones; the
    metrics and sketch folds read the events noted below. *)

type event =
  | Txn_begin of { txn : int; iso : string; ro : bool }
      (** trace only; also opens the ["txn"] span *)
  | Txn_commit of {
      txn : int;
      start : float;
      commit_ts : int;
      n_writes : int;
      retained_siread : int;
      retained_record : int;
    }
      (** closes the ["txn"] span; metrics: commit latency and the retained
          high-water marks ([retained_*] are the retained committed txns by
          kind, this one included, sampled before cleanup) *)
  | Txn_abort of { txn : int; start : float; reason : string }
      (** closes the ["txn"] span; metrics: abort latency *)
  | Lock_acquire of { owner : int; mode : string; resource : string }  (** trace only *)
  | Lock_block of { owner : int; mode : string; resource : string }
      (** trace only; also opens the ["lock-wait"] span *)
  | Lock_grant of { owner : int; mode : string; resource : string; waited : float }
      (** a blocked acquisition granted; closes the ["lock-wait"] span;
          metrics: lock-wait histogram; sketch: lock waits *)
  | Lock_release_all of { owner : int; kept_siread : bool }  (** trace only *)
  | Deadlock of { victim : int; resource : string }  (** trace only *)
  | Wal_flush of { epoch : int; latency : float; queued : int }
      (** group-commit flush completion; [queued] is the number of records
          still pending (later epochs) when the flush hardened; metrics *)
  | Conflict_edge of { reader : int; writer : int; source : conflict_source; resource : string }
      (** an rw-antidependency detected on [resource]; metrics: per-source
          counter; sketch: conflicts *)
  | Victim_doomed of { victim : int; by : int; reason : string }  (** metrics *)
  | Cleanup of { released : int; retained : int }
      (** a cleanup pass that released [released > 0] records; metrics *)
  | Promotion of { txn : int; table : string; page : int; rows : int; resource : string }
      (** bounded-memory mode: [rows] row SIREADs on [page] collapsed into
          one page SIREAD on [resource]; metrics; sketch *)
  | Summarize of { txns : int; entries : int; retained : int; summary : int }
      (** bounded-memory mode: a budget-pressure pass folded [txns] retained
          committed txns into [entries] summary-table records, leaving
          [summary] entries in the table; metrics *)
  | Wal_checkpoint of { epoch : int; watermark : int; next_ts : int }
      (** a checkpoint record was hardened: [watermark] is the oldest active
          snapshot, [next_ts] the commit-ts allocator at checkpoint time;
          metrics *)
  | Crash_inject of { plan : string }
      (** a seeded fault plan fired (compact [Wal.plan_to_string] form);
          trace only *)
  | Recovery of { replayed : int; committed : int; in_doubt : int; torn_bytes : int }
      (** recovery replayed the durable log prefix; trace only *)
  | Span_b of { tid : int; name : string; cat : string }
      (** Profiler span open (Chrome-trace ["B"]); paired by (tid, nesting).
          Trace only. *)
  | Span_e of { tid : int; name : string; cat : string }
      (** Profiler span close (Chrome-trace ["E"]). Trace only. *)
  | Res_sample of { res : string; in_use : int; queued : int }
      (** k-server resource state at a state change: busy servers and queue
          depth (exported as Chrome-trace ["C"] counter events). Trace
          only. *)
  | Mem_sample of { siread : int; retained_siread : int; retained_record : int; summary : int }
      (** per-commit memory-pressure sample: live SIREAD lock-table entries,
          retained committed txns by kind, summary-table size. Trace only. *)
  | Class_outcome of { cls : string; outcome : string; latency : float }
      (** workload-driver outcome of one transaction attempt: program
          (class) name, outcome (["commit"], ["user-abort"], or an
          abort-reason string) and response time. Trace only. *)
  | Siread_grant of { resource : string; held : int; live : int }
      (** counter-only: a SIREAD lock granted on [resource]; [held] is the
          holder's SIREAD count and [live] the lock table's after the grant;
          metrics: SIREAD high-water marks; sketch: SIREAD grants *)
  | Fcw_abort of { resource : string }
      (** counter-only: a first-committer-wins abort blocked by a version or
          page stamp on [resource]; sketch: FCW blame *)
  | Summarized of { resource : string }
      (** counter-only: one resource folded into the summary table; sketch *)

(** {1 The sink} *)

type t

(** [create ~trace ~metrics ~provenance ~sketch ()]: [trace] buffers
    structured events for {!write_trace}; [metrics] installs the
    counter/histogram fold; [provenance] makes the engine record per-edge
    conflict detail and attach a {!certificate} to every abort; [sketch]
    (a capacity, 0 or absent = off) installs a per-resource attribution
    {!Sketch.t} fold. Defaults: trace off, metrics on, provenance off,
    sketch off. *)
val create : ?trace:bool -> ?metrics:bool -> ?provenance:bool -> ?sketch:int -> unit -> t

(** A shared, permanently-off sink; the default carried by a database. *)
val disabled : t

(** Some consumer of events is installed (trace, metrics or sketch): guard
    for events a counter reads. *)
val on : t -> bool

(** The trace buffer is installed: guard for trace-only events. *)
val tracing : t -> bool

(** Certificates are recorded: guard for building a {!certificate}. *)
val provenance_on : t -> bool

(** The attribution sketch, when one was installed at {!create}. *)
val sketch : t -> Sketch.t option

(** Append a certificate. No-op unless {!provenance_on}. *)
val add_cert : t -> certificate -> unit

val cert_count : t -> int

(** Chronological certificate list. *)
val certs : t -> certificate list

(** Pass an event at simulated time [ts] to every installed consumer. Call
    sites guard with {!on} or {!tracing} to avoid building the event. *)
val emit : t -> ts:float -> event -> unit

val event_count : t -> int

(** Chronological event list. *)
val events : t -> (float * event) list

(** The live metrics record (mutated in place as the engine runs). *)
val metrics : t -> metrics

(** An independent copy of the current metrics. *)
val metrics_snapshot : t -> metrics

(** {1 Chrome-trace export}

    One JSON array of trace events (the array format accepted by
    chrome://tracing and ui.perfetto.dev). Simulated seconds map to trace
    microseconds; [tid] is the transaction (or lock owner) id. *)

(** [extra] is a list of pre-rendered trace records (e.g. from
    {!trace_counter}) appended after the event records, inside the same
    JSON array. *)
val write_trace : ?extra:string list -> out_channel -> t -> unit

val write_trace_file : ?extra:string list -> string -> t -> unit

(** Render one Chrome-trace counter (["C"]) record into [buf] — how the
    timeline layer appends its per-window series to a trace file. [args]
    values are raw JSON fragments (typically numbers). *)
val trace_counter : Buffer.t -> name:string -> ts:float -> (string * string) list -> unit

(** One event as its standalone trace-record JSON object (no trailing
    newline) — the flight recorder's ring-dump line format. Raises
    [Invalid_argument] on a counter-only event, which never reaches the
    trace buffer. *)
val event_json : float * event -> string

(** Canonical exporter-safe form of a resource id: bytes outside printable
    ASCII (the gap supremum's 0xff pair included) plus ['%'], [','], ['"']
    and ['\\'] become lowercase [%HH]. The result embeds verbatim in CSV
    cells, ndjson strings, DOT labels and Chrome-trace names — one shared
    escaping rule across all exporters. *)
val res_id_escape : string -> string

(** {1 Resource series}

    Chronological [(ts, in_use, queued)] samples per resource name,
    extracted from the trace buffer (requires {!tracing}); resources appear
    in order of first sample. *)
val resource_series : t -> (string * (float * int * int) list) list
