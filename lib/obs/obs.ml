(* Observability subsystem: one engine probe. A choke point builds one
   typed [event] and calls [emit]; the sink hands it to the consumers it was
   created with: the trace buffer (Chrome-trace exporter, timeline, flight
   recorder), the metrics fold (log-bucket latency histograms, conflict
   counters, high-water marks) and the sketch fold (per-resource
   attribution). Which counters exist and what feeds them is decided here.

   Design constraints (see DESIGN.md "Observability"):

   - Zero overhead when off. Every call site guards with [on] (events some
     counter reads) or [tracing] (events only the trace reads) before
     building its event, so a disabled [t] costs one branch.

   - Determinism. Events and metrics derive only from simulated time,
     transaction ids and resource names. Recording them never touches the
     simulator, any RNG, or cost accounting, so benchmark results are
     byte-identical with tracing enabled or disabled.

   - No dependencies. Timestamps are supplied by the caller (simulated
     seconds); this library never reads a clock itself. *)

(* {1 Conflict-edge sources}

   Where an rw-antidependency edge was detected (§3 of the paper); splitting
   the counters by source makes the §6.1.5 false-positive discussion (page
   stamps vs true row conflicts) directly measurable. *)

type conflict_source =
  | Newer_version (* read ignored a version newer than the snapshot *)
  | Siread_vs_x (* SIREAD met a concurrent X lock (either order) *)
  | Page_stamp (* page updated after the snapshot (Berkeley DB mode) *)
  | Gap (* edge on a next-key gap resource (phantom protection) *)
  | Unknown_writer (* writer's record already gone; conservative self-edge *)

let conflict_source_to_string = function
  | Newer_version -> "newer-version"
  | Siread_vs_x -> "siread-x"
  | Page_stamp -> "page-stamp"
  | Gap -> "gap"
  | Unknown_writer -> "unknown-writer"

(* {1 Abort provenance}

   Structured certificates attached to aborts. An SSI [Unsafe] abort exists
   only because a dangerous structure T_in ->rw T_pivot ->rw T_out was found
   (the paper's §3 / Fekete et al.'s pivot); the certificate records that
   triple with the resource and detection source behind each edge, the
   commit-state of the endpoints at decision time, and which victim-policy
   rule fired. S2PL aborts carry the deadlock cycle; first-committer-wins
   aborts carry the blocking version. Certificates are plain int/string
   data so this leaf library stays dependency-free; the engine (lib/core)
   fills them in and renders the DOT snapshot. *)

(* Commit-state of a pivot neighbour at the instant the victim was chosen. *)
type endpoint_state = Ep_active | Ep_committing | Ep_committed | Ep_aborted | Ep_gone

let endpoint_state_to_string = function
  | Ep_active -> "active"
  | Ep_committing -> "committing"
  | Ep_committed -> "committed"
  | Ep_aborted -> "aborted"
  | Ep_gone -> "gone"

(* One recorded rw-antidependency: [ce_reader] read something [ce_writer]
   (concurrently) wrote, detected via [ce_source] on [ce_resource]
   ("r/<table>/<key>", "g/<table>/<key>", or "p/<table>/<page>"). *)
type cert_edge = {
  ce_reader : int;
  ce_writer : int;
  ce_source : conflict_source;
  ce_resource : string;
}

type cert =
  | Ssi_pivot of {
      sp_victim : int;
      sp_policy : string; (* which victim rule fired, e.g. "prefer-pivot" *)
      sp_pivot : int;
      sp_t_in : int option; (* None: self-edge / squashed Self_conflict *)
      sp_in_state : endpoint_state;
      sp_t_out : int option;
      sp_out_state : endpoint_state;
      sp_in_edge : cert_edge option; (* detail, when provenance was on *)
      sp_out_edge : cert_edge option;
    }
  | Deadlock_cycle of {
      dc_victim : int;
      dc_cycle : int list; (* owners in cycle order, victim first *)
      dc_waits : (int * string) list; (* owner -> resource it waits on *)
    }
  | Fcw_block of {
      fb_txn : int;
      fb_resource : string;
      fb_blocking_commit : int; (* commit ts of the blocking version *)
      fb_blocking_writer : int; (* -1 when the writer id is unknown *)
      fb_snapshot : int;
    }

type certificate = {
  c_ts : float; (* simulated time of the abort decision *)
  c_reason : string; (* abort_reason, e.g. "unsafe", "deadlock" *)
  c_cert : cert;
  c_dot : string; (* Graphviz snapshot of the live dep graph; "" if off *)
}

let cert_victim c =
  match c.c_cert with
  | Ssi_pivot { sp_victim; _ } -> sp_victim
  | Deadlock_cycle { dc_victim; _ } -> dc_victim
  | Fcw_block { fb_txn; _ } -> fb_txn

(* A short canonical label for grouping certificates in reports: the pivot
   shape (edge sources + endpoint states) for SSI, cycle length for
   deadlocks, resource kind for FCW. *)
let cert_shape c =
  match c.c_cert with
  | Ssi_pivot { sp_in_state; sp_out_state; sp_in_edge; sp_out_edge; sp_t_in; sp_t_out; _ } ->
      let src = function Some e -> conflict_source_to_string e.ce_source | None -> "?" in
      let self = function None -> "self" | Some _ -> "" in
      Printf.sprintf "ssi-pivot in=%s(%s%s) out=%s(%s%s)" (src sp_in_edge)
        (endpoint_state_to_string sp_in_state)
        (self sp_t_in) (src sp_out_edge)
        (endpoint_state_to_string sp_out_state)
        (self sp_t_out)
  | Deadlock_cycle { dc_cycle; _ } -> Printf.sprintf "deadlock cycle=%d" (List.length dc_cycle)
  | Fcw_block { fb_resource; _ } ->
      let kind = if String.length fb_resource >= 2 && fb_resource.[0] = 'p' then "page" else "row" in
      Printf.sprintf "fcw blocking=%s" kind

(* {1 Log-bucket histograms}

   Fixed array of power-of-two buckets starting at 1ns; recording is
   allocation-free. Bucket [i] covers [2^i, 2^{i+1}) nanoseconds. *)

let hist_buckets = 64

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_max : float;
  h_b : int array;
}

let hist_create () = { h_count = 0; h_sum = 0.0; h_max = 0.0; h_b = Array.make hist_buckets 0 }

(* Exact power-of-two bucketing. Bucket [i] covers [2^i, 2^{i+1}) ns,
   lower-inclusive. [Float.frexp] decomposes v_ns = m * 2^e with m in
   [0.5, 1), so floor(log2 v_ns) = e - 1 *exactly* — a value sitting
   precisely on a bucket boundary (v_ns = 2^i) lands in bucket [i] on every
   platform. The previous [Float.log2]-based version depended on libm
   rounding, which could return 9.999... or 10.0 for 2^10 depending on the
   host and put boundary values in either of two buckets. *)
let hist_bucket_of_ns v_ns =
  if not (v_ns >= 1.0) (* also catches nan *) then 0
  else if v_ns = Float.infinity (* frexp inf has no exponent *) then hist_buckets - 1
  else
    let _, e = Float.frexp v_ns in
    let i = e - 1 in
    if i >= hist_buckets then hist_buckets - 1 else i

let bucket_of v = hist_bucket_of_ns (v *. 1e9)

let hist_add h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v > h.h_max then h.h_max <- v;
  let i = bucket_of v in
  h.h_b.(i) <- h.h_b.(i) + 1

let hist_count h = h.h_count

let hist_mean h = if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count

let hist_max h = h.h_max

(* p-quantile estimate with within-bucket linear interpolation. The target
   rank lands in some bucket [i] covering [lo, hi) ns (lo = 0 for bucket 0,
   since sub-ns values clamp there); assuming ranks spread uniformly across
   the bucket, the estimate is lo + frac * (hi - lo) where frac is the
   target's position among the bucket's own samples. Always clamped to
   [h_max], so n=1 and p=1.0 return the exact maximum instead of a bucket
   edge. The previous version returned the upper bucket edge outright — a
   conservative over-estimate by up to 2x. *)
let hist_percentile h p =
  if h.h_count = 0 then 0.0
  else begin
    let target =
      let t = int_of_float (ceil (p *. float_of_int h.h_count)) in
      if t < 1 then 1 else if t > h.h_count then h.h_count else t
    in
    let cum = ref 0 in
    let result = ref h.h_max in
    (try
       for i = 0 to hist_buckets - 1 do
         let before = !cum in
         cum := !cum + h.h_b.(i);
         if !cum >= target then begin
           let lo = if i = 0 then 0.0 else Float.ldexp 1.0 i in
           let hi = Float.ldexp 1.0 (i + 1) in
           let frac = float_of_int (target - before) /. float_of_int h.h_b.(i) in
           result := min h.h_max (1e-9 *. (lo +. (frac *. (hi -. lo))));
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

let hist_copy h = { h with h_b = Array.copy h.h_b }

let hist_merge ~into h =
  into.h_count <- into.h_count + h.h_count;
  into.h_sum <- into.h_sum +. h.h_sum;
  if h.h_max > into.h_max then into.h_max <- h.h_max;
  Array.iteri (fun i n -> into.h_b.(i) <- into.h_b.(i) + n) h.h_b

(* {1 Metrics} *)

type metrics = {
  m_commit_latency : hist; (* begin -> commit, simulated seconds *)
  m_abort_latency : hist; (* begin -> rollback *)
  m_lock_wait : hist; (* per blocking lock acquisition *)
  mutable m_conflict_newer_version : int;
  mutable m_conflict_siread_x : int;
  mutable m_conflict_page_stamp : int;
  mutable m_conflict_gap : int;
  mutable m_conflict_unknown : int;
  mutable m_doomed : int; (* victims doomed by another transaction *)
  mutable m_wal_flushes : int;
  mutable m_cleanup_runs : int; (* cleanup passes that released something *)
  mutable m_cleanup_released : int; (* committed records released *)
  mutable m_siread_hwm : int; (* max SIREAD locks held by one txn *)
  mutable m_retained_hwm : int; (* max retained committed-txn records (both kinds) *)
  mutable m_retained_siread_hwm : int; (* ... still holding SIREAD locks *)
  mutable m_retained_record_hwm : int; (* ... plain records awaiting cleanup *)
  mutable m_siread_live_hwm : int; (* max live SIREAD lock-table entries *)
  mutable m_promotions : int; (* row->page SIREAD granularity promotions *)
  mutable m_summarized : int; (* committed txns folded into the summary *)
  mutable m_summary_hwm : int; (* max summary-table entries *)
  mutable m_budget_pressure : int; (* commits that triggered summarization *)
  mutable m_checkpoints : int; (* WAL checkpoint records hardened *)
}

let metrics_create () =
  {
    m_commit_latency = hist_create ();
    m_abort_latency = hist_create ();
    m_lock_wait = hist_create ();
    m_conflict_newer_version = 0;
    m_conflict_siread_x = 0;
    m_conflict_page_stamp = 0;
    m_conflict_gap = 0;
    m_conflict_unknown = 0;
    m_doomed = 0;
    m_wal_flushes = 0;
    m_cleanup_runs = 0;
    m_cleanup_released = 0;
    m_siread_hwm = 0;
    m_retained_hwm = 0;
    m_retained_siread_hwm = 0;
    m_retained_record_hwm = 0;
    m_siread_live_hwm = 0;
    m_promotions = 0;
    m_summarized = 0;
    m_summary_hwm = 0;
    m_budget_pressure = 0;
    m_checkpoints = 0;
  }

let metrics_copy m =
  {
    m with
    m_commit_latency = hist_copy m.m_commit_latency;
    m_abort_latency = hist_copy m.m_abort_latency;
    m_lock_wait = hist_copy m.m_lock_wait;
  }

let metrics_merge ~into m =
  hist_merge ~into:into.m_commit_latency m.m_commit_latency;
  hist_merge ~into:into.m_abort_latency m.m_abort_latency;
  hist_merge ~into:into.m_lock_wait m.m_lock_wait;
  into.m_conflict_newer_version <- into.m_conflict_newer_version + m.m_conflict_newer_version;
  into.m_conflict_siread_x <- into.m_conflict_siread_x + m.m_conflict_siread_x;
  into.m_conflict_page_stamp <- into.m_conflict_page_stamp + m.m_conflict_page_stamp;
  into.m_conflict_gap <- into.m_conflict_gap + m.m_conflict_gap;
  into.m_conflict_unknown <- into.m_conflict_unknown + m.m_conflict_unknown;
  into.m_doomed <- into.m_doomed + m.m_doomed;
  into.m_wal_flushes <- into.m_wal_flushes + m.m_wal_flushes;
  into.m_cleanup_runs <- into.m_cleanup_runs + m.m_cleanup_runs;
  into.m_cleanup_released <- into.m_cleanup_released + m.m_cleanup_released;
  if m.m_siread_hwm > into.m_siread_hwm then into.m_siread_hwm <- m.m_siread_hwm;
  if m.m_retained_hwm > into.m_retained_hwm then into.m_retained_hwm <- m.m_retained_hwm;
  if m.m_retained_siread_hwm > into.m_retained_siread_hwm then
    into.m_retained_siread_hwm <- m.m_retained_siread_hwm;
  if m.m_retained_record_hwm > into.m_retained_record_hwm then
    into.m_retained_record_hwm <- m.m_retained_record_hwm;
  if m.m_siread_live_hwm > into.m_siread_live_hwm then
    into.m_siread_live_hwm <- m.m_siread_live_hwm;
  into.m_promotions <- into.m_promotions + m.m_promotions;
  into.m_summarized <- into.m_summarized + m.m_summarized;
  if m.m_summary_hwm > into.m_summary_hwm then into.m_summary_hwm <- m.m_summary_hwm;
  into.m_budget_pressure <- into.m_budget_pressure + m.m_budget_pressure;
  into.m_checkpoints <- into.m_checkpoints + m.m_checkpoints

let conflict_sources m =
  [
    (Newer_version, m.m_conflict_newer_version);
    (Siread_vs_x, m.m_conflict_siread_x);
    (Page_stamp, m.m_conflict_page_stamp);
    (Gap, m.m_conflict_gap);
    (Unknown_writer, m.m_conflict_unknown);
  ]

let conflict_total m =
  m.m_conflict_newer_version + m.m_conflict_siread_x + m.m_conflict_page_stamp + m.m_conflict_gap
  + m.m_conflict_unknown

let pp_metrics fmt m =
  let us v = v *. 1e6 in
  Format.fprintf fmt "commit latency: n=%d mean=%.1fus p95=%.1fus max=%.1fus@."
    (hist_count m.m_commit_latency)
    (us (hist_mean m.m_commit_latency))
    (us (hist_percentile m.m_commit_latency 0.95))
    (us (hist_max m.m_commit_latency));
  Format.fprintf fmt "abort latency:  n=%d mean=%.1fus@." (hist_count m.m_abort_latency)
    (us (hist_mean m.m_abort_latency));
  Format.fprintf fmt "lock waits:     n=%d mean=%.1fus max=%.1fus@." (hist_count m.m_lock_wait)
    (us (hist_mean m.m_lock_wait))
    (us (hist_max m.m_lock_wait));
  Format.fprintf fmt "conflict edges: %s (total %d)@."
    (String.concat ", "
       (List.map
          (fun (s, n) -> Printf.sprintf "%s=%d" (conflict_source_to_string s) n)
          (conflict_sources m)))
    (conflict_total m);
  Format.fprintf fmt "doomed victims: %d; wal flushes: %d; cleanup: %d passes / %d released@."
    m.m_doomed m.m_wal_flushes m.m_cleanup_runs m.m_cleanup_released;
  Format.fprintf fmt
    "high-water:     siread/txn=%d retained-records=%d (siread=%d plain=%d) siread-live=%d@."
    m.m_siread_hwm m.m_retained_hwm m.m_retained_siread_hwm m.m_retained_record_hwm
    m.m_siread_live_hwm;
  if m.m_promotions + m.m_summarized + m.m_budget_pressure > 0 then
    Format.fprintf fmt
      "memory budget:  promotions=%d summarized-txns=%d summary-hwm=%d pressure-events=%d@."
      m.m_promotions m.m_summarized m.m_summary_hwm m.m_budget_pressure;
  if m.m_checkpoints > 0 then
    Format.fprintf fmt "durability:     checkpoints=%d@." m.m_checkpoints

(* {1 Events} *)

type event =
  | Txn_begin of { txn : int; iso : string; ro : bool }
  | Txn_commit of {
      txn : int;
      start : float;
      commit_ts : int;
      n_writes : int;
      retained_siread : int;
      retained_record : int;
    }
    (* [retained_*]: retained committed txns by kind, including this one,
       sampled before the cleanup pass this commit triggers *)
  | Txn_abort of { txn : int; start : float; reason : string }
  | Lock_acquire of { owner : int; mode : string; resource : string }
  | Lock_block of { owner : int; mode : string; resource : string }
  | Lock_grant of { owner : int; mode : string; resource : string; waited : float }
  | Lock_release_all of { owner : int; kept_siread : bool }
  | Deadlock of { victim : int; resource : string }
  | Wal_flush of { epoch : int; latency : float; queued : int }
  | Conflict_edge of { reader : int; writer : int; source : conflict_source; resource : string }
  | Victim_doomed of { victim : int; by : int; reason : string }
  | Cleanup of { released : int; retained : int }
  (* Bounded-memory mode (Config.memory_budget): a row->page SIREAD
     granularity promotion onto page resource [resource], and a
     budget-pressure summarization pass folding the oldest retained
     committed txns into the summary table ([summary] entries after it). *)
  | Promotion of { txn : int; table : string; page : int; rows : int; resource : string }
  | Summarize of { txns : int; entries : int; retained : int; summary : int }
  (* Durability subsystem: a hardened checkpoint record, an injected crash
     (the fault plan that fired, rendered as its compact string form), and a
     completed recovery replay. *)
  | Wal_checkpoint of { epoch : int; watermark : int; next_ts : int }
  | Crash_inject of { plan : string }
  | Recovery of { replayed : int; committed : int; in_doubt : int; torn_bytes : int }
  (* Profiler spans (Chrome-trace "B"/"E" duration events), paired by (tid,
     nesting). The txn span and the lock-wait span are implied by the
     begin/commit/abort and block/grant events (see [trace]); explicit spans
     cover the log flush and the driver's per-program lifecycle. *)
  | Span_b of { tid : int; name : string; cat : string }
  | Span_e of { tid : int; name : string; cat : string }
  (* Per-resource state sample, emitted by the simulator's k-server
     resources on every acquire/release state change: servers busy and
     queue depth at simulated time ts (Chrome-trace "C" counter events). *)
  | Res_sample of { res : string; in_use : int; queued : int }
  (* Memory-pressure sample, emitted by the engine at each commit when
     tracing: live SIREAD lock-table entries, retained committed txns (by
     kind) and summary-table size. The timeline layer turns these into
     per-window retention-growth series the high-water marks hide. *)
  | Mem_sample of { siread : int; retained_siread : int; retained_record : int; summary : int }
  (* Workload-driver outcome of one transaction attempt: the program
     (transaction class) name, the outcome ("commit", "user-abort", or an
     abort-reason string) and the attempt's response time. Feeds per-class
     SLO accounting in the timeline layer. *)
  | Class_outcome of { cls : string; outcome : string; latency : float }
  (* Counter-only events: the folds read them, the trace buffer drops them.
     A SIREAD grant (with the holder's and the lock table's SIREAD counts
     after it), a first-committer-wins abort blocked on [resource], and one
     resource folded into the summary table. *)
  | Siread_grant of { resource : string; held : int; live : int }
  | Fcw_abort of { resource : string }
  | Summarized of { resource : string }

(* {1 The sink} *)

type t = {
  t_on : bool; (* any consumer installed: trace, metrics or sketch *)
  t_tracing : bool;
  t_metrics : bool;
  t_prov : bool;
  t_sketch : Sketch.t option; (* per-resource attribution sketch *)
  mutable t_events : (float * event) list; (* newest first *)
  mutable t_event_count : int;
  mutable t_certs : certificate list; (* newest first *)
  mutable t_cert_count : int;
  t_m : metrics;
}

let create ?(trace = false) ?(metrics = true) ?(provenance = false) ?sketch () =
  let t_sketch =
    match sketch with Some cap when cap > 0 -> Some (Sketch.create ~capacity:cap) | _ -> None
  in
  {
    t_on = trace || metrics || t_sketch <> None;
    t_tracing = trace;
    t_metrics = metrics;
    t_prov = provenance;
    t_sketch;
    t_events = [];
    t_event_count = 0;
    t_certs = [];
    t_cert_count = 0;
    t_m = metrics_create ();
  }

let disabled = create ~trace:false ~metrics:false ()

let on t = t.t_on [@@inline]

let tracing t = t.t_tracing [@@inline]

let provenance_on t = t.t_prov [@@inline]

let sketch t = t.t_sketch [@@inline]

let add_cert t c =
  if t.t_prov then begin
    t.t_certs <- c :: t.t_certs;
    t.t_cert_count <- t.t_cert_count + 1
  end

let cert_count t = t.t_cert_count

let certs t = List.rev t.t_certs

(* {2 Consumers} *)

(* The trace buffer. Begin/commit/abort also open/close the txn span, and a
   lock block/grant the lock-wait span, so each of those happenings is one
   emit at its choke point. Counter-only events are not kept. *)
let trace t ts e =
  let push e =
    t.t_events <- (ts, e) :: t.t_events;
    t.t_event_count <- t.t_event_count + 1
  in
  match e with
  | Siread_grant _ | Fcw_abort _ | Summarized _ -> ()
  | Txn_begin { txn; _ } ->
      push e;
      push (Span_b { tid = txn; name = "txn"; cat = "txn" })
  | Txn_commit { txn; _ } | Txn_abort { txn; _ } ->
      push e;
      push (Span_e { tid = txn; name = "txn"; cat = "txn" })
  | Lock_block { owner; _ } ->
      push e;
      push (Span_b { tid = owner; name = "lock-wait"; cat = "lock" })
  | Lock_grant { owner; _ } ->
      push (Span_e { tid = owner; name = "lock-wait"; cat = "lock" });
      push e
  | _ -> push e

(* The metrics fold. Retained high-water marks advance at commit only: the
   post-cleanup count never exceeds what the commit itself sampled. *)
let count m ts = function
  | Txn_commit { start; retained_siread = s; retained_record = r; _ } ->
      hist_add m.m_commit_latency (ts -. start);
      if s + r > m.m_retained_hwm then m.m_retained_hwm <- s + r;
      if s > m.m_retained_siread_hwm then m.m_retained_siread_hwm <- s;
      if r > m.m_retained_record_hwm then m.m_retained_record_hwm <- r
  | Txn_abort { start; _ } -> hist_add m.m_abort_latency (ts -. start)
  | Lock_grant { waited; _ } -> hist_add m.m_lock_wait waited
  | Conflict_edge { source = Newer_version; _ } ->
      m.m_conflict_newer_version <- m.m_conflict_newer_version + 1
  | Conflict_edge { source = Siread_vs_x; _ } ->
      m.m_conflict_siread_x <- m.m_conflict_siread_x + 1
  | Conflict_edge { source = Page_stamp; _ } ->
      m.m_conflict_page_stamp <- m.m_conflict_page_stamp + 1
  | Conflict_edge { source = Gap; _ } -> m.m_conflict_gap <- m.m_conflict_gap + 1
  | Conflict_edge { source = Unknown_writer; _ } ->
      m.m_conflict_unknown <- m.m_conflict_unknown + 1
  | Victim_doomed _ -> m.m_doomed <- m.m_doomed + 1
  | Wal_flush _ -> m.m_wal_flushes <- m.m_wal_flushes + 1
  | Cleanup { released; _ } ->
      m.m_cleanup_runs <- m.m_cleanup_runs + 1;
      m.m_cleanup_released <- m.m_cleanup_released + released
  | Siread_grant { held; live; _ } ->
      if held > m.m_siread_hwm then m.m_siread_hwm <- held;
      if live > m.m_siread_live_hwm then m.m_siread_live_hwm <- live
  | Promotion _ -> m.m_promotions <- m.m_promotions + 1
  | Summarize { txns; summary; _ } ->
      m.m_budget_pressure <- m.m_budget_pressure + 1;
      m.m_summarized <- m.m_summarized + txns;
      if summary > m.m_summary_hwm then m.m_summary_hwm <- summary
  | Wal_checkpoint _ -> m.m_checkpoints <- m.m_checkpoints + 1
  | _ -> ()

(* The sketch fold: one touch of the event's resource, bumping the matching
   attribution counter. Pivot in/out-edge blame is folded from certificates
   after the run ({!Attrib.blame}); first-committer-wins blame is live. *)
let attribute sk = function
  | Conflict_edge { resource; _ } ->
      let s = Sketch.touch sk resource in
      s.Sketch.st_conflicts <- s.Sketch.st_conflicts + 1
  | Lock_grant { resource; waited; _ } ->
      let s = Sketch.touch sk resource in
      s.Sketch.st_lock_waits <- s.Sketch.st_lock_waits + 1;
      s.Sketch.st_lock_wait <- s.Sketch.st_lock_wait +. waited
  | Siread_grant { resource; _ } ->
      let s = Sketch.touch sk resource in
      s.Sketch.st_siread <- s.Sketch.st_siread + 1
  | Fcw_abort { resource } ->
      let s = Sketch.touch sk resource in
      s.Sketch.st_blame_fcw <- s.Sketch.st_blame_fcw + 1
  | Promotion { resource; _ } ->
      let s = Sketch.touch sk resource in
      s.Sketch.st_promotions <- s.Sketch.st_promotions + 1
  | Summarized { resource } ->
      let s = Sketch.touch sk resource in
      s.Sketch.st_summarized <- s.Sketch.st_summarized + 1
  | _ -> ()

let emit t ~ts e =
  if t.t_tracing then trace t ts e;
  if t.t_metrics then count t.t_m ts e;
  match t.t_sketch with Some sk -> attribute sk e | None -> ()

let event_count t = t.t_event_count

let events t = List.rev t.t_events

let metrics t = t.t_m

let metrics_snapshot t = metrics_copy t.t_m

(* {1 Chrome-trace export}

   One JSON array of trace events (the "JSON array format" accepted by
   chrome://tracing and https://ui.perfetto.dev). Simulated seconds map to
   trace microseconds; tid is the transaction (or lock owner) id. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ph "i" = instant, ph "X" = complete (with dur); ts in microseconds. *)
let trace_record buf ~name ~cat ~ph ~ts ?dur ~tid args =
  Buffer.add_string buf
    (Printf.sprintf {|{"name":"%s","cat":"%s","ph":"%s","ts":%.3f|} (json_escape name)
       (json_escape cat) ph (ts *. 1e6));
  (match dur with
  | Some d -> Buffer.add_string buf (Printf.sprintf {|,"dur":%.3f|} (Float.max 0.0 d *. 1e6))
  | None -> ());
  Buffer.add_string buf (Printf.sprintf {|,"pid":1,"tid":%d|} tid);
  if ph = "i" then Buffer.add_string buf {|,"s":"t"|};
  (match args with
  | [] -> ()
  | args ->
      Buffer.add_string buf {|,"args":{|};
      Buffer.add_string buf
        (String.concat "," (List.map (fun (k, v) -> Printf.sprintf {|"%s":%s|} (json_escape k) v) args));
      Buffer.add_char buf '}');
  Buffer.add_char buf '}'

let str v = "\"" ^ json_escape v ^ "\""

(* Canonical exporter-safe form of a resource id. Bytes outside printable
   ASCII — notably the gap supremum's 0xff pair — plus the characters that
   are structural in some exporter ('%' itself, the CSV comma, the JSON/DOT
   quote and backslash) become lowercase %HH. The result contains only
   printable ASCII with no separators or escapes left, so every exporter
   (CSV cells, ndjson strings, DOT labels, Chrome-trace names) can embed it
   verbatim: one escaping rule instead of four. *)
let res_id_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '%' | ',' | '"' | '\\' -> Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c))
      | c when Char.code c < 0x21 || Char.code c >= 0x7f ->
          Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Escape a string for use inside a double-quoted Graphviz DOT label:
   quotes and backslashes are escaped, non-printable bytes become a literal
   [\xHH] (rendered as-is by Graphviz), so the gap supremum's 0xff bytes
   survive any DOT toolchain. *)
let dot_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
          Buffer.add_string buf (Printf.sprintf "\\\\x%02x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Tiny structural DOT check, shared by the test suite and the CI smoke
   target: accepts exactly the shape the snapshot builders emit — a
   [digraph <id> {] header, per-line balanced double-quoted strings with
   backslash escapes (dot_escape never emits a raw newline inside a label),
   every body statement terminated with [;] (or opening/closing a block),
   balanced braces, and at least one statement. Not a full DOT grammar;
   enough to catch an unescaped quote, a truncated write or a missing
   terminator without shelling out to Graphviz. *)
let dot_validate s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let lines = List.filter_map
      (fun l -> match String.trim l with "" -> None | t -> Some t)
      (String.split_on_char '\n' s)
  in
  match lines with
  | [] -> Error "empty document"
  | header :: body ->
      if not (String.length header >= 9 && String.sub header 0 8 = "digraph ") then
        err "missing digraph header: %s" header
      else if header.[String.length header - 1] <> '{' then
        err "header does not open a block: %s" header
      else begin
        let depth = ref 1 and stmts = ref 0 and bad = ref None in
        let check line =
          if !bad = None then begin
            let in_str = ref false and esc = ref false in
            String.iter
              (fun c ->
                if !in_str then
                  if !esc then esc := false
                  else if c = '\\' then esc := true
                  else if c = '"' then in_str := false
                  else ()
                else if c = '"' then in_str := true)
              line;
            if !in_str then bad := Some (Printf.sprintf "unterminated string: %s" line)
            else if line = "}" then decr depth
            else if line.[String.length line - 1] = '{' then incr depth
            else if line.[String.length line - 1] = ';' then incr stmts
            else bad := Some (Printf.sprintf "statement missing ';': %s" line)
          end
        in
        List.iter check body;
        match !bad with
        | Some m -> Error m
        | None ->
            if !depth <> 0 then err "unbalanced braces: %d open at end of document" !depth
            else if !stmts = 0 then Error "no statements"
            else Ok ()
      end

let bool_ b = if b then "true" else "false"

let event_to_buf buf (ts, e) =
  match e with
  | Txn_begin { txn; iso; ro } ->
      trace_record buf ~name:"begin" ~cat:"txn" ~ph:"i" ~ts ~tid:txn
        [ ("iso", str iso); ("read_only", bool_ ro) ]
  | Txn_commit { txn; start; commit_ts; n_writes; _ } ->
      trace_record buf ~name:"txn" ~cat:"txn" ~ph:"X" ~ts:start ~dur:(ts -. start) ~tid:txn
        [ ("outcome", str "commit"); ("commit_ts", string_of_int commit_ts);
          ("writes", string_of_int n_writes) ]
  | Txn_abort { txn; start; reason } ->
      trace_record buf ~name:"txn" ~cat:"txn" ~ph:"X" ~ts:start ~dur:(ts -. start) ~tid:txn
        [ ("outcome", str "abort"); ("reason", str reason) ]
  | Lock_acquire { owner; mode; resource } ->
      trace_record buf ~name:"acquire" ~cat:"lock" ~ph:"i" ~ts ~tid:owner
        [ ("mode", str mode); ("resource", str (res_id_escape resource)) ]
  | Lock_block { owner; mode; resource } ->
      trace_record buf ~name:"block" ~cat:"lock" ~ph:"i" ~ts ~tid:owner
        [ ("mode", str mode); ("resource", str (res_id_escape resource)) ]
  | Lock_grant { owner; mode; resource; waited } ->
      trace_record buf ~name:"lock-wait" ~cat:"lock" ~ph:"X" ~ts:(ts -. waited) ~dur:waited
        ~tid:owner
        [ ("mode", str mode); ("resource", str (res_id_escape resource)) ]
  | Lock_release_all { owner; kept_siread } ->
      trace_record buf ~name:"release-all" ~cat:"lock" ~ph:"i" ~ts ~tid:owner
        [ ("kept_siread", bool_ kept_siread) ]
  | Deadlock { victim; resource } ->
      trace_record buf ~name:"deadlock" ~cat:"lock" ~ph:"i" ~ts ~tid:victim
        [ ("resource", str (res_id_escape resource)) ]
  | Wal_flush { epoch; latency; queued } ->
      trace_record buf ~name:"flush" ~cat:"wal" ~ph:"X" ~ts:(ts -. latency) ~dur:latency ~tid:0
        [ ("epoch", string_of_int epoch); ("queued", string_of_int queued) ]
  | Conflict_edge { reader; writer; source; _ } ->
      trace_record buf ~name:"rw-edge" ~cat:"ssi" ~ph:"i" ~ts ~tid:reader
        [ ("writer", string_of_int writer); ("source", str (conflict_source_to_string source)) ]
  | Victim_doomed { victim; by; reason } ->
      trace_record buf ~name:"doomed" ~cat:"ssi" ~ph:"i" ~ts ~tid:victim
        [ ("by", string_of_int by); ("reason", str reason) ]
  | Cleanup { released; retained } ->
      trace_record buf ~name:"cleanup" ~cat:"gc" ~ph:"i" ~ts ~tid:0
        [ ("released", string_of_int released); ("retained", string_of_int retained) ]
  | Promotion { txn; table; page; rows; _ } ->
      trace_record buf ~name:"promotion" ~cat:"budget" ~ph:"i" ~ts ~tid:txn
        [ ("table", str table); ("page", string_of_int page); ("rows", string_of_int rows) ]
  | Summarize { txns; entries; retained; _ } ->
      trace_record buf ~name:"summarize" ~cat:"budget" ~ph:"i" ~ts ~tid:0
        [ ("txns", string_of_int txns); ("entries", string_of_int entries);
          ("retained", string_of_int retained) ]
  | Wal_checkpoint { epoch; watermark; next_ts } ->
      trace_record buf ~name:"checkpoint" ~cat:"wal" ~ph:"i" ~ts ~tid:0
        [ ("epoch", string_of_int epoch); ("watermark", string_of_int watermark);
          ("next_ts", string_of_int next_ts) ]
  | Crash_inject { plan } ->
      trace_record buf ~name:"crash" ~cat:"wal" ~ph:"i" ~ts ~tid:0 [ ("plan", str plan) ]
  | Recovery { replayed; committed; in_doubt; torn_bytes } ->
      trace_record buf ~name:"recovery" ~cat:"wal" ~ph:"i" ~ts ~tid:0
        [ ("replayed", string_of_int replayed); ("committed", string_of_int committed);
          ("in_doubt", string_of_int in_doubt); ("torn_bytes", string_of_int torn_bytes) ]
  | Span_b { tid; name; cat } -> trace_record buf ~name ~cat ~ph:"B" ~ts ~tid []
  | Span_e { tid; name; cat } -> trace_record buf ~name ~cat ~ph:"E" ~ts ~tid []
  | Res_sample { res; in_use; queued } ->
      trace_record buf ~name:(res_id_escape res) ~cat:"resource" ~ph:"C" ~ts ~tid:0
        [ ("in_use", string_of_int in_use); ("queued", string_of_int queued) ]
  | Mem_sample { siread; retained_siread; retained_record; summary } ->
      trace_record buf ~name:"memory" ~cat:"memory" ~ph:"C" ~ts ~tid:0
        [ ("siread", string_of_int siread);
          ("retained_siread", string_of_int retained_siread);
          ("retained_record", string_of_int retained_record);
          ("summary", string_of_int summary) ]
  | Class_outcome { cls; outcome; latency } ->
      trace_record buf ~name:("class:" ^ cls) ~cat:"driver" ~ph:"i" ~ts ~tid:0
        [ ("outcome", str outcome); ("latency", Printf.sprintf "%.9f" latency) ]
  | Siread_grant _ | Fcw_abort _ | Summarized _ -> invalid_arg "Obs: counter-only event"

(* Render one Chrome-trace counter ("C") record — the form the timeline
   layer uses to append its per-window series to a trace file, so spans,
   resource occupancy and timeline series land in a single viewer. *)
let trace_counter buf ~name ~ts args = trace_record buf ~name ~cat:"timeline" ~ph:"C" ~ts ~tid:0 args

(* One event as its standalone trace-record JSON object — the line format
   of the flight recorder's ring dump. *)
let event_json ev =
  let buf = Buffer.create 96 in
  event_to_buf buf ev;
  Buffer.contents buf

let write_trace ?(extra = []) oc t =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_string buf ",\n" in
  List.iter
    (fun ev ->
      sep ();
      event_to_buf buf ev)
    (events t);
  List.iter
    (fun record ->
      sep ();
      Buffer.add_string buf record)
    extra;
  Buffer.add_string buf "]\n";
  Buffer.output_buffer oc buf

let write_trace_file ?extra path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_trace ?extra oc t)

(* {1 Certificate JSON}

   One self-contained JSON object per certificate (one line, no trailing
   newline), so line tools can read it without a JSON library. *)

let edge_to_json e =
  Printf.sprintf {|{"reader":%d,"writer":%d,"source":%s,"resource":%s}|} e.ce_reader e.ce_writer
    (str (conflict_source_to_string e.ce_source))
    (str (res_id_escape e.ce_resource))

let opt_int = function Some i -> string_of_int i | None -> "null"

let opt_edge = function Some e -> edge_to_json e | None -> "null"

let cert_to_json c =
  let body =
    match c.c_cert with
    | Ssi_pivot p ->
        Printf.sprintf
          {|"kind":"ssi-pivot","victim":%d,"policy":%s,"pivot":%d,"t_in":%s,"in_state":%s,"t_out":%s,"out_state":%s,"in_edge":%s,"out_edge":%s|}
          p.sp_victim (str p.sp_policy) p.sp_pivot (opt_int p.sp_t_in)
          (str (endpoint_state_to_string p.sp_in_state))
          (opt_int p.sp_t_out)
          (str (endpoint_state_to_string p.sp_out_state))
          (opt_edge p.sp_in_edge) (opt_edge p.sp_out_edge)
    | Deadlock_cycle d ->
        Printf.sprintf {|"kind":"deadlock","victim":%d,"cycle":[%s],"waits":[%s]|} d.dc_victim
          (String.concat "," (List.map string_of_int d.dc_cycle))
          (String.concat ","
             (List.map
                (fun (o, r) -> Printf.sprintf {|{"owner":%d,"resource":%s}|} o (str (res_id_escape r)))
                d.dc_waits))
    | Fcw_block f ->
        Printf.sprintf
          {|"kind":"fcw","txn":%d,"resource":%s,"blocking_commit":%d,"blocking_writer":%s,"snapshot":%d|}
          f.fb_txn (str (res_id_escape f.fb_resource)) f.fb_blocking_commit
          (if f.fb_blocking_writer < 0 then "null" else string_of_int f.fb_blocking_writer)
          f.fb_snapshot
  in
  Printf.sprintf {|{"ts":%.9f,"reason":%s,%s,"shape":%s,"dot":%s}|} c.c_ts (str c.c_reason) body
    (str (cert_shape c)) (str c.c_dot)

(* {1 Resource series}

   Chronological (ts, in_use, queued) samples per resource name, extracted
   from the trace buffer; the report renders these as sparklines. *)

let resource_series t =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (ts, e) ->
      match e with
      | Res_sample { res; in_use; queued } ->
          let l =
            match Hashtbl.find_opt tbl res with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.add tbl res l;
                order := res :: !order;
                l
          in
          l := (ts, in_use, queued) :: !l
      | _ -> ())
    t.t_events;
  (* t_events is newest-first, so each accumulated list is chronological. *)
  List.rev_map (fun res -> (res, !(Hashtbl.find tbl res))) !order
