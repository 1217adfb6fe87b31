(** Simulated write-ahead log with group commit, logical redo records and
    deterministic crash injection.

    In [No_flush] mode a commit only buffers its record (the paper's
    Fig 6.1 configuration, standing in for battery-backed storage); buffered
    records become durable only at a checkpoint or an explicit {!harden}.
    In [Flush_per_commit latency] mode a commit blocks until a physical
    flush covering its record completes; concurrent committers share one
    flush (group commit), so throughput rises with MPL even on one disk.

    The log carries logical redo {!record}s behind a versioned frame codec
    (["ssi-wal v1"]). {!durable_log} is always a byte-prefix of the log the
    engine would have produced without a crash, which is what makes the
    recovery oracle's committed-prefix comparison sound. *)

type mode =
  | No_flush
  | Flush_per_commit of float  (** flush latency in simulated seconds *)

type t

(** {1 Logical redo records} *)

type record =
  | Begin of { txn : int }
  | Write of { txn : int; table : string; key : string; value : string }
  | Delete of { txn : int; table : string; key : string }
  | Commit of { txn : int; ts : int }
  | Abort of { txn : int }
  | Checkpoint of { watermark : int; next_ts : int }
      (** [watermark] is the oldest active snapshot at checkpoint time,
          [next_ts] the commit-ts allocator value *)

(** {2 Codec}

    A log image is the header line {!header} followed by length-prefixed
    frames [<len>:<payload>\n]; payload bytes outside [[A-Za-z0-9_.,~/-]]
    are escaped as [%HH], so [len] is the exact escaped-payload byte count
    and truncation is detected positionally. *)

val header : string

(** Encode records into a complete log image (header included). *)
val encode : record list -> string

(** [decode s] splits a log image into its complete records plus the byte
    length of a trailing incomplete (torn) frame, [0] when the image ends on
    a frame boundary. In-bounds corruption — bad header, bad escape, frame
    not terminated by a newline, unknown tag — is an [Error]; truncation
    never is. Every strict prefix of a valid image decodes to a prefix of
    its records with the remainder reported as torn. *)
val decode : string -> (record list * int, string) result

(** {1 Crash plans}

    A deterministic fault plan armed with {!arm}. Trigger counters start at
    the arming point, so identically-seeded runs crash at identical logical
    points regardless of wall clock. The firing site raises {!Crash}, which
    no engine handler catches — it propagates out of [Sim.run], abandoning
    the simulated machine with the log's durable prefix as the only
    surviving state. *)

type plan =
  | Crash_on_append of int
      (** crash in place of the [n]-th (1-based) record append *)
  | Crash_mid_flush of { flush : int; keep : int; torn : int }
      (** at the [flush]-th physical flush, harden only [keep] whole frames
          of the batch plus [torn] bytes of the next frame, then crash
          (both clamped to the batch) *)
  | Crash_at_commit_window of int
      (** crash at the [n]-th commit-ts-assigned-but-not-yet-flushed window *)

exception Crash

val arm : t -> plan -> unit

(** Compact one-token form, e.g. ["append:5"], ["flush:2:1:3"],
    ["window:1"]; [plan_of_string] inverts it. *)
val plan_to_string : plan -> string

(** [None] for a malformed string, and for a plan that can never fire: an
    append, flush or window count below 1, or a negative [keep] or
    [torn]. *)
val plan_of_string : string -> plan option

(** {1 Log lifecycle} *)

val create : Sim.t -> mode:mode -> t

(** Attach an observability sink (flush/checkpoint/crash events and
    counters). Default {!Obs.disabled}. *)
val set_obs : t -> Obs.t -> unit

val mode : t -> mode

(** Add one logical record to the open batch. *)
val append : t -> record -> unit

(** Block until every record appended so far is durable (no-op for
    [No_flush]). *)
val commit_flush : t -> unit

(** Crash-injection probe for the window between commit-ts assignment and
    the commit flush; fires {!Crash} when a [Crash_at_commit_window] plan
    matches, and counts the window toward {!armed_windows} while any plan
    is armed. *)
val commit_window_check : t -> unit

(** Seal the open batch and harden it together with a [Checkpoint] record,
    without simulated delay (checkpoints are background I/O overlapping
    normal processing). In [No_flush] mode this bounds the crash loss
    window to the records since the previous checkpoint. *)
val checkpoint : t -> watermark:int -> next_ts:int -> unit

(** Harden everything buffered so far without simulated delay. Setup-time
    convenience ([Db.load] runs outside any simulated process and may not
    block); not a substitute for {!commit_flush}. *)
val harden : t -> unit

(** The durable log image: exactly the bytes that survive a crash. The log
    keeps records, not bytes: every call encodes the header, the hardened
    records' frames and a mid-flush crash's torn tail afresh. *)
val durable_log : t -> string

(** [String.length (durable_log t)], from a walk over the hardened records
    that sums their frame lengths without encoding them. *)
val durable_bytes : t -> int

(** {1 Statistics} *)

val appends : t -> int

(** Physical flushes performed; [appends / flushes] is the group-commit
    batching factor. *)
val flushes : t -> int

(** {2 Since-arm trigger counters}

    Appends / flushes / commit windows seen since {!arm} — the index space a
    fault plan's 1-based trigger counts over. Arming a plan that can never
    fire (e.g. [Crash_on_append max_int]) makes a crash-free run report
    exactly how many crashable points of each kind it has, which is how the
    crash fuzzer samples plans guaranteed to fire. *)

val armed_appends : t -> int

val armed_flushes : t -> int

val armed_windows : t -> int
