(** Engine configuration: the knobs that distinguish the paper's two
    prototype substrates and the SSI variants/ablations. *)

(** Locking/conflict granularity (§4): [Row] is the InnoDB prototype
    (record + gap locks); [Page] is the Berkeley DB prototype (B+tree page
    locks, no gap locks, page-level first-committer-wins). *)
type granularity = Row | Page

(** SSI conflict bookkeeping: [Basic] uses the two boolean flags of §3.2;
    [Precise] uses conflict references and commit-time comparisons (§3.6),
    eliminating the Fig 3.8 class of false positives. *)
type ssi_variant = Basic | Precise

(** Victim selection when a dangerous structure is detected early (§3.7.2):
    [Prefer_pivot] aborts the transaction with both edges (the paper's
    default); [Prefer_younger] aborts the younger of the two transactions
    involved, which favours long/complex transactions running to
    completion. *)
type victim_policy = Prefer_pivot | Prefer_younger

(** Simulated CPU cost (seconds) of engine primitives. These set the scale
    of throughput numbers; relative results are insensitive to them. *)

let c_lock = 0.5e-6 (** one lock-manager call *)

let c_read = 2.5e-6 (** point read (visibility check + fetch) *)

let c_write = 3.0e-6 (** buffering one write + index maintenance *)

let c_scan_row = 1.5e-6 (** per row visited by a scan *)

let c_txn = 5.0e-6 (** begin/commit bookkeeping *)

let c_commit_install = 2.0e-6 (** per written row at commit *)

(** The disk behind the buffer-cache models: read latency in simulated
    seconds, and concurrent disk operations (RAID arms). *)

let miss_latency = 0.004

let disk_arms = 4

type t = {
  granularity : granularity;
  ssi : ssi_variant;
  upgrade_siread : bool;  (** drop SIREAD when the same txn takes X (§3.7.3) *)
  abort_early : bool;  (** abort pivots as soon as both edges appear (§3.7.1) *)
  victim : victim_policy;  (** who dies when a dangerous structure appears (§3.7.2) *)
  ro_refinement : bool;
      (** extension beyond the paper (its §7.6 future work; later formalised
          for PostgreSQL by Ports & Grittner 2012): when the incoming
          neighbour T_in is a committed read-only transaction, the dangerous
          structure is real only if T_out committed before T_in's snapshot *)
  gap_locking : bool;  (** next-key gap locks for phantoms (§3.5, row mode) *)
  detection : Lockmgr.detection;
  n_cpus : int;
  wal_mode : Wal.mode;
  lock_mutex : bool;
      (** serialise lock-manager calls through a capacity-1 resource —
          InnoDB's global kernel mutex (§4.4), the bottleneck in §6.3 *)
  record_history : bool;  (** log committed txns for the serializability checker *)
  btree_fanout : int;
  buffer_pool : int option;
      (** real LRU buffer cache capacity in B+tree pages; [None] falls back
          to the probabilistic [read_miss] model *)
  read_miss : float;
      (** probability a row read misses the buffer cache and pays a disk
          read — the knob that makes the large-data TPC-C++ configurations
          I/O bound (§6.4.1) *)
  memory_budget : int option;
      (** bound on SSI conflict-tracking memory: live lock-table entries plus
          retained committed-transaction records. [None] (the paper's
          unbounded retention, §3.3/§4.8) keeps every overlapping committed
          txn; [Some b] enforces the bound with granularity promotion and
          committed-transaction summarization (Ports & Grittner 2012 style) —
          conservatively, so false-positive aborts may rise but no
          serializability violation is ever admitted *)
  promote_threshold : int;
      (** granularity promotion: once a transaction holds this many row
          SIREADs on one leaf page they collapse into a single page SIREAD.
          Only active when [memory_budget] is set (row granularity) *)
  checkpoint_interval : int option;
      (** append a WAL checkpoint record (oldest-active-snapshot watermark +
          commit-ts allocator) and harden the open batch every [k] commits;
          [None] disables checkpointing. In [Wal.No_flush] mode the interval
          bounds the crash loss window; in [Flush_per_commit] it only bounds
          recovery replay length *)
}

(** Berkeley DB profile (§6.1): page-level locking and versioning, periodic
    deadlock detection (db_perf runs the detector twice per second), one CPU
    (the evaluation machine was a single-core Athlon64). *)
let bdb ?(wal_mode = Wal.No_flush) () =
  {
    granularity = Page;
    ssi = Basic;
    upgrade_siread = true;
    abort_early = true;
    victim = Prefer_pivot;
    ro_refinement = false;
    gap_locking = false;
    detection = Lockmgr.Periodic 0.5;
    n_cpus = 1;
    wal_mode;
    lock_mutex = false;
    record_history = false;
    btree_fanout = 64;
    buffer_pool = None;
    read_miss = 0.0;
    memory_budget = None;
    promote_threshold = 16;
    checkpoint_interval = None;
  }

(** InnoDB profile (§6.2): row-level locking with gap locks, immediate
    deadlock detection, precise SSI (§3.6 was implemented in the InnoDB
    prototype), a multi-core CPU and a serialised lock manager. *)
let innodb ?(wal_mode = Wal.Flush_per_commit 0.01) () =
  {
    granularity = Row;
    ssi = Precise;
    upgrade_siread = true;
    abort_early = true;
    victim = Prefer_pivot;
    ro_refinement = false;
    gap_locking = true;
    detection = Lockmgr.Immediate;
    n_cpus = 8;
    wal_mode;
    lock_mutex = true;
    record_history = false;
    btree_fanout = 64;
    buffer_pool = None;
    read_miss = 0.0;
    memory_budget = None;
    promote_threshold = 16;
    checkpoint_interval = None;
  }

(** Plain default for tests and examples: row-level, precise, no I/O waits,
    history recording on. *)
let test () =
  {
    (innodb ~wal_mode:Wal.No_flush ()) with
    lock_mutex = false;
    n_cpus = 4;
    record_history = true;
    btree_fanout = 8;
  }
