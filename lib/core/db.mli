(** Database handle: tables, transactions, statistics and maintenance.

    A database lives inside a {!Sim.t} simulation. All transactional work
    must happen in simulator processes ({!Sim.spawn}); creating tables and
    bulk-loading may happen outside. *)

type t = Internal.db

(** Create a database on a simulated machine. The {!Config.t} selects the
    substrate profile (row- vs page-granularity, SSI variant, deadlock
    detection, CPU/disk/WAL models); defaults to {!Config.test}. *)
val create : ?config:Config.t -> Sim.t -> t

(** Attach an observability sink ({!Obs.t}): structured engine events
    (txn/lock/WAL/conflict/GC), metrics, and — when the sink has provenance
    on — abort certificates. Propagates to the lock manager, the WAL and
    the simulated resources (CPU, disk, kernel mutex) so their events land
    in the same trace. The default sink is {!Obs.disabled}, whose hooks
    cost a single branch. *)
val set_obs : t -> Obs.t -> unit

(** Install (or remove, with [None]) the DPOR footprint hook:
    [f id is_write resource] fires on every shared-state access an operation
    performs — lock-manager acquisitions (via {!Lockmgr.set_on_touch}),
    version-chain reads, page-stamp reads/writes, doom flags, and
    commit/rollback effects on held resources. Disabled by default (one
    branch per site). Used by the schedule explorer to observe the
    dependency relation between operations. *)
val set_on_touch : t -> (int -> bool -> string -> unit) option -> unit

val sim : t -> Sim.t

val config : t -> Config.t

(** Create a new empty table. Raises [Invalid_argument] on duplicates. *)
val create_table : t -> string -> Mvstore.t

val table : t -> string -> Mvstore.t option

(** Like {!table} but raises {!Types.Abort} with [Internal_error]. *)
val table_exn : t -> string -> Mvstore.t

(** Start a transaction at the given isolation level. [read_only]
    transactions reject writes and enable the read-only snapshot refinement
    ([Config.ro_refinement]). Prefer {!run}, which also handles commit and
    rollback. *)
val begin_txn : ?read_only:bool -> t -> Types.isolation -> Internal.txn

(** [run t isolation body] executes [body] in a fresh transaction and
    commits it; on {!Types.Abort} (or at commit time) the transaction is
    rolled back and the reason returned as [Error]. Other exceptions roll
    back and re-raise. Must be called from a simulator process. *)
val run :
  ?read_only:bool -> t -> Types.isolation -> (Internal.txn -> 'a) -> ('a, Types.abort_reason) result

(** Like {!run} but retries deadlock/conflict/unsafe aborts (as the paper's
    workload drivers do), up to [max_attempts]. [User_abort] is not
    retried. *)
val run_retry :
  ?max_attempts:int ->
  ?read_only:bool ->
  t ->
  Types.isolation ->
  (Internal.txn -> 'a) ->
  ('a, Types.abort_reason) result

(** Bulk-load committed rows outside any transaction (initial population).
    All rows receive one fresh commit timestamp. *)
val load : t -> string -> (string * string) list -> unit

(** {1 Introspection} *)

(** Commit/abort counters since creation. *)
val stats : t -> Internal.stats

(** Committed-transaction log, oldest first (only populated when
    [config.record_history] is set); feed it to {!Mvsg.build}. *)
val history : t -> Types.committed_record list

val clear_history : t -> unit

val last_commit_ts : t -> int

val active_count : t -> int

(** Committed SSI transactions still suspended with their SIREAD locks
    (§3.3) — the memory the paper's retention rule actually pins. *)
val suspended_count : t -> int

(** All committed transaction records retained for conflict detection
    (§4.8): cleaned up once no active transaction overlaps them. Those
    beyond {!suspended_count} hold no SIREAD locks; precise-mode
    commit-time comparisons may still reference them. *)
val retained_count : t -> int

(** {1 Bounded-memory mode introspection} ([Config.memory_budget]) *)

(** Live SIREAD lock-table entries (all owners, including the summarized
    pool). *)
val siread_entry_count : t -> int

(** Committed transactions folded into the conservative summary table. *)
val summarized_count : t -> int

(** Row→page SIREAD granularity promotions performed. *)
val promotion_count : t -> int

(** Live entries in the per-resource summary table. *)
val summary_size : t -> int

val lock_table_size : t -> int

val locks : t -> Lockmgr.t

val wal : t -> Wal.t

(** The LRU buffer pool, when [config.buffer_pool] is set. *)
val cache : t -> Bufcache.t option

(** {1 Durability & recovery} *)

(** Canonical textual image of every table's committed store (tables in
    name order, keys in index order, chains oldest-first), optionally
    truncated to versions with [commit_ts <= max_ts]. Byte-equality of
    dumps is the recovery oracle's store-equivalence check. *)
val dump_store : ?max_ts:int -> t -> string

type recovery_report = {
  r_replayed : int;  (** log records replayed from the durable prefix *)
  r_committed : int;  (** committed transactions applied (incl. bulk loads) *)
  r_in_doubt : int;  (** in-doubt transactions rolled back (no Commit) *)
  r_aborted : int;  (** transactions dropped due to a logged Abort *)
  r_torn_bytes : int;  (** bytes of torn trailing frame discarded *)
  r_watermark : int;  (** retention watermark from the last checkpoint *)
  r_last_commit_ts : int;  (** restored snapshot horizon *)
}

(** [recover sim ~log] replays the durable log prefix (as produced by
    [Wal.durable_log]) into a fresh database on [sim]: committed
    transactions are reinstalled at their original timestamps, in-doubt and
    logged-abort transactions are dropped, the commit-ts allocator and
    snapshot horizon are restored, and every recovered commit above the
    checkpoint watermark leaves conservative summary-table entries (SIREAD
    locks are volatile, so post-recovery SSI errs toward aborting).
    Returns [Error] on a corrupt (not merely truncated) log. *)
val recover :
  ?config:Config.t ->
  ?obs:Obs.t ->
  Sim.t ->
  log:string ->
  (t * recovery_report, string) result

(** {1 Maintenance} *)

(** Pre-fault loaded pages into the buffer pool (no simulated I/O) and reset
    its statistics; no-op without a pool. Call after bulk loading. *)
val prewarm_cache : t -> unit

(** Reclaim versions that no active snapshot can read; returns the number
    of index entries removed outright. *)
val gc : t -> int

(** Graphviz DOT snapshot of the live dependency graph: every retained
    transaction record as a node, recorded rw-antidependencies (provenance
    sinks only) and squashed self-conflict flags as edges. Deterministic
    (nodes sorted by id, edges deduplicated). *)
val dot_snapshot : t -> string

(** {1 Wasted-work accounting}

    Sim-time spent inside transactions, split by outcome (after "A Critique
    of Snapshot Isolation"-style wasted-work arguments): a transaction's
    begin→outcome span is banked as committed or wasted work at the moment
    it resolves. Application rollbacks ([User_abort]) count as wasted at
    this level — the engine ran them to no committed effect; the driver
    separates them in its own accounting. Always on: three float adds per
    transaction lifecycle. *)

type work_profile = {
  wp_committed : float;  (** spans of committed transactions, sim seconds *)
  wp_wasted : float;  (** spans of aborted transactions, any reason *)
  wp_in_flight : float;  (** partial spans of still-active transactions *)
}

val work_profile : t -> work_profile

(** Conservation check: the incrementally-maintained ledger equals an
    independent scan of the active table, i.e. total elapsed transaction
    time = committed + wasted + in-flight. [eps] is a relative tolerance
    (default [1e-6]) for float rounding on long runs. *)
val work_conserved : ?eps:float -> t -> bool
