(** Interleaving tester, replicating and generalising §4.7: run every (or a
    chosen / randomly sampled) interleaving of small transaction scripts
    against a fresh engine and verify serializability outcomes per isolation
    level.

    A schedule is a turn list: spec indices in turn order. Scheduling is
    blocking-capable: each transaction runs in its own simulator process
    and a scheduler process grants one-operation turns, from a turn list
    or a pick callback, through one grant loop. Operations that block
    (write-write lock waits, S2PL read locks, gap and page locks) park
    their transaction; its remaining turns are skipped until the lock is
    granted and any leftovers run in a final drain phase, so scripts with
    cross-transaction write-write conflicts execute deterministically and
    always terminate. *)

type op =
  | R of string  (** point read *)
  | W of string  (** blind write *)
  | Rfu of string  (** SELECT ... FOR UPDATE (§4.5 fast path) *)
  | Insert of string  (** insert a fresh key (gap-locked, Fig 3.7) *)
  | Delete of string  (** delete (tombstone write) *)
  | Scan of string option * string option * int option
      (** range scan [lo, hi] with optional LIMIT (next-key locking,
          Fig 3.6) *)
  | Abort_op  (** user-requested rollback; ends the script *)

type spec = op list

val table : string

val op_to_string : op -> string

(** Ops joined with ";", e.g. ["r(x);w(y)"]. *)
val spec_to_string : spec -> string

(** All merges of the scripts' turn sequences, produced lazily in
    lexicographic order; memory is O(total ops) however many
    interleavings there are. *)
val interleavings_seq : spec list -> int list Seq.t

(** Multinomial schedule count [(Σ len_i)! / Π len_i!] — the brute-force
    bound the explorer's reduction factor is measured against. *)
val count_interleavings : spec list -> int

(** One random merge, uniform over the multinomial interleaving set (the
    next transaction is weighted by its remaining-operation count). *)
val random_order : Random.State.t -> spec list -> int list

type result = {
  outcomes : Core.Types.abort_reason option list;  (** [None] = committed *)
  history : Core.Types.committed_record list;
  serializable : bool;
  crashed : bool;  (** an armed [Wal] crash plan fired during the run *)
  db : Core.Db.t;  (** the engine the interleaving ran against *)
  txn_ids : int list;
      (** engine transaction id per spec index ([-1] if never begun), so
          outcome digests can rename schedule-dependent ids to indices *)
}

(** Execute one interleaving at the given isolation. [turns] is the
    schedule: spec indices in turn order, each entry granting that
    transaction its next operation. [init] overrides the rows loaded by
    default (value ["0"] for every key named by a read, write, locking read
    or delete; insert targets stay free); [ro] declares transactions READ ONLY at begin (must match the
    spec count). [obs] attaches an observability sink to the freshly
    created engine before any transaction starts (abort-provenance
    certificates, trace spans). Each transaction commits right after its
    last operation. A turn offered to a transaction blocked in the lock
    manager is skipped at no simulated cost, and leftover operations run
    in a drain phase in index order, so every transaction terminates
    (commit or abort) before the call returns. Raises [Invalid_argument]
    before anything runs if a turn names no script or a script gets more
    turns than it has operations.

    [db] switches to continuation mode: the interleaving runs against the
    given (e.g. freshly recovered) engine and its simulation instead of a
    fresh one — no table creation, no bulk load, [config] ignored. [crash]
    arms a deterministic fault plan after the bulk load; if it fires, the
    simulated machine is abandoned mid-run, [crashed] is set, and the
    surviving state is the WAL's durable prefix (feed
    [Wal.durable_log (Db.wal result.db)] to [Db.recover]). *)
val run_interleaving :
  ?config:Core.Config.t ->
  ?obs:Obs.t ->
  ?init:(string * string) list ->
  ?ro:bool list ->
  ?db:Core.Db.t ->
  ?crash:Wal.plan ->
  isolation:Core.Types.isolation ->
  spec list ->
  int list ->
  result

(** One scheduler turn of a {!run_directed} run. [ds_free] distinguishes
    genuine choice points from canonical drain-phase grants (once every
    unfinished transaction is parked, any turn list falls into the same
    index-order drain — those grants are not schedule branch points).
    Footprints are mutable: a parked operation keeps touching resources as
    it resumes during later turns, so they are only complete once the run
    has finished. *)
type dstep = {
  ds_txn : int;  (** spec index granted this turn *)
  ds_enabled : int list;  (** grantable spec indices at that moment, ascending *)
  ds_free : bool;  (** true = free choice point; false = canonical drain *)
  mutable ds_reads : string list;  (** resources the op read (unordered) *)
  mutable ds_writes : string list;  (** resources the op wrote *)
}

(** Execute the scripts granting turns via [pick ~step ~enabled ~steps]
    ([enabled] ascending and non-empty, [steps] newest first with partial
    footprints), recording each turn's observed read/write footprint via the
    engine's [Db.set_on_touch] hook. Once no transaction is grantable the
    run switches permanently to the canonical drain; the grant loop is the
    one {!run_interleaving} drives. [begin_marker] makes every
    transaction's first turn write a shared ["tid"] pseudo-resource, for
    configurations whose behaviour depends on transaction-id order
    (Prefer_younger victims, the periodic detector's kill-the-youngest
    rule). Raises [Invalid_argument] if [pick] returns a transaction not in
    [enabled]. *)
val run_directed :
  ?config:Core.Config.t ->
  ?obs:Obs.t ->
  ?init:(string * string) list ->
  ?ro:bool list ->
  ?begin_marker:bool ->
  isolation:Core.Types.isolation ->
  spec list ->
  pick:(step:int -> enabled:int list -> steps:dstep list -> int) ->
  result * dstep list

type summary = {
  total : int;
  all_committed : int;
  non_serializable : int;
  unsafe_aborts : int;
  other_aborts : int;
}

(** Run every interleaving and summarise. [on_run] sees each result in
    enumeration order; [init]/[ro] as in {!run_interleaving}. *)
val sweep :
  ?config:Core.Config.t ->
  ?init:(string * string) list ->
  ?ro:bool list ->
  ?on_run:(result -> unit) ->
  isolation:Core.Types.isolation ->
  spec list ->
  summary

(** The paper's §4.7 detection set: T1: r(x); T2: r(y) w(x); T3: w(y) —
    a dependency path, always serializable, but SSI must flag T2. *)
val paper_spec : spec list

(** Classic write skew: both read x and y; one writes x, the other y. *)
val write_skew_spec : spec list

(** Example 3 (read-only anomaly): some interleavings are genuinely
    non-serializable under SI. *)
val read_only_anomaly_spec : spec list

(** {1 4–5-transaction variants} — exhaustively checkable only through the
    DPOR explorer (multinomial counts from thousands to hundreds of
    thousands). *)

(** §4.7 stretched to a dependency 4-chain (180 interleavings). *)
val paper_spec_4 : spec list

(** §4.7 stretched to a 5-chain (5040 interleavings). *)
val paper_spec_5 : spec list

(** Write skew closed into a 3-cycle (1680 interleavings). *)
val write_skew_spec_3 : spec list

(** Write skew as a 4-cycle (369600 interleavings — past the CI budget for
    full enumeration; the explorer's showcase). *)
val write_skew_spec_4 : spec list

(** Read-only anomaly plus a second independent observer (2520). *)
val read_only_anomaly_spec_4 : spec list
