(** Shared public types of the transaction engine. *)

(** Concurrency control algorithm requested per transaction (§2, §3):
    - [Read_committed]: reads see the latest committed version, no read locks.
    - [Snapshot]: snapshot isolation with first-committer-wins (§2.5).
    - [Serializable]: the paper's Serializable Snapshot Isolation (§3) —
      SI plus SIREAD-based rw-dependency tracking and unsafe aborts.
    - [S2pl]: strict two-phase locking with next-key locking (§2.2.1). *)
type isolation = Read_committed | Snapshot | Serializable | S2pl

let isolation_to_string = function
  | Read_committed -> "RC"
  | Snapshot -> "SI"
  | Serializable -> "SSI"
  | S2pl -> "S2PL"

(** The lowercase names flags and repro files spell the levels with. *)
let isolation_names =
  [ ("si", Snapshot); ("ssi", Serializable); ("s2pl", S2pl); ("rc", Read_committed) ]

(** Why a transaction aborted. Matches the error taxonomy of the paper's
    evaluation (Fig 6.1(b) etc.): deadlocks, first-committer-wins conflicts
    and the new "unsafe" errors introduced by Serializable SI. *)
type abort_reason =
  | Deadlock  (** lock-wait cycle (S2PL, or SI write-write waits) *)
  | Update_conflict  (** first-committer-wins violation (SI/SSI) *)
  | Unsafe  (** dangerous structure detected by Serializable SI *)
  | Duplicate_key  (** insert of an existing live key *)
  | User_abort  (** application-requested rollback *)
  | Internal_error of string

let abort_reason_to_string = function
  | Deadlock -> "deadlock"
  | Update_conflict -> "update-conflict"
  | Unsafe -> "unsafe"
  | Duplicate_key -> "duplicate-key"
  | User_abort -> "user-abort"
  | Internal_error m -> "internal: " ^ m

(** Raised by transaction operations; the transaction is already rolled back
    when this escapes. *)
exception Abort of abort_reason

(** {1 History records}

    When [record_history] is enabled, the engine logs every committed
    transaction so the serializability checker can build the multiversion
    serialization graph (§2.5.1). A read is identified by the commit
    timestamp of the version it observed ([0] = initial database state). *)

type read_record = { r_table : string; r_key : string; r_version : int }

type committed_record = {
  h_id : int;
  h_isolation : isolation;
  h_snapshot : int;  (** begin timestamp (read view) *)
  h_commit : int;  (** commit timestamp *)
  h_reads : read_record list;
  h_writes : (string * string) list;  (** (table, key); version ts = h_commit *)
}
