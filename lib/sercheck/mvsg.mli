(** Multiversion serialization graph (MVSG) checker (§2.5.1).

    Builds the dependency graph of a committed-transaction history recorded
    by the engine ([Config.record_history]) and decides conflict
    serializability. This is the paper's §3.1.1 "after-the-fact analysis
    tool", used here to validate the engine: SSI/S2PL histories must always
    be serializable; SI histories exhibit the known anomalies. *)

open Core.Types

type edge_kind =
  | Ww  (** version order: src installed an earlier version than dst *)
  | Wr  (** dst read the version src installed *)
  | Rw  (** anti-dependency: src read a version older than dst's write *)

val edge_kind_to_string : edge_kind -> string

type edge = { src : int; dst : int; kind : edge_kind; table : string; key : string }

type t

val build : committed_record list -> t

val edges : t -> edge list

val txn : t -> int -> committed_record option

(** Committed transactions with overlapping [begin, commit) intervals. *)
val concurrent : committed_record -> committed_record -> bool

(** A cycle as transaction ids, or [None] if serializable. *)
val find_cycle : t -> int list option

val is_serializable : committed_record list -> bool

(** The Fig 2.2 pattern: consecutive concurrent rw edges through a pivot. *)
type dangerous = { t_in : int; t_pivot : int; t_out : int }

val dangerous_structures : t -> dangerous list

(** Empirical Theorem 2 check: a cyclic history must contain a dangerous
    structure whose outgoing transaction committed first. True for
    serializable histories. *)
val check_theorem2 : committed_record list -> bool
