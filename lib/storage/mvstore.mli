(** Multiversion storage: per-key version chains over a {!Btree} index.

    Pure data layer — no locking, no simulated time. The transaction engine
    buffers uncommitted writes and installs committed versions here, newest
    first. Deleted keys keep a tombstone version so snapshot reads and
    conflict detection keep working until {!gc} reclaims them (§3.5).

    A lookup here is one walk of the {!index}: a caller that reads pages
    takes {!Btree.footprint} of the index after {!find_chain},
    {!ensure_chain} or {!scan_chains}. *)

type ts = int

type txn_id = int

type version = {
  value : string option;  (** [None] is a tombstone *)
  commit_ts : ts;
  creator : txn_id;
}

(** Mutable chain of committed versions, newest first. *)
type chain = { mutable versions : version list }

type t

val create : ?fanout:int -> string -> t

val name : t -> string

(** The underlying index (page ids are used for page-granularity locking). *)
val index : t -> chain Btree.t

val find_chain : t -> string -> chain option

(** Chain for a key, creating an empty one (and the index entry) if missing,
    in one walk ({!Btree.find_or_add}). Whether the walk split a page shows
    in {!Btree.splits}. *)
val ensure_chain : t -> string -> chain

(** The index's structure stamp ({!Btree.stamp}): while it has not moved, a
    chain and access found earlier are what a new lookup would find. *)
val stamp : t -> int

(** {2 Page versions}

    At page granularity (the Berkeley DB configuration) a committed write
    versions the whole leaf page: each page keeps the commit timestamp and
    creator of its latest version, indexed by page id. *)

(** Commit timestamp of the page's latest version; [0] if never stamped. *)
val page_ts : t -> int -> ts

(** Creator of the page's latest version ([0] if never stamped). *)
val page_writer : t -> int -> txn_id

val stamp_page : t -> int -> ts:ts -> writer:txn_id -> unit

(** What {!visible} and {!latest} give for a chain with no version they
    can see: a tombstone ([value = None]) with [commit_ts = 0] and
    [creator = 0]. One shared value, so a read allocates no option. *)
val no_version : version

(** Newest version with [commit_ts <= snapshot] — what an SI read sees —
    or {!no_version}. *)
val visible : chain -> snapshot:ts -> version

(** Newest committed version — what an S2PL read sees — or
    {!no_version}. *)
val latest : chain -> version

(** Committed versions newer than [than], newest first: the ignored newer
    versions of Fig 3.4 and the first-committer-wins witnesses. *)
val newer_versions : chain -> than:ts -> version list

val has_newer : chain -> than:ts -> bool

(** Install a committed version; timestamps must increase along a chain. *)
val install : chain -> value:string option -> commit_ts:ts -> creator:txn_id -> unit

(** Snapshot read of a key, skipping tombstones. *)
val read : t -> string -> snapshot:ts -> string option

val read_latest : t -> string -> string option

(** Next index key after [key] whose chain has a committed version ([None]
    = supremum): the key whose gap lock protects [key] (Figs 3.6/3.7). One
    descent, then a walk along the leaf chain. *)
val committed_successor : t -> string -> string option

val min_key : t -> string option

(** Inclusive range iteration over chains, in key order, under
    {!Btree.iter_range}'s rules ([f] may raise [Exit] to stop). *)
val scan_chains : t -> ?lo:string -> ?hi:string -> (string -> chain -> unit) -> unit

(** Append a canonical textual image of the committed store: one line per
    version ([<table>/<len>:<key>@<ts>=<len>:<value>], [~] for a
    tombstone), keys in index order, chains oldest-first, versions above
    [max_ts] omitted. Byte-equality of dumps is the recovery oracle's
    store-equivalence check. *)
val dump : ?max_ts:ts -> t -> Buffer.t -> unit

val key_count : t -> int

val version_count : t -> int

(** Reclaim versions no snapshot [>= min_snapshot] can read; returns the
    number of index entries removed outright. *)
val gc : t -> min_snapshot:ts -> int
