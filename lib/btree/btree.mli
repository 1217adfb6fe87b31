(** In-memory B+tree with leaf chaining and page-id tracking.

    Ordered-index substrate standing in for Berkeley DB's Btree access method
    and InnoDB's clustered index. Keys are strings (composite keys are
    encoded by the caller); values are arbitrary — the MVCC layer stores
    mutable version chains in them.

    Every page (node) has a stable integer id, and a lookup reports its
    {!access} footprint on request: the descent path, the leaf pages
    visited, and any pages structurally modified by splits. The transaction
    engine uses these ids for page-granularity locking (the Berkeley DB
    configuration of the paper), where a root-page split conflicts with
    every concurrent reader. Each lookup comes in two forms: {!find_path},
    {!find_or_add_path} and {!iter_range_access} build the footprint, and
    {!find}, {!find_or_add} and {!iter_range}, for callers that read no
    pages, build none.

    Deletion is lazy (no rebalancing): version-chain entries are only removed
    by garbage collection, so underflowing pages are harmless and simply
    stay.

    A tree belongs to one domain: every walk from the root records the nodes
    it passes in the tree, so even reads must not run on two domains at
    once. *)

type 'a t

(** Footprint of one tree operation, as page ids. *)
type access = {
  path : int list;  (** descent path, root first *)
  leaves : int list;  (** leaf pages visited (scans may visit several) *)
  modified : int list;  (** pages structurally modified by splits *)
  splits : (int * int) list;
      (** (old page, new right sibling) for each split performed: entries that
          lived on the old page may now live on the new one, so page-level
          conflict state (stamps, SIREAD locks) must be carried across. *)
}

val no_access : access

(** [create ~fanout ()] makes an empty tree. [fanout] is the maximum number
    of keys per leaf and children per internal node (default 64, min 4). *)
val create : ?fanout:int -> unit -> 'a t

val length : 'a t -> int

(** Current root page id (changes when the root splits). *)
val root_id : 'a t -> int

(** Walks from the root so far: one per lookup, insert, scan, successor or
    remove. *)
val descents : 'a t -> int

(** The structure stamp: moves on every insert of a new key (splits
    included) and every remove of a present key, and on nothing else (not
    on a find, a replace, a scan or a successor). While it has not moved,
    every key keeps its leaf and descent path, and the tree its key set, so
    an {!access} or value found earlier is still what a new lookup would
    find. *)
val stamp : 'a t -> int

(** Splits so far: each split of a page, the root's included, makes one
    new page, so an insert split exactly when this moved. *)
val splits : 'a t -> int

val find : 'a t -> string -> 'a option

(** Like {!find} but also reports the pages read. *)
val find_path : 'a t -> string -> 'a option * access

(** Insert or replace, in one walk from the root. The returned access is the
    walk's path and the leaf it reached (before any split), and lists
    split-modified pages, which is how page-level writers conflict with
    concurrent readers of internal pages. *)
val insert : 'a t -> string -> 'a -> access

(** [find_or_add t key make] is the value of [key], inserting [make ()] if
    it is absent, in one walk. *)
val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a

(** Like {!find_or_add}, also reporting the footprint: {!find_path}'s when
    the key is present and {!insert}'s when it is added. *)
val find_or_add_path : 'a t -> string -> (unit -> 'a) -> 'a * access

(** Physically remove a key (used by garbage collection, not by transactions,
    which write tombstones instead). Returns whether the key was present.
    The tree keeps no reference to the removed value (nor to a value
    {!insert} replaced). *)
val remove : 'a t -> string -> bool

val min_key : 'a t -> string option

val max_key : 'a t -> string option

(** Least key strictly greater than the argument — the "next key" of
    next-key/gap locking (Figs 3.6/3.7). *)
val successor : 'a t -> string -> string option

(** [successor_where t key p]: the least key strictly greater than [key]
    whose value satisfies [p], in one descent and a walk along the leaf
    chain. *)
val successor_where : 'a t -> string -> ('a -> bool) -> string option

(** Inclusive range iteration in key order; [f] may not change the tree,
    and may raise [Exit] to stop the scan. *)
val iter_range : 'a t -> ?lo:string -> ?hi:string -> (string -> 'a -> unit) -> unit

(** Like {!iter_range}, reporting the descent path and leaves visited (of
    those before the stop, when [f] raises [Exit]). *)
val iter_range_access : 'a t -> ?lo:string -> ?hi:string -> (string -> 'a -> unit) -> access

val fold_range :
  'a t -> ?lo:string -> ?hi:string -> init:'acc -> f:('acc -> string -> 'a -> 'acc) -> 'acc

val to_list : 'a t -> (string * 'a) list

(** Tree height in levels (1 = a single leaf). *)
val height : 'a t -> int

val page_count : 'a t -> int

(** All page ids, root first. *)
val all_pages : 'a t -> int list

exception Invariant_violation of string

(** Check structural invariants (sortedness, uniform depth, separator bounds,
    leaf-chain consistency, size). Raises {!Invariant_violation}. For tests. *)
val check_invariants : 'a t -> unit
