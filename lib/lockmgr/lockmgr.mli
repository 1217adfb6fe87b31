(** Lock manager with the paper's non-blocking SIREAD mode (§3.2).

    Resources are strings (the engine encodes row keys, gap keys and page
    ids); owners are integer transaction ids. S and X behave like a classic
    strict-2PL lock manager with FIFO queues; SIREAD grants instantly, delays
    nobody, and exists only so a later X acquisition can observe that a
    concurrent SI transaction read the item. Conflict *flagging* is done by
    the engine layer: after each grant it lists the owners of the mode the
    grant conflicts with through {!holders_with}.

    Re-entrant: an owner may hold several modes on one resource; its own
    holds never block it (so an S→X upgrade waits only for other owners).
    A held mode is held once: acquiring it again changes nothing. *)

type mode = S | X | Siread

val mode_to_string : mode -> string

type owner = int

(** Raised inside a blocked process chosen as deadlock victim, and by
    {!acquire} itself under [Immediate] detection when waiting would close a
    waits-for cycle. *)
exception Deadlock_victim

(** Whether a requested mode must wait for a held mode. *)
val blocks : mode -> mode -> bool

type detection =
  | Immediate  (** cycle check on every block (InnoDB-style) *)
  | Periodic of float
      (** detector process scanning every [dt] simulated seconds
          (Berkeley DB db_perf-style, twice per second in §6.1) *)

type t

val create : ?detection:detection -> Sim.t -> t

(** Attach an observability sink (lock acquire/block/grant/release and
    deadlock events, lock-wait histogram). Default {!Obs.disabled}. *)
val set_obs : t -> Obs.t -> unit

(** Footprint hook for the DPOR explorer: [f owner is_write resource] is
    called on every {!acquire} (X counts as a write; S and SIREAD are
    reads), before the request can block. [None] (default) disables it. *)
val set_on_touch : t -> (owner -> bool -> string -> unit) option -> unit

(** Every resource [owner] currently holds at least one mode on, sorted. *)
val owned_resources : t -> owner -> string list

(** [acquire t ~owner ~mode resource] grants or blocks (process context).
    SIREAD never blocks. May raise {!Deadlock_victim}. *)
val acquire : t -> owner:owner -> mode:mode -> string -> unit

(** All (owner, mode) holds on a resource, including suspended committed
    SIREAD owners. *)
val holders : t -> string -> (owner * mode) list

(** [holders_with t resource mode] lists the owners holding [mode] on
    [resource], in the order {!holders} lists their [(owner, mode)] pairs:
    the same as keeping the pairs of [holders t resource] whose mode is
    [mode] and dropping the modes, without building the pairs. Both follow
    the list [Hashtbl.fold (fun o _ acc -> o :: acc)] builds from a table
    made by [Hashtbl.create 16] when the lock entry was made, given each
    new holder with [Hashtbl.add] and each hold that lost its last mode
    with [Hashtbl.remove]. The engine marks conflicts in this order, so it
    is part of the simulation. *)
val holders_with : t -> string -> mode -> owner list

(** Modes [owner] currently holds on [resource]. *)
val holds_of : t -> owner:owner -> string -> mode list

(** Whether [owner] currently holds [mode] on [resource]; the same answer as
    [List.mem mode (holds_of t ~owner resource)], without building the
    list. *)
val holds_mode : t -> owner:owner -> mode:mode -> string -> bool

(** Drop one mode of [owner] on [resource]; wakes newly compatible
    waiters. *)
val release_one : t -> owner:owner -> mode:mode -> string -> unit

(** Release everything [owner] holds. With [~keep_siread:true], SIREAD
    entries survive — a committing SSI transaction keeps them while
    suspended (§3.3). The locks that have waiters are granted after every
    hold is released, in the order of the list [Hashtbl.fold (fun r _ acc
    -> r :: acc)] builds from the owner's held set: a table made by
    [Hashtbl.create 16] at the owner's first grant, or its first since
    [release_all] or {!transfer_sireads} emptied its holds, given each new
    hold's resource with [Hashtbl.add] and each hold that lost its last
    mode with [Hashtbl.remove]. Wake order is part of the simulation. *)
val release_all : ?keep_siread:bool -> t -> owner -> unit

(** If [owner] is blocked in {!acquire}, raise [exn] inside it and return
    [true]. Used to abort a blocked transaction from markConflict. *)
val cancel_wait : t -> owner -> exn -> bool

(** [transfer_sireads t ~owner ~to_owner] moves every SIREAD annotation of
    [owner] onto [to_owner], merging where the target already holds one.
    Returns the transferred resources, in the order {!release_all} wakes
    waiters; [to_owner] gets its new holds in that order too. Used by
    committed-transaction summarization to pool old owners' SIREADs under a
    sentinel owner. *)
val transfer_sireads : t -> owner:owner -> to_owner:owner -> string list

(** {1 Waits-for introspection} *)

(** Current waits-for edges over the whole lock table: a blocked owner
    points at every conflicting holder and every conflicting earlier waiter.
    Neither detector builds this graph: both search it from one blocked
    owner (the requester, or each queued owner from the largest id down),
    and build it only for a deadlock certificate. *)
val waits_for_edges : t -> (owner * owner) list

(** The waiters queued on a resource, head (next served) first. A killed
    waiter leaves its queue at once. *)
val queued : t -> string -> (owner * mode) list

val is_waiting : t -> owner -> bool

(** {1 Statistics} *)

(** Total (owner, resource) pairs currently holding a mode. *)
val lock_table_size : t -> int

(** SIREAD holds in the whole table, suspended and summary owners
    included: one per (owner, resource) pair. *)
val siread_entries : t -> int

(** Resources [owner] holds SIREAD on. *)
val sireads_of : t -> owner -> int

val requests : t -> int

(** Requests that blocked. *)
val waits : t -> int

(** Deadlock victims chosen. *)
val deadlocks : t -> int
