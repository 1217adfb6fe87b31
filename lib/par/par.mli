(** Fixed-size domain-pool job runner for embarrassingly parallel
    simulation work (experiment sweeps, fuzz campaigns, seed batches).

    Design contract — parallelism must be observationally invisible:

    - Every job is an isolated deterministic world (its own {!Sim.t} and
      {!Db.t}); no state crosses domains except the job's return value.
    - Results are re-assembled in submission order, so output derived from
      them is byte-identical whatever the pool size or completion order.
    - A job that raises is captured; after the whole batch has run, the
      exception of the {e lowest-index} failing job is re-raised at the
      join point with its original backtrace. The sequential fallback
      ([size = 1]) behaves identically (all jobs still run).
    - Jobs may not submit further work to any pool (nested submission
      would deadlock a fixed-size pool); {!run} raises [Invalid_argument]
      when called from inside a job, on any pool, including in the
      sequential fallback — so misuse fails the same way at [-j 1] and
      [-j N]. *)

type t

(** [create n] builds a pool of total parallelism [n >= 1]: [n - 1] worker
    domains plus the submitting thread, which participates in every batch.
    [n = 1] spawns no domains at all: {!run} then executes jobs inline, in
    order — the [-j 1] fallback path.

    Raises [Invalid_argument] if [n < 1], or if the runtime cannot start
    [n - 1] more domains; the workers it did start are stopped and joined
    first. *)
val create : int -> t

(** Total parallelism the pool was created with. *)
val size : t -> int

(** [Domain.recommended_domain_count ()]. *)
val recommended : unit -> int

(** [run pool thunks] executes every thunk (in any order, on any domain)
    and returns their results in submission order. [?on_result i v] is
    called on the submitting thread, in submission order, as the completed
    prefix of the batch grows (streaming progress); delivery stops at the
    first failed job. [on_result] must not submit further work.

    Raises [Invalid_argument] if called from inside a job or after
    {!shutdown}; re-raises the lowest-index job exception after the batch
    completes. *)
val run : ?on_result:(int -> 'a -> unit) -> t -> (unit -> 'a) list -> 'a list

(** [map ?pool f xs]: {!run} over [List.map f xs] when [pool] is given;
    plain sequential [List.map f xs] when it is [None] (the un-plumbed
    path, usable from inside jobs). *)
val map : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list

(** True while the calling domain is executing a pool job. *)
val inside_job : unit -> bool

(** Stop the workers and join their domains. Idempotent. The pool cannot
    be used afterwards. *)
val shutdown : t -> unit

(** [with_pool ~j f] runs [f] with a fresh pool of size [j], shutting it
    down on exit (including exceptional exit). *)
val with_pool : j:int -> (t -> 'a) -> 'a
