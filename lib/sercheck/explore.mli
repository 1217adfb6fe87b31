(** DPOR schedule explorer: exhaustive serializability checking without
    brute-force enumeration.

    Explores the schedule space of an {!Interleave} program by dynamic
    partial-order reduction: one schedule is executed, the resources each
    scheduler turn touched (row versions, page stamps, gaps, lock-manager
    entries, doom flags) are captured through the engine's footprint hook
    ({!Core.Db.set_on_touch}), and new schedules are branched only where two
    turns of different transactions raced on a resource at least one of them
    wrote. Commuting turns are never reordered, so the explorer visits every
    *semantic* outcome while executing a small fraction of the multinomial
    schedule count — §4.7-style matrices extend to 4–5-transaction programs
    whose full enumeration does not fit a CI budget.

    Soundness is checked empirically rather than assumed:
    {!cross_validate} compares the explorer's outcome-digest set against the
    full enumeration on every program small enough to enumerate. *)

(** Reduction metrics of one exploration. *)
type stats = {
  executed : int;  (** schedules actually run *)
  bound : int;  (** multinomial brute-force schedule count *)
  backtracks : int;  (** branch points added by race analysis *)
  sleep_hits : int;  (** backtrack candidates suppressed as already covered *)
  sleep_blocked : int;  (** picks where every enabled transaction slept *)
  duplicates : int;
      (** executed runs that turned out to be a second linearization of an
          already-analyzed trace (they spawn no further branches) *)
}

(** True when [config] makes behaviour depend on transaction-id order
    (Prefer_younger victims, periodic kill-the-youngest deadlock detection)
    — {!explore} then treats any two transaction begins as dependent. *)
val needs_begin_marker : Core.Config.t -> bool

(** [explore ~isolation specs] runs DPOR to completion and returns the
    sorted set of distinct outcome digests plus reduction metrics.
    [config] defaults to the history-recording test configuration
    ([record_history] is forced on regardless). [pool] parallelises
    frontier batches — results are byte-identical at any pool size. A
    batch's runs are not quite isolated worlds: their sleep-set wake
    checks read the exploration's table of interned resource names. Race
    analysis, the table's only writer, runs on the submitting thread
    between batches, so the pool's domains only ever read it.
    [on_run] fires once per executed
    schedule, on the submitting thread, in deterministic order (oracles over
    explored runs — e.g. asserting zero MVSG violations). [init]/[ro] as in
    {!Interleave.run_interleaving}.

    Bounded-memory configurations ([memory_budget]) are outside the
    explorer's dependency model: SIREAD summarization keys off a global
    watermark, which makes footprint-disjoint turns non-commuting. Explore
    them with {!Interleave.sweep} instead. *)
val explore :
  ?config:Core.Config.t ->
  ?pool:Par.t ->
  ?on_run:(Interleave.result -> unit) ->
  ?init:(string * string) list ->
  ?ro:bool list ->
  isolation:Core.Types.isolation ->
  Interleave.spec list ->
  string list * stats

(** The ground truth: run {e every} interleaving through {!Interleave.sweep}
    and collect the distinct outcome digests (sorted), with the sweep's
    §4.7 counts from the same pass. Multinomial cost — small programs
    only. *)
val sweep_digests :
  ?config:Core.Config.t ->
  ?init:(string * string) list ->
  ?ro:bool list ->
  isolation:Core.Types.isolation ->
  Interleave.spec list ->
  string list * Interleave.summary

type validation = {
  v_match : bool;  (** digest sets identical *)
  v_dpor : string list;
  v_full : string list;
  v_stats : stats;
}

(** Run {!explore} and {!sweep_digests} on the same program and compare. *)
val cross_validate :
  ?config:Core.Config.t ->
  ?pool:Par.t ->
  ?init:(string * string) list ->
  ?ro:bool list ->
  isolation:Core.Types.isolation ->
  Interleave.spec list ->
  validation
