(** Benchmark workload driver, modelled on the paper's db_perf setup (§6.1):
    MPL client processes each run a stream of transactions drawn from a
    weighted mix; aborted transactions are retried; throughput and abort
    rates are measured over a window after a warmup period. *)

(** A transaction program in a mix. *)
type program = {
  p_name : string;
  p_weight : float;
  p_read_only : bool;  (** declared READ ONLY (enables the RO refinement) *)
  p_body : Random.State.t -> Core.Txn.t -> unit;
      (** runs inside a transaction; may raise {!Core.Types.Abort} (e.g. an
          application rollback); parameters come from the per-client RNG *)
}

val program :
  ?weight:float -> ?read_only:bool -> string -> (Random.State.t -> Core.Txn.t -> unit) -> program

(** Weighted random choice from a mix. [pick mix] sums the running weight
    totals once; apply the result to a state for each choice. *)
val pick : program list -> Random.State.t -> program

(** Per-program measurement over the window. *)
type program_stats = {
  ps_name : string;
  mutable ps_commits : int;  (** completed (incl. application rollbacks) *)
  mutable ps_user_aborts : int;  (** application rollbacks among commits *)
  mutable ps_aborts : int;  (** error-abort attempts (deadlock/conflict/unsafe) *)
  ps_latency : Obs.hist;  (** response time over completed transactions *)
}

type result = {
  mpl : int;
  seed : int;
  elapsed : float;
  commits : int;  (** completed transactions in the window *)
  throughput : float;  (** commits per simulated second *)
  user_aborts : int;  (** application rollbacks among [commits] *)
  deadlocks : int;
  conflicts : int;  (** first-committer-wins aborts *)
  unsafe : int;  (** Serializable SI dangerous-structure aborts *)
  other_aborts : int;
  mean_response : float;
  aborts_per_commit : float;  (** error aborts only; user aborts excluded *)
  per_program : (string * int) list;  (** commits by program name *)
  programs : program_stats list;  (** full per-program stats, sorted by name *)
  metrics : Obs.metrics;
      (** engine metrics snapshot (all zero unless [obs] was passed) *)
  end_lock_table : int;  (** lock-table entries when the window closed *)
  end_retained : int;  (** committed transaction records still retained *)
  work_committed : float;
      (** engine wasted-work ledger: begin→commit spans, simulated seconds
          (whole run, not just the measurement window) *)
  work_wasted : float;  (** begin→abort spans, any abort reason *)
}

type config = {
  isolation : Core.Types.isolation;
  mpl : int;  (** number of concurrent clients *)
  warmup : float;  (** simulated seconds before measurement starts *)
  duration : float;  (** measured simulated seconds *)
  think_time : float;  (** mean delay between transactions (0 = closed loop) *)
  seed : int;
  max_retries : int;
}

val default_config : config

(** One measurement: build a fresh database via [make_db], run [mix] with
    [cfg.mpl] clients and count commits/aborts in the measurement window.
    Deterministic given the seed; passing [obs] (attached via
    {!Core.Db.set_obs}) changes no benchmark number, only fills
    [result.metrics] and, if the sink traces, its event buffer. *)
val run_once :
  ?obs:Obs.t -> make_db:(Sim.t -> Core.Db.t) -> mix:program list -> config -> result

type summary = {
  s_mpl : int;
  s_throughput : float;  (** mean across seeds *)
  s_ci : float;  (** 95% confidence half-width *)
  s_deadlock_rate : float;  (** aborts per commit *)
  s_conflict_rate : float;
  s_unsafe_rate : float;
  s_user_abort_rate : float;  (** application rollbacks per commit *)
  s_mean_response : float;  (** weighted by per-seed commit counts *)
  s_lock_table : float;  (** mean lock-table entries at window close *)
  s_metrics : Obs.metrics option;  (** merged engine metrics (with_metrics) *)
}

(** Run the same configuration across several seeds and aggregate. With
    [with_metrics] each run carries a metrics-only {!Obs.t} and the merged
    metrics appear in [s_metrics]. With [pool] the per-seed runs execute on
    the domain pool; each run is an isolated simulated world, and results
    come back in seed order, so the summary is byte-identical to the
    sequential path. *)
val run_seeds :
  ?pool:Par.t ->
  ?with_metrics:bool ->
  make_db:(Sim.t -> Core.Db.t) ->
  mix:program list ->
  seeds:int list ->
  config ->
  summary
