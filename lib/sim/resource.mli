(** FIFO k-server resource: CPU cores, a disk, or a capacity-1 mutex.

    [use r dt f] waits for a free server, holds it for [dt] simulated seconds,
    runs [f] and releases. Waiters are served in arrival order. *)

type t

val create : Sim.t -> name:string -> capacity:int -> t

(** Attach a profiler sink: a {!Obs.Res_sample} (servers busy, queue depth)
    is emitted at every acquire/release state change while the sink is
    tracing. The default {!Obs.disabled} sink costs one branch per state
    change and never reads simulated time. *)
val set_obs : t -> Obs.t -> unit

val name : t -> string

val capacity : t -> int

(** Servers currently held. *)
val in_use : t -> int

(** Processes waiting for a server. *)
val queued : t -> int

(** Block until a server is free, then hold it (pair with {!release}). *)
val acquire : t -> unit

val release : t -> unit

(** [use t dt f]: acquire, spend [dt] simulated seconds, run [f], release.
    Releases on exception too. *)
val use : t -> float -> (unit -> 'a) -> 'a

(** [consume t dt] = [use t dt (fun () -> ())]. *)
val consume : t -> float -> unit

(** {1 Statistics} *)

(** Total server-seconds consumed through {!use}/{!consume}. *)
val busy_time : t -> float

(** Fraction of capacity busy over an [elapsed]-second window. *)
val utilisation : t -> elapsed:float -> float
