(** Deterministic discrete-event simulator.

    The simulator replaces the OS threads and hardware of the paper's testbed:
    client sessions, the deadlock detector and the log flusher are processes;
    CPU, disk and mutexes are {!Resource} values layered on top. All events
    run on one OS thread in a total deterministic order, so code between two
    simulator calls is atomic — the moral equivalent of holding a latch.

    {b One simulator per process.} A process may {!delay} and {!suspend}
    only on the simulator it was spawned on. Both reach the process's
    effect handler with their operands stored in the simulator they were
    called on, and the handler reads its own simulator's; so a call on
    another simulator raises [Invalid_argument] naming it, instead of
    using the wrong clock. A delay that resumes in place on the other
    simulator is the exception: that needs the other simulator's {!run} to
    be active, which happens only when runs are nested.

    {b What a wait allocates.} Each process's handler is built once, when
    it is spawned. A delay that resumes in place allocates nothing; one
    that is queued allocates its continuation and its event; a suspension
    allocates its continuation, its waker and, when woken or killed, its
    event. *)

type t

(** Handle to a suspended process; used by lock queues and condition
    variables to resume (or kill) it later. *)
type waker

val create : unit -> t

(** Current simulated time, in seconds. *)
val now : t -> float

(** Number of processes spawned and not yet finished. *)
val live_procs : t -> int

(** Number of events still queued. *)
val pending_events : t -> int

(** Events scheduled so far: one per spawn, delay, wake, kill or schedule.
    A delay that resumes in place (see {!delay}) is counted too, so the
    count does not depend on which path a delay took. *)
val events : t -> int

(** [spawn t f] creates a process running [f ()]; it starts when the event
    loop reaches the current time. Uncaught exceptions propagate out of
    {!run}. *)
val spawn : t -> (unit -> unit) -> unit

(** [schedule t ~after thunk] runs [thunk] (plain callback, not a process)
    [after] seconds from now.
    @raise Invalid_argument if [after] is negative or NaN. *)
val schedule : t -> after:float -> (unit -> unit) -> unit

(** Advance simulated time by [dt] seconds (process context only).

    Inside {!run}, when [now + dt] is within the run's [until] and strictly
    before every queued event, the process resumes in place: the clock
    advances and the event is counted, with no trip through the event
    queue. That event would have been the next one popped (a new event
    loses every tie), so the order of everything is the same either way.
    Otherwise the delay is queued. Outside {!run} it performs an effect
    that only a process's handler can take, so called there it raises
    [Effect.Unhandled].
    @raise Invalid_argument from {!run} if [dt] is negative or NaN.
    @raise Invalid_argument in the calling process if it was spawned on
    another simulator and the delay is queued. *)
val delay : t -> float -> unit

(** Let other ready processes run at the same timestamp. *)
val yield : t -> unit

(** [suspend t register] parks the calling process and passes its waker to
    [register]; the process resumes when {!wake} is called on the waker, or
    raises when {!kill} is called. [register] runs in the event loop, not
    in the process; a [register] made once (not per call) lets a wait build
    no closure.
    @raise Invalid_argument if the calling process was spawned on another
    simulator. *)
val suspend : t -> (waker -> unit) -> unit

(** Resume a suspended process. No-op if it was already woken or killed. *)
val wake : t -> waker -> unit

(** Resume a suspended process by raising [exn] inside it. No-op if the waker
    already fired. *)
val kill : t -> waker -> exn -> unit

(** Whether the waker has already been woken or killed. *)
val waker_fired : waker -> bool

(** {1 Condition variables} *)

type cond

val cond : unit -> cond

val wait : t -> cond -> unit

(** Wake every waiter. *)
val broadcast : t -> cond -> unit

(** Wake one waiter (FIFO). *)
val signal : t -> cond -> unit

(** Run the event loop until no events remain or simulated time would pass
    [until] (the clock then stops exactly at [until]). *)
val run : ?until:float -> t -> unit
