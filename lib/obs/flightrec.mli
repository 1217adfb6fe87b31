(** Flight recorder: anomaly triggers read off a run's {!Timeline}, and a
    self-contained post-mortem bundle of the trace up to the first firing.

    The timeline is the one fold of the trace into windows; {!run} checks
    its windows in order and fires on the first that meets the trigger
    (trigger-once). The ring is a cut of the trace: the last [capacity]
    events up to the end of the firing window — exactly what a drop-oldest
    ring fed the stream would hold when frozen at that boundary — with the
    older events counted as {!drops}.

    Windows and numbers come from {!Timeline.window_of} and
    {!Timeline.num}, so an event at or after the timeline's horizon counts
    in the last window, as it does in the timeline itself.

    Deterministic end to end: the recorder is a pure function of the trace
    (no clock, no RNG), and the bundle renders with fixed formats — the
    same seed yields byte-identical bundles anywhere. *)

type t

val capacity : t -> int

val length : t -> int

(** Events up to the end of the cut that fell outside the ring. *)
val drops : t -> int

(** Ring contents, oldest first. *)
val contents : t -> (float * Obs.event) list

(** {1 Triggers} *)

type trigger =
  | Abort_storm of float
      (** per-window error-abort rate (the timeline's ["abort-rate"]) at or
          above the threshold *)
  | Slo_violation of Timeline.slo
      (** any transaction class violating either target in a window
          ({!Timeline.class_rates}, classes in sorted order) *)
  | Regime of string
      (** first Page–Hinkley change point on the named timeline series
          (default parameters of {!Timeline.change_points}) *)

(** Accepted forms: ["abort_rate:X"], ["slo"] (defaults: abort rate 0.5,
    p95 0.1 s), ["slo:RATE:P95"], ["regime"] (series ["throughput"]),
    ["regime:SERIES"]. *)
val trigger_of_string : string -> (trigger, string) result

val trigger_to_string : trigger -> string

type incident = {
  in_trigger : string;  (** {!trigger_to_string} of the firing trigger *)
  in_window : int;  (** window index that fired *)
  in_ts : float;  (** end of the firing window, simulated seconds *)
  in_detail : string;  (** human-readable evidence, fixed format *)
}

(** [run ~capacity ~trigger tl events] checks [trigger] on the windows of
    [tl] in order, up to the window of the last of [events] (window 0 when
    there are none), and cuts the ring from [events]. [tl] must be the
    timeline of the same chronological [events]. With no incident the ring
    holds the last [capacity] events. *)
val run :
  capacity:int -> trigger:trigger -> Timeline.t -> (float * Obs.event) list -> t * incident option

(** Render the self-contained post-mortem bundle: trigger + incident
    header, the ring (one {!Obs.event_json} line per event, drop counter
    included), the current top-[top] contention table with its sketch
    summary, and the DOT snapshot of the last certificate at or before the
    firing instant (["none"] when there is no such snapshot). *)
val write_bundle :
  Buffer.t ->
  recorder:t ->
  incident:incident ->
  sk:Sketch.t ->
  top:int ->
  certs:Obs.certificate list ->
  unit
