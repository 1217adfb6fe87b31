(** Root-cause attribution: fold abort certificates into the per-resource
    sketch and render the contention table / per-window blame series.

    Blame semantics per certificate edge role: an unsafe (SSI) abort blames
    the resource of the pivot's outgoing edge as [st_blame_out] (the edge
    that completed the dangerous structure) and the resource of the
    incoming edge as [st_blame_in] — one abort can blame up to two
    resources, one per role. First-committer-wins aborts blame the blocking
    resource as [st_blame_fcw]; those are fed live at the abort site (the
    sketch fold of {!Obs.Fcw_abort}) and deliberately skipped here, so running
    {!blame} after a sketch-fed run never double-counts.

    Everything renders through {!Obs.res_id_escape} with fixed numeric
    formats, so equal inputs produce byte-identical output anywhere. *)

(** Fold the pivot-edge blame of the unsafe certificates into the sketch
    (each blamed resource is {!Sketch.touch}ed, so blame feeds the
    heavy-hitter ordering like every other site). *)
val blame : Sketch.t -> Obs.certificate list -> unit

(** Top-[top] entries (default all) — {!Sketch.top} with the table's
    ordering. *)
val table : ?top:int -> Sketch.t -> (string * Sketch.stats) list

(** One-line sketch summary: updates, capacity, tracked keys, the largest
    per-entry overcount and the analytic bound [N/capacity]. *)
val render_summary : Buffer.t -> Sketch.t -> unit

(** Aligned text contention table (header + one row per entry). *)
val render_table : Buffer.t -> ?top:int -> Sketch.t -> unit

(** {1 Per-window blame series}

    The certificates folded onto the timeline's window grid
    ({!Timeline.window_count} windows, {!Timeline.window_of}; horizon
    defaults to the last certificate timestamp). *)

type wblame = {
  wb_window : int;
  wb_t0 : float;  (** window start, simulated seconds *)
  wb_resource : string;  (** raw canonical id (escape at render time) *)
  wb_in : int;  (** unsafe aborts blaming this resource via the in-edge *)
  wb_out : int;  (** ... via the out-edge *)
  wb_fcw : int;  (** FCW aborts blocked on this resource *)
}

(** Sorted by (window, resource); only (window, resource) pairs with any
    blame appear. *)
val blame_windows :
  window:float -> ?horizon:float -> Obs.certificate list -> wblame list

val windows_csv : Buffer.t -> wblame list -> unit

val windows_ndjson : Buffer.t -> wblame list -> unit
