(** Deterministic binary min-heap used as the simulator's event queue.

    Entries are ordered by [time]; ties are broken by the strictly increasing
    [seq] number supplied at push time, so two runs of the same program pop
    events in exactly the same order. *)

(** The heap, as parallel arrays over its first [size] slots. The type is
    private so that the simulator can read [times.(0)] in place: a call to
    {!min_time} from another module that is not inlined returns its float
    boxed. *)
type 'a t = private {
  mutable times : float array;  (** unboxed; [times.(0)] is the smallest *)
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
}

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push t ~time ~seq payload] inserts an event. [seq] must be unique and
    increasing across pushes to keep ordering total. *)
val push : 'a t -> time:float -> seq:int -> 'a -> unit

(** Time of the smallest entry; [infinity] when the queue is empty. *)
val min_time : 'a t -> float

(** Remove the smallest entry and return its payload.
    @raise Invalid_argument when the queue is empty. *)
val pop : 'a t -> 'a
