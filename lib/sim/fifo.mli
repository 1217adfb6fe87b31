(** FIFO queue in a growable circular array.

    A pop clears the slot it vacates, so no slot outside the queued range
    holds an element the queue has given up, or a link from it to a later
    one. A popped element is garbage as soon as nothing else refers to it,
    even when the queue itself sits in the major heap. (A popped cell of
    the stdlib [Queue] keeps its [next] link: once one cell has been
    promoted, every cell appended after it is promoted too, with what it
    holds.)

    The array doubles when full and never shrinks: a queue keeps the
    capacity of its longest moment. A push allocates the element's slot
    box (two words) and, when the array is full, the larger array; a pop
    and a peek allocate nothing. *)

type 'a t

exception Empty

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** Add an element at the back. *)
val push : 'a t -> 'a -> unit

(** The front element, or [None] when the queue is empty. *)
val peek_opt : 'a t -> 'a option

(** Remove and return the front element.
    @raise Empty when the queue is empty. *)
val pop : 'a t -> 'a
