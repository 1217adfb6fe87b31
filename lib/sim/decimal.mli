(** Non-negative integers in decimal, written in place without [Printf] or an
    intermediate string. Resource names, WAL frames and benchmark keys are
    built on every access. Callers handle negative numbers themselves. *)

(** Number of decimal digits of [n >= 0]. *)
val length : int -> int

(** [blit n b ~pos ~width] writes [n >= 0] into [b] from [pos], zero-padded
    on the left to [width] digits; [width] is at least [length n]. *)
val blit : int -> bytes -> pos:int -> width:int -> unit

(** Append the digits of [n >= 0] to a buffer. *)
val add : Buffer.t -> int -> unit
