(** Interned footprints: the resources a scheduler turn touched, as sorted
    sets of ints, for {!Explore}'s dependency test.

    An exploration owns one {!names} table and interns every resource name
    it analyzes. Ids are [(index lsl 2) lor flags]: the flags mark a
    visibility shadow (["c/<resource>"]) and a name that is not data
    (["clock"], ["tid"], ["x/<engine id>"] and shadows).

    Writers ({!intern}, {!shadow}, {!of_names}) must not run alongside
    anything else on the same table. {!live_conflict} only looks names up,
    so any number of domains may call it at once while nothing writes. *)

type names

val create : unit -> names

(** The id of a name, added on first sight. *)
val intern : names -> string -> int

(** The id of ["c/" ^ name]: the shadow's name is built once per table. *)
val shadow : names -> int -> int

(** False for the snapshot-pin marker, the begin marker, doom flags and
    shadows. *)
val is_data : int -> bool

(** The engine transaction id a doom flag ["x/<id>"] names; [-1] for any
    other name. *)
val doom_owner : names -> int -> int

(** Read and written ids, each sorted and free of repeats. *)
type t = private { reads : int array; writes : int array }

val of_names : names -> reads:string list -> writes:string list -> t

(** [add_reads fp ids] also reads [ids] (in any order, repeats allowed). *)
val add_reads : t -> int array -> t

(** Some resource is written by one footprint and read or written by the
    other, counting two writes of the same shadow as no conflict. *)
val conflict : t -> t -> bool

(** {!conflict} between a live turn's names (not interned; names never
    interned meet nothing) and an interned footprint, without writing to
    the table. *)
val live_conflict : names -> reads:string list -> writes:string list -> t -> bool
