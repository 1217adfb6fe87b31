(** Operation execution, reached through {!Txn} and {!Db}.

    Each operation checks its transaction on entry (a doomed transaction
    rolls back and raises its reason; only an active one goes on) and rolls
    the transaction back before an [Abort] escapes. The bodies behind these
    entry points skip both, so they are not exported. *)

val do_read : Internal.txn -> string -> string -> string option

val do_read_for_update : Internal.txn -> string -> string -> string option

val do_write : Internal.txn -> string -> string -> string -> unit

val do_insert : Internal.txn -> string -> string -> string -> unit

val do_delete : Internal.txn -> string -> string -> bool

val do_scan :
  ?lo:string -> ?hi:string -> ?limit:int -> Internal.txn -> string -> (string * string) list

val do_commit : Internal.txn -> unit

(** Roll back an active or committing transaction with [reason]; a finished
    one is left as it is. *)
val do_rollback : Internal.txn -> Types.abort_reason -> unit
