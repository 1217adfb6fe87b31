(** The SmallBank benchmark (Alomari et al. 2008; §2.8.2, §5.1).

    Three tables — Account(Name -> CustomerID), Saving and Checking
    (CustomerID -> Balance) — and five transaction programs run in a uniform
    mix. Fig 2.9's SDG has the dangerous structure Bal -> WC -> TS -> Bal
    with WriteCheck as pivot, so the mix is not serializable under plain SI.
    The §2.8.5 static fixes are available as program variants. *)

open Core

val account : string

val saving : string

val checking : string

(** The materialised-conflict table used by the Materialize* fixes (§2.6.1). *)
val conflict : string

(** §2.8.5's application-level modifications that make the mix serializable
    under plain SI (the alternative Serializable SI replaces). *)
type fix = No_fix | Materialize_wt | Promote_wt | Materialize_bw | Promote_bw

val name_of : int -> string

val id_of : int -> string

(** Create and populate the four tables. Balances are in cents. *)
val setup : Db.t -> customers:int -> ?initial_balance:int -> unit -> unit

(** {1 The five programs} (run inside a transaction; may raise Abort) *)

(** Balance: total of both accounts; read-only unless a fix applies. *)
val bal : ?fix:fix -> string -> Txn.t -> int

(** DepositChecking: rolls back (User_abort) on negative amounts. *)
val dc : string -> int -> Txn.t -> unit

(** TransactSaving: deposit/withdraw; rolls back on overdraft. *)
val ts : ?fix:fix -> string -> int -> Txn.t -> unit

(** Amalgamate: move all funds from customer 1 to customer 2. *)
val amg : string -> string -> Txn.t -> unit

(** WriteCheck: cash a check with a $1 overdraft penalty — the pivot. *)
val wc : ?fix:fix -> string -> int -> Txn.t -> unit

(** The uniform 20% mix (§5.1.1); [ops_per_txn > 1] gives the complex
    transactions of §6.1.4. *)
val mix : ?fix:fix -> customers:int -> ?ops_per_txn:int -> unit -> Driver.program list
