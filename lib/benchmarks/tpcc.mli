(** TPC-C++ (§5.3): the TPC-C schema and transactions plus the Credit Check
    transaction that makes the mix non-serializable under SI.

    Simplifications per §5.3.1 and DESIGN.md: no terminal emulation or
    History table, w_tax cached, optional year-to-date updates, Delivery
    handles one district's oldest order per transaction, c_credit
    partitioned into its own table (§5.3.3), and the "standard" scale
    reduced 10x (the paper's "tiny" scale is exact). *)

open Core

(** {1 Tables} *)

val warehouse : string

val district : string

val customer : string

(** Credit status, partitioned from the customer row (§5.3.3). *)
val customer_credit : string

val item : string

val stock : string

val orders : string

val new_order : string

val order_line : string

(** Secondary index: customer -> order ids. *)
val cust_orders : string

val all_tables : string list

(** {1 Keys and records}

    Key builders take numbers [>= 0] and give the strings of the formats
    named below, which pad each number with zeros to a width and widen it
    when it has more digits. *)

(** ["w%03d"] *)
val wkey : int -> string

(** ["w%03d:d%02d"] *)
val dkey : int -> int -> string

(** ["w%03d:d%02d:c%05d"] *)
val ckey : int -> int -> int -> string

(** ["i%06d"] *)
val ikey : int -> string

(** ["w%03d:i%06d"] *)
val skey : int -> int -> string

(** ["w%03d:d%02d:o%08d"] *)
val okey : int -> int -> int -> string

(** ["w%03d:d%02d:o%08d:%02d"] *)
val olkey : int -> int -> int -> int -> string

(** ["w%03d:d%02d:c%05d:o%08d"] *)
val cokey : int -> int -> int -> int -> string

val district_row : next_o:int -> ytd:int -> string

val parse_district : string -> int * int

val customer_row : balance:int -> credit_lim:int -> delivery_cnt:int -> string

(** (balance, credit_lim, delivery_cnt) *)
val parse_customer : string -> int * int * int

val stock_row : qty:int -> ytd:int -> cnt:int -> string

val parse_stock : string -> int * int * int

val order_row : c:int -> carrier:int -> ol_cnt:int -> string

val parse_order : string -> int * int * int

val ol_row : i:int -> qty:int -> amount:int -> delivered:bool -> string

val parse_ol : string -> int * int * int * bool

(** {1 Data scaling (§5.3.6)} *)

type scale = {
  warehouses : int;
  districts : int;
  customers_per_district : int;
  items : int;
  initial_orders : int;
}

(** TPC-C cardinalities reduced 10x (see module header). *)
val standard : warehouses:int -> scale

(** The paper's tiny scale: customers / 30, items / 100 — exact. *)
val tiny : warehouses:int -> scale

val setup : Db.t -> scale:scale -> unit -> unit

(** {1 Transactions} (run inside a transaction; may raise Abort) *)

val new_order_txn : scale -> Random.State.t -> Txn.t -> unit

val payment_txn : ?skip_ytd:bool -> scale -> Random.State.t -> Txn.t -> unit

val order_status_txn : scale -> Random.State.t -> Txn.t -> unit

val delivery_txn : scale -> Random.State.t -> Txn.t -> unit

val stock_level_txn : scale -> Random.State.t -> Txn.t -> unit

(** Fig 5.1: sums the customer's undelivered order amounts plus the owed
    balance and updates the credit status — the §5.3.3 pivot. *)
val credit_check_txn : scale -> Random.State.t -> Txn.t -> unit

(** {1 Mixes} *)

(** §5.3.4 proportions (41/41/4/4/4/4); [credit_check:false] gives plain
    TPC-C; [skip_ytd] removes the Payment hotspots (§5.3.1). *)
val mix : ?credit_check:bool -> ?skip_ytd:bool -> scale -> Driver.program list

(** §5.3.5: 10 Stock Level per New Order. *)
val stock_level_mix : scale -> Driver.program list

(** {1 Consistency} *)

exception Inconsistent of string

(** TPC-C clause-3.3-style structural checks on the final state: order ids
    dense below each district counter, new_order entries undelivered, order
    lines complete and delivery flags consistent, and table cardinalities
    matching (orders = next_o_id - 1 per district, new_order = undelivered
    orders, order_line = sum of ol_cnt). *)
val check_consistency : Db.t -> scale:scale -> unit

(** Clause 3.3.2.1: warehouse year-to-date = sum of its districts'. *)
val check_ytd : Db.t -> scale:scale -> unit
