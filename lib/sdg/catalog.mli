(** The static dependency graphs studied in the paper. SmallBank graphs are
    derived automatically from program specifications; the TPC-C graphs are
    encoded from Figs 2.8 and 5.3 (their full derivation needs the
    flow-sensitive reasoning the paper also did by hand). *)

(** Fig 2.9: dangerous, pivot = WC. *)
val smallbank : unit -> Sdg.t

(** §2.8.5 fixes — all dangerous-structure-free: *)

val smallbank_materialize_wt : unit -> Sdg.t

val smallbank_promote_wt : unit -> Sdg.t

val smallbank_materialize_bw : unit -> Sdg.t

(** Fig 2.10: note the ww edges Bal now has with every Checking writer. *)
val smallbank_promote_bw : unit -> Sdg.t

(** Fig 2.8: vulnerable edges but no dangerous structure — TPC-C is
    serializable under SI (Fekete et al. 2005). *)
val tpcc : unit -> Sdg.t

(** Fig 5.3: Credit Check added; pivots are CCHECK and NEWO (§5.3.3). *)
val tpccpp : unit -> Sdg.t
