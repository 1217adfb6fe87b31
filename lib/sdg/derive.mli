(** Automatic SDG derivation from program read/write specifications — a
    small-scale version of the syntactic analysis of Jorwekar et al. 2007
    (§2.6.4).

    Items are (table, parameter-tuple) pairs with symbolic parameters; the
    derivation enumerates every injective matching between two programs'
    parameters and marks an rw edge vulnerable if some matching yields a
    read-write overlap with no write-write overlap — reproducing §2.8.4's
    reasoning (e.g. WriteCheck -> Amalgamate is rw but never vulnerable). *)

type item = { table : string; params : string list }

type program = {
  name : string;
  params : string list;
  reads : item list;
  writes : item list;
}

val item : string -> string list -> item

(** Derive the full SDG, including self-edges between two instances of the
    same program with independent parameters. *)
val derive : program list -> Sdg.t
