(* Random transaction-program generator.

   Programs are straight-line scripts over a small key domain k0..k{d-1}:
   point reads and blind writes, locking reads, inclusive range scans with
   optional LIMIT, inserts of possibly-fresh keys, deletes, and
   user-requested rollbacks. Domains are kept tiny (2-5 keys, 2-4
   transactions, 1-4 operations each) so contention — write skew shapes,
   phantom windows, dangerous structures — is the common case rather than
   the rare one, and so counterexample shrinking has little left to do.

   Everything is drawn from an explicit [Random.State.t]; a campaign seeded
   once replays byte-identically. *)

type profile = {
  p_max_txns : int;  (** 2..n transactions per case *)
  p_max_ops : int;  (** 1..n operations per transaction *)
  p_max_keys : int;  (** key domain size 2..n *)
}

let default_profile = { p_max_txns = 4; p_max_ops = 4; p_max_keys = 5 }

let key_name i = Printf.sprintf "k%d" i

(* One operation. Read-only scripts draw only reads and scans. *)
let gen_op st ~nkeys ~ro : Interleave.op =
  let key () = key_name (Random.State.int st nkeys) in
  let scan () =
    let bound () = if Random.State.bool st then Some (key ()) else None in
    let lo = bound () and hi = bound () in
    let limit = if Random.State.int st 3 = 0 then Some (1 + Random.State.int st 2) else None in
    Interleave.Scan (lo, hi, limit)
  in
  if ro then if Random.State.int st 4 = 0 then scan () else Interleave.R (key ())
  else
    match Random.State.int st 100 with
    | x when x < 32 -> Interleave.R (key ())
    | x when x < 58 -> Interleave.W (key ())
    | x when x < 64 -> Interleave.Rfu (key ())
    | x when x < 76 -> scan ()
    | x when x < 88 -> Interleave.Insert (key ())
    | _ -> Interleave.Delete (key ())

let gen_spec st ~nkeys ~max_ops ~ro : Interleave.spec =
  let n_ops = 1 + Random.State.int st max_ops in
  let ops = List.init n_ops (fun _ -> gen_op st ~nkeys ~ro) in
  (* occasionally end with a user rollback (work that must leave no trace) *)
  if Random.State.int st 12 = 0 then ops @ [ Interleave.Abort_op ] else ops

(* One case under the given matrix point. *)
let case ?(profile = default_profile) st ~(cfg : Fuzzcase.cfg_point) : Fuzzcase.t =
  let nkeys = 2 + Random.State.int st (max 1 (profile.p_max_keys - 1)) in
  let n_txns = 2 + Random.State.int st (max 1 (profile.p_max_txns - 1)) in
  let ro = List.init n_txns (fun _ -> Random.State.int st 5 = 0) in
  let specs = List.map (fun ro -> gen_spec st ~nkeys ~max_ops:profile.p_max_ops ~ro) ro in
  (* Preload most keys so reads/deletes usually find rows; leave some
     absent so inserts create fresh keys and scans cross real gaps. *)
  let init =
    List.filter_map
      (fun i -> if Random.State.int st 4 < 3 then Some (key_name i, "0") else None)
      (List.init nkeys Fun.id)
  in
  let schedule = Interleave.random_order st specs in
  { Fuzzcase.specs; ro; init; schedule; cfg }

(* {1 Campaign cases}

   Case [i] of a [(seed, cases)] campaign over a matrix runs under point
   [i mod] the matrix's length and is drawn from its own RNG state, seeded
   [seed * cases + i], so the case stream does not depend on who runs which
   range of indices. The differential and certificate campaigns share this
   stream; the crash campaign draws from its own family (Fuzzrecover). *)

(* The matrix as an array of points; [who] names the caller when empty. *)
let matrix_points ~who matrix =
  if matrix = [] then invalid_arg (who ^ ": empty matrix");
  Array.of_list matrix

let campaign_case ?profile ~seed ~cases points i =
  let st = Random.State.make [| 0x5551f; (seed * cases) + i |] in
  case ?profile st ~cfg:points.(i mod Array.length points)

(* Both campaigns cut [0, cases) into contiguous shards of [shard_size]
   cases, run [shard ~lo ~hi] for each on [pool] (in order without one),
   and hand each result to [on_shard] in case order — Par delivers a
   completed prefix — so progress output is the same at any [-j]. Returns
   the shard results in case order. *)
let run_shards ?pool ~who ~shard_size ~cases ~on_shard shard =
  if shard_size < 1 then invalid_arg (who ^ ": shard_size must be >= 1");
  let rec ranges lo =
    if lo >= cases then [] else (lo, min cases (lo + shard_size)) :: ranges (lo + shard_size)
  in
  let thunks = List.map (fun (lo, hi) () -> shard ~lo ~hi) (ranges 0) in
  match pool with
  | Some p -> Par.run ~on_result:(fun _ sh -> on_shard sh) p thunks
  | None ->
      List.map
        (fun th ->
          let sh = th () in
          on_shard sh;
          sh)
        thunks
