(* The sibench microbenchmark (§5.2): one table of I rows; a query that
   scans every row and returns the id with the smallest value, and an update
   that increments one uniformly random row. There is a single rw edge in
   the SDG (query -> update), so no deadlocks and no write skew — the
   benchmark isolates the cost of read-write conflict handling:
   S2PL blocks, SI ignores, SSI tracks SIREAD locks. *)

open Core

let table = "sitest"

let key_of i = Printf.sprintf "row%06d" i

let setup db ~items () =
  ignore (Db.create_table db table);
  Db.load db table (List.init items (fun i -> (key_of i, string_of_int i)))

(* SELECT id FROM sitest ORDER BY value ASC LIMIT 1 *)
let query t =
  let best = ref None in
  List.iter
    (fun (k, v) ->
      let v = int_of_string v in
      match !best with
      | Some (_, bv) when bv <= v -> ()
      | _ -> best := Some (k, v))
    (Txn.scan t table);
  !best

(* UPDATE sitest SET value = value + 1 WHERE id = :id *)
let update ~items st t =
  let k = key_of (Random.State.int st items) in
  let v = int_of_string (Txn.read_for_update_exn t table k) in
  Txn.write t table k (string_of_int (v + 1))

(* [queries_per_update] = 1 is the mixed workload of §6.3.1; 10 is the
   query-mostly workload of §6.3.2. *)
let mix ~items ?(queries_per_update = 1) () =
  [
    Driver.program ~weight:(float_of_int queries_per_update) ~read_only:true "query"
      (fun _st t -> ignore (query t));
    Driver.program ~weight:1.0 "update" (fun st t -> update ~items st t);
  ]

(* Sum of all values: each committed update adds exactly 1, so
   total - initial = number of committed updates — the consistency probe
   used by the tests. *)
let total db =
  let t = Db.table_exn db table in
  Btree.fold_range (Mvstore.index t) ?lo:None ?hi:None ~init:0 ~f:(fun acc _ chain ->
      match (Mvstore.latest chain).Mvstore.value with
      | Some v -> acc + int_of_string v
      | None -> acc)

let initial_total ~items = items * (items - 1) / 2
