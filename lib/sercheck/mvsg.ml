(* Multiversion serialization graph (MVSG) construction and cycle checking
   over committed-transaction histories recorded by the engine (§2.5.1).

   Under snapshot-style timestamps, versions of an item are totally ordered
   by commit timestamp, which makes the MVSG simple:
   - ww: Ti installed a version of x and Tj installed a later one;
   - wr: Tj read the version Ti installed;
   - rw (anti-dependency): Ti read a version of x older than the one Tj
     installed. This is the only edge allowed between concurrent
     transactions, drawn dashed in the paper's figures.

   The checker also identifies "dangerous structures" (Fig 2.2): two
   consecutive rw edges T_in -> T_pivot -> T_out inside a cycle, with each
   pair concurrent — the pattern SSI detects at runtime. *)

open Core.Types

type edge_kind = Ww | Wr | Rw

let edge_kind_to_string = function Ww -> "ww" | Wr -> "wr" | Rw -> "rw"

type edge = {
  src : int; (* h_id of the source transaction *)
  dst : int;
  kind : edge_kind;
  table : string;
  key : string;
}

type t = {
  txns : (int, committed_record) Hashtbl.t;
  edges : edge list;
}

let edges t = t.edges

let txn t id = Hashtbl.find_opt t.txns id

(* Committed transactions are concurrent if their [begin, commit) intervals
   intersect: begin(a) < commit(b) and begin(b) < commit(a). *)
let concurrent a b = a.h_snapshot < b.h_commit && b.h_snapshot < a.h_commit

let build (history : committed_record list) =
  let txns = Hashtbl.create 64 in
  List.iter (fun h -> Hashtbl.replace txns h.h_id h) history;
  (* Writers per item, sorted by commit timestamp. *)
  let writers : (string * string, committed_record list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun h ->
      List.iter
        (fun item ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt writers item) in
          Hashtbl.replace writers item (h :: cur))
        h.h_writes)
    history;
  Hashtbl.filter_map_inplace
    (fun _ ws -> Some (List.sort (fun a b -> compare a.h_commit b.h_commit) ws))
    writers;
  let edges = ref [] in
  let add src dst kind (table, key) =
    if src <> dst then edges := { src; dst; kind; table; key } :: !edges
  in
  (* ww edges between consecutive versions. *)
  Hashtbl.iter
    (fun item ws ->
      let rec go = function
        | a :: (b :: _ as rest) ->
            add a.h_id b.h_id Ww item;
            go rest
        | _ -> []
      in
      ignore (go ws))
    writers;
  (* wr and rw edges from reads. *)
  List.iter
    (fun reader ->
      List.iter
        (fun { r_table; r_key; r_version } ->
          let item = (r_table, r_key) in
          let ws = Option.value ~default:[] (Hashtbl.find_opt writers item) in
          List.iter
            (fun w ->
              if w.h_commit = r_version then add w.h_id reader.h_id Wr item
              else if w.h_commit > r_version then add reader.h_id w.h_id Rw item)
            ws)
        reader.h_reads)
    history;
  { txns; edges = List.rev !edges }

(* Find a cycle in the edge set, as a list of transaction ids (first = last
   implied). Returns [None] if the graph is acyclic (serializable). *)
let find_cycle t =
  let adj = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt adj e.src) in
      Hashtbl.replace adj e.src (e.dst :: cur))
    t.edges;
  let color = Hashtbl.create 64 in
  (* 1 = on stack, 2 = done *)
  let exception Found of int list in
  let rec dfs path node =
    match Hashtbl.find_opt color node with
    | Some 2 -> ()
    | Some 1 ->
        (* [path] holds the stack (most recent first); the cycle is the
           prefix up to and including [node]. *)
        let rec take acc = function
          | [] -> acc
          | x :: rest -> if x = node then x :: acc else take (x :: acc) rest
        in
        raise (Found (take [] path))
    | _ ->
        Hashtbl.replace color node 1;
        List.iter (dfs (node :: path)) (Option.value ~default:[] (Hashtbl.find_opt adj node));
        Hashtbl.replace color node 2
  in
  try
    Hashtbl.iter (fun id _ -> dfs [] id) t.txns;
    None
  with Found cycle -> Some cycle

let is_serializable history = find_cycle (build history) = None

(* Dangerous structures (Fig 2.2): consecutive vulnerable rw edges
   T_in -> T_pivot -> T_out with each pair concurrent. Theorem 2 says every
   cycle in an SI history contains one; {!check_theorem2} verifies that. *)
type dangerous = { t_in : int; t_pivot : int; t_out : int }

let dangerous_structures t =
  let rw_concurrent =
    List.filter
      (fun e ->
        e.kind = Rw
        &&
        match (txn t e.src, txn t e.dst) with
        | Some a, Some b -> concurrent a b
        | _ -> false)
      t.edges
  in
  List.concat_map
    (fun e1 ->
      List.filter_map
        (fun e2 ->
          if e1.dst = e2.src && e1.src <> e1.dst && e2.src <> e2.dst then
            Some { t_in = e1.src; t_pivot = e1.dst; t_out = e2.dst }
          else None)
        rw_concurrent)
    rw_concurrent

(* Empirical check of Theorem 2 (Fekete et al. 2005): if the history has a
   cycle, some pivot with two consecutive concurrent rw edges exists, and
   among (t_in, t_pivot, t_out) the outgoing transaction commits first. *)
let check_theorem2 history =
  let t = build history in
  match find_cycle t with
  | None -> true
  | Some _ ->
      let ds = dangerous_structures t in
      ds <> []
      && List.exists
           (fun { t_in; t_pivot; t_out } ->
             match (txn t t_in, txn t t_pivot, txn t t_out) with
             | Some tin, Some tpivot, Some tout ->
                 tout.h_commit <= tin.h_commit && tout.h_commit <= tpivot.h_commit
             | _ -> false)
           ds
