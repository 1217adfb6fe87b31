(* The SmallBank benchmark (Alomari et al. 2008a; §2.8.2, §5.1).

   Three tables: Account(Name -> CustomerID), Saving(CustomerID -> Balance),
   Checking(CustomerID -> Balance). Five transaction programs (Bal, DC, TS,
   Amg, WC) run in a uniform mix. The SDG (Fig 2.9) has the dangerous
   structure Bal -> WC -> TS -> Bal with WriteCheck as pivot, so the mix is
   not serializable under plain SI.

   §2.8.5's four static fixes are provided as program variants so the
   ablation benchmarks can compare them against Serializable SI. *)

open Core

let account = "sb_account"

let saving = "sb_saving"

let checking = "sb_checking"

let conflict = "sb_conflict" (* the materialised-conflict table (§2.6.1) *)

type fix = No_fix | Materialize_wt | Promote_wt | Materialize_bw | Promote_bw

(* [prefix] then the customer number [i >= 0] zero-padded to six digits, the
   string [Printf.sprintf "%s%06d" prefix i] makes, in one allocation. *)
let padded prefix i =
  let p = String.length prefix and width = max 6 (Decimal.length i) in
  let b = Bytes.create (p + width) in
  Bytes.blit_string prefix 0 b 0 p;
  Decimal.blit i b ~pos:p ~width;
  Bytes.unsafe_to_string b

let name_of i = padded "cust" i

let id_of i = padded "id" i

(* Populate the schema for [customers] accounts, each with both balances
   set to [initial_balance] (cents). *)
let setup db ~customers ?(initial_balance = 10_000) () =
  List.iter
    (fun t -> ignore (Db.create_table db t))
    [ account; saving; checking; conflict ];
  let rows f = List.init customers f in
  Db.load db account (rows (fun i -> (name_of i, id_of i)));
  Db.load db saving (rows (fun i -> (id_of i, string_of_int initial_balance)));
  Db.load db checking (rows (fun i -> (id_of i, string_of_int initial_balance)));
  Db.load db conflict (rows (fun i -> (id_of i, "0")))

let lookup_id t name = Txn.read_exn t account name

let get_int t table key = int_of_string (Txn.read_exn t table key)

(* Locking read for read-modify-write sequences (the engine-level behaviour
   of an SQL UPDATE): avoids S->X upgrade deadlocks under S2PL and engages
   the §4.5 lazy-snapshot path under SI/SSI. *)
let get_int_fu t table key = int_of_string (Txn.read_for_update_exn t table key)

let put_int t table key v = Txn.write t table key (string_of_int v)

let touch_conflict t id = put_int t conflict id (get_int_fu t conflict id + 1)

(* {1 The five programs} *)

(* Balance (Bal): total balance of one customer; read-only unless a fix
   promotes/materialises its conflicts. *)
let bal ?(fix = No_fix) name t =
  let id = lookup_id t name in
  let s = get_int t saving id in
  let c = get_int t checking id in
  (match fix with
  | Materialize_bw -> touch_conflict t id
  | Promote_bw -> put_int t checking id c (* identity write (Fig 2.10) *)
  | No_fix | Materialize_wt | Promote_wt -> ());
  s + c

(* DepositChecking (DC): increase the checking balance. *)
let dc name v t =
  if v < 0 then raise (Types.Abort Types.User_abort);
  let id = lookup_id t name in
  put_int t checking id (get_int_fu t checking id + v)

(* TransactSaving (TS): deposit or withdraw on the savings account. *)
let ts ?(fix = No_fix) name v t =
  let id = lookup_id t name in
  let s = get_int_fu t saving id + v in
  if s < 0 then raise (Types.Abort Types.User_abort);
  (match fix with Materialize_wt -> touch_conflict t id | _ -> ());
  put_int t saving id s

(* Amalgamate (Amg): move all funds of customer 1 to customer 2. Exclusive
   locks (the locking reads) are acquired in canonical key order, so two
   concurrent Amg transactions cannot deadlock — crossed Amg pairs under the
   0.5s periodic deadlock detector would otherwise stall whole lock queues
   and dominate the measurements. *)
let amg name1 name2 t =
  let id1 = lookup_id t name1 in
  let id2 = lookup_id t name2 in
  let s1 = get_int_fu t saving id1 in
  let lo = min id1 id2 and hi = max id1 id2 in
  let c_lo = get_int_fu t checking lo in
  let c_hi = get_int_fu t checking hi in
  let c1 = if lo = id1 then c_lo else c_hi in
  let c2 = if lo = id2 then c_lo else c_hi in
  put_int t checking id2 (c2 + s1 + c1);
  put_int t saving id1 0;
  put_int t checking id1 0

(* WriteCheck (WC): write a check, charging a $1 penalty on overdraft — the
   pivot of the SmallBank SDG. *)
(* WC runs SELECT over both balances and then UPDATEs checking: under S2PL
   the checking read takes a shared lock that is later upgraded — the
   upgrade-deadlock source behind the S2PL collapse of Fig 6.1. Under SI and
   SSI the reads take no blocking locks. The saving read is the vulnerable
   WC -> TS edge of the SDG. *)
let wc ?(fix = No_fix) name v t =
  let id = lookup_id t name in
  let s = get_int t saving id in
  let c = get_int t checking id in
  (match fix with
  | Materialize_wt | Materialize_bw -> touch_conflict t id
  | Promote_wt -> put_int t saving id s (* identity write on Saving *)
  | No_fix | Promote_bw -> ());
  if s + c < v then put_int t checking id (c - v - 1) else put_int t checking id (c - v)

(* {1 Workload mix} *)

(* The uniform 20% mix of §5.1.1; [ops_per_txn] > 1 gives the "complex
   transactions" workload of §6.1.4: each transaction performs N primitive
   read/write operations' worth of SmallBank work (programs are drawn from
   the mix until their combined primitive operation count reaches N — a
   SmallBank program is 3-7 primitive operations, so N = 10 is two to three
   programs per transaction). *)
let mix ?(fix = No_fix) ~customers ?(ops_per_txn = 1) () =
  let random_name st = name_of (Random.State.int st customers) in
  let random_amount st = 1 + Random.State.int st 100 in
  (* Returns the program's primitive read+write operation count. *)
  let one_op st t =
    match Random.State.int st 5 with
    | 0 ->
        ignore (bal ~fix (random_name st) t);
        3
    | 1 ->
        dc (random_name st) (random_amount st) t;
        3
    | 2 ->
        ts ~fix (random_name st) (random_amount st) t;
        3
    | 3 ->
        let n1 = random_name st in
        let n2 = random_name st in
        if n1 <> n2 then amg n1 n2 t;
        7
    | _ ->
        wc ~fix (random_name st) (random_amount st) t;
        4
  in
  (* Bal is declared READ ONLY when the fix variant leaves it a pure query,
     enabling the read-only snapshot refinement. *)
  let bal_ro = match fix with No_fix | Materialize_wt | Promote_wt -> true | _ -> false in
  if ops_per_txn = 1 then
    [
      Driver.program ~read_only:bal_ro "Bal" (fun st t -> ignore (bal ~fix (random_name st) t));
      Driver.program "DC" (fun st t -> dc (random_name st) (random_amount st) t);
      Driver.program "TS" (fun st t -> ts ~fix (random_name st) (random_amount st) t);
      Driver.program "Amg" (fun st t ->
          let n1 = random_name st in
          let n2 = random_name st in
          if n1 <> n2 then amg n1 n2 t);
      Driver.program "WC" (fun st t -> wc ~fix (random_name st) (random_amount st) t);
    ]
  else
    [
      Driver.program "Multi"
        (fun st t ->
          let done_ops = ref 0 in
          while !done_ops < ops_per_txn do
            done_ops := !done_ops + one_op st t
          done);
    ]


