(* TPC-C++ (§5.3): the TPC-C schema and five transactions, plus the Credit
   Check transaction that makes the mix non-serializable under SI.

   Simplifications follow §5.3.1: no terminal emulation or think times, no
   History table, total throughput reported (not tpmC), the constant w_tax
   cached client-side (so New Order does not read the Warehouse row), and an
   option to skip the year-to-date updates in Warehouse/District (which
   otherwise create write-write hotspots between Payment transactions).

   One further substitution, recorded in DESIGN.md: the "standard" data
   scale is reduced 10x (300 customers/district, 5000 items) so a simulated
   run fits in memory; the paper's own "tiny" scale (100 customers/district,
   1000 items) is exact. Buffer-pool misses for the large configurations are
   modelled by the engine's [read_miss] disk model rather than by data
   volume. Delivery processes one district's oldest order per transaction
   (the simplification of §2.8.1), giving the DLVY1/DLVY2 split of the SDG;
   Payment looks customers up by primary key only (TPC-C's 60%% by-last-name
   path is omitted, as is its secondary index). *)

open Core

(* {1 Schema} *)

let warehouse = "tc_warehouse" (* w            -> ytd *)

let district = "tc_district" (* w:d          -> next_o_id|ytd *)

let customer = "tc_customer" (* w:d:c        -> balance|credit_lim|delivery_cnt *)

(* The customer's credit status lives in its own table: §5.3.3 notes that
   with row-level locking the Credit Check / Payment conflicts would be
   write-write unless c_credit and c_balance are partitioned apart, and the
   TPC-C spec explicitly permits partitioning the Customer table. *)
let customer_credit = "tc_cust_credit" (* w:d:c -> "GC" | "BC" *)

let item = "tc_item" (* i            -> price *)

let stock = "tc_stock" (* w:i          -> qty|ytd|order_cnt *)

let orders = "tc_orders" (* w:d:o        -> c|carrier|ol_cnt *)

let new_order = "tc_new_order" (* w:d:o        -> "1" *)

let order_line = "tc_order_line" (* w:d:o:n      -> i|qty|amount|delivered *)

let cust_orders = "tc_cust_orders" (* w:d:c:o      -> "1" (customer order index) *)

let all_tables =
  [
    warehouse;
    district;
    customer;
    customer_credit;
    item;
    stock;
    orders;
    new_order;
    order_line;
    cust_orders;
  ]

(* {1 Keys and records} *)

(* A key is a run of fields, each a tag and then a number [n >= 0]
   zero-padded to a width, or wider when [n] has more digits: the string
   Printf's "%0*d" gives, written in one allocation. [len] is a field's
   length; [put] writes one at [pos] and returns the position after it. *)
let len tag n w = String.length tag + max w (Decimal.length n)

let put b pos tag n w =
  let p = pos + String.length tag and w = max w (Decimal.length n) in
  Bytes.blit_string tag 0 b pos (String.length tag);
  Decimal.blit n b ~pos:p ~width:w;
  p + w

let key1 t1 n1 w1 =
  let b = Bytes.create (len t1 n1 w1) in
  ignore (put b 0 t1 n1 w1);
  Bytes.unsafe_to_string b

let key2 t1 n1 w1 t2 n2 w2 =
  let b = Bytes.create (len t1 n1 w1 + len t2 n2 w2) in
  ignore (put b (put b 0 t1 n1 w1) t2 n2 w2);
  Bytes.unsafe_to_string b

let key3 t1 n1 w1 t2 n2 w2 t3 n3 w3 =
  let b = Bytes.create (len t1 n1 w1 + len t2 n2 w2 + len t3 n3 w3) in
  ignore (put b (put b (put b 0 t1 n1 w1) t2 n2 w2) t3 n3 w3);
  Bytes.unsafe_to_string b

let key4 t1 n1 w1 t2 n2 w2 t3 n3 w3 t4 n4 w4 =
  let b = Bytes.create (len t1 n1 w1 + len t2 n2 w2 + len t3 n3 w3 + len t4 n4 w4) in
  ignore (put b (put b (put b (put b 0 t1 n1 w1) t2 n2 w2) t3 n3 w3) t4 n4 w4);
  Bytes.unsafe_to_string b

let wkey w = key1 "w" w 3

let dkey w d = key2 "w" w 3 ":d" d 2

let ckey w d c = key3 "w" w 3 ":d" d 2 ":c" c 5

let ikey i = key1 "i" i 6

let skey w i = key2 "w" w 3 ":i" i 6

let okey w d o = key3 "w" w 3 ":d" d 2 ":o" o 8

let olkey w d o n = key4 "w" w 3 ":d" d 2 ":o" o 8 ":" n 2

let cokey w d c o = key4 "w" w 3 ":d" d 2 ":c" c 5 ":o" o 8

(* A row is its numbers in decimal, joined by '|', a negative one with a
   leading '-': the string [String.concat "|"] makes of [string_of_int]s,
   written into one string filled with '|'. [int_length] is a number's
   length; [put_int] writes one at [pos] and returns the position after
   it. *)
let int_length n =
  if n >= 0 then Decimal.length n
  else if n = min_int then String.length (string_of_int n)
  else 1 + Decimal.length (-n)

let put_int b pos n =
  let w = int_length n in
  if n >= 0 then Decimal.blit n b ~pos ~width:w
  else if n = min_int then Bytes.blit_string (string_of_int n) 0 b pos w
  else begin
    Bytes.unsafe_set b pos '-';
    Decimal.blit (-n) b ~pos:(pos + 1) ~width:(w - 1)
  end;
  pos + w

let row3 x y z =
  let b = Bytes.make (int_length x + int_length y + int_length z + 2) '|' in
  ignore (put_int b (put_int b (put_int b 0 x + 1) y + 1) z);
  Bytes.unsafe_to_string b

(* A row's fields are read in place. [fields s n what] checks that [s] has
   [n] fields, else fails with [invalid_arg what]; field [i] runs from
   [field_start s i 0] to [field_end]. A field that is not plain decimal
   goes through [int_of_string], so a malformed row fails as
   [int_of_string] does. *)
let fields s n what =
  let seps = ref 0 in
  for i = 0 to String.length s - 1 do
    if String.unsafe_get s i = '|' then incr seps
  done;
  if !seps <> n - 1 then invalid_arg what

let rec field_end s pos =
  if pos < String.length s && String.unsafe_get s pos <> '|' then field_end s (pos + 1) else pos

let rec field_start s i pos = if i = 0 then pos else field_start s (i - 1) (field_end s pos + 1)

let int_at s pos stop =
  let start = if pos < stop && s.[pos] = '-' then pos + 1 else pos in
  let n = ref 0 and plain = ref (start < stop && stop - start <= 18) in
  for i = start to stop - 1 do
    let c = String.unsafe_get s i in
    if c >= '0' && c <= '9' then n := (10 * !n) + Char.code c - 48 else plain := false
  done;
  if not !plain then int_of_string (String.sub s pos (stop - pos))
  else if start > pos then - !n
  else !n

let int_field s i =
  let pos = field_start s i 0 in
  int_at s pos (field_end s pos)

(* district *)
let district_row ~next_o ~ytd =
  let b = Bytes.make (int_length next_o + int_length ytd + 1) '|' in
  ignore (put_int b (put_int b 0 next_o + 1) ytd);
  Bytes.unsafe_to_string b

let parse_district s =
  fields s 2 "district row";
  (int_field s 0, int_field s 1)

let parse3 s what =
  fields s 3 what;
  (int_field s 0, int_field s 1, int_field s 2)

(* customer: balance is money owed (grows with deliveries, shrinks with
   payments). *)
let customer_row ~balance ~credit_lim ~delivery_cnt = row3 balance credit_lim delivery_cnt

let parse_customer s = parse3 s "customer row"

let stock_row ~qty ~ytd ~cnt = row3 qty ytd cnt

let parse_stock s = parse3 s "stock row"

let order_row ~c ~carrier ~ol_cnt = row3 c carrier ol_cnt

let parse_order s = parse3 s "order row"

(* The order id that ends an order or customer-order key. *)
let order_of_key k = int_at k (String.length k - 8) (String.length k)

let ol_row ~i ~qty ~amount ~delivered =
  let b = Bytes.make (int_length i + int_length qty + int_length amount + 4) '|' in
  let pos = put_int b (put_int b (put_int b 0 i + 1) qty + 1) amount + 1 in
  Bytes.unsafe_set b pos (if delivered then '1' else '0');
  Bytes.unsafe_to_string b

let parse_ol s =
  fields s 4 "order line row";
  let d = field_start s 3 0 in
  (int_field s 0, int_field s 1, int_field s 2, String.length s = d + 1 && s.[d] = '1')

(* {1 Data scaling (§5.3.6)} *)

type scale = {
  warehouses : int;
  districts : int;
  customers_per_district : int;
  items : int;
  initial_orders : int; (* preloaded orders per district *)
}

(* Standard scale, reduced 10x from the TPC-C cardinalities (see header). *)
let standard ~warehouses =
  { warehouses; districts = 10; customers_per_district = 300; items = 5000; initial_orders = 30 }

(* The paper's tiny scale: customers / 30, items / 100 (§5.3.6). *)
let tiny ~warehouses =
  { warehouses; districts = 10; customers_per_district = 100; items = 1000; initial_orders = 10 }

let setup db ~(scale : scale) () =
  List.iter (fun t -> ignore (Db.create_table db t)) all_tables;
  let st = Random.State.make [| 0x7ACC |] in
  Db.load db item (List.init scale.items (fun i -> (ikey i, string_of_int (100 + Random.State.int st 9900))));
  for w = 0 to scale.warehouses - 1 do
    Db.load db warehouse [ (wkey w, "0") ];
    Db.load db stock
      (List.init scale.items (fun i -> (skey w i, stock_row ~qty:(10 + Random.State.int st 91) ~ytd:0 ~cnt:0)));
    for d = 0 to scale.districts - 1 do
      Db.load db district [ (dkey w d, district_row ~next_o:(scale.initial_orders + 1) ~ytd:0) ];
      Db.load db customer
        (List.init scale.customers_per_district (fun c ->
             (ckey w d c, customer_row ~balance:0 ~credit_lim:50_000 ~delivery_cnt:0)));
      Db.load db customer_credit
        (List.init scale.customers_per_district (fun c -> (ckey w d c, "GC")));
      (* Preloaded orders: the most recent third are undelivered. *)
      let order_rows = ref [] and no_rows = ref [] and ol_rows = ref [] and co_rows = ref [] in
      for o = 1 to scale.initial_orders do
        let c = Random.State.int st scale.customers_per_district in
        let ol_cnt = 5 + Random.State.int st 11 in
        let delivered = o <= scale.initial_orders * 2 / 3 in
        order_rows :=
          (okey w d o, order_row ~c ~carrier:(if delivered then 1 else 0) ~ol_cnt) :: !order_rows;
        co_rows := (cokey w d c o, "1") :: !co_rows;
        if not delivered then no_rows := (okey w d o, "1") :: !no_rows;
        for n = 1 to ol_cnt do
          let i = Random.State.int st scale.items in
          let qty = 1 + Random.State.int st 10 in
          ol_rows := (olkey w d o n, ol_row ~i ~qty ~amount:(qty * 100) ~delivered) :: !ol_rows
        done
      done;
      Db.load db orders !order_rows;
      Db.load db new_order !no_rows;
      Db.load db order_line !ol_rows;
      Db.load db cust_orders !co_rows
    done
  done

(* {1 Helpers} *)

let read_exn = Txn.read_exn

let rand_w st (s : scale) = Random.State.int st s.warehouses

let rand_d st (s : scale) = Random.State.int st s.districts

(* TPC-C uses a non-uniform customer distribution; uniform keeps the
   contention profile close enough for the shapes we reproduce. *)
let rand_c st (s : scale) = Random.State.int st s.customers_per_district

(* {1 Transactions} *)

(* New Order (NEWO): ~43% of the mix. Reads the customer's credit status
   (the edge that closes the TPC-C++ cycle, §5.3.3), takes an order id from
   the district hotspot, inserts the order and its lines, and updates stock
   quantities. 1% of orders roll back (invalid item, per the TPC-C spec). *)
let new_order_txn (s : scale) st t =
  let w = rand_w st s and d = rand_d st s and c = rand_c st s in
  let ol_cnt = 5 + Random.State.int st 11 in
  (* The district update comes first so that the transaction's read view is
     chosen after the district lock is granted (§4.5): queued New Orders on
     the same district then never abort under first-committer-wins. *)
  let next_o, ytd = parse_district (Txn.read_for_update_exn t district (dkey w d)) in
  Txn.write t district (dkey w d) (district_row ~next_o:(next_o + 1) ~ytd);
  let credit = read_exn t customer_credit (ckey w d c) in
  ignore credit (* displayed on the operator terminal (Example 5) *);
  if Random.State.int st 100 = 0 then raise (Types.Abort Types.User_abort);
  let o = next_o in
  Txn.insert t orders (okey w d o) (order_row ~c ~carrier:0 ~ol_cnt);
  Txn.insert t new_order (okey w d o) "1";
  Txn.insert t cust_orders (cokey w d c o) "1";
  for n = 1 to ol_cnt do
    let i = Random.State.int st s.items in
    let supply_w =
      if s.warehouses > 1 && Random.State.int st 100 = 0 then rand_w st s else w
    in
    let price = int_of_string (read_exn t item (ikey i)) in
    let qty = 1 + Random.State.int st 10 in
    let sq, sytd, scnt = parse_stock (Txn.read_for_update_exn t stock (skey supply_w i)) in
    let sq' = if sq - qty >= 10 then sq - qty else sq - qty + 91 in
    Txn.write t stock (skey supply_w i) (stock_row ~qty:sq' ~ytd:(sytd + qty) ~cnt:(scnt + 1));
    Txn.insert t order_line (olkey w d o n) (ol_row ~i ~qty ~amount:(price * qty) ~delivered:false)
  done

(* Payment (PAY): ~43%. Reduces the customer's owed balance; optionally
   updates the warehouse and district year-to-date hotspots (§5.3.1). *)
let payment_txn ?(skip_ytd = false) (s : scale) st t =
  let w = rand_w st s and d = rand_d st s and c = rand_c st s in
  let amount = 100 + Random.State.int st 4900 in
  if not skip_ytd then begin
    let wytd = int_of_string (Txn.read_for_update_exn t warehouse (wkey w)) in
    Txn.write t warehouse (wkey w) (string_of_int (wytd + amount));
    let next_o, dytd = parse_district (Txn.read_for_update_exn t district (dkey w d)) in
    Txn.write t district (dkey w d) (district_row ~next_o ~ytd:(dytd + amount))
  end;
  let balance, lim, dc = parse_customer (Txn.read_for_update_exn t customer (ckey w d c)) in
  Txn.write t customer (ckey w d c)
    (customer_row ~balance:(balance - amount) ~credit_lim:lim ~delivery_cnt:dc)

(* Order Status (OSTAT): 4%, read-only. Latest order of a customer and its
   lines. *)
let order_status_txn (s : scale) st t =
  let w = rand_w st s and d = rand_d st s and c = rand_c st s in
  ignore (read_exn t customer (ckey w d c));
  let my_orders = Txn.scan ~lo:(cokey w d c 0) ~hi:(cokey w d c 99_999_999) t cust_orders in
  match List.rev my_orders with
  | [] -> ()
  | (co_key, _) :: _ ->
      (* recover o from the index key "w:d:c:oNNNNNNNN" *)
      let o = order_of_key co_key in
      let _, _, ol_cnt = parse_order (read_exn t orders (okey w d o)) in
      for n = 1 to ol_cnt do
        ignore (read_exn t order_line (olkey w d o n))
      done

(* Delivery (DLVY): 4%. One district's oldest undelivered order (§2.8.1's
   one-order simplification); DLVY1 = nothing to deliver. *)
let delivery_txn (s : scale) st t =
  let w = rand_w st s and d = rand_d st s in
  let carrier = 1 + Random.State.int st 10 in
  match Txn.scan ~lo:(okey w d 0) ~hi:(okey w d 99_999_999) ~limit:1 t new_order with
  | [] -> () (* DLVY1 *)
  | (no_key, _) :: _ ->
      let o = order_of_key no_key in
      ignore (Txn.delete t new_order no_key);
      let c, _, ol_cnt = parse_order (Txn.read_for_update_exn t orders (okey w d o)) in
      Txn.write t orders (okey w d o) (order_row ~c ~carrier ~ol_cnt);
      let total = ref 0 in
      for n = 1 to ol_cnt do
        let i, qty, amount, _ =
          parse_ol (Txn.read_for_update_exn t order_line (olkey w d o n))
        in
        total := !total + amount;
        Txn.write t order_line (olkey w d o n) (ol_row ~i ~qty ~amount ~delivered:true)
      done;
      let balance, lim, dc = parse_customer (Txn.read_for_update_exn t customer (ckey w d c)) in
      Txn.write t customer (ckey w d c)
        (customer_row ~balance:(balance + !total) ~credit_lim:lim ~delivery_cnt:(dc + 1))

(* Stock Level (SLEV): 4%, read-only. Distinct items in the district's last
   20 orders with stock below a threshold. *)
let stock_level_txn (s : scale) st t =
  let w = rand_w st s and d = rand_d st s in
  let threshold = 10 + Random.State.int st 11 in
  let next_o, _ = parse_district (read_exn t district (dkey w d)) in
  let lo_o = max 1 (next_o - 20) in
  let lines =
    Txn.scan ~lo:(olkey w d lo_o 0) ~hi:(olkey w d (next_o - 1) 99) t order_line
  in
  let low = Hashtbl.create 32 in
  List.iter
    (fun (_, v) ->
      let i, _, _, _ = parse_ol v in
      if not (Hashtbl.mem low i) then begin
        let q, _, _ = parse_stock (read_exn t stock (skey w i)) in
        if q < threshold then Hashtbl.replace low i ()
      end)
    lines;
  ignore (Hashtbl.length low)

(* Credit Check (CCHECK, Fig 5.1): 4% in TPC-C++. Sums the customer's
   undelivered new-order amounts, adds the owed balance, and updates the
   credit status — the transaction that creates the dangerous structures of
   Fig 5.3. *)
let credit_check_txn (s : scale) st t =
  let w = rand_w st s and d = rand_d st s and c = rand_c st s in
  (* Plain (non-locking) read of the balance: the vulnerable CCHECK -> PAY /
     CCHECK -> DLVY2 edges of Fig 5.3. *)
  let balance, lim, _ = parse_customer (read_exn t customer (ckey w d c)) in
  let my_orders = Txn.scan ~lo:(cokey w d c 0) ~hi:(cokey w d c 99_999_999) t cust_orders in
  let neworder_balance = ref 0 in
  List.iter
    (fun (co_key, _) ->
      let o = order_of_key co_key in
      match Txn.read t new_order (okey w d o) with
      | None -> ()
      | Some _ ->
          let _, _, ol_cnt = parse_order (read_exn t orders (okey w d o)) in
          for n = 1 to ol_cnt do
            let _, _, amount, _ = parse_ol (read_exn t order_line (olkey w d o n)) in
            neworder_balance := !neworder_balance + amount
          done)
    my_orders;
  let credit = if balance + !neworder_balance > lim then "BC" else "GC" in
  Txn.write t customer_credit (ckey w d c) credit

(* {1 Mixes} *)

(* §5.3.4: 41% NEWO, 41% PAY, 4% each CCHECK, DLVY, OSTAT, SLEV. Setting
   [credit_check:false] gives plain TPC-C proportions (43/43/4/4/4). *)
let mix ?(credit_check = true) ?(skip_ytd = false) (s : scale) =
  let base w name f = Driver.program ~weight:w name f in
  let newo_pay_weight = if credit_check then 41.0 else 43.0 in
  [
    base newo_pay_weight "NEWO" (fun st t -> new_order_txn s st t);
    base newo_pay_weight "PAY" (fun st t -> payment_txn ~skip_ytd s st t);
    base 4.0 "DLVY" (fun st t -> delivery_txn s st t);
    Driver.program ~weight:4.0 ~read_only:true "OSTAT" (fun st t -> order_status_txn s st t);
    Driver.program ~weight:4.0 ~read_only:true "SLEV" (fun st t -> stock_level_txn s st t);
  ]
  @ (if credit_check then [ base 4.0 "CCHECK" (fun st t -> credit_check_txn s st t) ] else [])

(* §5.3.5: the Stock Level mix — 10 SLEV per NEWO, isolating the
   read-write conflict between them. *)
let stock_level_mix (s : scale) =
  [
    Driver.program ~weight:1.0 "NEWO" (fun st t -> new_order_txn s st t);
    Driver.program ~weight:10.0 ~read_only:true "SLEV" (fun st t -> stock_level_txn s st t);
  ]

(* {1 Consistency checks (TPC-C clause 3.3-style)} *)

exception Inconsistent of string

let latest_of db table key =
  match Mvstore.find_chain (Db.table_exn db table) key with
  | None -> None
  | Some chain -> (Mvstore.latest chain).Mvstore.value

(* Count of live (not deleted) rows of [table] in the inclusive key range,
   judged on the latest committed version of each chain. *)
let count_live db table ~lo ~hi =
  let n = ref 0 in
  Mvstore.scan_chains (Db.table_exn db table) ~lo ~hi (fun _ chain ->
      if Option.is_some (Mvstore.latest chain).Mvstore.value then incr n);
  !n

(* Verify structural invariants of the final database state:
   - every order id below a district's next_o_id exists, none at or above;
   - every new_order entry points at an existing, undelivered order;
   - every order has exactly ol_cnt order lines;
   - delivered orders' lines are all marked delivered;
   - table cardinalities agree (TPC-C clause 3.3.2.2-3.3.2.5 shapes): per
     district, [orders] holds exactly next_o_id - 1 rows, [new_order]
     exactly the undelivered ones, and [order_line] exactly the sum of the
     orders' ol_cnt. *)
let check_consistency db ~(scale : scale) =
  for w = 0 to scale.warehouses - 1 do
    for d = 0 to scale.districts - 1 do
      let next_o, _ =
        match latest_of db district (dkey w d) with
        | Some v -> parse_district v
        | None -> raise (Inconsistent "missing district")
      in
      let undelivered = ref 0 and lines_expected = ref 0 in
      for o = 1 to next_o - 1 do
        match latest_of db orders (okey w d o) with
        | None -> raise (Inconsistent (Printf.sprintf "missing order %s" (okey w d o)))
        | Some v ->
            let _, carrier, ol_cnt = parse_order v in
            let delivered = carrier > 0 in
            if delivered && latest_of db new_order (okey w d o) <> None then
              raise (Inconsistent "delivered order still in new_order");
            if not delivered then incr undelivered;
            lines_expected := !lines_expected + ol_cnt;
            for n = 1 to ol_cnt do
              match latest_of db order_line (olkey w d o n) with
              | None -> raise (Inconsistent (Printf.sprintf "missing order line %s" (olkey w d o n)))
              | Some lv ->
                  let _, _, _, ld = parse_ol lv in
                  if delivered && not ld then
                    raise (Inconsistent "delivered order with undelivered line")
            done
      done;
      if latest_of db orders (okey w d next_o) <> None then
        raise (Inconsistent "order beyond next_o_id");
      let lo = okey w d 0 and hi = okey w d 99_999_999 in
      let n_orders = count_live db orders ~lo ~hi in
      if n_orders <> next_o - 1 then
        raise
          (Inconsistent
             (Printf.sprintf "%s: %d orders, next_o_id %d" (dkey w d) n_orders next_o));
      let n_new = count_live db new_order ~lo ~hi in
      if n_new <> !undelivered then
        raise
          (Inconsistent
             (Printf.sprintf "%s: %d new_order rows, %d undelivered orders" (dkey w d) n_new
                !undelivered));
      let n_lines = count_live db order_line ~lo:(olkey w d 0 0) ~hi:(olkey w d 99_999_999 99) in
      if n_lines <> !lines_expected then
        raise
          (Inconsistent
             (Printf.sprintf "%s: %d order lines, sum of ol_cnt %d" (dkey w d) n_lines
                !lines_expected))
    done
  done

(* The money invariant (TPC-C clause 3.3.2.1): each warehouse's
   year-to-date equals the sum of its districts' — Payment updates both in
   one transaction, so any isolation level that prevents lost updates must
   preserve the equality (under [skip_ytd] both sides stay zero). *)
let check_ytd db ~(scale : scale) =
  for w = 0 to scale.warehouses - 1 do
    let wytd =
      match latest_of db warehouse (wkey w) with
      | Some v -> int_of_string v
      | None -> raise (Inconsistent "missing warehouse")
    in
    let dytd = ref 0 in
    for d = 0 to scale.districts - 1 do
      match latest_of db district (dkey w d) with
      | Some v -> dytd := !dytd + snd (parse_district v)
      | None -> raise (Inconsistent "missing district")
    done;
    if wytd <> !dytd then
      raise
        (Inconsistent
           (Printf.sprintf "%s: warehouse ytd %d <> sum of district ytds %d" (wkey w) wytd !dytd))
  done
