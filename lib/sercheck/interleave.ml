(* Interleaving tester, replicating and generalising the methodology of
   §4.7: execute a chosen interleaving of small transaction scripts against
   a fresh database and check that (a) the committed history is always
   serializable under SSI/S2PL, and (b) the known anomalies appear under SI.

   A schedule is a turn list: spec indices in turn order, each entry
   granting its transaction the next operation of its script. Scheduling
   is blocking-capable. Every transaction runs in its own simulator
   process; a scheduler process hands out one-operation turns through one
   grant loop, from a turn list or the explorer's pick callback. An
   operation that blocks (a write-write lock wait, S2PL read locks, gap
   locks, page locks) parks its transaction inside the lock manager; the
   scheduler detects this via {!Lockmgr.is_waiting} and moves on to the
   next runnable turn, so scripts with cross-transaction write-write
   conflicts — which the original §4.7 harness could not express — execute
   deterministically. Blocked transactions resume when their lock is
   granted (or the deadlock detector kills them) and consume any remaining
   turns in a final drain phase. *)

open Core

type op =
  | R of string  (** point read *)
  | W of string  (** blind write *)
  | Rfu of string  (** SELECT ... FOR UPDATE (§4.5 fast path) *)
  | Insert of string
  | Delete of string
  | Scan of string option * string option * int option  (** lo, hi, limit *)
  | Abort_op  (** user-requested rollback; ends the script *)

type spec = op list

let table = "t"

let op_to_string = function
  | R k -> "r(" ^ k ^ ")"
  | W k -> "w(" ^ k ^ ")"
  | Rfu k -> "u(" ^ k ^ ")"
  | Insert k -> "ins(" ^ k ^ ")"
  | Delete k -> "del(" ^ k ^ ")"
  | Scan (lo, hi, limit) ->
      let b = function Some k -> k | None -> "-" in
      let l = match limit with Some n -> string_of_int n | None -> "-" in
      "scan(" ^ b lo ^ "," ^ b hi ^ "," ^ l ^ ")"
  | Abort_op -> "abort"

let spec_to_string spec = String.concat ";" (List.map op_to_string spec)

(* Keys a script expects to exist: everything read, written or deleted by
   name. Insert targets and scan bounds are intentionally excluded, so
   inserts have free keys to create. *)
let default_init (specs : spec list) =
  let keys =
    List.concat_map
      (List.concat_map (function
        | R k | W k | Rfu k | Delete k -> [ k ]
        | Insert _ | Scan _ | Abort_op -> []))
      specs
  in
  List.map (fun k -> (k, "0")) (List.sort_uniq compare keys)

(* All merges of the scripts' turn sequences, produced lazily in
   lexicographic order. Count = multinomial coefficient; memory is
   O(total ops) — one path through the merge tree — however many
   interleavings there are, so sweeps over 4-txn specs never materialize
   hundreds of thousands of schedules up front. *)
let interleavings_seq (specs : spec list) : int list Seq.t =
  let rec go (left : (int * int) list) : int list Seq.t =
    if List.for_all (fun (_, k) -> k = 0) left then Seq.return []
    else
      Seq.concat_map
        (fun (i, k) ->
          if k = 0 then Seq.empty
          else
            let left' = List.map (fun (j, k') -> if j = i then (j, k' - 1) else (j, k')) left in
            Seq.map (List.cons i) (go left'))
        (List.to_seq left)
  in
  go (List.mapi (fun i s -> (i, List.length s)) specs)

(* Multinomial schedule count (total ops)! / prod (len_i!), computed as a
   product of binomials so intermediate values stay integral. *)
let count_interleavings (specs : spec list) : int =
  let choose n k =
    let k = min k (n - k) in
    let c = ref 1 in
    for i = 1 to k do
      c := !c * (n - k + i) / i
    done;
    !c
  in
  let _, count =
    List.fold_left
      (fun (total, acc) spec ->
        let len = List.length spec in
        (total + len, acc * choose (total + len) len))
      (0, 1) specs
  in
  count

(* A single random merge of the scripts' turn sequences, for sampled
   sweeps where the full interleaving set is too large, and the fuzzer's
   schedules.

   The transaction taking the next turn is chosen with probability
   proportional to its *remaining* operation count, not uniformly over
   nonempty transactions: a complete merge is then drawn with probability
   (Π len_i!) / total!, i.e. uniformly over the multinomial set of
   interleavings. (The old uniform-over-transactions rule oversampled
   orders that exhaust short transactions late.) *)
let random_order st (specs : spec list) : int list =
  let remaining = Array.of_list (List.map List.length specs) in
  let total = ref (Array.fold_left ( + ) 0 remaining) in
  let order = ref [] in
  while !total > 0 do
    let u = Random.State.int st !total in
    let i = ref 0 and acc = ref 0 in
    while u >= !acc + remaining.(!i) do
      acc := !acc + remaining.(!i);
      incr i
    done;
    remaining.(!i) <- remaining.(!i) - 1;
    order := !i :: !order;
    decr total
  done;
  List.rev !order

type result = {
  outcomes : Types.abort_reason option list; (* None = committed, per txn *)
  history : Types.committed_record list;
  serializable : bool;
  crashed : bool; (* an armed Wal crash plan fired during the run *)
  db : Db.t; (* the engine the interleaving ran against *)
  txn_ids : int list;
      (* engine transaction id per spec index (-1 if never begun), so
         outcome digests can rename schedule-dependent ids back to indices *)
}

(* The spec index of engine transaction [id] in [txn_ids], or -1 (the
   summarization sentinel, the bulk load). *)
let rec spec_index (txn_ids : int array) id i =
  if i >= Array.length txn_ids then -1
  else if txn_ids.(i) = id then i
  else spec_index txn_ids id (i + 1)

(* Execute the scripts at [isolation] through one grant loop. [init] rows
   are bulk-loaded first (default: value "0" for every key named by a
   read/write/delete). Each transaction commits right after its last
   operation; [ro] marks transactions declared READ ONLY at begin (enabling
   the read-only refinement when configured).

   Turns are granted in two phases. While [choose idle] names a
   transaction ([idle i] is true when [i] can take a turn), that
   transaction gets the next free turn; once it returns -1 the run
   switches for good to the canonical drain, which grants leftover turns
   in index order and, when every remaining transaction is mid-operation,
   advances time so lock grants and the (possibly periodic) deadlock
   detector can make progress. [on_grant i free] fires just before each
   grant ([free] is false in the drain); [on_touch i is_write resource]
   sees every resource the engine touches for spec index [i] while the
   scheduler runs. [run_interleaving] chooses from a turn list,
   [run_directed] through a pick callback. *)
let run_driven ?config ?obs ?init ?ro ?db ?crash ?(on_grant = fun _ _ -> ()) ?on_touch
    ~isolation (specs : spec list) ~(choose : (int -> bool) -> int) : result =
  let sim, db =
    match db with
    | Some db ->
        (* Continuation mode (post-recovery workloads): reuse an existing
           engine and its simulation; no table creation or bulk load — the
           recovered store is the starting state. *)
        if Db.table db table = None then ignore (Db.create_table db table);
        (Db.sim db, db)
    | None ->
        let config =
          match config with
          | Some c -> c
          | None -> { (Config.test ()) with Config.record_history = true }
        in
        let sim = Sim.create () in
        let db = Db.create ~config sim in
        ignore (Db.create_table db table);
        let init = match init with Some rows -> rows | None -> default_init specs in
        if init <> [] then Db.load db table init;
        (sim, db)
  in
  (match obs with Some o -> Db.set_obs db o | None -> ());
  (* Fault plans arm after the bulk load so crash-trigger counters number
     workload events only, keeping crash points comparable between runs. *)
  (match crash with Some plan -> Wal.arm (Db.wal db) plan | None -> ());
  let n = List.length specs in
  let ro = match ro with Some l -> Array.of_list l | None -> Array.make n false in
  if Array.length ro <> n then invalid_arg "run_interleaving: ro length mismatch";
  let outcomes = Array.make n None in
  let finished = Array.make n false in
  let pending = Array.of_list (List.map (fun s -> ref s) specs) in
  let granted = Array.make n 0 in
  let completed = Array.make n 0 in
  let txn_ids = Array.make n (-1) in
  let turn = Sim.cond () in
  for i = 0 to n - 1 do
    Sim.spawn sim (fun () ->
        let txn = ref None in
        let get_txn () =
          match !txn with
          | Some t -> t
          | None ->
              let t = Db.begin_txn ~read_only:ro.(i) db isolation in
              txn_ids.(i) <- Txn.id t;
              txn := Some t;
              t
        in
        try
          while not finished.(i) do
            while granted.(i) <= completed.(i) do
              Sim.wait sim turn
            done;
            (match !(pending.(i)) with
            | [] ->
                (* empty script: a begin/commit pair *)
                Txn.commit (get_txn ());
                finished.(i) <- true
            | op :: rest ->
                let t = get_txn () in
                pending.(i) := rest;
                (match op with
                | R k -> ignore (Txn.read t table k)
                | W k -> Txn.write t table k (Printf.sprintf "t%d" i)
                | Rfu k -> ignore (Txn.read_for_update t table k)
                | Insert k -> Txn.insert t table k (Printf.sprintf "t%d" i)
                | Delete k -> ignore (Txn.delete t table k)
                | Scan (lo, hi, limit) -> ignore (Txn.scan ?lo ?hi ?limit t table)
                | Abort_op ->
                    Txn.abort t;
                    outcomes.(i) <- Some Types.User_abort;
                    finished.(i) <- true);
                if rest = [] && not finished.(i) then begin
                  Txn.commit t;
                  finished.(i) <- true
                end);
            completed.(i) <- completed.(i) + 1
          done
        with Types.Abort r ->
          outcomes.(i) <- Some r;
          finished.(i) <- true;
          completed.(i) <- completed.(i) + 1)
  done;
  let locks = Db.locks db in
  let unfinished () = Array.exists not finished in
  let idle i = (not finished.(i)) && granted.(i) = completed.(i) in
  let tick = 1.0e-6 in
  (* Grant one turn and wait until the operation settles: completes, aborts,
     or parks in the lock manager. Operation work is simulated CPU/IO time,
     so settling is driven by small clock ticks. *)
  let grant i free =
    on_grant i free;
    granted.(i) <- granted.(i) + 1;
    Sim.broadcast sim turn;
    while
      (not finished.(i))
      && completed.(i) < granted.(i)
      && not (txn_ids.(i) >= 0 && Lockmgr.is_waiting locks txn_ids.(i))
    do
      Sim.delay sim tick
    done
  in
  (* The footprint hook is live while the scheduler runs; touches by ids
     that name no spec are dropped. *)
  let hook =
    match on_touch with
    | Some f ->
        Some
          (fun id is_write resource ->
            let i = spec_index txn_ids id 0 in
            if i >= 0 then f i is_write resource)
    | None -> None
  in
  Sim.spawn sim (fun () ->
      Db.set_on_touch db hook;
      let free = ref true in
      while !free && unfinished () do
        let i = choose idle in
        if i < 0 then free := false else grant i true
      done;
      while unfinished () do
        let made = ref false in
        for i = 0 to n - 1 do
          if idle i then begin
            made := true;
            grant i false
          end
        done;
        if (not !made) && unfinished () then Sim.delay sim 0.01
      done;
      Db.set_on_touch db None);
  let crashed =
    (* An injected crash escapes the faulting transaction's process and
       aborts the whole simulated machine: the run ends here with whatever
       the WAL's durable prefix holds, which is exactly the state recovery
       gets to see. *)
    try
      Sim.run ~until:1.0e6 sim;
      false
    with Wal.Crash -> true
  in
  (* A transaction that never finished would mean the harness or engine
     hung (or the machine crashed); surface it as an abort the oracle will
     flag (crashed runs are exempt: their outcomes are not a verdict). *)
  for i = 0 to n - 1 do
    if not finished.(i) then
      outcomes.(i) <-
        Some
          (Types.Internal_error
             (if crashed then "interleave: crashed" else "interleave: transaction never finished"))
  done;
  let history = Db.history db in
  {
    outcomes = Array.to_list outcomes;
    history;
    serializable = Mvsg.is_serializable history;
    crashed;
    db;
    txn_ids = Array.to_list txn_ids;
  }

(* Every turn must name a script, and no script may get more turns than it
   has operations; checked before anything runs. *)
let check_turns (specs : spec list) (turns : int list) =
  let left = Array.of_list (List.map List.length specs) in
  List.iter
    (fun i ->
      if i < 0 || i >= Array.length left then
        invalid_arg (Printf.sprintf "run_interleaving: turn %d names no script" i);
      if left.(i) = 0 then
        invalid_arg
          (Printf.sprintf "run_interleaving: more turns for script %d than it has operations" i);
      left.(i) <- left.(i) - 1)
    turns

let run_interleaving ?config ?obs ?init ?ro ?db ?crash ~isolation (specs : spec list)
    (turns : int list) : result =
  check_turns specs turns;
  (* Each entry of [turns] grants its transaction its next pending
     operation. A turn offered to a transaction still blocked inside a
     previous operation is skipped (costing no simulated time); leftover
     operations run in the drain, so every transaction always finishes
     (commit or abort) before the function returns. *)
  let left = ref turns in
  let rec next idle =
    match !left with
    | [] -> -1
    | i :: rest ->
        left := rest;
        if idle i then i else next idle
  in
  run_driven ?config ?obs ?init ?ro ?db ?crash ~isolation specs ~choose:next

(* {1 Directed execution with footprint capture (the DPOR explorer's engine
   interface)} *)

(* One scheduler turn of a directed run. [ds_free] distinguishes genuine
   choice points from drain-phase grants: once every unfinished transaction
   is simultaneously parked, any turn list would consume its remaining
   entries without advancing time and fall into the same canonical drain,
   so drain grants are not schedule branch points — this is how the
   skipped-turn/drain semantics fold into the happens-before relation.
   Footprints are mutable because a parked operation keeps touching
   resources when it resumes during later turns; readers of a trace must
   only consume them after the run completes (or treat them as partial). *)
type dstep = {
  ds_txn : int; (* spec index granted this turn *)
  ds_enabled : int list; (* spec indices grantable at that moment, ascending *)
  ds_free : bool; (* true = free choice point; false = canonical drain *)
  mutable ds_reads : string list; (* resources read by the op (unordered) *)
  mutable ds_writes : string list; (* resources written by the op *)
}

(* Execute the scripts granting turns via [pick ~step ~enabled ~steps]:
   [enabled] is the ascending list of grantable transactions, [steps] the
   turns recorded so far (newest first, footprints partial for parked ops).
   Once no transaction is grantable the run switches permanently to the
   canonical drain (see {!dstep}). Returns the recorded schedule alongside
   the result.

   [begin_marker] makes every transaction's first turn write a shared "tid"
   pseudo-resource: engine transaction ids are handed out in begin order, so
   configurations whose behaviour depends on id *order* (Prefer_younger
   victims, the periodic detector's kill-the-youngest rule) make any two
   first turns non-commuting; the marker exposes that to the explorer's
   dependency relation. *)
let run_directed ?config ?obs ?init ?ro ?(begin_marker = false) ~isolation (specs : spec list)
    ~(pick : step:int -> enabled:int list -> steps:dstep list -> int) :
    result * dstep list =
  let n = List.length specs in
  let steps = ref [] in
  let cur = Array.make n None in
  let stepno = ref 0 in
  let last_enabled = ref [] in
  let choose idle =
    let enabled = ref [] in
    for i = n - 1 downto 0 do
      if idle i then enabled := i :: !enabled
    done;
    match !enabled with
    | [] -> -1
    | enabled ->
        let i = pick ~step:!stepno ~enabled ~steps:!steps in
        if not (List.mem i enabled) then
          invalid_arg "run_directed: pick chose a non-enabled transaction";
        incr stepno;
        last_enabled := enabled;
        i
  in
  let on_grant i free =
    let enabled = if free then !last_enabled else [ i ] in
    let s = { ds_txn = i; ds_enabled = enabled; ds_free = free; ds_reads = []; ds_writes = [] } in
    if begin_marker && Option.is_none cur.(i) then s.ds_writes <- [ "tid" ];
    steps := s :: !steps;
    cur.(i) <- Some s
  in
  (* Footprint hook: attribute each touch to the transaction's newest turn. *)
  let on_touch i is_write resource =
    match cur.(i) with
    | Some s ->
        if is_write then s.ds_writes <- resource :: s.ds_writes
        else s.ds_reads <- resource :: s.ds_reads
    | None -> ()
  in
  let result =
    run_driven ?config ?obs ?init ?ro ~on_grant ~on_touch ~isolation specs ~choose
  in
  (result, List.rev !steps)

type summary = {
  total : int;
  all_committed : int; (* interleavings where every transaction committed *)
  non_serializable : int; (* ... and the result was not serializable *)
  unsafe_aborts : int; (* interleavings with at least one Unsafe abort *)
  other_aborts : int;
}

(* Run every interleaving of [specs] at [isolation] and summarise, passing
   each result to [on_run]. Streams the enumeration: memory stays constant
   in the number of schedules. *)
let sweep ?config ?init ?ro ?(on_run = fun _ -> ()) ~isolation specs =
  let all = interleavings_seq specs in
  Seq.fold_left
    (fun acc order ->
      let r = run_interleaving ?config ?init ?ro ~isolation specs order in
      on_run r;
      let committed_all = List.for_all (( = ) None) r.outcomes in
      {
        total = acc.total + 1;
        all_committed = (acc.all_committed + if committed_all then 1 else 0);
        non_serializable =
          (acc.non_serializable + if not r.serializable then 1 else 0);
        unsafe_aborts =
          (acc.unsafe_aborts
          + if List.exists (( = ) (Some Types.Unsafe)) r.outcomes then 1 else 0);
        other_aborts =
          (acc.other_aborts
          +
          if
            List.exists
              (function Some r when r <> Types.Unsafe -> true | _ -> false)
              r.outcomes
          then 1
          else 0);
      })
    { total = 0; all_committed = 0; non_serializable = 0; unsafe_aborts = 0; other_aborts = 0 }
    all

(* The paper's §4.7 test set: T1: r(x); T2: r(y) w(x); T3: w(y). Note that
   this set forms a *path* T1 -> T2 -> T3 in the dependency graph, never a
   cycle: every execution is serializable, but SSI still flags T2 as a pivot
   in some interleavings — the paper used it to verify that conflicts are
   detected in all code paths. *)
let paper_spec = [ [ R "x" ]; [ R "y"; W "x" ]; [ W "y" ] ]

(* Classic write skew: T1: r(x) r(y) w(x); T2: r(x) r(y) w(y). *)
let write_skew_spec = [ [ R "x"; R "y"; W "x" ]; [ R "x"; R "y"; W "y" ] ]

(* Example 3 (read-only anomaly): Tpivot: r(y) w(x); Tout: w(y) w(z);
   Tin: r(x) r(z). Some interleavings are genuinely non-serializable. *)
let read_only_anomaly_spec =
  [ [ R "y"; W "x" ]; [ W "y"; W "z" ]; [ R "x"; R "z" ] ]

(* {1 4–5-transaction variants}

   Checked exhaustively through the DPOR explorer; their multinomial counts
   (tens of thousands to hundreds of thousands of schedules) put full
   enumeration beyond the CI budget. *)

(* §4.7 family stretched to a 4-chain: T1 -> T2 -> T3 -> T4 in the
   dependency graph — still a path, never a cycle, so every execution must
   stay serializable while SSI sees two potential pivots (T2, T3).
   6 ops: 6!/(1!·2!·2!·1!) = 180 interleavings. *)
let paper_spec_4 = [ [ R "x" ]; [ R "y"; W "x" ]; [ R "z"; W "y" ]; [ W "z" ] ]

(* §4.7 family as a 5-chain; 8 ops, 8!/(1!·2!·2!·2!·1!) = 5040. *)
let paper_spec_5 =
  [ [ R "v" ]; [ R "w"; W "v" ]; [ R "x"; W "w" ]; [ R "y"; W "x" ]; [ W "y" ] ]

(* Write skew closed into a 3-cycle: each transaction reads its own and the
   next key and writes its own. 9 ops, 9!/(3!)^3 = 1680 interleavings. *)
let write_skew_spec_3 =
  [ [ R "x"; R "y"; W "x" ]; [ R "y"; R "z"; W "y" ]; [ R "z"; R "x"; W "z" ] ]

(* The 4-cycle of the same shape: 12 ops, 12!/(3!)^4 = 369600 interleavings
   — far past what `sweep` can execute in CI, the explorer's showcase. *)
let write_skew_spec_4 =
  [
    [ R "a"; R "b"; W "a" ];
    [ R "b"; R "c"; W "b" ];
    [ R "c"; R "d"; W "c" ];
    [ R "d"; R "a"; W "d" ];
  ]

(* Read-only anomaly with a second independent observer transaction.
   8 ops: 8!/(2!·2!·2!·2!) = 2520 interleavings. *)
let read_only_anomaly_spec_4 =
  [ [ R "y"; W "x" ]; [ W "y"; W "z" ]; [ R "x"; R "z" ]; [ R "z"; R "x" ] ]
