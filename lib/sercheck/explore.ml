(* DPOR schedule explorer (tentpole of the state-space exploration work):
   replay-based depth-first exploration with backtrack (source) sets and
   sleep sets over the engine's *observed* dependency relation.

   Where `Interleave.sweep` executes every merge of the transaction scripts
   (the multinomial bound), the explorer executes one schedule, records the
   resources each scheduler turn actually touched (row versions, page
   stamps, gaps, lock-manager entries, doom flags — the footprint hook of
   {!Db.set_on_touch}), and only branches where two turns of different
   transactions touched the same resource with at least one write. Turns
   with disjoint footprints commute: executing them in either order reaches
   the same engine state, so one order suffices. The cross-validation
   harness ({!cross_validate}) checks the resulting soundness claim
   wholesale: on every program small enough to enumerate, the explorer must
   produce exactly the set of distinct outcome digests the full sweep does.

   Exploration is organised as a frontier worklist rather than literal
   recursion: each queue entry is a choice-sequence prefix to replay plus a
   sleep set, executions of a frontier batch are embarrassingly parallel
   (fresh simulator and engine per run — {!Par}), and race analysis runs
   sequentially in enqueue order, so output is byte-identical at any [-j].

   The drain phase folds into happens-before for free: once no transaction
   is grantable, `run_directed` switches to the canonical index-order drain
   and marks those turns [ds_free = false]. Drain turns still carry
   footprints (they order against earlier turns) but are never branch
   points — any turn order reaching the same free-choice prefix performs
   the identical drain, exactly the skipped-turn semantics of
   `run_interleaving`. *)

open Core

module ISet = Set.Make (Int)
module SSet = Set.Make (String)

type stats = {
  executed : int;  (* schedules actually run *)
  bound : int;  (* multinomial brute-force schedule count *)
  backtracks : int;  (* branch points added by race analysis *)
  sleep_hits : int;  (* backtrack candidates suppressed as already covered *)
  sleep_blocked : int;  (* picks where every enabled transaction slept *)
  duplicates : int;  (* runs that re-arrived at an already-analyzed trace *)
}

(* {1 Outcome digests}

   The equivalence classes the explorer preserves are *semantic* outcomes,
   so the digest must not embed schedule artifacts: engine transaction ids,
   begin/commit timestamps and SIREAD bookkeeping all differ between
   schedules that are observationally identical. Everything is renamed
   through the spec index: per-index verdict (committed or abort reason),
   each committed read as (table, key, writer index), the final store as
   the per-key last writer index, and the MVSG serializability verdict. *)

let outcome_digest (r : Interleave.result) : string =
  let id_to_index = Hashtbl.create 8 in
  List.iteri (fun i id -> if id >= 0 then Hashtbl.replace id_to_index id i) r.txn_ids;
  (* Version timestamps are commit timestamps; map them back to the writer's
     spec index. [0] is the initial bulk load; any other unknown writer
     (pre-workload setup in continuation-style harnesses) also canonicalises
     to the load. *)
  let commit_writer = Hashtbl.create 8 in
  List.iter
    (fun h ->
      match Hashtbl.find_opt id_to_index h.Types.h_id with
      | Some i -> Hashtbl.replace commit_writer h.Types.h_commit i
      | None -> ())
    r.history;
  let b = Buffer.create 256 in
  List.iteri
    (fun i o ->
      Buffer.add_char b 'o';
      Decimal.add b i;
      Buffer.add_char b '=';
      Buffer.add_string b
        (match o with None -> "commit" | Some reason -> Types.abort_reason_to_string reason);
      Buffer.add_char b '\n')
    r.outcomes;
  let recs =
    List.filter_map
      (fun h ->
        match Hashtbl.find_opt id_to_index h.Types.h_id with
        | Some i -> Some (i, h)
        | None -> None)
      r.history
  in
  let recs = List.sort (fun (a, _) (b, _) -> compare a b) recs in
  List.iter
    (fun (i, h) ->
      Buffer.add_char b 'r';
      Decimal.add b i;
      Buffer.add_char b ':';
      List.iter
        (fun rr ->
          Buffer.add_char b ' ';
          Buffer.add_string b rr.Types.r_table;
          Buffer.add_char b '/';
          Buffer.add_string b rr.Types.r_key;
          Buffer.add_char b '=';
          match Hashtbl.find commit_writer rr.Types.r_version with
          | i ->
              Buffer.add_char b 't';
              Decimal.add b i
          | exception Not_found -> Buffer.add_string b "init")
        h.Types.h_reads;
      Buffer.add_char b '\n')
    recs;
  (* Final store: the last committed writer of every written key. *)
  let final = Hashtbl.create 8 in
  List.iter
    (fun (i, h) ->
      List.iter
        (fun (tbl, key) ->
          match Hashtbl.find_opt final (tbl, key) with
          | Some (ts, _) when ts >= h.Types.h_commit -> ()
          | _ -> Hashtbl.replace final (tbl, key) (h.Types.h_commit, i))
        h.Types.h_writes)
    recs;
  let final_rows =
    List.sort compare (Hashtbl.fold (fun (t, k) (_, i) acc -> (t, k, i) :: acc) final [])
  in
  List.iter
    (fun (t, k, i) ->
      Buffer.add_string b "f ";
      Buffer.add_string b t;
      Buffer.add_char b '/';
      Buffer.add_string b k;
      Buffer.add_string b "=t";
      Decimal.add b i;
      Buffer.add_char b '\n')
    final_rows;
  Buffer.add_string b (if r.serializable then "ser\n" else "non-ser\n");
  Digest.to_hex (Digest.string (Buffer.contents b))

(* {1 The dependency relation}

   Two turns are dependent iff the same transaction issued both (program
   order) or their observed footprints intersect on a resource at least one
   of them wrote. Read-read sharing commutes — this is where most of the
   reduction comes from (every SIREAD acquisition of a hot row would
   otherwise order all readers).

   Visibility shadows ("c/<resource>", written by commits at publication,
   read at snapshot-pin turns) get one special rule: the write/read pair is
   a real dependency — it decides whether the commit is inside the reader's
   snapshot; the write-skew serial orders hinge on it — but two shadow
   *writes* commute: the horizon is monotonic, and every observer orders
   itself against each advance through its own pin-read race. Without the
   exemption any two commits touching the same data would be dependent
   even when the row-level races already order them.

   Footprints are interned ({!Footprint}): an exploration maps every name
   it analyzes to one int, so the test is {!Footprint.conflict}'s merge
   walks over sorted id arrays. *)

(* Configurations whose behaviour depends on transaction-id *order* need the
   begin marker: ids are handed out in begin order, so two first turns must
   never be treated as commuting under Prefer_younger victim selection or
   the periodic detector's kill-the-youngest rule. *)
let needs_begin_marker (config : Config.t) =
  config.Config.victim = Config.Prefer_younger
  || match config.Config.detection with Lockmgr.Periodic _ -> true | Lockmgr.Immediate -> false

(* A sleep entry: transaction [sl_txn] was explored from the node at free
   depth [sl_depth] with final footprint [sl_fp]; re-picking it is redundant
   until some later turn conflicts with that footprint. The footprint keeps
   the engine's names, doom flags "x/<engine id>" included: sleep sets
   compare them across runs unrenamed, and renaming them here would change
   which branches sleep. *)
type sentry = { sl_txn : int; sl_depth : int; sl_fp : Footprint.t }

type branch = { br_prefix : int list (* oldest first *); br_sleep : sentry list }

(* Per choice-prefix node bookkeeping. [nd_done] records choices whose
   execution through this node has completed, with final footprints (these
   seed sibling sleep sets); [nd_sched] is every choice explored or already
   enqueued from here, the dedup set. *)
type node = { mutable nd_done : (int * Footprint.t) list; mutable nd_sched : ISet.t }

let default_config () = { (Config.test ()) with Config.record_history = true }

(* {1 One directed execution}

   Fresh simulator and engine per run, and no writes to shared state: the
   sleep-set wake check only looks names up in the exploration's table
   [names], which analysis alone writes, between frontier batches. So runs
   can be farmed out to a {!Par} pool. Returns the run result, the recorded
   schedule (footprints final, as the engine named them) and the number of
   sleep-blocked picks. [structural.(i).(k)] is true when operation [k] of
   transaction [i] inserts or deletes. *)
let execute ~config ~begin_marker ~names ~structural ?init ?ro ~isolation
    (specs : Interleave.spec list) (br : branch) =
  let prefix = Array.of_list br.br_prefix in
  let sleep_blocked = ref 0 in
  let pick ~step ~enabled ~steps =
    if step < Array.length prefix then prefix.(step)
    else if br.br_sleep = [] then List.hd enabled
    else begin
      (* Recompute wakes from scratch at every pick: footprints of parked
         operations keep growing as they resume, so incremental removal
         would miss late touches. [steps] holds only free turns here (the
         drain phase never calls [pick]), newest first. *)
      let sarr = Array.of_list (List.rev steps) in
      let op_index k =
        (* how many earlier turns the turn at free depth [k] follows for its
           own transaction = index of the operation it ran *)
        let t = sarr.(k).Interleave.ds_txn in
        let c = ref 0 in
        for j = 0 to k - 1 do
          if sarr.(j).Interleave.ds_txn = t then incr c
        done;
        !c
      in
      let wakes entry k =
        let s = sarr.(k) in
        s.Interleave.ds_txn = entry.sl_txn
        || structural.(s.Interleave.ds_txn).(op_index k)
        || Footprint.live_conflict names ~reads:s.Interleave.ds_reads
             ~writes:s.Interleave.ds_writes entry.sl_fp
      in
      let asleep entry =
        let awake = ref false in
        for k = entry.sl_depth to step - 1 do
          if not !awake then awake := wakes entry k
        done;
        not !awake
      in
      let sleeping =
        List.filter_map
          (fun e -> if List.mem e.sl_txn enabled && asleep e then Some e.sl_txn else None)
          br.br_sleep
      in
      match List.filter (fun i -> not (List.mem i sleeping)) enabled with
      | i :: _ -> i
      | [] ->
          (* Every enabled transaction sleeps: this whole continuation is
             covered elsewhere, but a directed run cannot stop mid-flight —
             finish it (the digest set is idempotent) and count the waste. *)
          incr sleep_blocked;
          List.hd enabled
    end
  in
  let result, steps =
    Interleave.run_directed ~config ~begin_marker ?init ?ro ~isolation specs ~pick
  in
  (result, steps, !sleep_blocked)

(* {1 Race analysis}

   Classic DPOR over the recorded schedule: build happens-before as the
   transitive closure of the dependency relation, find *immediate* races
   (dependent pairs with no intervening happens-before chain), and at each
   race's first turn schedule an alternative first choice that lets the
   other side go first. Candidate selection prefers the racing turn's own
   transaction, falls back to the earliest transaction that reaches it, and
   conservatively adds every enabled alternative when no candidate was
   enabled at the branch point.

   Analysis runs on the submitting thread, between frontier batches, and is
   the only writer of the exploration's name table. *)

module Traces = Hashtbl.Make (String)

type world = {
  mutable executed : int;
  mutable backtracks : int;
  mutable sleep_hits : int;
  mutable sleep_blocked : int;
  mutable duplicates : int;
  mutable digests : SSet.t;
  names : Footprint.names;
  clock : int;  (* id of the snapshot-pin marker *)
  renamed : int array;  (* by spec index i: the id of "x/T<i>" *)
  key : Buffer.t;  (* trace_key's buffer, reused *)
  traces : unit Traces.t;  (* exact keys of the traces already analyzed *)
  nodes : (int list, node) Hashtbl.t;  (* keyed by reversed choice prefix *)
  queue : branch Queue.t;
      (* a stdlib Queue, not a Fifo: each round empties it first, so no
         popped cell stays linked into the next round *)
}

let get_node w key =
  match Hashtbl.find_opt w.nodes key with
  | Some n -> n
  | None ->
      let n = { nd_done = []; nd_sched = ISet.empty } in
      Hashtbl.add w.nodes key n;
      n

(* Snapshot-pin rewrite: the turn that pinned a transaction's read view
   (the engine marks it with a "clock" read) logically performed the
   visibility check for everything the transaction goes on to observe. Give
   it a read of the visibility shadow of every data resource in the
   transaction's cumulative footprint, so a commit publishing any of them
   races with the pin itself — reversing that pair is what makes both
   serial orders of disjoint-footprint begin/commit turns reachable. (Engine
   pseudo-resources — doom flags, the begin markers, shadows themselves —
   are not data and are skipped.) Only the footprints analysis reads get
   the rewrite; the live turns a wake check sees never do. *)
let pin_shadows w sarr (fps : Footprint.t array) =
  let n = Array.length sarr in
  let pinned = Array.make (Array.length w.renamed) false in
  for k = 0 to n - 1 do
    let i = sarr.(k).Interleave.ds_txn in
    if (not pinned.(i)) && Array.mem w.clock fps.(k).Footprint.reads then begin
      pinned.(i) <- true;
      let shadows = ref [] in
      let add id =
        if Footprint.is_data id then shadows := Footprint.shadow w.names id :: !shadows
      in
      for m = 0 to n - 1 do
        if sarr.(m).Interleave.ds_txn = i then begin
          Array.iter add fps.(m).Footprint.reads;
          Array.iter add fps.(m).Footprint.writes
        end
      done;
      fps.(k) <- Footprint.add_reads fps.(k) (Array.of_list !shadows)
    end
  done

(* {2 Exact trace keys}

   A key names a run's Mazurkiewicz trace: its turns, named
   schedule-independently as (spec index, per-transaction turn number),
   with their footprints, plus the orientation of every cross-transaction
   dependent pair. Two runs with equal keys are linearizations of the same
   trace — they commute into each other, reach identical engine states and
   carry identical races. Doom flags embed engine transaction ids
   (begin-order-dependent), so the key renames them through the spec index
   to "x/T<i>" to stay linearization-free.

   The key is a string of non-negative ints, each written as a varint:
   - the turn count;
   - each turn in (spec index, turn number) order, as its spec index, then
     its renamed read ids and write ids, each set sorted and preceded by
     its size;
   - the number of oriented pairs, then their codes in ascending order, a
     pair of turns at positions [a] before [c] in that order coded
     [a * n + c].
   Within one exploration names and ids are in one-to-one correspondence,
   so two keys are equal exactly when the runs have the same turns with the
   same renamed footprints and the same oriented pairs. *)

let rec add_varint b x =
  if x < 0x80 then Buffer.add_char b (Char.unsafe_chr x)
  else begin
    Buffer.add_char b (Char.unsafe_chr (0x80 lor (x land 0x7f)));
    add_varint b (x lsr 7)
  end

let rec spec_of engine_id i = function
  | [] -> -1
  | id :: rest -> if id = engine_id then i else spec_of engine_id (i + 1) rest

let rename w txn_ids id =
  let owner = Footprint.doom_owner w.names id in
  if owner < 0 then id
  else
    let i = spec_of owner 0 txn_ids in
    if i < 0 then id else w.renamed.(i)

let add_renamed_set w txn_ids ids =
  let renames = ref false in
  Array.iter (fun id -> if rename w txn_ids id <> id then renames := true) ids;
  let ids =
    if !renames then begin
      let a = Array.map (rename w txn_ids) ids in
      Array.sort Int.compare a;
      a
    end
    else ids
  in
  add_varint w.key (Array.length ids);
  Array.iter (add_varint w.key) ids

let trace_key w (result : Interleave.result) sarr (fps : Footprint.t array) dep =
  let n = Array.length sarr in
  let txn_ids = result.Interleave.txn_ids in
  let b = w.key in
  Buffer.clear b;
  add_varint b n;
  let order = Array.make n 0 in
  let p = ref 0 in
  for t = 0 to Array.length w.renamed - 1 do
    for k = 0 to n - 1 do
      if sarr.(k).Interleave.ds_txn = t then begin
        order.(!p) <- k;
        incr p;
        add_varint b t;
        add_renamed_set w txn_ids fps.(k).Footprint.reads;
        add_renamed_set w txn_ids fps.(k).Footprint.writes
      end
    done
  done;
  let oriented a c =
    let i = order.(a) and j = order.(c) in
    i < j && sarr.(i).Interleave.ds_txn <> sarr.(j).Interleave.ds_txn && dep.(i).(j)
  in
  let pairs = ref 0 in
  for a = 0 to n - 1 do
    for c = 0 to n - 1 do
      if oriented a c then incr pairs
    done
  done;
  add_varint b !pairs;
  for a = 0 to n - 1 do
    for c = 0 to n - 1 do
      if oriented a c then add_varint b ((a * n) + c)
    done
  done;
  Buffer.contents b

let analyze ?(on_run = fun _ -> ()) w br (result, steps, sleep_blocked) =
  on_run result;
  w.executed <- w.executed + 1;
  w.sleep_blocked <- w.sleep_blocked + sleep_blocked;
  w.digests <- SSet.add (outcome_digest result) w.digests;
  let sarr = Array.of_list steps in
  let n = Array.length sarr in
  let fps =
    Array.map
      (fun s ->
        Footprint.of_names w.names ~reads:s.Interleave.ds_reads ~writes:s.Interleave.ds_writes)
      sarr
  in
  pin_shadows w sarr fps;
  let txn k = sarr.(k).Interleave.ds_txn in
  (* Dependence and its transitive closure (happens-before). *)
  let dep = Array.make_matrix n n false in
  let hb = Array.make_matrix n n false in
  for j = 1 to n - 1 do
    for i = 0 to j - 1 do
      dep.(i).(j) <- txn i = txn j || Footprint.conflict fps.(i) fps.(j);
      if dep.(i).(j) then hb.(i).(j) <- true
      else begin
        let k = ref (i + 1) in
        while (not hb.(i).(j)) && !k < j do
          if hb.(i).(!k) && dep.(!k).(j) then hb.(i).(j) <- true;
          incr k
        done
      end
    done
  done;
  (* Trace memoization: race analysis is a function of the trace, not the
     linearization — the races, their happens-before structure and the
     reachable reversals are identical for every schedule of one trace.
     Per-node sleep machinery cannot see that two *different* prefixes have
     commuted into the same class (that needs optimal-DPOR wakeup trees),
     so duplicate arrivals do happen; analyzing them would clone whole
     subtrees. One representative per class spawns children; the rest stop
     here (measured: ~12x fewer executions on the §4.7 5-chain, with digest
     sets unchanged across the cross-validation matrix). *)
  let key = trace_key w result sarr fps dep in
  if Traces.mem w.traces key then w.duplicates <- w.duplicates + 1
  else begin
  Traces.add w.traces key ();
  (* Free-depth of each turn, and the (reversed) choice prefix before it. *)
  let freedepth = Array.make n (-1) in
  let prefix_of = Array.make n [] in
  let choices = ref [] in
  let d = ref 0 in
  for k = 0 to n - 1 do
    if sarr.(k).Interleave.ds_free then begin
      freedepth.(k) <- !d;
      prefix_of.(k) <- !choices;
      incr d;
      choices := txn k :: !choices;
      (* Register the choice at its node (dedup + sibling sleep seeds). *)
      let node = get_node w prefix_of.(k) in
      node.nd_sched <- ISet.add (txn k) node.nd_sched;
      if not (List.mem_assoc (txn k) node.nd_done) then
        node.nd_done <- (txn k, fps.(k)) :: node.nd_done
    end
  done;
  let schedule_alternative i q =
    let node = get_node w prefix_of.(i) in
    if ISet.mem q node.nd_sched then w.sleep_hits <- w.sleep_hits + 1
    else begin
      node.nd_sched <- ISet.add q node.nd_sched;
      w.backtracks <- w.backtracks + 1;
      let depth = freedepth.(i) in
      (* Sleep inheritance: entries of the spawning execution's own sleep
         set rooted at or above this node stay valid for the new branch —
         it replays the identical prefix, so the new run's wake check
         re-evaluates them over the very same turns. *)
      let inherited =
        List.filter (fun e -> e.sl_depth <= depth && e.sl_txn <> q) br.br_sleep
      in
      let siblings =
        List.filter_map
          (fun (p, pfp) ->
            if p = q then None else Some { sl_txn = p; sl_depth = depth; sl_fp = pfp })
          node.nd_done
      in
      Queue.add { br_prefix = List.rev (q :: prefix_of.(i)); br_sleep = siblings @ inherited }
        w.queue
    end
  in
  for i = 0 to n - 1 do
    if sarr.(i).Interleave.ds_free then
      for j = i + 1 to n - 1 do
        if txn i <> txn j && dep.(i).(j) then begin
          (* Immediate races only: transitively implied orderings branch at
             the earlier race that implies them. *)
          let implied = ref false in
          for k = i + 1 to j - 1 do
            if hb.(i).(k) && hb.(k).(j) then implied := true
          done;
          if not !implied then begin
            let enabled = sarr.(i).Interleave.ds_enabled in
            let candidates = ref ISet.empty in
            for k = i + 1 to j do
              if (k = j || hb.(k).(j)) && List.mem (txn k) enabled && txn k <> txn i then
                candidates := ISet.add (txn k) !candidates
            done;
            if ISet.is_empty !candidates then
              (* No reaching transaction was grantable at the branch point
                 (it was parked, or only begins later): fall back to every
                 enabled alternative so the reversal is not lost. *)
              List.iter (fun q -> if q <> txn i then schedule_alternative i q) enabled
            else
              schedule_alternative i
                (if ISet.mem (txn j) !candidates then txn j else ISet.min_elt !candidates)
          end
        end
      done
  done
  end

(* {1 The frontier loop} *)

let explore ?config ?pool ?on_run ?init ?ro ~isolation (specs : Interleave.spec list) :
    string list * stats =
  let config = match config with Some c -> c | None -> default_config () in
  let config = { config with Config.record_history = true } in
  let begin_marker = needs_begin_marker config in
  let structural =
    Array.of_list
      (List.map
         (fun spec ->
           Array.of_list
             (List.map
                (function Interleave.Insert _ | Interleave.Delete _ -> true | _ -> false)
                spec))
         specs)
  in
  let names = Footprint.create () in
  let w =
    {
      executed = 0;
      backtracks = 0;
      sleep_hits = 0;
      sleep_blocked = 0;
      duplicates = 0;
      digests = SSet.empty;
      names;
      clock = Footprint.intern names "clock";
      renamed =
        Array.init (List.length specs) (fun i ->
            Footprint.intern names ("x/T" ^ string_of_int i));
      key = Buffer.create 256;
      traces = Traces.create 64;
      nodes = Hashtbl.create 64;
      queue = Queue.create ();
    }
  in
  Queue.add { br_prefix = []; br_sleep = [] } w.queue;
  while not (Queue.is_empty w.queue) do
    (* Drain the whole frontier each round: the batch content and order are
       independent of the pool size, executions are pure, and analysis runs
       sequentially in enqueue order — output is byte-identical at any -j. *)
    let batch = ref [] in
    while not (Queue.is_empty w.queue) do
      batch := Queue.pop w.queue :: !batch
    done;
    let batch = List.rev !batch in
    let runs =
      Par.map ?pool
        (execute ~config ~begin_marker ~names ~structural ?init ?ro ~isolation specs)
        batch
    in
    List.iter2 (analyze ?on_run w) batch runs
  done;
  ( SSet.elements w.digests,
    {
      executed = w.executed;
      bound = Interleave.count_interleavings specs;
      backtracks = w.backtracks;
      sleep_hits = w.sleep_hits;
      sleep_blocked = w.sleep_blocked;
      duplicates = w.duplicates;
    } )

(* {1 Full-enumeration digests and cross-validation} *)

let sweep_digests ?config ?init ?ro ~isolation (specs : Interleave.spec list) =
  let config = match config with Some c -> c | None -> default_config () in
  let config = { config with Config.record_history = true } in
  let digests = ref SSet.empty in
  let on_run r = digests := SSet.add (outcome_digest r) !digests in
  let summary = Interleave.sweep ~config ?init ?ro ~on_run ~isolation specs in
  (SSet.elements !digests, summary)

type validation = {
  v_match : bool;
  v_dpor : string list;
  v_full : string list;
  v_stats : stats;
}

let cross_validate ?config ?pool ?init ?ro ~isolation specs =
  let v_dpor, v_stats = explore ?config ?pool ?init ?ro ~isolation specs in
  let v_full, _ = sweep_digests ?config ?init ?ro ~isolation specs in
  { v_match = v_dpor = v_full; v_dpor; v_full; v_stats }
