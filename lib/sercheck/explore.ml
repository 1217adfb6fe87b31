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
  let writer_name ts =
    match Hashtbl.find_opt commit_writer ts with
    | Some i -> "t" ^ string_of_int i
    | None -> "init"
  in
  let b = Buffer.create 256 in
  List.iteri
    (fun i o ->
      Buffer.add_string b
        (Printf.sprintf "o%d=%s\n" i
           (match o with
           | None -> "commit"
           | Some reason -> Types.abort_reason_to_string reason)))
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
      Buffer.add_string b (Printf.sprintf "r%d:" i);
      List.iter
        (fun rr ->
          Buffer.add_string b
            (Printf.sprintf " %s/%s=%s" rr.Types.r_table rr.Types.r_key
               (writer_name rr.Types.r_version)))
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
  List.iter (fun (t, k, i) -> Buffer.add_string b (Printf.sprintf "f %s/%s=t%d\n" t k i)) final_rows;
  Buffer.add_string b (if r.serializable then "ser\n" else "non-ser\n");
  Digest.to_hex (Digest.string (Buffer.contents b))

(* {1 The dependency relation}

   Two turns are dependent iff the same transaction issued both (program
   order) or their observed footprints intersect on a resource at least one
   of them wrote. Read-read sharing commutes — this is where most of the
   reduction comes from (every SIREAD acquisition of a hot row would
   otherwise order all readers). *)

(* Visibility shadows ("c/<resource>", written by commits at publication,
   read at snapshot-pin turns) get one special rule: the write/read pair is
   a real dependency — it decides whether the commit is inside the reader's
   snapshot; the write-skew serial orders hinge on it — but two shadow
   *writes* commute: the horizon is monotonic, and every observer orders
   itself against each advance through its own pin-read race. Without the
   exemption any two commits touching the same data would be dependent
   even when the row-level races already order them. *)
let shadowed res = String.length res >= 2 && res.[0] = 'c' && res.[1] = '/'

let fp_conflict (r1, w1) (r2, w2) =
  List.exists (fun res -> List.mem res r2 || ((not (shadowed res)) && List.mem res w2)) w1
  || List.exists (fun res -> List.mem res r1) w2

(* Configurations whose behaviour depends on transaction-id *order* need the
   begin marker: ids are handed out in begin order, so two first turns must
   never be treated as commuting under Prefer_younger victim selection or
   the periodic detector's kill-the-youngest rule. *)
let needs_begin_marker (config : Config.t) =
  config.Config.victim = Config.Prefer_younger
  || match config.Config.detection with Lockmgr.Periodic _ -> true | Lockmgr.Immediate -> false

(* A sleep entry: transaction [sl_txn] was explored from the node at free
   depth [sl_depth] with final footprint [sl_fp]; re-picking it is redundant
   until some later turn conflicts with that footprint. *)
type sentry = { sl_txn : int; sl_depth : int; sl_fp : string list * string list }

type branch = { br_prefix : int list (* oldest first *); br_sleep : sentry list }

(* Per choice-prefix node bookkeeping. [nd_done] records choices whose
   execution through this node has completed, with final footprints (these
   seed sibling sleep sets); [nd_sched] is every choice explored or already
   enqueued from here, the dedup set. *)
type node = { mutable nd_done : (int * (string list * string list)) list; mutable nd_sched : ISet.t }

let default_config () = { (Config.test ()) with Config.record_history = true }

(* {1 One directed execution}

   Pure: fresh simulator and engine per run, no shared state — safe to farm
   out to a {!Par} pool. Returns the run result, the recorded schedule
   (footprints final) and the number of sleep-blocked picks. *)
let execute ~config ~begin_marker ?init ?ro ~isolation (specs : Interleave.spec list)
    (br : branch) =
  let prefix = Array.of_list br.br_prefix in
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
  let sleep_blocked = ref 0 in
  let pick ~step ~enabled ~steps =
    if step < Array.length prefix then prefix.(step)
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
        || fp_conflict (s.Interleave.ds_reads, s.Interleave.ds_writes) entry.sl_fp
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
  (* Snapshot-pin rewrite: the turn that pinned a transaction's read view
     (marked "clock" by the engine) logically performed the visibility
     check for everything the transaction goes on to observe. Give it a
     read of the visibility shadow of every data resource in the
     transaction's cumulative footprint, so a commit publishing any of
     them races with the pin itself — reversing that pair is what makes
     both serial orders of disjoint-footprint begin/commit turns
     reachable. (Engine pseudo-resources — doom flags, the begin marker,
     shadows themselves — are not data and are skipped.) *)
  let data_resource res =
    res <> "clock" && res <> "tid"
    && not (String.length res >= 2 && res.[1] = '/' && (res.[0] = 'x' || res.[0] = 'c'))
  in
  let cumulative = Array.make (List.length specs) [] in
  List.iter
    (fun s ->
      let add res =
        if data_resource res && not (List.mem res cumulative.(s.Interleave.ds_txn)) then
          cumulative.(s.Interleave.ds_txn) <- res :: cumulative.(s.Interleave.ds_txn)
      in
      List.iter add s.Interleave.ds_reads;
      List.iter add s.Interleave.ds_writes)
    steps;
  let pinned = Array.make (List.length specs) false in
  List.iter
    (fun s ->
      let i = s.Interleave.ds_txn in
      if (not pinned.(i)) && List.mem "clock" s.Interleave.ds_reads then begin
        pinned.(i) <- true;
        s.Interleave.ds_reads <-
          List.rev_append (List.rev_map (fun res -> "c/" ^ res) cumulative.(i)) s.Interleave.ds_reads
      end)
    steps;
  (result, steps, !sleep_blocked)

(* {1 Race analysis}

   Classic DPOR over the recorded schedule: build happens-before as the
   transitive closure of the dependency relation, find *immediate* races
   (dependent pairs with no intervening happens-before chain), and at each
   race's first turn schedule an alternative first choice that lets the
   other side go first. Candidate selection prefers the racing turn's own
   transaction, falls back to the earliest transaction that reaches it, and
   conservatively adds every enabled alternative when no candidate was
   enabled at the branch point. *)

type world = {
  mutable executed : int;
  mutable backtracks : int;
  mutable sleep_hits : int;
  mutable sleep_blocked : int;
  mutable duplicates : int;
  mutable digests : SSet.t;
  mutable traces : SSet.t;  (* canonical trace signatures already analyzed *)
  nodes : (int list, node) Hashtbl.t;  (* keyed by reversed choice prefix *)
  queue : branch Queue.t;
}

let get_node w key =
  match Hashtbl.find_opt w.nodes key with
  | Some n -> n
  | None ->
      let n = { nd_done = []; nd_sched = ISet.empty } in
      Hashtbl.add w.nodes key n;
      n

(* Canonical signature of a run's Mazurkiewicz trace: the turns named
   schedule-independently as (spec index, per-transaction turn number) with
   their footprints, plus the orientation of every cross-transaction
   dependent pair. Two runs with equal signatures are linearizations of the
   same trace — they commute into each other, reach identical engine states
   and carry identical races. Doom resources embed engine transaction ids
   (begin-order-dependent), so they are renamed through the spec index to
   keep the signature linearization-free. *)
let trace_signature (result : Interleave.result) sarr dep =
  let n = Array.length sarr in
  let rename =
    let tbl = Hashtbl.create 8 in
    List.iteri
      (fun i id ->
        if id >= 0 then Hashtbl.replace tbl ("x/" ^ string_of_int id) ("x/T" ^ string_of_int i))
      result.Interleave.txn_ids;
    fun res -> match Hashtbl.find_opt tbl res with Some r -> r | None -> res
  in
  let opidx = Array.make n 0 in
  let counts = Hashtbl.create 8 in
  for k = 0 to n - 1 do
    let t = sarr.(k).Interleave.ds_txn in
    let c = try Hashtbl.find counts t with Not_found -> 0 in
    opidx.(k) <- c;
    Hashtbl.replace counts t (c + 1)
  done;
  let b = Buffer.create 512 in
  let lines = ref [] in
  for k = 0 to n - 1 do
    lines :=
      Printf.sprintf "T%d.%d r[%s] w[%s]\n" sarr.(k).Interleave.ds_txn opidx.(k)
        (String.concat " " (List.sort_uniq compare (List.map rename sarr.(k).Interleave.ds_reads)))
        (String.concat " " (List.sort_uniq compare (List.map rename sarr.(k).Interleave.ds_writes)))
      :: !lines
  done;
  List.iter (Buffer.add_string b) (List.sort compare !lines);
  let pairs = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let ti = sarr.(i).Interleave.ds_txn and tj = sarr.(j).Interleave.ds_txn in
      if ti <> tj && dep.(i).(j) then
        pairs := Printf.sprintf "T%d.%d<T%d.%d" ti opidx.(i) tj opidx.(j) :: !pairs
    done
  done;
  List.iter
    (fun p ->
      Buffer.add_string b p;
      Buffer.add_char b '\n')
    (List.sort compare !pairs);
  Digest.string (Buffer.contents b)

let analyze ?(on_run = fun _ -> ()) w br (result, steps, sleep_blocked) =
  on_run result;
  w.executed <- w.executed + 1;
  w.sleep_blocked <- w.sleep_blocked + sleep_blocked;
  w.digests <- SSet.add (outcome_digest result) w.digests;
  let sarr = Array.of_list steps in
  let n = Array.length sarr in
  let fp k = (sarr.(k).Interleave.ds_reads, sarr.(k).Interleave.ds_writes) in
  let txn k = sarr.(k).Interleave.ds_txn in
  (* Dependence and its transitive closure (happens-before). *)
  let dep = Array.make_matrix n n false in
  let hb = Array.make_matrix n n false in
  for j = 1 to n - 1 do
    for i = 0 to j - 1 do
      dep.(i).(j) <- txn i = txn j || fp_conflict (fp i) (fp j);
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
  let sg = trace_signature result sarr dep in
  if SSet.mem sg w.traces then w.duplicates <- w.duplicates + 1
  else begin
  w.traces <- SSet.add sg w.traces;
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
        node.nd_done <- (txn k, fp k) :: node.nd_done
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
  let w =
    {
      executed = 0;
      backtracks = 0;
      sleep_hits = 0;
      sleep_blocked = 0;
      duplicates = 0;
      digests = SSet.empty;
      traces = SSet.empty;
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
      Par.map ?pool (execute ~config ~begin_marker ?init ?ro ~isolation specs) batch
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
