open Types

type t = Internal.db

(* Every engine's I/O-miss stream starts from this state: copying it is
   cheaper than seeding a fresh one, and draws the same sequence. It is
   only ever copied, so domains may share it. *)
let io_rng_start = Random.State.make [| 0xD15C |]

(* Tables sized for a few transactions: the DPOR explorer, fuzz and
   perfbench's explore set-up build an engine per schedule, case or
   program, and a large bucket array would go straight to the major heap.
   They grow as needed. Nothing prints [txn_by_id]'s iteration order
   (Provenance sorts it); [active]'s reaches only the work-ledger folds,
   whose float sums [work_conserved] compares within a tolerance; and
   [summary], which only the bounded mode writes, is never iterated. *)
let create ?(config = Config.test ()) sim =
  let open Internal in
  let disk = Resource.create sim ~name:"disk" ~capacity:Config.disk_arms in
  let cache =
    Option.map
      (fun capacity ->
        Bufcache.create sim ~capacity ~disk ~read_latency:Config.miss_latency
          ~write_latency:Config.miss_latency ())
      config.Config.buffer_pool
  in
  {
    sim;
    config;
    locks = Lockmgr.create ~detection:config.Config.detection sim;
    wal = Wal.create sim ~mode:config.Config.wal_mode;
    cpu = Resource.create sim ~name:"cpu" ~capacity:config.Config.n_cpus;
    disk;
    cache;
    io_rng = Random.State.copy io_rng_start;
    lock_mutex =
      (if config.Config.lock_mutex then
         Some (Resource.create sim ~name:"lock-mutex" ~capacity:1)
       else None);
    tables = Hashtbl.create 16;
    last_commit_ts = 0;
    next_commit_ts = 0;
    published = Hashtbl.create 16;
    next_txn_id = 0;
    txn_by_id = Hashtbl.create 8;
    active = Hashtbl.create 8;
    suspended = Fifo.create ();
    n_retained_siread = 0;
    n_promotions = 0;
    n_summarized = 0;
    snap_order = Fifo.create ();
    summary = Hashtbl.create 8;
    summary_expiry = Fifo.create ();
    obs = Obs.disabled;
    history = [];
    stats = Internal.new_stats ();
    on_touch = None;
    work_committed = 0.0;
    work_wasted = 0.0;
    work_ledger = 0.0;
  }

(* Install (or remove) the DPOR footprint hook on the engine and its lock
   manager in one step; only Interleave's scheduler calls it, with a hook
   for the explorer's runs. *)
let set_on_touch (t : t) f =
  t.Internal.on_touch <- f;
  Lockmgr.set_on_touch t.Internal.locks f

(* Attach an observability sink; shared with the lock manager, WAL and the
   simulated resources (CPU k-server, disk, kernel mutex) so lock-wait,
   flush and utilization/queue-depth samples land in the same trace. *)
let set_obs (t : t) obs =
  t.Internal.obs <- obs;
  Lockmgr.set_obs t.Internal.locks obs;
  Wal.set_obs t.Internal.wal obs;
  Resource.set_obs t.Internal.cpu obs;
  Resource.set_obs t.Internal.disk obs;
  match t.Internal.lock_mutex with Some m -> Resource.set_obs m obs | None -> ()

let sim (t : t) = t.Internal.sim

let config (t : t) = t.Internal.config

let create_table (t : t) name =
  if Hashtbl.mem t.Internal.tables name then invalid_arg ("Db.create_table: duplicate " ^ name);
  let table = Mvstore.create ~fanout:t.Internal.config.Config.btree_fanout name in
  Hashtbl.replace t.Internal.tables name table;
  table

let table (t : t) name = Hashtbl.find_opt t.Internal.tables name

let table_exn (t : t) name = Internal.table_exn t name

let begin_txn ?(read_only = false) (t : t) isolation =
  let open Internal in
  t.next_txn_id <- t.next_txn_id + 1;
  let txn =
    {
      id = t.next_txn_id;
      isolation;
      declared_ro = read_only;
      db = t;
      start_time = Sim.now t.sim;
      state = Active;
      snapshot = None;
      commit_ts = None;
      doomed = None;
      in_conflict = No_conflict;
      out_conflict = No_conflict;
      writes = Hashtbl.create 8;
      write_order = [];
      logged = false;
      touched_pages = [];
      reads_log = [];
      in_edges = [];
      out_edges = [];
      page_reads = (if Internal.bounded t then Some (Hashtbl.create 4) else None);
    }
  in
  Hashtbl.replace t.txn_by_id txn.id txn;
  Hashtbl.replace t.active txn.id txn;
  t.work_ledger <- t.work_ledger -. txn.start_time;
  if Obs.tracing t.obs then
    Obs.emit t.obs ~ts:(Sim.now t.sim)
      (Obs.Txn_begin
         { txn = txn.id; iso = Types.isolation_to_string isolation; ro = read_only });
  txn

(* Run [body] in a fresh transaction; commit on success, roll back on any
   exception. Abort reasons are returned as [Error]. *)
let run ?read_only (t : t) isolation body =
  let txn = begin_txn ?read_only t isolation in
  match body txn with
  | v ->
      (try
         Exec.do_commit txn;
         Ok v
       with Abort r -> Error r)
  | exception Abort r ->
      Exec.do_rollback txn r;
      Error r
  | exception e ->
      Exec.do_rollback txn User_abort;
      raise e

(* Like {!run} but retries aborted transactions, as the paper's workload
   drivers do; counts each attempt's outcome through the stats already, so
   callers get the final result. *)
let run_retry ?(max_attempts = 100) ?read_only (t : t) isolation body =
  let rec go attempt last =
    if attempt > max_attempts then Error last
    else
      match run ?read_only t isolation body with
      | Ok v -> Ok v
      | Error User_abort -> Error User_abort (* application rollbacks don't retry *)
      | Error r -> go (attempt + 1) r
  in
  go 1 Deadlock

let stats (t : t) = t.Internal.stats

let history (t : t) = List.rev t.Internal.history

let clear_history (t : t) = t.Internal.history <- []

let last_commit_ts (t : t) = t.Internal.last_commit_ts

let active_count (t : t) = Hashtbl.length t.Internal.active

(* Committed SSI transactions still holding SIREAD locks. Kept as an
   incremental counter (the fold over the queue that this replaced was
   O(retained) per probe — quadratic over a pinned-snapshot run); the class
   of a suspended txn is stable, since only holders that already have a
   SIREAD can gain more (page-split propagation), so the commit-time
   classification holds until cleanup. *)
let suspended_count (t : t) = t.Internal.n_retained_siread

let retained_count (t : t) = Fifo.length t.Internal.suspended

let siread_entry_count (t : t) = Lockmgr.siread_entries t.Internal.locks

let summarized_count (t : t) = t.Internal.n_summarized

let promotion_count (t : t) = t.Internal.n_promotions

let summary_size (t : t) = Hashtbl.length t.Internal.summary

let lock_table_size (t : t) = Lockmgr.lock_table_size t.Internal.locks

let locks (t : t) = t.Internal.locks

let wal (t : t) = t.Internal.wal

let cache (t : t) = t.Internal.cache

(* Bulk-load committed rows outside any transaction (initial population of
   benchmark tables). All rows get one fresh commit timestamp. The load is
   logged under the reserved bulk-load id 0 and hardened immediately
   (without simulated delay — load runs outside any simulated process), so
   a recovered database starts from the same base image. *)
let load (t : t) table_name rows =
  let open Internal in
  let table = Internal.table_exn t table_name in
  let ts = Internal.alloc_commit_ts t in
  Wal.append t.wal (Wal.Begin { txn = 0 });
  List.iter
    (fun (key, value) -> Wal.append t.wal (Wal.Write { txn = 0; table = table_name; key; value }))
    rows;
  Wal.append t.wal (Wal.Commit { txn = 0; ts });
  Wal.harden t.wal;
  List.iter
    (fun (key, value) ->
      Mvstore.install (Mvstore.ensure_chain table key) ~value:(Some value) ~commit_ts:ts
        ~creator:0)
    rows;
  Internal.publish_commit_ts t ts

(* Canonical textual image of every table's committed store (tables in name
   order, keys in index order, chains oldest-first), optionally truncated to
   versions at or below [max_ts]. Byte-equality of dumps is the recovery
   oracle's store-equivalence check: recovered db ≡ reference db filtered to
   the recovered snapshot horizon. *)
let dump_store ?max_ts (t : t) =
  let buf = Buffer.create 1024 in
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) t.Internal.tables [] in
  List.iter
    (fun name -> Mvstore.dump ?max_ts (Hashtbl.find t.Internal.tables name) buf)
    (List.sort compare names);
  Buffer.contents buf

type recovery_report = {
  r_replayed : int;
  r_committed : int;
  r_in_doubt : int;
  r_aborted : int;
  r_torn_bytes : int;
  r_watermark : int;
  r_last_commit_ts : int;
}

(* Replay the durable log prefix into a fresh database.

   The engine appends a transaction's redo records and its Commit record in
   one atomic simulated step right after allocating the commit timestamp,
   so Commit records appear in timestamp order and the durable image is
   always a byte-prefix of the crash-free log. Replaying every durable
   Commit therefore reconstructs exactly the committed prefix: the set of
   commits with ts <= the restored horizon, with no in-doubt write visible.

   In-doubt transactions (Begin without a durable Commit) are dropped;
   transactions with a logged Abort are dropped even if their Commit record
   made it to disk (the Committing-state rollback path). SIREAD locks are
   volatile, so serializability state cannot be restored exactly; instead
   every recovered commit above the checkpoint watermark leaves
   conservative summary-table entries (PR 5 machinery, Ports & Grittner's
   OldCommittedSxact) with both conflict flags set, and readers that meet a
   recovered version whose creator record is gone already fall back to the
   conservative unknown-writer self-edge. False positives may rise after
   recovery; no serializability violation is admitted. *)
let recover ?(config = Config.test ()) ?obs sim ~log =
  match Wal.decode log with
  | Error e -> Error e
  | Ok (records, torn_bytes) ->
      let db = create ~config sim in
      (match obs with Some o -> set_obs db o | None -> ());
      let open Internal in
      (* A transaction with a logged Abort must not be applied even when its
         Commit record is durable. Transaction ids are never reused across
         commit attempts (the bulk-load id 0 never aborts), so one pre-pass
         suffices. *)
      let aborted_ids = Hashtbl.create 8 in
      List.iter
        (function Wal.Abort { txn } -> Hashtbl.replace aborted_ids txn () | _ -> ())
        records;
      let buffered = Hashtbl.create 16 in
      let committed = ref 0 and n_aborted = ref 0 in
      let watermark = ref 0 and horizon = ref 0 and max_txn = ref 0 in
      let buffer txn w =
        let prev = Option.value ~default:[] (Hashtbl.find_opt buffered txn) in
        Hashtbl.replace buffered txn (w :: prev)
      in
      let apply txn ts writes =
        (* Last write per key wins, first-touch order — the engine logs one
           record per key already; hand-written logs may not. *)
        let final = Hashtbl.create 8 in
        let order = ref [] in
        List.iter
          (fun (tbl, key, value) ->
            if not (Hashtbl.mem final (tbl, key)) then order := (tbl, key) :: !order;
            Hashtbl.replace final (tbl, key) value)
          writes;
        List.iter
          (fun (tbl, key) ->
            let table =
              match Hashtbl.find_opt db.tables tbl with
              | Some t -> t
              | None -> create_table db tbl
            in
            let chain = Mvstore.ensure_chain table key in
            let access = Btree.footprint (Mvstore.index table) in
            Mvstore.install chain ~value:(Hashtbl.find final (tbl, key)) ~commit_ts:ts
              ~creator:txn;
            if config.Config.granularity = Config.Page then
              List.iter (fun p -> Mvstore.stamp_page table p ~ts ~writer:txn) access.Btree.leaves;
            (* Volatile-SIREAD conservatism: flag the written rows of every
               recovered commit still above the watermark in both directions,
               so post-recovery SSI errs toward aborting. *)
            if txn <> 0 && ts > !watermark then begin
              summary_add db (row_resource tbl key) ~commit_ts:ts ~in_conflict:true
                ~out_conflict:true;
              if config.Config.granularity = Config.Page then
                List.iter
                  (fun p ->
                    summary_add db (page_resource tbl p) ~commit_ts:ts ~in_conflict:true
                      ~out_conflict:true)
                  access.Btree.leaves
            end)
          (List.rev !order)
      in
      List.iter
        (fun r ->
          match r with
          | Wal.Begin { txn } ->
              Hashtbl.replace buffered txn [];
              if txn > !max_txn then max_txn := txn
          | Wal.Write { txn; table; key; value } -> buffer txn (table, key, Some value)
          | Wal.Delete { txn; table; key } -> buffer txn (table, key, None)
          | Wal.Abort { txn } ->
              if Hashtbl.mem buffered txn then begin
                incr n_aborted;
                Hashtbl.remove buffered txn
              end
          | Wal.Checkpoint { watermark = w; next_ts } ->
              if w > !watermark then watermark := w;
              if next_ts > !horizon then horizon := next_ts
          | Wal.Commit { txn; ts } ->
              if ts > !horizon then horizon := ts;
              if Hashtbl.mem aborted_ids txn then begin
                incr n_aborted;
                Hashtbl.remove buffered txn
              end
              else begin
                let writes = List.rev (Option.value ~default:[] (Hashtbl.find_opt buffered txn)) in
                Hashtbl.remove buffered txn;
                apply txn ts writes;
                incr committed
              end)
        records;
      db.last_commit_ts <- !horizon;
      db.next_commit_ts <- !horizon;
      if !max_txn > db.next_txn_id then db.next_txn_id <- !max_txn;
      let in_doubt = Hashtbl.length buffered in
      (* Start the recovered log generation with a checkpoint so a later
         crash of the recovered instance knows its base horizon. *)
      Wal.append db.wal (Wal.Checkpoint { watermark = !horizon; next_ts = !horizon });
      Wal.harden db.wal;
      if Obs.tracing db.obs then
        Obs.emit db.obs ~ts:(Sim.now sim)
          (Obs.Recovery
             { replayed = List.length records; committed = !committed; in_doubt; torn_bytes });
      Ok
        ( db,
          {
            r_replayed = List.length records;
            r_committed = !committed;
            r_in_doubt = in_doubt;
            r_aborted = !n_aborted;
            r_torn_bytes = torn_bytes;
            r_watermark = !watermark;
            r_last_commit_ts = !horizon;
          } )

(* Fill the buffer pool with as many pages as fit, newest tables last (so
   the initial load does not count as misses). No-op without a pool. *)
let prewarm_cache (t : t) =
  match t.Internal.cache with
  | None -> ()
  | Some cache ->
      Hashtbl.iter
        (fun name table ->
          Bufcache.prewarm cache
            (List.map (fun p -> (name, p)) (Btree.all_pages (Mvstore.index table))))
        t.Internal.tables;
      Bufcache.reset_stats cache

(* Reclaim versions no active snapshot can read. *)
let gc (t : t) =
  let min_snap =
    min (Internal.min_active_snapshot t) t.Internal.last_commit_ts
  in
  Hashtbl.fold (fun _ tbl acc -> acc + Mvstore.gc tbl ~min_snapshot:min_snap) t.Internal.tables 0

(* Graphviz snapshot of the live dependency graph (all retained transaction
   records, recorded rw-antidependencies when provenance is on, squashed
   self-conflict flags). Independent of any abort — useful for ad-hoc
   inspection and the `report` subcommand's DOT output. *)
let dot_snapshot (t : t) = Provenance.dot_snapshot t

(* {1 Wasted-work accounting} *)

type work_profile = { wp_committed : float; wp_wasted : float; wp_in_flight : float }

let work_profile (t : t) =
  let now = Sim.now t.Internal.sim in
  let in_flight =
    Hashtbl.fold
      (fun _ txn acc -> acc +. (now -. txn.Internal.start_time))
      t.Internal.active 0.0
  in
  {
    wp_committed = t.Internal.work_committed;
    wp_wasted = t.Internal.work_wasted;
    wp_in_flight = in_flight;
  }

(* Conservation: the incrementally-maintained ledger must agree with an
   independent scan of the active table. [eps] absorbs float rounding on
   long runs (sums of many ~1e3-magnitude sim times). *)
let work_conserved ?(eps = 1e-6) (t : t) =
  let starts =
    Hashtbl.fold
      (fun _ txn acc -> acc +. txn.Internal.start_time)
      t.Internal.active 0.0
  in
  let lhs = t.Internal.work_ledger +. starts in
  let rhs = t.Internal.work_committed +. t.Internal.work_wasted in
  Float.abs (lhs -. rhs) <= eps *. Float.max 1.0 (Float.max (Float.abs lhs) (Float.abs rhs))
