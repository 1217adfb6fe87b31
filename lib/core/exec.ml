(* Operation execution for the four concurrency control algorithms.

   Each public operation checks its transaction on entry ([enter]), which
   notices dooming by other transactions, and runs its body under one
   handler ([aborted]), which converts lock-manager deadlock victims into
   aborts and rolls the transaction back before letting the Abort exception
   escape. Simulated CPU is charged before each critical section, so the
   conflict bookkeeping itself runs atomically (the simulator is
   cooperative).

   The bodies and the walks over holders, pages and writes are top-level
   functions given their arguments, so an operation builds no closure. *)

open Types
open Internal

let check_doom t =
  touch_doom_read t;
  match t.doomed with Some r -> raise (Abort r) | None -> ()

(* Roll back an Active or Committing transaction: drop buffered writes,
   release every lock (including SIREAD entries) and forget the transaction.

   The Committing case is the crash-safety path: an exception escaping
   [do_commit] after [t.state <- Committing] (a WAL failure, an internal
   error during version install) must not leak the transaction in
   [db.active]/[db.txn_by_id] with its locks held forever. Rolling back here
   is safe because [install_writes] runs atomically in simulator terms (no
   suspension points), so either no version was published or the engine is
   aborting on an internal error where conservative cleanup is the best
   available outcome (any stray installed version keeps working: readers of
   a version whose creator is gone mark a conservative self-conflict). *)
let rollback_now t reason =
  match t.state with
  | Active | Committing ->
      t.state <- Aborted;
      (* A Committing transaction rolled back between commit-ts allocation
         and publication leaves a hole in the timestamp sequence: publish
         the skipped ts so the snapshot horizon can advance past it, and
         log an Abort record so recovery never applies redo records that
         may already be durable for this transaction. *)
      (match t.commit_ts with
      | Some ts ->
          publish_commit_ts t.db ts;
          t.commit_ts <- None
      | None -> ());
      if t.logged then begin
        Wal.append t.db.wal (Wal.Abort { txn = t.id });
        t.logged <- false
      end;
      (* Footprint: releasing locks changes state every waiter and later
         acquirer of these resources observes. Read-strength touches are
         enough: any waiter or conflicting acquirer touched the resource
         with its own lock mode, and write-write conflicts (this rollback
         against an X acquirer) were recorded when this transaction
         acquired the lock. *)
      if t.db.on_touch <> None then
        List.iter (touch t) (Lockmgr.owned_resources t.db.locks t.id);
      Lockmgr.release_all t.db.locks t.id;
      Hashtbl.remove t.db.active t.id;
      Hashtbl.remove t.db.txn_by_id t.id;
      count_abort t.db.stats reason;
      let abort_now = Sim.now t.db.sim in
      t.db.work_wasted <- t.db.work_wasted +. (abort_now -. t.start_time);
      t.db.work_ledger <- t.db.work_ledger +. abort_now;
      if Obs.on t.db.obs then
        Obs.emit t.db.obs ~ts:abort_now
          (Obs.Txn_abort
             { txn = t.id; start = t.start_time; reason = abort_reason_to_string reason })
  | Committed | Aborted -> ()

let reject_ro t =
  if t.declared_ro then raise (Abort (Internal_error "write in a READ ONLY transaction"))

(* A public operation's entry check: a doomed transaction rolls back and
   raises its reason, and only an active one may go on. *)
let enter t =
  touch_doom_read t;
  (match t.doomed with
  | Some r ->
      rollback_now t r;
      raise (Abort r)
  | None -> ());
  if t.state <> Active then raise (Abort (Internal_error "transaction is not active"))

(* The public operations' one handler, for [Abort] and
   [Lockmgr.Deadlock_victim] raised by a body: roll back, then raise the
   abort. *)
let aborted t e =
  let r = match e with Abort r -> r | Lockmgr.Deadlock_victim -> Deadlock | e -> raise e in
  rollback_now t r;
  raise (Abort r)

(* {1 Lock helpers} *)

(* Charge [n] lock-manager interactions, serialising through the kernel
   mutex when configured (§4.4). The engine aggregates per-scan charges into
   one resource use; total mutex occupancy is preserved. *)
let charge_lock_ops db n =
  if n > 0 then begin
    let cost = float_of_int n *. Config.c_lock in
    match db.lock_mutex with
    | Some m -> Resource.consume m cost
    | None -> charge_cpu db cost
  end

(* A lock the caller has charged for already (scans charge up front). *)
let acquire_prepaid t mode resource = Lockmgr.acquire t.db.locks ~owner:t.id ~mode resource

let acquire t mode resource =
  charge_lock_ops t.db 1;
  acquire_prepaid t mode resource;
  check_doom t

(* SIREAD acquisition: never blocks, at most one entry per resource. *)
let acquire_siread ?(charge = true) t resource =
  if not (Lockmgr.holds_mode t.db.locks ~owner:t.id ~mode:Lockmgr.Siread resource) then begin
    if charge then charge_lock_ops t.db 1;
    let locks = t.db.locks in
    Lockmgr.acquire locks ~owner:t.id ~mode:Lockmgr.Siread resource;
    if Obs.on t.db.obs then
      Obs.emit t.db.obs ~ts:(Sim.now t.db.sim)
        (Obs.Siread_grant
           {
             resource;
             held = Lockmgr.sireads_of locks t.id;
             live = Lockmgr.siread_entries locks;
           })
  end

(* {1 Granularity promotion (bounded-memory mode)}

   Once a transaction's point reads have SIREAD-locked
   [Config.promote_threshold] rows of one leaf page, the row entries
   collapse into a single page SIREAD (Ports & Grittner §4's lock
   promotion). Writers compensate: in bounded mode [lock_for_write] also
   marks SIREAD holders on the page resources of the leaves it modifies, so
   a promoted reader is still found — for every row of the page, which is
   the over-approximation that makes promotion conservative rather than
   lossy. Scan SIREADs (rows and gaps) are not tracked for promotion; they
   keep the paper's exact row/gap granularity. *)

let promote_page t table_name page pr =
  let db = t.db in
  List.iter
    (fun key ->
      Lockmgr.release_one db.locks ~owner:t.id ~mode:Lockmgr.Siread (row_resource table_name key))
    pr.pr_rows;
  pr.pr_rows <- [];
  pr.pr_promoted <- true;
  let resource = page_resource table_name page in
  acquire_siread ~charge:false t resource;
  db.n_promotions <- db.n_promotions + 1;
  if Obs.on db.obs then
    Obs.emit db.obs ~ts:(Sim.now db.sim)
      (Obs.Promotion { txn = t.id; table = table_name; page; rows = pr.pr_count; resource })

(* Row SIREAD on [r], the row [key]'s resource, for a point read, routed
   through the promotion tracker when a memory budget is configured. A
   promoted page already covers the row, so no new entry is needed (the
   caller still runs [mark_x_holders] on the row itself). *)
let siread_row t table_name key r ~leaves =
  let db = t.db in
  match (leaves, t.page_reads) with
  | page :: _, Some page_reads ->
      let pr =
        match Hashtbl.find_opt page_reads (table_name, page) with
        | Some pr -> pr
        | None ->
            let pr = { pr_rows = []; pr_count = 0; pr_promoted = false } in
            Hashtbl.replace page_reads (table_name, page) pr;
            pr
      in
      if not pr.pr_promoted then begin
        acquire_siread t r;
        if not (List.mem key pr.pr_rows) then begin
          pr.pr_rows <- key :: pr.pr_rows;
          pr.pr_count <- pr.pr_count + 1;
          if pr.pr_count >= db.config.Config.promote_threshold then
            promote_page t table_name page pr
        end
      end
  | _ -> acquire_siread t r

let rec mark_x_owners source t resource = function
  | [] -> ()
  | owner :: owners ->
      (if owner <> t.id then
         match Hashtbl.find t.db.txn_by_id owner with
         | writer -> Conflict.mark ~source ~resource ~self:t ~reader:t ~writer
         | exception Not_found -> ());
      mark_x_owners source t resource owners

(* Fig 3.4 line 3 / Fig 3.6 line 3: after taking SIREAD, every concurrently
   held X lock on the resource marks an rw-edge from us to its owner.
   [source] tags the edge for the conflict-source counters (a gap resource
   passes [Obs.Gap]). *)
let mark_x_holders ?(source = Obs.Siread_vs_x) t resource =
  touch t resource;
  mark_x_owners source t resource (Lockmgr.holders_with t.db.locks resource Lockmgr.X)

let rec mark_siread_owners source t resource snap = function
  | [] -> ()
  | owner :: owners ->
      (if owner <> t.id then
         match Hashtbl.find t.db.txn_by_id owner with
         | reader ->
             if (not (has_committed reader)) || commit_time reader > float_of_int snap then
               Conflict.mark ~source ~resource ~self:t ~reader ~writer:t
         | exception Not_found ->
             if owner = summary_owner then (
               match find_summary t.db resource with
               | Some s when s.sm_commit_ts > snap ->
                   Conflict.mark_summarized_reader ~source ~resource ~self:t ~sm_in:s.sm_in
               | _ -> ()));
      mark_siread_owners source t resource snap owners

(* Fig 3.5 lines 4-6 / Fig 3.7: after taking X, every SIREAD on the resource
   whose owner overlaps us (not yet committed, or committed after our read
   view) marks an rw-edge from the reader to us. The sentinel owner pools
   the SIREADs of summarized committed readers (bounded-memory mode); the
   summary entry's max commit timestamp runs the same overlap test,
   conservatively (it is >= every folded reader's actual commit). *)
let mark_siread_holders ?(source = Obs.Siread_vs_x) t resource =
  touch t resource;
  let snap = snapshot_exn t in
  mark_siread_owners source t resource snap
    (Lockmgr.holders_with t.db.locks resource Lockmgr.Siread)

let rec mark_siread_pages t table_name = function
  | [] -> ()
  | p :: pages ->
      mark_siread_holders t (page_resource table_name p);
      mark_siread_pages t table_name pages

(* Fig 3.4 lines 8-9: versions of the item newer than our snapshot were
   ignored by this read; each marks an rw-edge from us to its creator.
   Because committed transactions are retained while any overlapping
   transaction runs, a creator of a version newer than our snapshot is
   always findable; if it is somehow gone (bulk-loaded data), we set our
   outgoing flag conservatively. The row's name is only built when some
   version is newer. *)
let mark_newer_versions t table_name key chain snap =
  touch_row t table_name key;
  if Mvstore.has_newer chain ~than:snap then begin
    let resource = row_resource table_name key in
    List.iter
      (fun (v : Mvstore.version) ->
        if v.creator <> t.id then
          match find_txn t.db v.creator with
          | Some writer -> Conflict.mark ~source:Obs.Newer_version ~resource ~self:t ~reader:t ~writer
          | None ->
              if v.creator <> 0 then (
                (* Bounded-memory mode: a creator newer than our snapshot can
                   also be gone because it was summarized; its folded out-flag
                   (if any) survives in the summary entry for this row. *)
                match find_summary t.db resource with
                | Some s ->
                    Conflict.mark_summarized_writer ~source:Obs.Newer_version ~resource ~self:t
                      ~sm_out:s.sm_out t
                | None -> Conflict.mark_unknown_writer ~resource ~self:t t))
      (Mvstore.newer_versions chain ~than:snap)
  end

(* Page-granularity analogue: the Berkeley DB prototype versions whole pages,
   so a page updated after our snapshot is an ignored newer version of
   everything on it (the false-positive source of §6.1.5). *)
let mark_page_stamp t table page snap =
  let table_name = Mvstore.name table in
  touch_page t table_name page;
  let writer_id = Mvstore.page_writer table page in
  if Mvstore.page_ts table page > snap && writer_id <> t.id then
    let resource = page_resource table_name page in
    match find_txn t.db writer_id with
    | Some writer -> Conflict.mark ~source:Obs.Page_stamp ~resource ~self:t ~reader:t ~writer
    | None ->
        (* With unbounded retention a stamping writer newer than our
           snapshot is always findable; in bounded mode it may have been
           summarized, leaving its out-flag on the page's summary entry. *)
        if writer_id <> 0 then (
          match find_summary t.db resource with
          | Some s ->
              Conflict.mark_summarized_writer ~source:Obs.Page_stamp ~resource ~self:t
                ~sm_out:s.sm_out t
          | None -> ())

(* The footprint of the latest lookup in [table]'s index, when this engine
   reads the pages of one: page locks and stamps (Page), the page SIREADs
   of promotion and of the summarized-reader pool (a memory budget), or the
   buffer pool. Otherwise none is built. *)
let pages_read db table =
  if db.config.Config.granularity = Config.Page || bounded db || db.cache <> None then
    Btree.footprint (Mvstore.index table)
  else Btree.no_access

(* Carry page-level conflict state across B+tree splits (the paper's
   Berkeley DB change #3, §4.4: "propagate SIREAD locks appropriately during
   Btree page splits"). A split moves entries to a freshly allocated sibling
   page, where neither the old page's version stamp nor the SIREAD locks of
   transactions that read those entries would be found — later writers of the
   moved entries would escape both detection mechanisms. Copy the stamp and
   re-grant every SIREAD onto the new page. Splits are performed by whichever
   insert overflows the page and survive even if that transaction aborts (the
   index restructuring is not versioned), so propagation must happen at split
   time, not at the splitter's commit. SIREAD grants never block, so this is
   safe from any context. *)
let propagate_splits db table (access : Btree.access) =
  let table_name = Mvstore.name table in
  let page_mode = db.config.Config.granularity = Config.Page in
  (* Bounded row mode holds page SIREADs too (granularity promotion and the
     summarized-reader pool), so splits must propagate them there as well;
     page version stamps remain a page-mode mechanism. *)
  if access.Btree.splits <> [] && (page_mode || bounded db) then
    List.iter
      (fun (old_page, new_page) ->
        (if page_mode then
           let ts = Mvstore.page_ts table old_page in
           if ts <> 0 then
             Mvstore.stamp_page table new_page ~ts ~writer:(Mvstore.page_writer table old_page));
        let old_r = page_resource table_name old_page in
        let new_r = page_resource table_name new_page in
        (* A summarized reader's (or writer's) conservative remains must
           follow the entries that moved to the sibling page. *)
        (match find_summary db old_r with
        | Some s ->
            summary_add db new_r ~commit_ts:s.sm_commit_ts ~in_conflict:s.sm_in
              ~out_conflict:s.sm_out
        | None -> ());
        List.iter
          (fun owner ->
            if not (Lockmgr.holds_mode db.locks ~owner ~mode:Lockmgr.Siread new_r) then
              Lockmgr.acquire db.locks ~owner ~mode:Lockmgr.Siread new_r)
          (Lockmgr.holders_with db.locks old_r Lockmgr.Siread))
      access.Btree.splits

let is_ssi t = t.isolation = Serializable

let log_read t table_name key (v : Mvstore.version) =
  if t.db.config.Config.record_history then
    t.reads_log <- { r_table = table_name; r_key = key; r_version = v.commit_ts } :: t.reads_log

(* The write this transaction buffered for the key, if any. Only buffered
   entries are in [write_order], so a transaction that buffered none skips
   the lookup. *)
let own_write t table_name key =
  if t.write_order = [] then None
  else
    match Hashtbl.find t.writes (table_name, key) with
    | e when e.w_buffered -> Some e.w_value
    | _ -> None
    | exception Not_found -> None

let buffer_write t e value =
  if not e.w_buffered then begin
    e.w_buffered <- true;
    t.write_order <- e :: t.write_order
  end;
  e.w_value <- value

(* {1 Lock, then look again} *)

(* Lock [found] with [lock], where [find] found it at structure stamp
   [stamp]. A lock can wait, and the transaction it waits for may meanwhile
   create a chain or split a leaf: if the stamp has moved, find again and,
   unless [same] says the new find needs the same locks, lock that too,
   until stable. Returns what was found last. [find] and [lock] take the
   transaction, the table and [what] (a key, or a scan's range). *)
let rec locked_until_stable t table stamp ~find ~same ~lock what found =
  lock t table what found;
  let now = Mvstore.stamp table in
  if now = stamp then found
  else
    let again = find t table what in
    if same again found then again
    else locked_until_stable t table now ~find ~same ~lock what again

(* The gap protecting [key]: that of the next key with a committed version.
   Index entries created by still-uncommitted inserts are skipped so that
   two inserts into the same gap target the same gap lock as the scans
   protecting it. *)
let committed_gap table_name table key =
  match Mvstore.committed_successor table key with
  | Some next_key -> gap_resource table_name next_key
  | None -> gap_supremum table_name

(* Lock the gap protecting [key] with [lock]. Another inserter into the
   gap may commit while the lock waits and so change its name: resolve the
   name again until it is stable under the lock (next-key locking's
   re-check). Returns the gap locked. *)
let rec locked_gap t lock mode table_name table key =
  let gap = committed_gap table_name table key in
  lock t mode gap;
  if committed_gap table_name table key = gap then gap
  else locked_gap t lock mode table_name table key

(* A key's chain and footprint, whose locks are the same while its leaves are. *)
let find_key _ table key =
  let chain = Mvstore.find_chain table key in
  (chain, Btree.footprint (Mvstore.index table))

(* The key's footprint: the entry's while the structure stamp has not
   moved since the key was locked, else a new lookup's. *)
let entry_access table e =
  if e.w_stamp = Mvstore.stamp table then e.w_access else snd (find_key () table e.w_key)

let same_leaves (_, a) (_, b) = a.Btree.leaves = b.Btree.leaves

(* {1 Read} *)

let rec s_lock_pages t table_name = function
  | [] -> ()
  | p :: pages ->
      acquire t Lockmgr.S (page_resource table_name p);
      s_lock_pages t table_name pages

(* SIREAD each page, charged for already, and mark the X holders met. *)
let rec siread_pages t table_name = function
  | [] -> ()
  | p :: pages ->
      let r = page_resource table_name p in
      acquire_siread ~charge:false t r;
      mark_x_holders t r;
      siread_pages t table_name pages

(* Page-mode helper: read-lock (S or SIREAD) the leaf pages, as Berkeley DB
   does (internal pages are only latched during the descent). Version-based
   conflicts with structural changes to internal pages are caught by the
   page-stamp checks along the descent path (see [mark_path_stamps]). *)
let lock_pages_for_read t table_name (access : Btree.access) =
  let pages = access.Btree.leaves in
  match t.isolation with
  | S2pl -> s_lock_pages t table_name pages
  | Serializable ->
      charge_lock_ops t.db (List.length pages);
      siread_pages t table_name pages
  | Snapshot | Read_committed -> ()

let rec mark_page_stamps t table snap = function
  | [] -> ()
  | p :: pages ->
      mark_page_stamp t table p snap;
      mark_page_stamps t table snap pages

(* A page anywhere on the descent path updated since our snapshot is an
   ignored newer page version — including root/internal pages modified by
   splits, the false-positive source of §6.1.5. The path ends at the leaf,
   which is checked again with the leaves (and its rw-edges counted
   twice). *)
let mark_path_stamps t table (access : Btree.access) snap =
  mark_page_stamps t table snap access.Btree.path;
  mark_page_stamps t table snap access.Btree.leaves

(* The version of [chain] this transaction reads: the newest committed one
   under RC and S2PL, the one its snapshot sees under SI and SSI. *)
let read_version t chain =
  match t.isolation with
  | Read_committed | S2pl -> Mvstore.latest chain
  | Snapshot | Serializable -> Mvstore.visible chain ~snapshot:(snapshot_exn t)


(* S2PL point reads lock the row, or the leaves found (Page). *)
let s_lock_key t table key (_, access) =
  let table_name = Mvstore.name table in
  match t.db.config.Config.granularity with
  | Config.Row -> acquire t Lockmgr.S (row_resource table_name key)
  | Config.Page -> lock_pages_for_read t table_name access

let read t table_name key =
  match own_write t table_name key with
  | Some v -> v
  | None ->
      let db = t.db in
      let table = table_exn db table_name in
      charge_cpu db Config.c_read;
      charge_row_io db 1;
      check_doom t;
      (* Footprint: every isolation level reads this key's version
         chain, with or without locks (RC/SI take none). *)
      touch_row t table_name key;
      let chain =
        match t.isolation with
        | S2pl ->
            let stamp = Mvstore.stamp table in
            let chain, access =
              locked_until_stable t table stamp ~find:find_key ~same:same_leaves ~lock:s_lock_key
                key (find_key t table key)
            in
            let stamp = Mvstore.stamp table in
            touch_pages db table_name access;
            if Mvstore.stamp table = stamp then chain else Mvstore.find_chain table key
        | Read_committed | Snapshot | Serializable ->
            let snap = if t.isolation = Read_committed then 0 else ensure_snapshot t in
            let chain = Mvstore.find_chain table key in
            let access = pages_read db table in
            touch_pages db table_name access;
            if is_ssi t then begin
              (match db.config.Config.granularity with
              | Config.Row ->
                  let r = row_resource table_name key in
                  siread_row t table_name key r ~leaves:access.Btree.leaves;
                  mark_x_holders t r
              | Config.Page ->
                  lock_pages_for_read t table_name access;
                  mark_path_stamps t table access snap);
              match chain with
              | Some c -> mark_newer_versions t table_name key c snap
              | None -> ()
            end;
            chain
      in
      let v = match chain with Some c -> read_version t c | None -> Mvstore.no_version in
      log_read t table_name key v;
      v.Mvstore.value

let do_read t table_name key =
  enter t;
  try read t table_name key with (Abort _ | Lockmgr.Deadlock_victim) as e -> aborted t e

(* {1 Write (update / logical delete of an existing key)} *)

(* X-lock [r] for a write, first dropping our SIREAD on it when the SIREAD
   upgrade optimisation (§3.7.3) applies. *)
let acquire_x_for_write t ~will_write r =
  let db = t.db in
  if db.config.Config.upgrade_siread && is_ssi t && will_write then
    Lockmgr.release_one db.locks ~owner:t.id ~mode:Lockmgr.Siread r;
  acquire t Lockmgr.X r

let rec x_lock_pages t ~will_write table_name = function
  | [] -> ()
  | p :: pages ->
      acquire_x_for_write t ~will_write (page_resource table_name p);
      x_lock_pages t ~will_write table_name pages

(* Page-mode [lock_for_write] locks the leaves found, for a write or for a
   locking read: two functions rather than a closure over [will_write], so
   a write allocates none. *)
let x_lock_to_write t table _ (_, access) =
  x_lock_pages t ~will_write:true (Mvstore.name table) access.Btree.leaves

let x_lock_to_read t table _ (_, access) =
  x_lock_pages t ~will_write:false (Mvstore.name table) access.Btree.leaves

(* First-committer-wins at Page granularity: a page stamped after our read
   view is a newer version of everything on it. *)
let rec check_page_stamps t table snap = function
  | [] -> ()
  | p :: pages ->
      let ts = Mvstore.page_ts table p in
      if ts > snap then begin
        Provenance.emit_fcw t
          ~resource:(page_resource (Mvstore.name table) p)
          ~blocking_commit:ts ~blocking_writer:(Mvstore.page_writer table p);
        raise (Abort Update_conflict)
      end;
      check_page_stamps t table snap pages

(* Acquire the X lock protecting [key]'s row or page, honouring the SIREAD
   upgrade optimisation (§3.7.3), then run first-committer-wins and the
   write-side conflict checks. Returns the key's write-set entry, holding
   the chain to buffer against.

   The key is looked up once: a repeat lock of the same key reuses its
   entry, and at Page granularity the chain and leaves found to pick the
   locks are kept across the lock wait. If the structure stamp moved while
   waiting, an insert may have split the leaf and moved the key: the key is
   found again and its new leaf locked too, until the leaf set is stable.

   [will_write] tells us the caller is certain to buffer a write: only then
   may an existing SIREAD be discarded under §3.7.3, because the upgrade is
   sound only once a version is actually installed — the installed version
   lets later concurrent writers fail first-committer-wins and later
   concurrent readers mark the rw-edge via [mark_newer_versions]. A locking
   read (or a delete that finds nothing) installs no version, so dropping
   its SIREAD would erase the read from conflict tracking the moment the X
   lock is released at commit. *)
let lock_for_write t table_name key ~will_write =
  let db = t.db in
  let table = table_exn db table_name in
  let config = db.config in
  (* Footprint: the row's chain is read (first-committer-wins) and will gain
     a version — at Page granularity no row lock reports it. *)
  touch_w_row t table_name key;
  let slot = (table_name, key) in
  let entry = Hashtbl.find_opt t.writes slot in
  let stamp = Mvstore.stamp table in
  (* The row's lock name, built once for the X request and the SIREAD
     holders it marks: only row granularity locks rows. *)
  let row = if config.Config.granularity = Config.Row then row_resource table_name key else "" in
  (* What is known of the key before its locks, as of [stamp]. *)
  let known =
    match entry with
    | Some e when e.w_stamp = stamp -> (Some e.w_chain, e.w_access)
    | _ -> (
        match config.Config.granularity with
        | Config.Page -> find_key t table key
        | Config.Row -> (None, Btree.no_access))
  in
  (* What is known of the key once locked, if still current. *)
  let known_chain, known_access =
    match config.Config.granularity with
    | Config.Row ->
        acquire_x_for_write t ~will_write row;
        if Mvstore.stamp table = stamp then known else (None, Btree.no_access)
    | Config.Page ->
        locked_until_stable t table stamp ~find:find_key ~same:same_leaves
          ~lock:(if will_write then x_lock_to_write else x_lock_to_read)
          key known
  in
  (* Read view only after the first lock is granted (§4.5): single-statement
     updates never abort under first-committer-wins. *)
  let snap = ensure_snapshot t in
  check_doom t;
  let splits = Btree.splits (Mvstore.index table) in
  let chain, access =
    match known_chain with
    | Some c -> (c, known_access)
    | None ->
        let c = Mvstore.ensure_chain table key in
        (c, pages_read db table)
  in
  (* An insert that split reports the leaf before the split, which may no
     longer hold the key. *)
  let found_at =
    if Btree.splits (Mvstore.index table) = splits then Mvstore.stamp table else -1
  in
  let e =
    match entry with
    | Some e ->
        e.w_chain <- chain;
        e.w_access <- access;
        e.w_stamp <- found_at;
        e
    | None ->
        let e =
          {
            w_table = table_name;
            w_key = key;
            w_buffered = false;
            w_value = None;
            w_chain = chain;
            w_access = access;
            w_stamp = found_at;
          }
        in
        Hashtbl.add t.writes slot e;
        e
  in
  propagate_splits db table access;
  touch_pages ~dirty:true db table_name access;
  (* Page-mode structural changes (index entry creation, splits) X-lock the
     modified pages; a root split therefore conflicts with every reader.
     The pages are remembered so commit can stamp them with the new
     version's timestamp. *)
  (match (config.Config.granularity, access.Btree.modified) with
  | Config.Page, (_ :: _ as modified) ->
      List.iter (fun p -> acquire t Lockmgr.X (page_resource table_name p)) modified;
      t.touched_pages <- List.map (fun p -> (table_name, p)) modified @ t.touched_pages
  | _ -> ());
  (* First-committer-wins (§2.5): a version committed after our read view.
     The abort certificate names the blocking version (its commit timestamp
     and writer) — the evidence that FCW, not SSI, killed this txn. *)
  (match t.isolation with
  | Snapshot | Serializable ->
      if Mvstore.has_newer chain ~than:snap then begin
        (match Mvstore.newer_versions chain ~than:snap with
        | v :: _ ->
            Provenance.emit_fcw t
              ~resource:(row_resource table_name key)
              ~blocking_commit:v.Mvstore.commit_ts ~blocking_writer:v.Mvstore.creator
        | [] -> ());
        raise (Abort Update_conflict)
      end;
      (match config.Config.granularity with
      | Config.Page -> check_page_stamps t table snap access.Btree.leaves
      | Config.Row -> ())
  | Read_committed | S2pl -> ());
  if is_ssi t then begin
    (match config.Config.granularity with
    | Config.Row ->
        mark_siread_holders t row;
        (* Bounded-memory mode: promoted readers and the summarized-reader
           pool hold page SIREADs instead of row SIREADs, so the write must
           also be checked against the page resources of the leaves it
           lands on. *)
        if bounded db then mark_siread_pages t table_name access.Btree.leaves
    | Config.Page ->
        mark_siread_pages t table_name access.Btree.leaves;
        mark_siread_pages t table_name access.Btree.modified)
  end;
  e

let rec siread_pages_after_x t table_name = function
  | [] -> ()
  | p :: pages ->
      acquire_siread t (page_resource table_name p);
      siread_pages_after_x t table_name pages

(* The SIREAD trace of a locking read that installs no version: the X lock
   subsumes SIREAD only while held, and write locks are released at commit.
   No [mark_x_holders] pass is needed — we hold the X lock ourselves, so no
   concurrent writer can. *)
let siread_after_x t e =
  match t.db.config.Config.granularity with
  | Config.Row -> acquire_siread t (row_resource e.w_table e.w_key)
  | Config.Page ->
      let access = entry_access (table_exn t.db e.w_table) e in
      siread_pages_after_x t e.w_table access.Btree.leaves

(* Locking read (SELECT ... FOR UPDATE / the read half of an UPDATE): takes
   the exclusive lock first, then reads. Under SI/SSI this is the §4.5 fast
   path — the snapshot is chosen after the lock, so a transaction whose
   first statement is an update never aborts under first-committer-wins —
   and it subsumes the SIREAD upgrade of §3.7.3. *)
let read_for_update t table_name key =
  reject_ro t;
  let db = t.db in
  charge_cpu db Config.c_read;
  charge_row_io db 1;
  check_doom t;
  match own_write t table_name key with
  | Some v -> v
  | None ->
      let e = lock_for_write t table_name key ~will_write:false in
      if is_ssi t then siread_after_x t e;
      (* Under SI and SSI, the FCW check in lock_for_write guarantees the
         snapshot version is also the latest committed one. *)
      let v = read_version t e.w_chain in
      log_read t table_name key v;
      v.Mvstore.value

let do_read_for_update t table_name key =
  enter t;
  try read_for_update t table_name key
  with (Abort _ | Lockmgr.Deadlock_victim) as e -> aborted t e

let write t table_name key value =
  reject_ro t;
  let db = t.db in
  charge_cpu db Config.c_write;
  charge_row_io db 1;
  check_doom t;
  let e = lock_for_write t table_name key ~will_write:true in
  buffer_write t e (Some value)

let do_write t table_name key value =
  enter t;
  try write t table_name key value with (Abort _ | Lockmgr.Deadlock_victim) as e -> aborted t e

(* {1 Insert / Delete with phantom protection (Fig 3.7)} *)

let lock_gap_for_write t table_name key =
  let db = t.db in
  (* Footprint: an insert/delete changes what a scan of the surrounding gap
     observes even when no gap lock is configured (SI/RC scans lock
     nothing), so the gap name is always touched. *)
  if db.on_touch <> None then touch_w t (committed_gap table_name (table_exn db table_name) key);
  if db.config.Config.gap_locking && db.config.Config.granularity = Config.Row then begin
    let gap = locked_gap t acquire Lockmgr.X table_name (table_exn db table_name) key in
    if is_ssi t then mark_siread_holders ~source:Obs.Gap t gap
  end

let insert t table_name key value =
  reject_ro t;
  let db = t.db in
  charge_cpu db Config.c_write;
  check_doom t;
  (* Gap lock first (before the index entry appears), then the row. *)
  lock_gap_for_write t table_name key;
  let e = lock_for_write t table_name key ~will_write:true in
  (* Duplicate detection: a live committed latest version, or our own
     buffered live write; our own buffered delete makes the key free. *)
  if Option.is_some (if e.w_buffered then e.w_value else (Mvstore.latest e.w_chain).value) then
    raise (Abort Duplicate_key);
  buffer_write t e (Some value)

let do_insert t table_name key value =
  enter t;
  try insert t table_name key value with (Abort _ | Lockmgr.Deadlock_victim) as e -> aborted t e

let delete t table_name key =
  reject_ro t;
  let db = t.db in
  charge_cpu db Config.c_write;
  check_doom t;
  lock_gap_for_write t table_name key;
  let e = lock_for_write t table_name key ~will_write:false in
  (* A delete is a locking read of the row's visibility followed by a
     conditional write; the read is logged so the MVSG checker sees the
     rw-edge when someone re-creates the key. *)
  let existed =
    if e.w_buffered then Option.is_some e.w_value
    else
      let v = read_version t e.w_chain in
      log_read t table_name key v;
      Option.is_some v.value
  in
  if existed then buffer_write t e None else if is_ssi t then siread_after_x t e;
  existed

let do_delete t table_name key =
  enter t;
  try delete t table_name key with (Abort _ | Lockmgr.Deadlock_victim) as e -> aborted t e

(* {1 Predicate read (range scan) with next-key gap locking (Fig 3.6)} *)

(* Whether this transaction sees a row: its own buffered write, else the
   version it reads. *)
let sees_row t table_name key chain =
  match own_write t table_name key with
  | Some v -> Option.is_some v
  | None -> Option.is_some (read_version t chain).value

(* A scan's collection: the index entries of [lo, hi] with their chains,
   the walk's footprint (when the engine reads pages), and whether the walk
   reached the end of the range. With [limit] it stops at the [limit]-th
   row this transaction sees, so next-key locks cover only the examined
   prefix, like a LIMIT scan. *)
let collect_range t table (lo, hi, limit) =
  let table_name = Mvstore.name table in
  let visited = ref [] and seen = ref 0 in
  let visit k c =
    visited := (k, c) :: !visited;
    match limit with
    | Some n when sees_row t table_name k c ->
        incr seen;
        if !seen >= n then raise Exit
    | _ -> ()
  in
  Mvstore.scan_chains table ?lo ?hi visit;
  let exhausted = match limit with None -> true | Some n -> !seen < n in
  (List.rev !visited, pages_read t.db table, exhausted)

(* The key whose gap ends a scan up to [hi]: the terminal gap protects
   inserts past the last visited key, including into an empty range. *)
let past_range hi = match hi with Some h -> h | None -> "\xff\xff(sup)"

(* A scan's locks, charged up front by [do_scan]: S under S2PL; under SSI,
   SIREADs that mark the rw-edges they meet. Page: every page of the walk,
   as page locks cover both the rows and the gaps (§3.5). *)
let lock_scan_pages t table _ (_, access, _) =
  let table_name = Mvstore.name table in
  List.iter
    (fun p ->
      let r = page_resource table_name p in
      match t.isolation with
      | S2pl -> acquire_prepaid t Lockmgr.S r
      | _ ->
          acquire_siread ~charge:false t r;
          mark_x_holders t r;
          mark_page_stamp t table p (snapshot_exn t))
    (List.sort_uniq compare (access.Btree.path @ access.Btree.leaves));
  check_doom t

let same_walk (_, a, _) (_, b, _) = a.Btree.path = b.Btree.path && a.Btree.leaves = b.Btree.leaves

(* One row or gap of a row-mode scan. *)
let lock_scan_row ?source t r =
  match t.isolation with
  | S2pl ->
      acquire_prepaid t Lockmgr.S r;
      check_doom t
  | _ ->
      acquire_siread ~charge:false t r;
      mark_x_holders ?source t r

let rec lock_scan_keys t table_name gaps = function
  | [] -> ()
  | (key, chain) :: visited ->
      lock_scan_row t (row_resource table_name key);
      if gaps then lock_scan_row ~source:Obs.Gap t (gap_resource table_name key);
      if is_ssi t then mark_newer_versions t table_name key chain (snapshot_exn t);
      lock_scan_keys t table_name gaps visited

(* Row: each visited row and, with gap locking, its gap and the terminal
   gap, unless a LIMIT stopped the walk (the examined range then ends at
   the last visited row). *)
let lock_scan_rows t table (_, hi, _) (visited, _, exhausted) =
  let table_name = Mvstore.name table in
  let gaps = t.db.config.Config.gap_locking in
  lock_scan_keys t table_name gaps visited;
  if exhausted && gaps then
    match t.isolation with
    | S2pl ->
        ignore (locked_gap t acquire_prepaid Lockmgr.S table_name table (past_range hi));
        check_doom t
    | _ -> lock_scan_row ~source:Obs.Gap t (committed_gap table_name table (past_range hi))

let same_rows (va, _, ea) (vb, _, eb) =
  Bool.equal ea eb && List.equal (fun (a, _) (b, _) -> String.equal a b) va vb

(* Whether a LIMIT scan that stopped at its [limit]-th row now sees fewer
   of the rows it visited: one was deleted while its locks waited, which
   leaves the structure stamp alone. *)
let short_of_limit t table_name (_, _, limit) (visited, _, exhausted) =
  match limit with
  | Some n when not exhausted ->
      List.length (List.filter (fun (k, c) -> sees_row t table_name k c) visited) < n
  | _ -> false

let scan t table_name lo hi limit =
  let db = t.db in
  let config = db.config in
  let table = table_exn db table_name in
  if t.isolation = Snapshot || is_ssi t then ignore (ensure_snapshot t);
  (* Collect the index entries atomically, pay costs, run the locking
     protocol, then read. The structure stamp is taken at collection, as
     paying costs can wait too: S2PL collects again if it has moved by
     the time its locks are held, or if a LIMIT scan then sees fewer rows
     than it counted. Under SSI, committed changes racing with the scan
     are caught by the newer-version checks. *)
  let range = (lo, hi, limit) in
  let stamp = Mvstore.stamp table in
  let ((visited, access, exhausted) as found) = collect_range t table range in
  (* Footprint: a scan reads every visited chain and the gaps between
     them regardless of isolation level (SI/RC scans take no locks); the
     names are recorded before the locking below so they are visible
     even if an acquisition blocks. *)
  if db.on_touch <> None then begin
    List.iter
      (fun (key, _) ->
        touch t (row_resource table_name key);
        if config.Config.granularity = Config.Row then touch t (gap_resource table_name key))
      visited;
    match config.Config.granularity with
    | Config.Page ->
        List.iter
          (fun p -> touch t (page_resource table_name p))
          (access.Btree.path @ access.Btree.leaves)
    | Config.Row -> if exhausted then touch t (committed_gap table_name table (past_range hi))
  end;
  touch_pages db table_name access;
  let n = List.length visited in
  charge_cpu db (float_of_int (max 1 n) *. Config.c_scan_row);
  charge_row_io db n;
  check_doom t;
  (* Pre-charge the lock-manager work for the whole scan. *)
  if t.isolation = S2pl || is_ssi t then
    charge_lock_ops db
      (match config.Config.granularity with
      | Config.Row -> if config.Config.gap_locking then (2 * n) + 1 else n
      | Config.Page -> List.length access.Btree.leaves);
  check_doom t;
  let page_mode = config.Config.granularity = Config.Page in
  let lock = if page_mode then lock_scan_pages else lock_scan_rows in
  let visited, _, _ =
    match t.isolation with
    | S2pl ->
        let same = if page_mode then same_walk else same_rows in
        (* A LIMIT scan left short once locked collects again, past the
           rows its wait lost, and locks what it finds, until it is full
           or exhausted. *)
        let rec filled stamp found =
          let found =
            locked_until_stable t table stamp ~find:collect_range ~same ~lock range found
          in
          if short_of_limit t table_name range found then
            let stamp = Mvstore.stamp table in
            filled stamp (collect_range t table range)
          else found
        in
        filled stamp found
    | Serializable ->
        lock t table range found;
        found
    | Snapshot | Read_committed -> found
  in
  let results =
    List.fold_left
      (fun results (key, chain) ->
        let v = read_version t chain in
        log_read t table_name key v;
        let v = match own_write t table_name key with Some v -> v | None -> v.value in
        match v with Some v -> (key, v) :: results | None -> results)
      [] visited
  in
  (* Buffered inserts of our own that fall inside the range. The visited
     rows come in key order, so only these make a sort necessary. *)
  let own_inserts =
    if t.write_order = [] then []
    else
      List.filter_map
        (fun e ->
          let k = e.w_key in
          if
            e.w_table = table_name
            && (match lo with Some lo -> k >= lo | None -> true)
            && (match hi with Some hi -> k <= hi | None -> true)
            && not (List.exists (fun (k', _) -> k' = k) visited)
          then Option.map (fun v -> (k, v)) e.w_value
          else None)
        t.write_order
  in
  let all =
    match own_inserts with
    | [] -> List.rev results
    | _ -> List.sort (fun (a, _) (b, _) -> compare a b) (own_inserts @ List.rev results)
  in
  match limit with
  | None -> all
  | Some n -> List.filteri (fun i _ -> i < n) all

let do_scan ?lo ?hi ?limit t table_name =
  enter t;
  try scan t table_name lo hi limit with (Abort _ | Lockmgr.Deadlock_victim) as e -> aborted t e

(* {1 Commit / rollback} *)

(* Whether [(table_name, page)] is in [pages], without building the pair. *)
let rec mem_page table_name page = function
  | [] -> false
  | (tbl, p) :: pages ->
      (p = page && String.equal tbl table_name) || mem_page table_name page pages

(* Stamp the leaves a write lands on with its commit. *)
let rec stamp_leaves t table commit_ts = function
  | [] -> ()
  | p :: pages ->
      let table_name = Mvstore.name table in
      Mvstore.stamp_page table p ~ts:commit_ts ~writer:t.id;
      (* Remembered so a later summarization of this transaction can
         leave its out-flag on the stamped pages' summary entries. *)
      if not (mem_page table_name p t.touched_pages) then
        t.touched_pages <- (table_name, p) :: t.touched_pages;
      stamp_leaves t table commit_ts pages

let install_write t commit_ts page_mode e =
  let db = t.db in
  let table = table_exn db e.w_table in
  let chain =
    if e.w_stamp = Mvstore.stamp table then e.w_chain
    else begin
      let chain = Mvstore.ensure_chain table e.w_key in
      propagate_splits db table (pages_read db table);
      chain
    end
  in
  Mvstore.install chain ~value:e.w_value ~commit_ts ~creator:t.id;
  if page_mode then stamp_leaves t table commit_ts (entry_access table e).Btree.leaves

(* Install a newest-first list of writes, like [write_order], oldest
   first. *)
let rec install_in_order t commit_ts page_mode = function
  | [] -> ()
  | e :: older ->
      install_in_order t commit_ts page_mode older;
      install_write t commit_ts page_mode e

(* [write_order] holds each written key once ([buffer_write]). A key's chain
   and leaf come from its entry unless the structure stamp moved since it
   was locked. *)
let install_writes t commit_ts =
  let page_mode = t.db.config.Config.granularity = Config.Page in
  (* The pages our inserts split while locking are stamped after the
     writes' leaves, as a split below copies their earlier stamp to its new
     page; the leaves are stamped as they are found. *)
  let split_pages = t.touched_pages in
  install_in_order t commit_ts page_mode t.write_order;
  if page_mode && split_pages <> [] then
    List.iter
      (fun (tbl, p) -> Mvstore.stamp_page (table_exn t.db tbl) p ~ts:commit_ts ~writer:t.id)
      split_pages

(* Append the redo records of a newest-first list of writes, like
   [write_order], oldest first. *)
let rec log_in_order t = function
  | [] -> ()
  | e :: older -> (
      log_in_order t older;
      let table = e.w_table and key = e.w_key in
      match e.w_value with
      | Some value -> Wal.append t.db.wal (Wal.Write { txn = t.id; table; key; value })
      | None -> Wal.append t.db.wal (Wal.Delete { txn = t.id; table; key }))

let record_history t =
  let db = t.db in
  if db.config.Config.record_history then
    db.history <-
      {
        h_id = t.id;
        h_isolation = t.isolation;
        h_snapshot = (match t.snapshot with Some s -> s | None -> db.last_commit_ts);
        h_commit = (match t.commit_ts with Some c -> c | None -> 0);
        h_reads = List.rev t.reads_log;
        h_writes = List.rev_map (fun e -> (e.w_table, e.w_key)) t.write_order;
      }
      :: db.history

(* {2 Bounded-memory mode: committed-transaction summarization}

   Ports & Grittner's OldCommittedSxact, adapted: under budget pressure the
   oldest suspended committed transaction is folded into the per-resource
   summary table and its record dropped. Its SIREAD locks move to the
   sentinel pool owner (so writers still find *something* on the resource)
   and every moved resource gets a summary entry carrying the max folded
   commit timestamp and the OR of the folded in/out flags. The entry is
   created even when both flags are clear: a writer meeting the pooled
   SIREAD must still set its own incoming self-flag. Write-side entries
   (written rows, stamped pages) are only needed when the out-flag is set —
   for a flag-less creator the no-entry fallback [mark_unknown_writer] is
   behaviourally identical. Dropping the record loses the ability to update
   the folded flags later, which is safe: in any MVSG cycle the critical
   pivot acquires its out-edge before it commits (its out-neighbour commits
   first), so the fold always captures that flag; late-forming in-edges are
   handled by dooming the live endpoint (see [Conflict.mark_summarized_*]). *)
let summarize_oldest db =
  let s = Fifo.pop db.suspended in
  if Lockmgr.sireads_of db.locks s.id > 0 then db.n_retained_siread <- db.n_retained_siread - 1;
  let commit_ts = match s.commit_ts with Some c -> c | None -> db.last_commit_ts in
  let in_conflict = ref_is_set s.in_conflict in
  let out_conflict = ref_is_set s.out_conflict in
  let moved = Lockmgr.transfer_sireads db.locks ~owner:s.id ~to_owner:summary_owner in
  let entries = ref 0 in
  List.iter
    (fun resource ->
      summary_add db resource ~commit_ts ~in_conflict ~out_conflict;
      if Obs.on db.obs then Obs.emit db.obs ~ts:(Sim.now db.sim) (Obs.Summarized { resource });
      incr entries)
    moved;
  if out_conflict then begin
    List.iter
      (fun e ->
        summary_add db (row_resource e.w_table e.w_key) ~commit_ts ~in_conflict:false
          ~out_conflict:true;
        incr entries)
      s.write_order;
    List.iter
      (fun (table_name, page) ->
        summary_add db (page_resource table_name page) ~commit_ts ~in_conflict:false
          ~out_conflict:true;
        incr entries)
      s.touched_pages
  end;
  Hashtbl.remove db.txn_by_id s.id;
  db.n_summarized <- db.n_summarized + 1;
  !entries

(* Expire summary entries no active transaction can still conflict with.
   The expiry queue is filled in summarization order, so timestamps are
   nondecreasing except for split-propagation copies, which can only delay
   an entry past its natural slot — removal re-checks the entry's own (upsert
   max) timestamp, so nothing expires early. A resource can be re-queued by
   later upserts; stale queue entries find the table entry already gone (or
   too new) and are skipped. *)
let drain_summary db min_snap =
  let rec go () =
    match Fifo.peek_opt db.summary_expiry with
    | Some (ts, resource) when ts <= min_snap ->
        ignore (Fifo.pop db.summary_expiry);
        (match Hashtbl.find_opt db.summary resource with
        | Some s when s.sm_commit_ts <= min_snap ->
            Hashtbl.remove db.summary resource;
            Lockmgr.release_one db.locks ~owner:summary_owner ~mode:Lockmgr.Siread resource
        | _ -> ());
        go ()
    | _ -> ()
  in
  go ()

(* Release suspended transactions that no active transaction overlaps
   (§3.3/§4.6.1): safe once every active read view begins at or after their
   commit. The queue is ordered by commit timestamp (commits append in
   timestamp order), so draining eligible entries from the front preserves
   the oldest-commit-first discipline and keeps each pass O(released). *)
let rec release_suspended db min_snap released =
  match Fifo.peek_opt db.suspended with
  | Some s when (match s.commit_ts with Some c -> c <= min_snap | None -> false) ->
      ignore (Fifo.pop db.suspended);
      if Lockmgr.sireads_of db.locks s.id > 0 then
        db.n_retained_siread <- db.n_retained_siread - 1;
      Lockmgr.release_all db.locks s.id;
      Hashtbl.remove db.txn_by_id s.id;
      release_suspended db min_snap (released + 1)
  | _ -> released

let cleanup_suspended db =
  let min_snap = min_active_snapshot db in
  let released = release_suspended db min_snap 0 in
  if bounded db then drain_summary db min_snap;
  if released > 0 && Obs.on db.obs then
    Obs.emit db.obs ~ts:(Sim.now db.sim)
      (Obs.Cleanup { released; retained = Fifo.length db.suspended })

let commit t =
  let db = t.db in
  let config = db.config in
  let n_writes = List.length t.write_order in
  charge_cpu db (Config.c_txn +. (float_of_int n_writes *. Config.c_commit_install));
  check_doom t;
  (* Footprint: committing publishes every buffered version (writes of
     the updated rows), retires the held locks and reads the conflict
     flags other transactions set through those resources. Held locks
     are read-strength touches: every conflicting peer (a writer of a
     row this transaction SIREAD-holds, a waiter on an X entry) touched
     the resource at write strength itself, while two readers' commits
     must stay commuting. *)
  if db.on_touch <> None then begin
    List.iter (touch t) (Lockmgr.owned_resources db.locks t.id);
    List.iter (fun e -> touch_w t (row_resource e.w_table e.w_key)) t.write_order
  end;
  (* Fig 3.2 atomic block: dangerous-structure check, then mark committed
     so later conflicts treat us as such. *)
  if is_ssi t then Conflict.check_commit t;
  t.state <- Committing;
  (* Durability before visibility (§4.4: locks released after the log
     flush; group commit batches concurrent committers). The flush is a
     profiler span: its duration is where group-commit batching shows
     up in a trace.

     Writing transactions draw their commit timestamp *before* the
     flush so the WAL Commit record can carry it; allocation and the
     appends are one atomic simulated step, which keeps Commit records
     in timestamp order in the log (recovery's prefix oracle relies on
     this). The timestamp stays unpublished — invisible to snapshots
     and comparing as +infinity — until the versions install below. *)
  let commit_ts =
    if n_writes > 0 then begin
      let commit_ts = alloc_commit_ts db in
      t.commit_ts <- Some commit_ts;
      if Obs.tracing db.obs then
        Obs.emit db.obs ~ts:(Sim.now db.sim)
          (Obs.Span_b { tid = t.id; name = "log-flush"; cat = "wal" });
      Wal.append db.wal (Wal.Begin { txn = t.id });
      log_in_order t t.write_order;
      Wal.append db.wal (Wal.Commit { txn = t.id; ts = commit_ts });
      t.logged <- true;
      Wal.commit_window_check db.wal;
      Wal.commit_flush db.wal;
      if Obs.tracing db.obs then
        Obs.emit db.obs ~ts:(Sim.now db.sim)
          (Obs.Span_e { tid = t.id; name = "log-flush"; cat = "wal" });
      commit_ts
    end
    else begin
      (* Read-only / no-write commit: nothing to log, so allocation and
         publication collapse into the atomic block below. A fresh
         timestamp is still taken — overlap tests ("commit(owner) >
         begin(T)", Fig 3.5) need commits and begins totally ordered. *)
      let commit_ts = alloc_commit_ts db in
      t.commit_ts <- Some commit_ts;
      commit_ts
    end
  in
  (* Atomic publication: install all versions and advance the snapshot
     horizon in one step, so snapshots are consistent. *)
  if n_writes > 0 then install_writes t commit_ts;
  (* Footprint: pages stamped during install (Page granularity; includes
     split-allocated siblings not known before install). *)
  if db.on_touch <> None then
    List.iter (fun (tbl, p) -> touch_w t (page_resource tbl p)) t.touched_pages;
  publish_commit_ts db commit_ts;
  (* Footprint: publication advances what later snapshots observe, and
     the overlap tests of Fig 3.5 compare this commit against other
     transactions' begins. Both are per-resource facts, so the commit
     writes a visibility shadow ["c/<resource>"] for everything it
     published or held — a transaction whose read view covers one of
     these resources reads the same shadow at its snapshot-pin turn
     (the explorer adds those reads from the recorded footprint). A
     single global clock resource would order every commit against
     every begin and destroy the reduction. *)
  if db.on_touch <> None then begin
    List.iter (fun res -> touch_w t ("c/" ^ res)) (Lockmgr.owned_resources db.locks t.id);
    List.iter (fun e -> touch_w t ("c/" ^ row_resource e.w_table e.w_key)) t.write_order;
    List.iter
      (fun (tbl, p) -> touch_w t ("c/" ^ page_resource tbl p))
      t.touched_pages
  end;
  t.logged <- false;
  t.state <- Committed;
  db.stats.commits <- db.stats.commits + 1;
  let commit_now = Sim.now db.sim in
  db.work_committed <- db.work_committed +. (commit_now -. t.start_time);
  db.work_ledger <- db.work_ledger +. commit_now;
  record_history t;
  Hashtbl.remove db.active t.id;
  (* Retention (§3.3, §4.8): every committed transaction's record (its
     conflict flags and commit time) must survive while any overlapping
     transaction is active — even a pure writer can sit inside a cycle
     through its wr-edges, so a later reader that ignores its version
     must still find it and set its own outgoing flag. SSI transactions
     additionally keep their SIREAD locks (suspension); everyone else
     releases all locks now. *)
  Conflict.seal_references t;
  Lockmgr.release_all ~keep_siread:(is_ssi t) db.locks t.id;
  Fifo.push db.suspended t;
  if Lockmgr.sireads_of db.locks t.id > 0 then
    db.n_retained_siread <- db.n_retained_siread + 1;
  let obs = db.obs in
  if Obs.on obs then
    Obs.emit obs ~ts:commit_now
      (Obs.Txn_commit
         {
           txn = t.id;
           start = t.start_time;
           commit_ts;
           n_writes;
           retained_siread = db.n_retained_siread;
           retained_record = Fifo.length db.suspended - db.n_retained_siread;
         });
  cleanup_suspended db;
  (* Budget enforcement: after the watermark cleanup, if retained records
     plus live SIREAD lock-table entries still exceed the budget, fold
     oldest committed transactions into the summary until under budget or
     the suspended queue is empty (the summary's own sentinel entries are
     bounded by the resource universe, not by transaction count). *)
  (match config.Config.memory_budget with
  | None -> ()
  | Some budget ->
      let pressure () = Fifo.length db.suspended + Lockmgr.siread_entries db.locks in
      if pressure () > budget && Fifo.length db.suspended > 0 then begin
        let txns = ref 0 and entries = ref 0 in
        while Fifo.length db.suspended > 0 && pressure () > budget do
          entries := !entries + summarize_oldest db;
          incr txns
        done;
        if Obs.on obs then
          Obs.emit obs ~ts:(Sim.now db.sim)
            (Obs.Summarize
               {
                 txns = !txns;
                 entries = !entries;
                 retained = Fifo.length db.suspended;
                 summary = Hashtbl.length db.summary;
               })
      end);
  (* Retention gauges for the timeline: sample after watermark cleanup
     and budget enforcement, so the point reflects the state actually
     left in force by this commit. Trace-only, like the other events. *)
  if Obs.tracing obs then
    Obs.emit obs ~ts:(Sim.now db.sim)
      (Obs.Mem_sample
         {
           siread = Lockmgr.siread_entries db.locks;
           retained_siread = db.n_retained_siread;
           retained_record = Fifo.length db.suspended - db.n_retained_siread;
           summary = Hashtbl.length db.summary;
         });
  (* Periodic checkpoint: every [checkpoint_interval] commits, harden
     the open WAL batch together with a checkpoint record carrying the
     oldest-active-snapshot watermark and the commit-ts allocator. In
     No_flush mode this is what bounds the crash loss window; recovery
     restores the watermark that retention cleans up against. *)
  match config.Config.checkpoint_interval with
  | Some k when k > 0 && db.stats.commits mod k = 0 ->
      let watermark = min (min_active_snapshot db) db.last_commit_ts in
      Wal.checkpoint db.wal ~watermark ~next_ts:db.next_commit_ts
  | _ -> ()

let do_commit t =
  enter t;
  try commit t with (Abort _ | Lockmgr.Deadlock_victim) as e -> aborted t e

let do_rollback t reason =
  match t.state with
  | Active | Committing ->
      rollback_now t reason;
      cleanup_suspended t.db
  | Committed | Aborted -> ()
