(* Internal shared state of the engine: the database and transaction
   records, resource-name encodings, and small helpers. The public API lives
   in Db and Txn; the SSI logic in Conflict; operation execution in Exec. *)

open Types

type txn_state =
  | Active
  | Committing (* §3.2: flags checked, "marked committed", flushing the log *)
  | Committed
  | Aborted

type conflict_ref =
  | No_conflict
  | Conflict_with of txn (* single in/out neighbour (§3.6 precise mode) *)
  | Self_conflict (* several neighbours; conservative self-reference *)

and txn = {
  id : int;
  isolation : isolation;
  declared_ro : bool; (* BEGIN TRANSACTION READ ONLY *)
  db : db;
  start_time : float;
  mutable state : txn_state;
  mutable snapshot : int option; (* read view; assigned lazily (§4.5) *)
  mutable commit_ts : int option;
  mutable doomed : abort_reason option; (* set by others, noticed at next op *)
  mutable in_conflict : conflict_ref;
  mutable out_conflict : conflict_ref;
  writes : (string * string, write_entry) Hashtbl.t;
      (* every key X-locked for writing, by (table, key) *)
  mutable write_order : write_entry list; (* buffered writes, newest first *)
  mutable logged : bool; (* redo records appended to the WAL this commit *)
  mutable touched_pages : (string * int) list; (* pages split by our writes *)
  mutable reads_log : read_record list; (* only when record_history *)
  mutable in_edges : Obs.cert_edge list;
      (* rw edges r ->rw t where this txn is the writer; newest first.
         Recorded only when the sink has provenance on (abort certificates
         cite the resource and detection source behind each pivot edge). *)
  mutable out_edges : Obs.cert_edge list; (* rw edges t ->rw w; newest first *)
  page_reads : (string * int, page_reads) Hashtbl.t option;
      (* bounded-memory mode only (None otherwise): per (table, leaf page),
         the row SIREADs this txn holds there, so granularity promotion can
         collapse them into one page SIREAD once Config.promote_threshold is
         reached *)
}

(* A key the transaction X-locked for writing ([Exec.lock_for_write]): the
   value it buffered, if any, and what the lock found. [w_chain] and
   [w_access] (the key's find_path footprint, [Btree.no_access] when the
   engine reads no pages) are what a new lookup would find while the
   table's structure stamp still reads [w_stamp]; -1 marks them stale. *)
and write_entry = {
  w_table : string;
  w_key : string;
  mutable w_buffered : bool; (* a write is buffered (and in [write_order]) *)
  mutable w_value : string option; (* the buffered value; None = delete *)
  mutable w_chain : Mvstore.chain;
  mutable w_access : Btree.access;
  mutable w_stamp : int;
}

and page_reads = {
  mutable pr_rows : string list; (* row resources SIREAD-locked on the page *)
  mutable pr_count : int;
  mutable pr_promoted : bool; (* page SIREAD held; row SIREADs released *)
}

(* Conservative remains of summarized committed transactions, keyed by lock
   resource ("r/", "g/" or "p/" encodings). When the retained queue exceeds
   Config.memory_budget, the oldest committed txns are folded in here: per
   resource, the latest contributing commit timestamp plus the OR of the
   contributors' conflict flags. Readers/writers that meet a summarized
   owner consult this instead of the (gone) transaction record; the folding
   loses precision, never conflicts (false positives up, safety intact). *)
and summary = {
  mutable sm_commit_ts : int; (* max commit ts of summarized contributors *)
  mutable sm_in : bool; (* any contributor had in_conflict set *)
  mutable sm_out : bool; (* any contributor had out_conflict set *)
}

and db = {
  sim : Sim.t;
  config : Config.t;
  locks : Lockmgr.t;
  wal : Wal.t;
  cpu : Resource.t;
  disk : Resource.t;
  cache : Bufcache.t option;
  io_rng : Random.State.t;
  lock_mutex : Resource.t option;
  tables : (string, Mvstore.t) Hashtbl.t;
  mutable last_commit_ts : int;
      (* highest *published* commit timestamp: every commit at or below it
         is installed, so snapshots read it directly. Since PR 6 allocation
         and publication are split (see [next_commit_ts]) *)
  mutable next_commit_ts : int; (* commit-ts allocator (highest handed out) *)
  published : (int, unit) Hashtbl.t;
      (* allocated timestamps whose installation finished while an earlier
         one is still flushing; drained contiguously into [last_commit_ts] *)
  mutable next_txn_id : int;
  txn_by_id : (int, txn) Hashtbl.t; (* active + committing + suspended *)
  active : (int, txn) Hashtbl.t;
  suspended : txn Fifo.t;
      (* retained committed txns, oldest commit first. A Fifo: the
         per-commit append is O(1), and a released txn keeps neither a slot
         nor a link to the txns after it (see lib/sim/fifo.mli) *)
  mutable n_retained_siread : int;
      (* suspended entries still holding SIREAD locks; the rest are plain
         committed records awaiting overlap cleanup (kept incrementally so
         per-commit budget checks stay O(1)) *)
  mutable n_promotions : int; (* row->page SIREAD promotions performed *)
  mutable n_summarized : int; (* committed txns folded into [summary] *)
  snap_order : txn Fifo.t;
      (* txns in snapshot-assignment order (snapshots are handed out
         monotonically), drained lazily: the front active entry is the
         oldest-active-snapshot watermark, so cleanup no longer scans the
         whole active table per commit *)
  summary : (string, summary) Hashtbl.t;
  summary_expiry : (int * string) Fifo.t;
      (* (commit_ts, resource) records in nondecreasing ts order; drained
         against the watermark to expire summary entries *)
  mutable obs : Obs.t;
      (* observability sink (events + metrics); Obs.disabled costs one
         branch per hook. Attach via Db.set_obs so the lock manager and WAL
         share it. *)
  mutable history : committed_record list; (* newest first *)
  stats : stats;
  (* Wasted-work ledger (sim-time seconds; always on — three float adds per
     txn lifecycle). At any instant
       work_ledger + sum(start_i over active txns) = work_committed + work_wasted
     because begin subtracts the start time, and outcome adds the outcome
     time and banks the span on one side. Db.work_conserved checks the
     invariant against an independent scan of the active table. *)
  mutable work_committed : float; (* begin->commit spans of committed txns *)
  mutable work_wasted : float; (* begin->abort spans, any abort reason *)
  mutable work_ledger : float;
  mutable on_touch : (int -> bool -> string -> unit) option;
      (* DPOR footprint hook: [f id is_write resource] on every shared-state
         access not already visible through the lock manager (version-chain
         reads, page stamps, doom flags, commit/rollback effects). [None]
         costs one branch per site. *)
}

and stats = {
  mutable commits : int;
  mutable aborts_deadlock : int;
  mutable aborts_conflict : int;
  mutable aborts_unsafe : int;
  mutable aborts_user : int;
      (* application-requested rollbacks; kept apart from error aborts so
         driver-level "completed work" accounting and Db-level counters
         agree (User_abort used to be double-booked under aborts_other) *)
  mutable aborts_other : int;
}

let new_stats () =
  {
    commits = 0;
    aborts_deadlock = 0;
    aborts_conflict = 0;
    aborts_unsafe = 0;
    aborts_user = 0;
    aborts_other = 0;
  }

let count_abort stats = function
  | Deadlock -> stats.aborts_deadlock <- stats.aborts_deadlock + 1
  | Update_conflict -> stats.aborts_conflict <- stats.aborts_conflict + 1
  | Unsafe -> stats.aborts_unsafe <- stats.aborts_unsafe + 1
  | User_abort -> stats.aborts_user <- stats.aborts_user + 1
  | Duplicate_key | Internal_error _ -> stats.aborts_other <- stats.aborts_other + 1

(* A transaction counts as committed for conflict purposes from the moment
   its commit-time flag check passed (§3.2: "after the flags have been
   checked during commit, a transaction can no longer abort due to the
   conflict flags"). *)
let has_committed t = match t.state with Committing | Committed -> true | Active | Aborted -> false

(* Commit time for precise-mode comparisons: a Committing transaction's
   timestamp is either not assigned yet or assigned but not yet published
   (allocated before the commit flush since PR 6); in both cases its writes
   are not installed, so it must keep comparing as +infinity until the
   transition to Committed. *)
let commit_time t =
  match (t.state, t.commit_ts) with
  | Committing, _ -> infinity
  | _, Some ts -> float_of_int ts
  | _, None -> infinity

(* Commit time of a conflict reference, seen from [self] (§3.6). A
   self-reference stands for "several neighbours" and must err conservative:
   as an out-reference it compares as "committed first" (-inf), as an
   in-reference as "committed last" (+inf); callers pick the direction. *)
let ref_commit_time ~if_self = function
  | No_conflict -> nan
  | Self_conflict -> if_self
  | Conflict_with t -> commit_time t

let ref_is_set = function No_conflict -> false | Self_conflict | Conflict_with _ -> true

(* {1 Lock resource encodings}

   Each name is built in one allocation: they are made on every access. *)

(* [prefix ^ table ^ "/" ^ key]. *)
let resource_name prefix table key =
  let p = String.length prefix and n = String.length table and k = String.length key in
  let b = Bytes.create (p + n + 1 + k) in
  Bytes.blit_string prefix 0 b 0 p;
  Bytes.blit_string table 0 b p n;
  Bytes.unsafe_set b (p + n) '/';
  Bytes.blit_string key 0 b (p + n + 1) k;
  Bytes.unsafe_to_string b

let row_resource table key = resource_name "r/" table key

let gap_resource table key = resource_name "g/" table key

let gap_supremum table = resource_name "g/" table "\xff\xff(sup)"

(* "p/<table>/<page>", the decimal page id written in place. *)
let page_resource table page =
  let n = String.length table and width = Decimal.length page in
  let b = Bytes.create (3 + n + width) in
  Bytes.unsafe_set b 0 'p';
  Bytes.unsafe_set b 1 '/';
  Bytes.blit_string table 0 b 2 n;
  Bytes.unsafe_set b (2 + n) '/';
  Decimal.blit page b ~pos:(3 + n) ~width;
  Bytes.unsafe_to_string b

(* Per-transaction doom flag, as a resource name for the DPOR footprint:
   Conflict.claim_victim writes it, every check_doom reads its own. The "x/"
   prefix is disjoint from the row/gap/page encodings above. *)
let doom_resource id = "x/" ^ string_of_int id

(* {1 DPOR footprint hook}

   [touch t resource] records that the operation currently executing on
   behalf of [t] read shared state named [resource] outside the lock manager
   (which reports its own acquisitions); [touch_w] records a write. No-ops
   (one branch) unless an explorer installed a hook via Db.set_on_touch.
   The [touch_row]/[touch_page] forms build the name only when a hook is
   installed. *)

let touch t resource =
  match t.db.on_touch with Some f -> f t.id false resource | None -> ()

let touch_w t resource =
  match t.db.on_touch with Some f -> f t.id true resource | None -> ()

let touch_row t table key =
  match t.db.on_touch with Some f -> f t.id false (row_resource table key) | None -> ()

let touch_w_row t table key =
  match t.db.on_touch with Some f -> f t.id true (row_resource table key) | None -> ()

let touch_page t table page =
  match t.db.on_touch with Some f -> f t.id false (page_resource table page) | None -> ()

let touch_doom_read t =
  match t.db.on_touch with Some f -> f t.id false (doom_resource t.id) | None -> ()

(* {1 CPU and lock-manager cost accounting} *)

let charge_cpu db cost = if cost > 0.0 then Resource.consume db.cpu cost

(* Probabilistic buffer-cache model: each of [n] row touches misses with
   probability [read_miss] and pays a disk read (§6.4.1's I/O-bound
   configurations). Inactive when a real buffer pool is configured. *)
let charge_row_io db n =
  let p = db.config.Config.read_miss in
  if p > 0.0 && db.cache = None then
    for _ = 1 to n do
      if Random.State.float db.io_rng 1.0 < p then
        Resource.consume db.disk Config.miss_latency
    done

(* Real buffer pool: run every page of an access footprint through the LRU
   cache (descent path clean, leaves optionally dirty). *)
let touch_pages ?(dirty = false) db table_name (access : Btree.access) =
  match db.cache with
  | None -> ()
  | Some c ->
      List.iter (fun p -> Bufcache.touch c ~table:table_name ~page:p) access.Btree.path;
      List.iter
        (fun p -> Bufcache.touch ~dirty c ~table:table_name ~page:p)
        (access.Btree.leaves @ access.Btree.modified)

let table_exn db name =
  match Hashtbl.find db.tables name with
  | t -> t
  | exception Not_found -> raise (Abort (Internal_error ("no such table: " ^ name)))

(* Read view: latest commit timestamp at assignment time. Lazy (§4.5): the
   caller must only invoke this *after* acquiring any lock needed by the
   transaction's first statement. *)
let ensure_snapshot t =
  match t.snapshot with
  | Some s -> s
  | None ->
      (* Footprint: mark the turn that pins this transaction's read view.
         The explorer rewrites the marker into per-resource visibility
         reads ("c/<resource>" for the transaction's whole footprint), so
         commits publishing anything this transaction observes are ordered
         against the pin, not just against the later read turns. *)
      touch t "clock";
      let s = t.db.last_commit_ts in
      t.snapshot <- Some s;
      Fifo.push t.db.snap_order t;
      s

let snapshot_exn t =
  match t.snapshot with Some s -> s | None -> ensure_snapshot t

(* Oldest read view among active transactions — the watermark driving
   suspended-transaction cleanup (§3.3), summary expiry and version GC.
   Snapshots are assigned in nondecreasing order, so [snap_order] front
   entries whose transaction has finished are dropped lazily and the first
   live entry is the minimum; each transaction is popped exactly once, so the
   amortized cost is O(1) (the previous implementation folded over the whole
   active table on every commit). Transactions that have not chosen a
   snapshot yet will see only the present or later, so they do not constrain
   cleanup. *)
let min_active_snapshot db =
  let rec front () =
    match Fifo.peek_opt db.snap_order with
    | Some t when not (Hashtbl.mem db.active t.id) ->
        ignore (Fifo.pop db.snap_order);
        front ()
    | Some t -> ( match t.snapshot with Some s -> s | None -> max_int)
    | None -> max_int
  in
  front ()

let find_txn db id = Hashtbl.find_opt db.txn_by_id id

(* {1 Commit-timestamp allocation}

   Split allocate/publish discipline (PR 6): a writing transaction draws its
   timestamp from [next_commit_ts] *before* the commit flush so the WAL's
   Commit record can carry it (allocation and the append happen in one
   atomic simulated step, which keeps Commit records in ts order — the
   invariant recovery's prefix oracle relies on). [last_commit_ts] — the
   snapshot horizon — advances only when every earlier timestamp has been
   published, so a snapshot can never see ts k+1 while k is still flushing.
   A transaction that dies between allocation and publication skips its
   timestamp via [publish_commit_ts] too (the hole must not wedge the
   horizon). *)

let alloc_commit_ts db =
  db.next_commit_ts <- db.next_commit_ts + 1;
  db.next_commit_ts

let publish_commit_ts db ts =
  Hashtbl.replace db.published ts ();
  let continue = ref true in
  while !continue do
    let next = db.last_commit_ts + 1 in
    if Hashtbl.mem db.published next then begin
      Hashtbl.remove db.published next;
      db.last_commit_ts <- next
    end
    else continue := false
  done

(* {1 Bounded-memory mode (Config.memory_budget)} *)

(* Lock-table owner id under which summarized committed transactions' SIREAD
   entries are pooled (PostgreSQL's OldCommittedSxact, Ports & Grittner
   §6.2). Real transaction ids start at 1; version creator 0 means
   bulk-loaded. *)
let summary_owner = -1

let bounded db = db.config.Config.memory_budget <> None

let find_summary db resource = Hashtbl.find_opt db.summary resource

(* Fold one summarized transaction's contribution for [resource]: flags OR,
   commit timestamp max (both directions conservative). Every update also
   appends an expiry record so the entry dies once the watermark passes. *)
let summary_add db resource ~commit_ts ~in_conflict ~out_conflict =
  (match Hashtbl.find_opt db.summary resource with
  | Some s ->
      if commit_ts > s.sm_commit_ts then s.sm_commit_ts <- commit_ts;
      s.sm_in <- s.sm_in || in_conflict;
      s.sm_out <- s.sm_out || out_conflict
  | None ->
      Hashtbl.replace db.summary resource
        { sm_commit_ts = commit_ts; sm_in = in_conflict; sm_out = out_conflict });
  Fifo.push db.summary_expiry (commit_ts, resource)

(* Known read-only: declared so at begin, or committed without writes. *)
let known_read_only t = t.declared_ro || (has_committed t && t.write_order = [])
