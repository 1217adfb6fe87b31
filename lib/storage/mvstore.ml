(* Multiversion storage: per-key version chains over a B+tree index.

   Each key maps to a chain of committed versions, newest first. A version
   carries the commit timestamp of its creator, so snapshot visibility is a
   single comparison (§2.4-2.5); [None] values are tombstones left by
   deletes, which stay visible to the conflict-detection machinery (§3.5)
   until garbage collection removes them.

   Uncommitted writes never appear here — the transaction engine buffers
   them in per-transaction write sets and installs them at commit, under the
   exclusive lock that implements first-committer-wins. *)

type ts = int

type txn_id = int

type version = {
  value : string option; (* None = tombstone *)
  commit_ts : ts;
  creator : txn_id;
}

type chain = { mutable versions : version list (* newest first *) }

type t = {
  name : string;
  tree : chain Btree.t;
  mutable page_ts : int array;
  mutable page_writer : int array;
      (* page id -> commit timestamp and creator of the page's latest
         version (page granularity); 0 = never stamped *)
}

let create ?fanout name =
  { name; tree = Btree.create ?fanout (); page_ts = [||]; page_writer = [||] }

let name t = t.name

let index t = t.tree

(* Chain for [key], if an index entry exists. *)
let find_chain t key = Btree.find t.tree key

let find_chain_path t key = Btree.find_path t.tree key

let new_chain () = { versions = [] }

(* Chain for [key], creating an empty one (and its index entry) if missing;
   with the btree access, so page-level locking can cover index writes. *)
let ensure_chain t key = Btree.find_or_add t.tree key new_chain

let ensure_chain_path t key = Btree.find_or_add_path t.tree key new_chain

let stamp t = Btree.stamp t.tree

(* Page versions: the Berkeley DB configuration versions whole pages. The
   arrays grow to the highest page stamped. *)
let page_ts t page = if page < Array.length t.page_ts then t.page_ts.(page) else 0

let page_writer t page = if page < Array.length t.page_writer then t.page_writer.(page) else 0

let stamp_page t page ~ts ~writer =
  let n = Array.length t.page_ts in
  if page >= n then begin
    let grow a = Array.init (max (page + 1) (2 * n)) (fun i -> if i < n then a.(i) else 0) in
    t.page_ts <- grow t.page_ts;
    t.page_writer <- grow t.page_writer
  end;
  t.page_ts.(page) <- ts;
  t.page_writer.(page) <- writer

(* What a read finds in a chain with no version it can see: a tombstone
   with commit timestamp 0, so a read needs no option. *)
let no_version = { value = None; commit_ts = 0; creator = 0 }

(* Newest version with commit_ts <= snapshot: what an SI read sees. *)
let rec visible_in versions snapshot =
  match versions with
  | [] -> no_version
  | v :: rest -> if v.commit_ts <= snapshot then v else visible_in rest snapshot

let visible chain ~snapshot = visible_in chain.versions snapshot

(* Newest committed version regardless of snapshot: what S2PL reads. *)
let latest chain = match chain.versions with [] -> no_version | v :: _ -> v

(* Committed versions newer than [than] — the "ignored newer versions" that
   flag rw-dependencies in Fig 3.4 and trigger first-committer-wins. *)
let newer_versions chain ~than =
  let rec go acc = function
    | [] -> List.rev acc
    | v :: rest -> if v.commit_ts > than then go (v :: acc) rest else List.rev acc
  in
  go [] chain.versions

let has_newer chain ~than =
  match chain.versions with [] -> false | v :: _ -> v.commit_ts > than

(* Install a committed version at the head of the chain. Versions must be
   installed in commit-timestamp order (the engine holds X locks and commits
   are atomic in the simulator, so this holds by construction). *)
let install chain ~value ~commit_ts ~creator =
  (match chain.versions with
  | v :: _ when v.commit_ts >= commit_ts ->
      invalid_arg "Mvstore.install: commit timestamps must increase along a chain"
  | _ -> ());
  chain.versions <- { value; commit_ts; creator } :: chain.versions

(* Value as of [snapshot], skipping tombstones. *)
let read t key ~snapshot =
  match find_chain t key with None -> None | Some c -> (visible c ~snapshot).value

let read_latest t key = match find_chain t key with None -> None | Some c -> (latest c).value

(* Next key after [key] with at least one committed version — the
   gap-locking successor; [None] means the supremum (Figs 3.6/3.7). Entries
   created by uncommitted inserts hold empty chains and are skipped. *)
let committed_successor t key = Btree.successor_where t.tree key (fun c -> c.versions <> [])

let min_key t = Btree.min_key t.tree

(* Iterate index entries in [lo, hi] (inclusive), exposing the whole chain so
   the engine can both read the snapshot-visible version and detect ignored
   newer versions / tombstones; [scan_chains_path] also returns the btree
   access footprint. *)
let scan_chains t ?lo ?hi f = Btree.iter_range t.tree ?lo ?hi f

let scan_chains_path t ?lo ?hi f = Btree.iter_range_access t.tree ?lo ?hi f

(* Canonical textual image of the committed store, the recovery oracle's
   store-equivalence witness: one line per version, keys in index order,
   each chain oldest-first, versions above [max_ts] omitted. Key and value
   are length-prefixed so arbitrary bytes (fuzzer keys contain anything)
   cannot make two different stores render identically. *)
let dump ?(max_ts = max_int) t buf =
  scan_chains t (fun key chain ->
      List.iter
        (fun v ->
          if v.commit_ts <= max_ts then begin
            Buffer.add_string buf
              (Printf.sprintf "%s/%d:%s@%d=" t.name (String.length key) key v.commit_ts);
            (match v.value with
            | Some s -> Buffer.add_string buf (Printf.sprintf "%d:%s" (String.length s) s)
            | None -> Buffer.add_char buf '~');
            Buffer.add_char buf '\n'
          end)
        (List.rev chain.versions))

(* Number of distinct keys with an index entry (live or tombstoned). *)
let key_count t = Btree.length t.tree

let version_count t =
  Btree.fold_range t.tree ?lo:None ?hi:None ~init:0 ~f:(fun acc _ c ->
      acc + List.length c.versions)

(* Drop versions that no current or future snapshot can read: keep the
   newest version with commit_ts <= min_snapshot plus everything newer.
   Chains reduced to a lone tombstone older than [min_snapshot] are removed
   from the index entirely (§3.5: a tombstone can go once no transaction
   could read the last live version). *)
let gc t ~min_snapshot =
  let doomed = ref [] in
  Btree.iter_range t.tree (fun key c ->
      let rec keep = function
        | [] -> []
        | v :: rest ->
            if v.commit_ts <= min_snapshot then [ v ] (* newest visible-to-all; drop older *)
            else v :: keep rest
      in
      c.versions <- keep c.versions;
      match c.versions with
      | [ { value = None; commit_ts; _ } ] when commit_ts <= min_snapshot ->
          doomed := key :: !doomed
      | [] -> doomed := key :: !doomed
      | _ -> ());
  List.iter (fun k -> ignore (Btree.remove t.tree k)) !doomed;
  List.length !doomed
