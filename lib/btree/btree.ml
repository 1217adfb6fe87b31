(* In-memory B+tree with leaf chaining.

   This is the ordered-index substrate standing in for Berkeley DB's Btree
   access method and InnoDB's clustered index. The tree remembers where its
   latest walk went, and [footprint] reports, on request, which pages (node
   ids) that walk touched and which it structurally modified, so the
   transaction engine can lock at page granularity and reproduce the paper's
   Berkeley DB results, where root-page splits conflict with every concurrent
   reader (§6.1.5).

   Deletion removes the key from its leaf without rebalancing (lazy
   deletion); the MVCC layer above keeps tombstone version chains in place,
   so index entries are removed only by garbage collection and underflow is
   harmless.

   A leaf's arrays have room to spare: an insert or a remove shifts the
   keys after it in place, and a full leaf grows, to at most [fanout + 1]
   slots, the size at which it splits. A split copies each half into
   arrays of its exact size, and internal nodes are copied on every
   change, so the tree's shape, page ids and splits are those of a tree
   that copies every leaf on every change. A spare value slot holds a copy
   of a value still in the leaf, so it never keeps a removed value
   alive. *)

type 'a leaf = {
  lid : int;
  mutable ln : int; (* keys in use: [lkeys] and [lvals] past [ln] are spare *)
  mutable lkeys : string array;
  mutable lvals : 'a array;
  mutable lnext : 'a leaf option;
}

type 'a node = Leaf of 'a leaf | Internal of 'a internal

and 'a internal = {
  iid : int;
  mutable ikeys : string array; (* separators, length = #children - 1 *)
  mutable ichildren : 'a node array;
}

type 'a t = {
  mutable root : 'a node;
  fanout : int; (* max keys per leaf and max children per internal *)
  mutable next_id : int;
  mutable size : int;
  mutable last_leaf : 'a leaf;
      (* the leaf the latest [walk] reached: one descent yields both the
         path and the leaf without a tuple *)
  mutable end_lid : int;
      (* the last leaf the latest walk entered: [last_leaf]'s id, or the
         leaf along the chain where a scan stopped. An id, not the leaf,
         so a walk writes no pointer for it. *)
  mutable descents : int; (* walks from the root so far *)
  mutable stamp : int; (* structure changes so far: new keys, splits, removes *)
  mutable trail : 'a internal array;
  mutable trail_ci : int array;
      (* the internal nodes the latest [walk] passed, root first, and the
         child taken at each: the descent path, and the way an insert's
         splits climb back up *)
  mutable depth : int; (* internal levels the latest [descend] passed *)
  mutable modified : int list;
  mutable split_pairs : (int * int) list;
      (* the pages the latest [descend]'s insert split, as its footprint
         reports them; [] unless it split *)
}

type access = {
  path : int list; (* page ids on the descent, root first *)
  leaves : int list; (* leaf pages visited (scans may visit several) *)
  modified : int list; (* pages structurally modified by splits *)
  splits : (int * int) list; (* (old page, new sibling) pairs from splits *)
}

let no_access = { path = []; leaves = []; modified = []; splits = [] }

let node_id = function Leaf l -> l.lid | Internal n -> n.iid

let fresh_id t =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  id

let create ?(fanout = 64) () =
  if fanout < 4 then invalid_arg "Btree.create: fanout must be >= 4";
  let leaf = { lid = 0; ln = 0; lkeys = [||]; lvals = [||]; lnext = None } in
  {
    root = Leaf leaf;
    fanout;
    next_id = 1;
    size = 0;
    last_leaf = leaf;
    end_lid = 0;
    descents = 0;
    stamp = 0;
    trail = [||];
    trail_ci = [||];
    depth = 0;
    modified = [];
    split_pairs = [];
  }

let length t = t.size

let root_id t = node_id t.root

let descents t = t.descents

let stamp t = t.stamp

(* Each split makes one new page, the new root of a root split included,
   and nothing else does. *)
let splits t = t.next_id - 1

(* Index of the child covering [key]: the number of separators <= key. *)
let child_index n key =
  let keys = n.ikeys in
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) <= key then lo := mid + 1 else hi := mid
  done;
  !lo

(* Position of [key] among a leaf's keys, or the insertion point. *)
let search_keys l key =
  let keys = l.lkeys in
  let lo = ref 0 and hi = ref l.ln in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if keys.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo

(* Whether position [i] (from [search_keys]) holds [key] itself. *)
let found_at l i key = i < l.ln && String.equal l.lkeys.(i) key

(* Internal nodes are copied on every insert. *)
let array_insert a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

(* Put [key] and [v] at position [i] of [l]. A full leaf grows first:
   doubling while small, then straight to the [fanout + 1] slots at which
   it splits. Spare value slots get [v]. *)
let leaf_insert t l i key v =
  let n = l.ln in
  if n = Array.length l.lkeys then begin
    let size = if 2 * n >= t.fanout then t.fanout + 1 else max 4 (2 * n) in
    let keys = Array.make size "" and vals = Array.make size v in
    Array.blit l.lkeys 0 keys 0 i;
    Array.blit l.lkeys i keys (i + 1) (n - i);
    Array.blit l.lvals 0 vals 0 i;
    Array.blit l.lvals i vals (i + 1) (n - i);
    l.lkeys <- keys;
    l.lvals <- vals
  end
  else begin
    Array.blit l.lkeys i l.lkeys (i + 1) (n - i);
    Array.blit l.lvals i l.lvals (i + 1) (n - i)
  end;
  l.lkeys.(i) <- key;
  l.lvals.(i) <- v;
  l.ln <- n + 1

(* Point every spare value slot of [l] at [v], a value in the leaf, after
   a value left it: a spare slot may have held a copy. *)
let refill l v = Array.fill l.lvals l.ln (Array.length l.lvals - l.ln) v

let leaf_remove l i =
  let n = l.ln - 1 in
  Array.blit l.lkeys (i + 1) l.lkeys i (n - i);
  Array.blit l.lvals (i + 1) l.lvals i (n - i);
  l.ln <- n;
  if n = 0 then begin
    l.lkeys <- [||];
    l.lvals <- [||]
  end
  else begin
    l.lkeys.(n) <- "";
    refill l l.lvals.(0)
  end

(* One descent to the leaf covering [key] that remembers the internal nodes
   and child indices in [t.trail]; leaves the leaf in [t.last_leaf] and
   returns the number of internal levels. *)
let rec walk t key node d =
  match node with
  | Leaf l ->
      t.last_leaf <- l;
      t.end_lid <- l.lid;
      d
  | Internal n ->
      if d = Array.length t.trail then begin
        let size = max 8 (2 * d) in
        t.trail <- Array.init size (fun i -> if i < d then t.trail.(i) else n);
        t.trail_ci <- Array.init size (fun i -> if i < d then t.trail_ci.(i) else 0)
      end;
      let ci = child_index n key in
      t.trail.(d) <- n;
      t.trail_ci.(d) <- ci;
      walk t key n.ichildren.(ci) (d + 1)

(* One counted [walk] to the leaf covering [key], whose footprint
   [footprint] builds on request. *)
let descend t key =
  t.descents <- t.descents + 1;
  t.modified <- [];
  t.split_pairs <- [];
  t.depth <- walk t key t.root 0

(* The page ids of the latest [descend], root first. *)
let trail_path t =
  let path = ref [ t.last_leaf.lid ] in
  for d = t.depth - 1 downto 0 do
    path := t.trail.(d).iid :: !path
  done;
  !path

(* The leaves from [l] along the chain to the last one the latest walk
   entered. *)
let rec leaves_to t l =
  if l.lid = t.end_lid then [ l.lid ]
  else l.lid :: (match l.lnext with Some l' -> leaves_to t l' | None -> [])

(* The footprint of the latest [descend] and of what followed it: its path,
   the leaves it entered (an insert's before any split) and the pages
   split. *)
let footprint t =
  {
    path = trail_path t;
    leaves = leaves_to t t.last_leaf;
    modified = t.modified;
    splits = t.split_pairs;
  }

let find t key =
  descend t key;
  let leaf = t.last_leaf in
  let i = search_keys leaf key in
  if found_at leaf i key then Some leaf.lvals.(i) else None

let split_leaf t l : string * 'a node =
  let n = l.ln in
  let mid = (n + 1) / 2 in
  let right =
    {
      lid = fresh_id t;
      ln = n - mid;
      lkeys = Array.sub l.lkeys mid (n - mid);
      lvals = Array.sub l.lvals mid (n - mid);
      lnext = l.lnext;
    }
  in
  l.ln <- mid;
  l.lkeys <- Array.sub l.lkeys 0 mid;
  l.lvals <- Array.sub l.lvals 0 mid;
  l.lnext <- Some right;
  (right.lkeys.(0), Leaf right)

let split_internal t n : string * 'a node =
  let nk = Array.length n.ikeys in
  let mid = nk / 2 in
  let promoted = n.ikeys.(mid) in
  let right =
    {
      iid = fresh_id t;
      ikeys = Array.sub n.ikeys (mid + 1) (nk - mid - 1);
      ichildren = Array.sub n.ichildren (mid + 1) (Array.length n.ichildren - mid - 1);
    }
  in
  n.ikeys <- Array.sub n.ikeys 0 mid;
  n.ichildren <- Array.sub n.ichildren 0 (mid + 1);
  (promoted, Internal right)

(* The parent at trail level [d] absorbs its child's split into [sep]
   and [right], splitting in turn if it overflows; past the root, the tree
   grows a level. Split pages are listed top-down: each parent before the
   pages it split or absorbed, and each split as (old page, new right
   sibling). *)
let rec absorb t d sep right =
  if d < 0 then begin
    let old_root_id = node_id t.root in
    let id = fresh_id t in
    t.root <- Internal { iid = id; ikeys = [| sep |]; ichildren = [| t.root; right |] };
    t.modified <- id :: t.modified;
    t.split_pairs <- (old_root_id, id) :: t.split_pairs
  end
  else begin
    let n = t.trail.(d) and ci = t.trail_ci.(d) in
    n.ikeys <- array_insert n.ikeys ci sep;
    n.ichildren <- array_insert n.ichildren (ci + 1) right;
    if Array.length n.ichildren > t.fanout then begin
      let sep', right' = split_internal t n in
      t.modified <- n.iid :: node_id right' :: t.modified;
      t.split_pairs <- (n.iid, node_id right') :: t.split_pairs;
      absorb t (d - 1) sep' right'
    end
    else t.modified <- n.iid :: t.modified
  end

(* Add [key] at position [i] of the leaf the latest [descend] reached,
   splitting back up the trail as far as pages overflow. *)
let add t i key v =
  let l = t.last_leaf in
  leaf_insert t l i key v;
  t.size <- t.size + 1;
  t.stamp <- t.stamp + 1;
  if l.ln > t.fanout then begin
    let sep, right = split_leaf t l in
    t.modified <- [ l.lid; node_id right ];
    t.split_pairs <- [ (l.lid, node_id right) ];
    absorb t (t.depth - 1) sep right
  end

let insert t key v =
  descend t key;
  let leaf = t.last_leaf in
  let i = search_keys leaf key in
  if found_at leaf i key then begin
    leaf.lvals.(i) <- v;
    refill leaf v
  end
  else add t i key v

let find_or_add t key make =
  descend t key;
  let leaf = t.last_leaf in
  let i = search_keys leaf key in
  if found_at leaf i key then leaf.lvals.(i)
  else begin
    let v = make () in
    add t i key v;
    v
  end

let remove t key =
  descend t key;
  let l = t.last_leaf in
  let i = search_keys l key in
  found_at l i key
  && begin
       leaf_remove l i;
       t.size <- t.size - 1;
       t.stamp <- t.stamp + 1;
       true
     end

let rec leftmost_leaf = function
  | Leaf l -> l
  | Internal n -> leftmost_leaf n.ichildren.(0)

let min_key t =
  let rec first_nonempty l =
    if l.ln > 0 then Some l.lkeys.(0)
    else match l.lnext with None -> None | Some l' -> first_nonempty l'
  in
  first_nonempty (leftmost_leaf t.root)

let max_key t =
  let rec go node =
    match node with
    | Leaf l -> if l.ln = 0 then None else Some l.lkeys.(l.ln - 1)
    | Internal n -> go n.ichildren.(Array.length n.ichildren - 1)
  in
  (* Lazy deletion can empty a rightmost leaf; fall back to a full scan of
     the leaf chain in that unlikely case. *)
  match go t.root with
  | Some k -> Some k
  | None ->
      let best = ref None in
      let rec walk l =
        if l.ln > 0 then best := Some l.lkeys.(l.ln - 1);
        match l.lnext with None -> () | Some l' -> walk l'
      in
      walk (leftmost_leaf t.root);
      !best

(* Least key strictly greater than [key] whose value satisfies [p], if any:
   one descent, then along the leaf chain. *)
let successor_where t key p =
  descend t key;
  let leaf = t.last_leaf in
  let rec from_leaf l i =
    if i < l.ln then
      if l.lkeys.(i) > key && p l.lvals.(i) then Some l.lkeys.(i) else from_leaf l (i + 1)
    else match l.lnext with None -> None | Some l' -> from_leaf l' 0
  in
  from_leaf leaf (search_keys leaf key)

let successor t key = successor_where t key (fun _ -> true)

(* Inclusive range iteration; [f] may not modify the tree, and may raise
   [Exit] to stop the scan early (LIMIT queries). The leaf where the scan
   stops is the last its footprint covers. *)
let iter_range t ?lo ?hi f =
  descend t (match lo with Some k -> k | None -> "");
  let rec visit l i =
    if i < l.ln then begin
      let k = l.lkeys.(i) in
      let below_hi = match hi with None -> true | Some h -> k <= h in
      if below_hi then begin
        let above_lo = match lo with None -> true | Some lo -> k >= lo in
        if above_lo then f k l.lvals.(i);
        visit l (i + 1)
      end
    end
    else
      match l.lnext with
      | None -> ()
      | Some l' -> (
          (* Only continue if the next leaf can contain in-range keys. *)
          match hi with
          | Some h when l'.ln > 0 && l'.lkeys.(0) > h -> ()
          | _ ->
              t.end_lid <- l'.lid;
              visit l' 0)
  in
  try visit t.last_leaf 0 with Exit -> ()

let fold_range t ?lo ?hi ~init ~f =
  let acc = ref init in
  iter_range t ?lo ?hi (fun k v -> acc := f !acc k v);
  !acc

let to_list t =
  List.rev (fold_range t ?lo:None ?hi:None ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

let height t =
  let rec go node acc = match node with Leaf _ -> acc | Internal n -> go n.ichildren.(0) (acc + 1) in
  go t.root 1

(* All page ids in the tree, internals before their children (BFS-ish
   depth-first order). *)
let all_pages t =
  let acc = ref [] in
  let rec go node =
    acc := node_id node :: !acc;
    match node with Leaf _ -> () | Internal n -> Array.iter go n.ichildren
  in
  go t.root;
  List.rev !acc

let page_count t =
  let rec go node acc =
    match node with
    | Leaf _ -> acc + 1
    | Internal n -> Array.fold_left (fun acc c -> go c acc) (acc + 1) n.ichildren
  in
  go t.root 0

exception Invariant_violation of string

let check_invariants t =
  let fail fmt = Fmt.kstr (fun s -> raise (Invariant_violation s)) fmt in
  let check_sorted keys what =
    Array.iteri
      (fun i k -> if i > 0 && keys.(i - 1) >= k then fail "%s keys not strictly sorted" what)
      keys
  in
  let rec depth node = match node with Leaf _ -> 1 | Internal n -> 1 + depth n.ichildren.(0) in
  let d = depth t.root in
  let count = ref 0 in
  let rec go node level ~lo ~hi =
    match node with
    | Leaf l ->
        if level <> d then fail "leaf at level %d, expected %d" level d;
        let size = Array.length l.lkeys in
        if size <> Array.length l.lvals then fail "leaf key/val mismatch";
        if l.ln > t.fanout then fail "leaf overflow: %d keys for fanout %d" l.ln t.fanout;
        if l.ln > size || size > t.fanout + 1 then fail "leaf of %d keys in %d slots" l.ln size;
        if l.ln = 0 && size > 0 then fail "empty leaf keeps %d slots" size;
        let keys = Array.sub l.lkeys 0 l.ln and vals = Array.sub l.lvals 0 l.ln in
        for i = l.ln to size - 1 do
          if not (Array.exists (fun v -> v == l.lvals.(i)) vals) then
            fail "spare slot %d of leaf %d holds a value not in the leaf" i l.lid
        done;
        check_sorted keys "leaf";
        Array.iter
          (fun k ->
            (match lo with Some lo when k < lo -> fail "leaf key below bound" | _ -> ());
            match hi with Some hi when k >= hi -> fail "leaf key above bound" | _ -> ())
          keys;
        count := !count + l.ln
    | Internal n ->
        let nk = Array.length n.ikeys and nc = Array.length n.ichildren in
        if nc <> nk + 1 then fail "internal child count %d for %d keys" nc nk;
        if nc > t.fanout then fail "internal overflow";
        check_sorted n.ikeys "internal";
        for i = 0 to nc - 1 do
          let lo' = if i = 0 then lo else Some n.ikeys.(i - 1) in
          let hi' = if i = nc - 1 then hi else Some n.ikeys.(i) in
          go n.ichildren.(i) (level + 1) ~lo:lo' ~hi:hi'
        done
  in
  go t.root 1 ~lo:None ~hi:None;
  if !count <> t.size then fail "size %d but counted %d keys" t.size !count;
  (* Leaf chain must enumerate exactly the sorted key set. *)
  let chain = ref [] in
  let rec walk l =
    for i = 0 to l.ln - 1 do
      chain := l.lkeys.(i) :: !chain
    done;
    match l.lnext with None -> () | Some l' -> walk l'
  in
  walk (leftmost_leaf t.root);
  let chain = List.rev !chain in
  if List.length chain <> t.size then fail "leaf chain length mismatch";
  ignore (List.fold_left (fun prev k ->
      (match prev with Some p when p >= k -> fail "leaf chain out of order" | _ -> ());
      Some k) None chain)
