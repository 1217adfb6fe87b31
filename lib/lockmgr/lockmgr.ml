(* Lock manager with the paper's SIREAD mode.

   Modes: S (shared), X (exclusive) and SIREAD. S and X behave as in a
   classical strict-2PL lock manager, with FIFO queuing and deadlock
   handling. SIREAD (§3.2) never blocks and never delays anyone; it is a
   lock-table *annotation* recording that an SI transaction read an item, so
   that a later X acquisition can detect the rw-dependency. The engine layer
   lists the owners of the other mode with {!holders_with} after each grant
   to run markConflict.

   Resources are strings; the engine encodes row keys, gap keys and page ids
   into them. Owners are integer transaction ids.

   Storage. A hold (one owner's modes on one lock) is one record that is a
   cell in two chains: its lock's holders and its owner's held set, as
   PostgreSQL's SSI links each SIREAD lock on its target's and its
   transaction's lists. A chain is a hash table threaded through the holds'
   own links, laid out exactly as a [Stdlib.Hashtbl] with the same inserts
   and removes, so it is walked in the same order: that order decides
   conflict-marking order and wake order, which are part of the simulation.
   The lock table is one open-addressed array of lock entries, probed
   linearly on each resource's hash, which is computed once when an entry
   takes its resource; nothing observes its order. Lock entries and held
   sets that empty are free-listed through themselves for reuse.

   Deadlock detection is either [Immediate] (a waits-for cycle check on every
   block, InnoDB-style) or [Periodic dt] (a detector process that scans every
   [dt] simulated seconds, like Berkeley DB's db_perf setup in §6.1 — the
   detection delay is itself a measured effect in Fig 6.2). *)

type mode = S | X | Siread

let mode_to_string = function S -> "S" | X -> "X" | Siread -> "SIREAD"

type owner = int

exception Deadlock_victim

(* Only S-X, X-S and X-X block; SIREAD conflicts with nothing. *)
let blocks requested held =
  match (requested, held) with
  | X, X | X, S | S, X -> true
  | S, S | Siread, _ | _, Siread -> false

(* A mode is one bit of a hold's [modes]. *)
let s_bit = 1

let x_bit = 2

let siread_bit = 4

let bit = function S -> s_bit | X -> x_bit | Siread -> siread_bit

(* 1 if [modes] has [b], else 0. *)
let count b modes = if modes land b = 0 then 0 else 1

(* The modes [howner] holds on [hlock], at least one while the hold is in
   its two chains; it leaves both when its last mode goes. *)
type hold = {
  mutable modes : int;
  howner : owner;
  hlock : lock;
  mutable next_holder : hold; (* in [hlock]'s holder chain *)
  mutable next_held : hold; (* in [howner]'s held set *)
}

(* A hash table of holds linked through their [side]'s field. A lock's
   holders are bucketed by [Hashtbl.hash] of the owner, an owner's held set
   by its locks' [rhash]. *)
and chain = { side : side; mutable buckets : hold array; mutable count : int }

and side = Holders | Held

and waiter = { wowner : owner; wmode : mode; waker : Sim.waker; wlock : lock }

and lock = {
  mutable resource : string; (* reassigned when a free-listed entry is reused *)
  mutable rhash : int; (* [Hashtbl.hash resource] *)
  holders : chain;
  mutable queue : waiter list; (* FIFO: head is served first; blocked owners only *)
  mutable n_s : int; (* holds with S *)
  mutable n_x : int; (* holds with X *)
  mutable next_free : lock; (* in the free list, while the entry is there *)
}

(* The end of a chain, the empty slot of the lock table and the end of the
   lock free list. *)
let rec nil = { modes = 0; howner = min_int; hlock = no_lock; next_holder = nil; next_held = nil }

and no_lock =
  {
    resource = "";
    rhash = 0;
    holders = { side = Holders; buckets = [||]; count = 0 };
    queue = [];
    n_s = 0;
    n_x = 0;
    next_free = no_lock;
  }

let has h mode = h.modes land bit mode <> 0

(* Chains keep [Stdlib.Hashtbl]'s layout: 16 buckets when made or reset, a
   new cell at the head of its bucket, and a doubling once the count
   exceeds twice the buckets that appends each old bucket's cells, in
   order, to the new buckets. A walk goes from bucket 0 up, each bucket
   from its head, so it visits cells in [Hashtbl.fold]'s order. *)
module Chain = struct
  let create side = { side; buckets = Array.make 16 nil; count = 0 }

  let next c h = match c.side with Holders -> h.next_holder | Held -> h.next_held

  let set_next c h n = match c.side with Holders -> h.next_holder <- n | Held -> h.next_held <- n

  let hash c h = match c.side with Holders -> Hashtbl.hash h.howner | Held -> h.hlock.rhash

  let resize c =
    let n = 2 * Array.length c.buckets in
    let old = c.buckets and buckets = Array.make n nil and tails = Array.make n nil in
    c.buckets <- buckets;
    for i = 0 to Array.length old - 1 do
      let h = ref old.(i) in
      while !h != nil do
        let cell = !h in
        h := next c cell;
        let j = hash c cell land (n - 1) in
        if tails.(j) == nil then buckets.(j) <- cell else set_next c tails.(j) cell;
        tails.(j) <- cell
      done
    done;
    Array.iter (fun tail -> if tail != nil then set_next c tail nil) tails

  let add c h =
    let i = hash c h land (Array.length c.buckets - 1) in
    set_next c h c.buckets.(i);
    c.buckets.(i) <- h;
    c.count <- c.count + 1;
    if c.count > 2 * Array.length c.buckets then resize c

  (* Unlink [h], which is in [c]. *)
  let remove c h =
    let i = hash c h land (Array.length c.buckets - 1) in
    let first = c.buckets.(i) in
    if first == h then c.buckets.(i) <- next c h
    else begin
      let p = ref first in
      while next c !p != h do
        p := next c !p
      done;
      set_next c !p (next c h)
    end;
    c.count <- c.count - 1

  (* An emptied chain, before it is pooled. *)
  let reset c = if Array.length c.buckets > 16 then c.buckets <- Array.make 16 nil

  let fold c f acc =
    let acc = ref acc in
    for i = 0 to Array.length c.buckets - 1 do
      let h = ref c.buckets.(i) in
      while !h != nil do
        acc := f !h !acc;
        h := next c !h
      done
    done;
    !acc

  (* Walk [c], unlinking each cell for which [keep] is false. [keep] may
     change anything but [c]. *)
  let filter c keep =
    for i = 0 to Array.length c.buckets - 1 do
      let prev = ref nil and h = ref c.buckets.(i) in
      while !h != nil do
        let cell = !h in
        h := next c cell;
        if keep cell then prev := cell
        else begin
          if !prev == nil then c.buckets.(i) <- !h else set_next c !prev !h;
          c.count <- c.count - 1
        end
      done
    done
end

(* What one owner holds: its holds, and how many of them include SIREAD. *)
type held = { resources : chain; mutable sireads : int; mutable next_set : held }

let rec no_set =
  { resources = { side = Held; buckets = [||]; count = 0 }; sireads = 0; next_set = no_set }

type detection = Immediate | Periodic of float

type t = {
  sim : Sim.t;
  detection : detection;
  mutable slots : lock array; (* the lock table; [no_lock] marks a free slot *)
  mutable n_locks : int;
  owned : (owner, held) Hashtbl.t;
  waiting : (owner, waiter) Hashtbl.t; (* blocked owner -> its queue entry *)
  mutable free_locks : lock;
  mutable free_sets : held;
  mutable siread_total : int; (* SIREAD holds in the whole table *)
  mutable requests : int;
  mutable waits : int;
  mutable deadlocks : int;
  mutable detector_running : bool;
  mutable obs : Obs.t; (* observability sink; Obs.disabled costs one branch *)
  (* Footprint hook for the DPOR explorer: called on every acquisition with
     the owner, whether the access is a write (X; S and SIREAD are reads)
     and the resource. [None] (the default) costs one branch per request. *)
  mutable on_touch : (int -> bool -> string -> unit) option;
}

(* The lock table starts small: nothing depends on its order, and the DPOR
   explorer builds one engine per schedule. *)
let create ?(detection = Immediate) sim =
  {
    sim;
    detection;
    slots = Array.make 16 no_lock;
    n_locks = 0;
    owned = Hashtbl.create 16;
    waiting = Hashtbl.create 16;
    free_locks = no_lock;
    free_sets = no_set;
    siread_total = 0;
    requests = 0;
    waits = 0;
    deadlocks = 0;
    detector_running = false;
    obs = Obs.disabled;
    on_touch = None;
  }

let set_obs t obs = t.obs <- obs

let set_on_touch t f = t.on_touch <- f

(* Every resource [owner] currently holds at least one mode on (sorted, so
   callers iterating it stay deterministic). *)
let owned_resources t owner =
  match Hashtbl.find_opt t.owned owner with
  | None -> []
  | Some held ->
      List.sort compare (Chain.fold held.resources (fun h acc -> h.hlock.resource :: acc) [])

let sireads_of t owner =
  match Hashtbl.find t.owned owner with held -> held.sireads | exception Not_found -> 0

let siread_entries t = t.siread_total

let rec probe slots hash resource i =
  let l = slots.(i) in
  if l == no_lock || (l.rhash = hash && String.equal l.resource resource) then i
  else probe slots hash resource ((i + 1) land (Array.length slots - 1))

(* The slot of [resource]'s entry, or the free slot that ends its probe. *)
let slot_of slots hash resource = probe slots hash resource (hash land (Array.length slots - 1))

let find_lock t resource = t.slots.(slot_of t.slots (Hashtbl.hash resource) resource)

(* Twice the slots, for a table more than half full. *)
let grow t =
  let slots = Array.make (2 * Array.length t.slots) no_lock in
  let place l = if l != no_lock then slots.(slot_of slots l.rhash l.resource) <- l in
  Array.iter place t.slots;
  t.slots <- slots

let get_lock t resource =
  let hash = Hashtbl.hash resource and slots = t.slots in
  let i = slot_of slots hash resource in
  if slots.(i) != no_lock then slots.(i)
  else begin
    let l = t.free_locks in
    let l =
      if l == no_lock then { no_lock with holders = Chain.create Holders }
      else begin
        t.free_locks <- l.next_free;
        l
      end
    in
    l.resource <- resource;
    l.rhash <- hash;
    slots.(i) <- l;
    t.n_locks <- t.n_locks + 1;
    if 2 * t.n_locks > Array.length slots then grow t;
    l
  end

(* Free the slot [hole], scanning its cluster past [j]: an entry whose
   probe starts after the hole stays, any other moves back into the hole
   and leaves a new one, so every probe still reaches its entry without
   passing a free slot. *)
let rec shift_back slots hole j =
  let mask = Array.length slots - 1 in
  let j = (j + 1) land mask in
  let m = slots.(j) in
  if m == no_lock then slots.(hole) <- no_lock
  else if (j - m.rhash) land mask < (j - hole) land mask then shift_back slots hole j
  else begin
    slots.(hole) <- m;
    shift_back slots j j
  end

(* Drop an entry nobody holds or waits for, keeping it for reuse. *)
let drop_if_unused t l =
  if l.holders.count = 0 && l.queue = [] then begin
    let i = slot_of t.slots l.rhash l.resource in
    shift_back t.slots i i;
    t.n_locks <- t.n_locks - 1;
    Chain.reset l.holders;
    l.next_free <- t.free_locks;
    t.free_locks <- l
  end

(* [owner]'s held set, made (or taken from the pool) if it has none. *)
let held_set t owner =
  match Hashtbl.find t.owned owner with
  | held -> held
  | exception Not_found ->
      let held = t.free_sets in
      let held =
        if held == no_set then { resources = Chain.create Held; sireads = 0; next_set = no_set }
        else begin
          t.free_sets <- held.next_set;
          held
        end
      in
      Hashtbl.replace t.owned owner held;
      held

(* Forget an owner whose held set emptied, keeping the set for reuse. *)
let drop_owned_if_empty t owner held =
  if held.resources.count = 0 then begin
    Hashtbl.remove t.owned owner;
    Chain.reset held.resources;
    held.next_set <- t.free_sets;
    t.free_sets <- held
  end

(* The one place a hold's modes change, so every count follows them: its
   lock's S and X counts, and the SIREAD counts of the whole table and of
   [held], the held set of the hold's owner. *)
let set_modes t held h modes =
  let l = h.hlock and was = h.modes in
  h.modes <- modes;
  l.n_s <- l.n_s + count s_bit modes - count s_bit was;
  l.n_x <- l.n_x + count x_bit modes - count x_bit was;
  let d = count siread_bit modes - count siread_bit was in
  held.sireads <- held.sireads + d;
  t.siread_total <- t.siread_total + d

(* Take [bits] off the hold [h]. A hold left with no mode leaves its lock's
   holders, and the result says whether it stays in [held], its owner's
   held set; the caller takes it out of that set. *)
let clear_modes t held h bits =
  set_modes t held h (h.modes land lnot bits);
  if h.modes = 0 then Chain.remove h.hlock.holders h;
  h.modes <> 0

(* [owner]'s hold on [l], or [nil], which holds no mode. *)
let find_hold l owner =
  let c = l.holders in
  let h = ref c.buckets.(Hashtbl.hash owner land (Array.length c.buckets - 1)) in
  while !h != nil && !h.howner <> owner do
    h := !h.next_holder
  done;
  !h

let holds_mode t ~owner ~mode resource =
  let l = find_lock t resource in
  l != no_lock && has (find_hold l owner) mode

(* Modes currently held by [owner] on [resource]. *)
let holds_of t ~owner resource =
  List.filter (fun mode -> holds_mode t ~owner ~mode resource) [ X; S; Siread ]

(* Add the owner of [h] to [acc] if [h] has the mode: one function per
   mode, so a fold over a lock's holders builds no closure. *)
let add_s h acc = if h.modes land s_bit = 0 then acc else h.howner :: acc

let add_x h acc = if h.modes land x_bit = 0 then acc else h.howner :: acc

let add_siread h acc = if h.modes land siread_bit = 0 then acc else h.howner :: acc

let holders_with t resource mode =
  let l = find_lock t resource in
  if l == no_lock then []
  else
    match mode with
    | S -> if l.n_s = 0 then [] else Chain.fold l.holders add_s []
    | X -> if l.n_x = 0 then [] else Chain.fold l.holders add_x []
    | Siread -> Chain.fold l.holders add_siread []

let holders t resource =
  let add h acc =
    List.fold_left
      (fun acc m -> if has h m then (h.howner, m) :: acc else acc)
      acc [ X; S; Siread ]
  in
  Chain.fold (find_lock t resource).holders add []

let queued t resource = List.map (fun w -> (w.wowner, w.wmode)) (find_lock t resource).queue

(* Whether holding [h] blocks a request for [mode]. SIREAD blocks nothing. *)
let holding_blocks h mode = (has h X && blocks mode X) || (has h S && blocks mode S)

(* The modes [owner] holds on [l]. *)
let own_modes l owner = (find_hold l owner).modes

(* Would a request for [mode] by an owner holding [own] on [l] conflict
   with another owner's hold? The S and X counts include the requester's
   own hold, which never blocks it. *)
let conflicts_with_holders l ~own ~mode =
  (blocks mode X && l.n_x > count x_bit own) || (blocks mode S && l.n_s > count s_bit own)

let rec queue_conflicts owner mode = function
  | [] -> false
  | w :: ws -> (w.wowner <> owner && blocks mode w.wmode) || queue_conflicts owner mode ws

let conflicts_with_queue l ~owner ~mode = queue_conflicts owner mode l.queue

(* Grant [mode]; granting a mode already held touches no chain. A new hold
   goes at the head of its bucket in both chains. *)
let do_grant t l ~owner ~mode =
  let b = bit mode and h = find_hold l owner in
  if h != nil then begin
    if h.modes land b = 0 then set_modes t (Hashtbl.find t.owned owner) h (h.modes lor b)
  end
  else begin
    let h = { modes = 0; howner = owner; hlock = l; next_holder = nil; next_held = nil } in
    Chain.add l.holders h;
    let held = held_set t owner in
    Chain.add held.resources h;
    set_modes t held h b
  end

(* The one definition of a waits-for edge. A request by [owner] for [mode]
   on [l] waits for every other owner holding a mode it conflicts with, and
   for every waiter in [ahead] that asks for a conflicting mode, up to
   the request's own entry: [ahead] is the whole queue for a request not yet
   queued, or [[]] for a conversion, which goes to the queue front. [f] is
   called once per edge. *)
let iter_blockers l ~owner ~mode ahead f =
  Chain.fold l.holders
    (fun h () -> if h.howner <> owner && holding_blocks h mode then f h.howner)
    ();
  let rec go = function
    | w :: rest when w.wowner <> owner ->
        if blocks mode w.wmode then f w.wowner;
        go rest
    | _ -> ()
  in
  go ahead

(* Blocked owners and who they wait for, over the whole lock table. Only
   the periodic detector and deadlock certificates need the full graph. *)
let waits_for_edges t =
  let edges = ref [] in
  Array.iter
    (fun l ->
      List.iter
        (fun w ->
          iter_blockers l ~owner:w.wowner ~mode:w.wmode l.queue (fun o ->
              edges := (w.wowner, o) :: !edges))
        l.queue)
    t.slots;
  !edges

(* The edges a request by [owner] for [mode] on [l] would add. *)
let request_edges l ~owner ~mode ahead =
  let edges = ref [] in
  iter_blockers l ~owner ~mode ahead (fun o -> edges := (owner, o) :: !edges);
  !edges

(* Would [owner], waiting on [l] for [mode] behind [ahead], close a
   waits-for cycle? A depth-first search from the requester: a blocked
   owner's successors are the blockers of its one request. It visits only
   what the requester can reach, instead of building the graph of the
   whole lock table. Both detectors use it: [Immediate] before a request
   waits, [Periodic] for an owner already queued. *)
let closes_cycle t l ~owner ~mode ahead =
  let visited = Hashtbl.create 8 in
  let rec reaches_owner l ~owner:o ~mode ahead =
    match iter_blockers l ~owner:o ~mode ahead (fun b -> if visit b then raise_notrace Exit) with
    | () -> false
    | exception Exit -> true
  and visit b =
    b = owner
    || (not (Hashtbl.mem visited b))
       && begin
            Hashtbl.replace visited b ();
            match Hashtbl.find_opt t.waiting b with
            | None -> false
            | Some w -> reaches_owner w.wlock ~owner:b ~mode:w.wmode w.wlock.queue
          end
  in
  reaches_owner l ~owner ~mode ahead

(* The actual waits-for cycle through [start]: a path [start; a; b; ...]
   where each owner waits for the next and the last waits for [start].
   Successors are explored in sorted order so the extracted witness is
   deterministic. Returns [[start]] if no cycle exists (defensive; callers
   only ask after {!closes_cycle}). *)
let cycle_path edges start =
  let adj = Hashtbl.create 16 in
  List.iter
    (fun (a, b) ->
      let cur = try Hashtbl.find adj a with Not_found -> [] in
      Hashtbl.replace adj a (b :: cur))
    edges;
  let succs n = List.sort_uniq compare (try Hashtbl.find adj n with Not_found -> []) in
  let visited = Hashtbl.create 16 in
  let rec dfs node path =
    let ss = succs node in
    if List.mem start ss then Some (List.rev path)
    else
      List.fold_left
        (fun acc s ->
          match acc with
          | Some _ -> acc
          | None ->
              if Hashtbl.mem visited s then None
              else begin
                Hashtbl.replace visited s ();
                dfs s (s :: path)
              end)
        None ss
  in
  match dfs start [ start ] with Some p -> p | None -> [ start ]

(* Certificate support: the resource each owner in [cycle] is blocked on.
   [extra] supplies the requester's own (owner, resource) pair when it has
   not been entered into [t.waiting] yet (Immediate detection fires before
   enqueueing). *)
let cycle_waits t ?extra cycle =
  List.filter_map
    (fun o ->
      match extra with
      | Some (o', r) when o' = o -> Some (o, r)
      | _ -> Option.map (fun w -> (o, w.wlock.resource)) (Hashtbl.find_opt t.waiting o))
    cycle

(* DOT snapshot of the waits-for graph at deadlock time: every blocked owner
   and the edges that close the cycle; the victim is filled red. *)
let waits_dot t ?extra ~victim ~cycle edges =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph deadlock {\n";
  Buffer.add_string buf "  rankdir=LR;\n  node [shape=box fontname=\"monospace\"];\n";
  let owners =
    List.sort_uniq compare (cycle @ List.concat_map (fun (a, b) -> [ a; b ]) edges)
  in
  let waits = cycle_waits t ?extra owners in
  List.iter
    (fun o ->
      let wait =
        match List.assoc_opt o waits with
        | Some r -> "\\nwaits: " ^ Obs.dot_escape r
        | None -> ""
      in
      let attrs =
        if o = victim then " color=red style=filled fillcolor=\"#ffdddd\""
        else if List.mem o cycle then " peripheries=2"
        else ""
      in
      Buffer.add_string buf (Printf.sprintf "  t%d [label=\"T%d%s\"%s];\n" o o wait attrs))
    owners;
  List.iter
    (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "  t%d -> t%d;\n" a b))
    (List.sort_uniq compare edges);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Record the deadlock certificate: the cycle through [victim] in [edges]
   (owners in wait order), each member's blocked resource, and a waits-for
   DOT snapshot. Callers build [edges] only when the sink has provenance
   on. *)
let emit_deadlock_cert t ?extra ~victim edges =
  let cycle = cycle_path edges victim in
  Obs.add_cert t.obs
    {
      Obs.c_ts = Sim.now t.sim;
      c_reason = "deadlock";
      c_cert =
        Obs.Deadlock_cycle
          { dc_victim = victim; dc_cycle = cycle; dc_waits = cycle_waits t ?extra cycle };
      c_dot = waits_dot t ?extra ~victim ~cycle edges;
    }

(* FIFO: grant from the head while compatible; stop at the first waiter
   that must still wait. Returns the waiters left. *)
let rec grant_from t l = function
  | w :: rest when not (conflicts_with_holders l ~own:(own_modes l w.wowner) ~mode:w.wmode) ->
      do_grant t l ~owner:w.wowner ~mode:w.wmode;
      Hashtbl.remove t.waiting w.wowner;
      Sim.wake t.sim w.waker;
      grant_from t l rest
  | queue -> queue

let grant_waiters t l = l.queue <- grant_from t l l.queue

(* Raise [exn] in blocked waiter [w]. Its entry leaves the queue at once, so
   a queue holds only waiters that can still be granted. *)
let kill_waiter t w exn =
  Hashtbl.remove t.waiting w.wowner;
  w.wlock.queue <- List.filter (fun w' -> w' != w) w.wlock.queue;
  Sim.kill t.sim w.waker exn;
  grant_waiters t w.wlock

(* Kill the youngest (largest id) blocked owner on a waits-for cycle, if
   any. Killing one may break several cycles; the next pass handles the
   rest. *)
let run_detector_pass t =
  let blocked = Hashtbl.fold (fun _ w acc -> w :: acc) t.waiting [] in
  let on_cycle w = closes_cycle t w.wlock ~owner:w.wowner ~mode:w.wmode w.wlock.queue in
  match List.find_opt on_cycle (List.sort (fun a b -> compare b.wowner a.wowner) blocked) with
  | None -> false
  | Some w ->
      let victim = w.wowner in
      t.deadlocks <- t.deadlocks + 1;
      (* Certificate before the victim is removed from [t.waiting], so its
         own blocked resource is cited. *)
      if Obs.provenance_on t.obs then emit_deadlock_cert t ~victim (waits_for_edges t);
      if Obs.tracing t.obs then
        Obs.emit t.obs ~ts:(Sim.now t.sim) (Obs.Deadlock { victim; resource = w.wlock.resource });
      kill_waiter t w Deadlock_victim;
      true

let start_detector t =
  match t.detection with
  | Immediate -> ()
  | Periodic dt ->
      if not t.detector_running then begin
        t.detector_running <- true;
        (* The detector terminates once nothing is blocked (so simulations
           can drain their event queues); the next blocking request restarts
           it. *)
        let rec loop () =
          Sim.delay t.sim dt;
          while run_detector_pass t do
            ()
          done;
          if Hashtbl.length t.waiting > 0 then loop () else t.detector_running <- false
        in
        Sim.spawn t.sim loop
      end

let acquire t ~owner ~mode resource =
  t.requests <- t.requests + 1;
  (match t.on_touch with Some f -> f owner (mode = X) resource | None -> ());
  let l = get_lock t resource in
  (* Re-entrant and conversion requests by an existing holder must not queue
     behind strangers (a holder waiting behind someone who waits for it
     would self-deadlock); they only wait for conflicting *holders*, and
     when they do wait, they wait at the front of the queue. A SIREAD
     request is granted at once, so only S and X look up their own hold. *)
  let own = if mode = Siread then 0 else own_modes l owner in
  let already_holds = own <> 0 in
  if
    mode = Siread
    || (not (conflicts_with_holders l ~own ~mode))
       && (already_holds || not (conflicts_with_queue l ~owner ~mode))
  then begin
    do_grant t l ~owner ~mode;
    if Obs.tracing t.obs then
      Obs.emit t.obs ~ts:(Sim.now t.sim)
        (Obs.Lock_acquire { owner; mode = mode_to_string mode; resource })
  end
  else begin
    t.waits <- t.waits + 1;
    (match t.detection with
    | Immediate ->
        (* Would waiting close a cycle? A conversion (already_holds) goes to
           the queue front: it never waits behind queued strangers, so they
           add no edges. *)
        let ahead = if already_holds then [] else l.queue in
        if closes_cycle t l ~owner ~mode ahead then begin
          (* Certificate first: the requester is the victim, and its wait is
             only hypothetical (never entered into [t.waiting]), so the
             resource is supplied explicitly. *)
          if Obs.provenance_on t.obs then
            emit_deadlock_cert t ~extra:(owner, resource) ~victim:owner
              (request_edges l ~owner ~mode ahead @ waits_for_edges t);
          t.deadlocks <- t.deadlocks + 1;
          if Obs.tracing t.obs then
            Obs.emit t.obs ~ts:(Sim.now t.sim) (Obs.Deadlock { victim = owner; resource });
          raise Deadlock_victim
        end
    | Periodic _ -> start_detector t);
    let blocked_at = Sim.now t.sim in
    if Obs.tracing t.obs then
      Obs.emit t.obs ~ts:blocked_at
        (Obs.Lock_block { owner; mode = mode_to_string mode; resource });
    let enqueue waker =
      let w = { wowner = owner; wmode = mode; waker; wlock = l } in
      Hashtbl.replace t.waiting owner w;
      if already_holds then l.queue <- w :: l.queue else l.queue <- l.queue @ [ w ]
    in
    (* Only {!kill_waiter} raises here, and it has already dequeued us. *)
    (try Sim.suspend t.sim enqueue
     with e ->
       if Obs.tracing t.obs then
         Obs.emit t.obs ~ts:(Sim.now t.sim)
           (Obs.Span_e { tid = owner; name = "lock-wait"; cat = "lock" });
       raise e);
    (* When woken normally the grant was already performed by grant_waiters. *)
    if Obs.on t.obs then begin
      let now = Sim.now t.sim in
      Obs.emit t.obs ~ts:now
        (Obs.Lock_grant
           { owner; mode = mode_to_string mode; resource; waited = now -. blocked_at })
    end
  end

(* An owner whose last hold goes here keeps its (empty) held set. *)
let release_one t ~owner ~mode resource =
  let l = find_lock t resource in
  if l != no_lock then begin
    let h = find_hold l owner in
    if has h mode then begin
      let held = Hashtbl.find t.owned owner in
      if not (clear_modes t held h (bit mode)) then Chain.remove held.resources h;
      grant_waiters t l;
      drop_if_unused t l
    end
  end

let rec wake_waited t = function
  | [] -> ()
  | l :: ls ->
      grant_waiters t l;
      drop_if_unused t l;
      wake_waited t ls

(* Release every lock [owner] holds, optionally keeping SIREAD entries (a
   committing SSI transaction keeps them while suspended, §3.3).

   The walk goes through the held set in place, in its walk order. A
   release touches only its own lock, so that order changes nothing but
   the order in which waiters wake, which is part of the simulation: locks
   with waiters are served after the walk, last visited first. The walk is
   written out, with no closure, so a release allocates only for the locks
   with waiters it lists. *)
let release_all ?(keep_siread = false) t owner =
  if Obs.tracing t.obs then
    Obs.emit t.obs ~ts:(Sim.now t.sim) (Obs.Lock_release_all { owner; kept_siread = keep_siread });
  match Hashtbl.find t.owned owner with
  | exception Not_found -> ()
  | held ->
      let bits = if keep_siread then s_bit lor x_bit else s_bit lor x_bit lor siread_bit in
      let c = held.resources in
      let waited = ref [] in
      for i = 0 to Array.length c.buckets - 1 do
        let h = ref c.buckets.(i) in
        while !h != nil do
          let cell = !h in
          h := cell.next_held;
          if not (clear_modes t held cell bits) then Chain.remove c cell;
          let l = cell.hlock in
          if l.queue = [] then drop_if_unused t l else waited := l :: !waited
        done
      done;
      wake_waited t !waited;
      drop_owned_if_empty t owner held

(* Move every SIREAD annotation of [owner] onto [to_owner], merging with any
   the target already holds there (SIREAD is a set-like annotation: one entry
   per (owner, resource) is enough). S/X holds are untouched — callers
   transfer only committed suspended owners, which hold nothing else. SIREAD
   blocks nobody, so no waiter can become grantable. Used by
   committed-transaction summarization to pool old owners' entries under one
   sentinel owner, bounding the lock table. Returns the transferred
   resources. *)
let transfer_sireads t ~owner ~to_owner =
  match Hashtbl.find t.owned owner with
  | exception Not_found -> []
  | held ->
      (* Taken off in walk order, given to [to_owner] last taken first, as
         in [release_all]: that is the order of the returned list and of
         [to_owner]'s new holds. *)
      let taken = ref [] in
      Chain.filter held.resources (fun h ->
          h.modes land siread_bit = 0
          || begin
               taken := h.hlock :: !taken;
               clear_modes t held h siread_bit
             end);
      List.iter (fun l -> do_grant t l ~owner:to_owner ~mode:Siread) !taken;
      drop_owned_if_empty t owner held;
      List.map (fun l -> l.resource) !taken

(* Abort an owner that is currently blocked: raise [exn] inside it. *)
let cancel_wait t owner exn =
  match Hashtbl.find_opt t.waiting owner with
  | None -> false
  | Some w ->
      kill_waiter t w exn;
      true

let is_waiting t owner = Hashtbl.mem t.waiting owner

let lock_table_size t = Array.fold_left (fun acc l -> acc + l.holders.count) 0 t.slots

let requests t = t.requests

let waits t = t.waits

let deadlocks t = t.deadlocks
