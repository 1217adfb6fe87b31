(* Abort provenance: structured certificates explaining *why* the engine
   aborted a transaction, plus a Graphviz DOT snapshot of the live
   dependency graph at decision time.

   An SSI [Unsafe] abort exists only because a dangerous structure
   T_in ->rw T_pivot ->rw T_out was found (§3; Fekete et al.'s pivot); the
   certificate records that triple with the resource and detection source
   behind each edge, the commit-state of the endpoints, and which
   victim-policy rule fired. First-committer-wins aborts carry the blocking
   version; deadlock certificates are built by the lock manager, which owns
   the waits-for graph.

   Everything here is gated on [Obs.provenance_on]: with provenance off no
   edge detail is logged and no certificate is built, so the hot path pays
   a single branch. *)

open Internal

let on db = Obs.provenance_on db.obs [@@inline]

let state_of (t : txn) : Obs.endpoint_state =
  match t.state with
  | Active -> Obs.Ep_active
  | Committing -> Obs.Ep_committing
  | Committed -> Obs.Ep_committed
  | Aborted -> Obs.Ep_aborted

(* Log a detected rw-antidependency with its resource on both endpoints, so
   a later certificate naming this pair can cite the key/page behind the
   edge. Observability only; never changes conflict flags. *)
let record_edge ~(reader : txn) ~(writer : txn) ~source ~resource =
  if on reader.db then begin
    let e =
      { Obs.ce_reader = reader.id; ce_writer = writer.id; ce_source = source;
        ce_resource = resource }
    in
    reader.out_edges <- e :: reader.out_edges;
    writer.in_edges <- e :: writer.in_edges
  end

(* The [mark_unknown_writer] case: the version's creator is gone
   (bulk-loaded data); the conservative self-flag gets an edge with writer
   id 0. *)
let record_unknown_edge ~(reader : txn) ~resource =
  if on reader.db then
    reader.out_edges <-
      { Obs.ce_reader = reader.id; ce_writer = 0; ce_source = Obs.Unknown_writer;
        ce_resource = resource }
      :: reader.out_edges

(* Bounded-memory mode: an edge whose other endpoint was folded into the
   summary table; the sentinel owner id stands in for the gone transaction.
   [incoming] says the summarized side is the reader (a writer met the
   pooled SIREAD); otherwise it is the writer (a read ignored a summarized
   creator's version). *)
let record_summary_edge ~(self : txn) ~source ~resource ~incoming =
  if on self.db then
    if incoming then
      self.in_edges <-
        { Obs.ce_reader = summary_owner; ce_writer = self.id; ce_source = source;
          ce_resource = resource }
        :: self.in_edges
    else
      self.out_edges <-
        { Obs.ce_reader = self.id; ce_writer = summary_owner; ce_source = source;
          ce_resource = resource }
        :: self.out_edges

(* {1 DOT snapshot}

   The live dependency graph: every transaction record the engine still
   retains (active, committing, suspended committed) as a node, every
   recorded rw-antidependency as an edge labelled with its detection source
   and resource. Self-conflict flags (squashed neighbour sets, §3.6) are
   dashed self-loops. The victim is filled red, the pivot double-bordered.
   Node order is sorted by id and edges are deduplicated, so the output is
   deterministic. *)

let dot_snapshot ?victim ?pivot db =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph ssi {\n";
  Buffer.add_string buf "  rankdir=LR;\n  node [shape=box fontname=\"monospace\"];\n";
  let txns = Hashtbl.fold (fun _ t acc -> t :: acc) db.txn_by_id [] in
  let txns = List.sort (fun a b -> compare a.id b.id) txns in
  List.iter
    (fun t ->
      let attrs =
        match (victim, pivot) with
        | Some v, _ when v = t.id -> " color=red style=filled fillcolor=\"#ffdddd\""
        | _, Some p when p = t.id -> " peripheries=2"
        | _ -> ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  t%d [label=\"T%d\\n%s\"%s];\n" t.id t.id
           (Obs.endpoint_state_to_string (state_of t))
           attrs))
    txns;
  let seen = Hashtbl.create 64 in
  List.iter
    (fun t ->
      List.iter
        (fun (e : Obs.cert_edge) ->
          let k = (e.Obs.ce_reader, e.Obs.ce_writer, e.Obs.ce_resource, e.Obs.ce_source) in
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.add seen k ();
            Buffer.add_string buf
              (Printf.sprintf "  t%d -> t%d [label=\"rw:%s\\n%s\"];\n" e.Obs.ce_reader
                 e.Obs.ce_writer
                 (Obs.conflict_source_to_string e.Obs.ce_source)
                 (* res_id_escape output is dot_escape-invariant, so the one
                    canonical escaping serves every exporter (satellite: one
                    shared resource-id escape). *)
                 (Obs.res_id_escape e.Obs.ce_resource))
          end)
        (List.rev t.out_edges))
    txns;
  let is_self = function Self_conflict -> true | No_conflict | Conflict_with _ -> false in
  List.iter
    (fun t ->
      if is_self t.in_conflict || is_self t.out_conflict then
        Buffer.add_string buf
          (Printf.sprintf "  t%d -> t%d [style=dashed label=\"self\"];\n" t.id t.id))
    txns;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* {1 Certificate emission} *)

(* A pivot neighbour as known at the decision site: either the concrete
   transaction on the edge being processed, or whatever the pivot's conflict
   reference says (a squashed [Self_conflict] resolves to [None]). *)
type neighbour = Nb of txn | Nb_ref of conflict_ref

let resolve_neighbour = function
  | Nb t -> (Some t.id, state_of t)
  | Nb_ref No_conflict -> (None, Obs.Ep_gone)
  | Nb_ref Self_conflict -> (None, Obs.Ep_gone)
  | Nb_ref (Conflict_with t) -> (Some t.id, state_of t)

let find_in_edge (pivot : txn) = function
  | Some id -> List.find_opt (fun e -> e.Obs.ce_reader = id) pivot.in_edges
  | None -> ( match pivot.in_edges with e :: _ -> Some e | [] -> None)

let find_out_edge (pivot : txn) = function
  | Some id -> List.find_opt (fun e -> e.Obs.ce_writer = id) pivot.out_edges
  | None -> ( match pivot.out_edges with e :: _ -> Some e | [] -> None)

(* Certificate for an SSI [Unsafe] abort: [victim] is the transaction being
   aborted, [pivot] the transaction with both rw edges, [policy] names the
   rule that chose the victim ("committed-pivot", "prefer-pivot",
   "prefer-younger", "commit-time-check", "unknown-writer"). Call *before*
   {!Conflict.claim_victim}, which may raise. *)
let emit_ssi ~(victim : txn) ~policy ~(pivot : txn) ~t_in ~t_out =
  let db = pivot.db in
  if on db then begin
    let in_id, in_state = resolve_neighbour t_in in
    let out_id, out_state = resolve_neighbour t_out in
    let cert =
      Obs.Ssi_pivot
        {
          sp_victim = victim.id;
          sp_policy = policy;
          sp_pivot = pivot.id;
          sp_t_in = in_id;
          sp_in_state = in_state;
          sp_t_out = out_id;
          sp_out_state = out_state;
          sp_in_edge = find_in_edge pivot in_id;
          sp_out_edge = find_out_edge pivot out_id;
        }
    in
    Obs.add_cert db.obs
      {
        Obs.c_ts = Sim.now db.sim;
        c_reason = Types.abort_reason_to_string Types.Unsafe;
        c_cert = cert;
        c_dot = dot_snapshot ~victim:victim.id ~pivot:pivot.id db;
      }
  end

(* Certificate for a first-committer-wins abort: [t] ignored a version (or
   page stamp) committed after its snapshot on [resource]. *)
let emit_fcw (t : txn) ~resource ~blocking_commit ~blocking_writer =
  let db = t.db in
  (* FCW blame feeds the sketch live (unlike pivot blame, which needs the
     certificate's edge roles) so it works with provenance off. *)
  if Obs.on db.obs then Obs.emit db.obs ~ts:(Sim.now db.sim) (Obs.Fcw_abort { resource });
  if on db then
    Obs.add_cert db.obs
      {
        Obs.c_ts = Sim.now db.sim;
        c_reason = Types.abort_reason_to_string Types.Update_conflict;
        c_cert =
          Obs.Fcw_block
            {
              fb_txn = t.id;
              fb_resource = resource;
              fb_blocking_commit = blocking_commit;
              fb_blocking_writer = blocking_writer;
              fb_snapshot = (match t.snapshot with Some s -> s | None -> 0);
            };
        c_dot = dot_snapshot ~victim:t.id db;
      }
