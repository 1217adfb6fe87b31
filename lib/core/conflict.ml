(* The heart of Serializable Snapshot Isolation: rw-dependency flagging
   (markConflict, Figs 3.3/3.9), the dangerous-structure tests, and the
   machinery for aborting some *other* transaction ("dooming" it).

   A transaction can only be rolled back by its own process, so when the
   victim of a conflict is a different transaction we set [doomed] on it; it
   notices at its next operation or commit. If it is blocked in the lock
   manager we additionally cancel its wait so it notices immediately. *)

open Types
open Internal

(* Whether [t]'s conflict edges form the dangerous pattern: both edges
   present, and the outgoing neighbour committed first (no later than the
   incoming neighbour commits). In basic mode (§3.2) the commit-time
   refinement is disabled and two edges alone are dangerous. *)
let is_dangerous config t =
  ref_is_set t.in_conflict && ref_is_set t.out_conflict
  &&
  match config.Config.ssi with
  | Config.Basic -> true
  | Config.Precise ->
      (* Precise mode disregards edges to aborted transactions (their reads
         and writes no longer exist) and requires the outgoing neighbour to
         have committed first. *)
      let live = function
        | No_conflict -> false
        | Self_conflict -> true
        | Conflict_with u -> u.state <> Aborted
      in
      let out_committed =
        match t.out_conflict with
        | Self_conflict -> true (* conservative: some neighbour may have committed *)
        | Conflict_with u -> has_committed u
        | No_conflict -> false
      in
      live t.in_conflict && live t.out_conflict && out_committed
      && ref_commit_time ~if_self:neg_infinity t.out_conflict
         <= ref_commit_time ~if_self:infinity t.in_conflict
      &&
      (* Read-only refinement (extension; see Config.ro_refinement): a cycle
         through a committed read-only T_in requires a path T_out ->* T_in
         of wr/ww edges, all of which point at transactions that began after
         T_out committed — so T_out must have committed before T_in's
         snapshot. *)
      (match (config.Config.ro_refinement, t.in_conflict) with
      | true, Conflict_with tin when known_read_only tin -> (
          match tin.snapshot with
          | Some snap ->
              ref_commit_time ~if_self:neg_infinity t.out_conflict <= float_of_int snap
          | None -> true)
      | _ -> true)

(* Abort [victim]. If it is the transaction whose process is running right
   now ([self]), raise directly; otherwise doom it and break any lock wait. *)
let claim_victim ~self victim reason =
  if victim == self then raise (Abort reason)
  else if victim.state = Active && victim.doomed = None then begin
    (* Footprint: dooming writes a flag only the victim reads (each of its
       operations touches its own doom resource), so the explorer sees the
       doomer and every victim operation as dependent. *)
    (match self.db.on_touch with
    | Some f -> f self.id true (doom_resource victim.id)
    | None -> ());
    victim.doomed <- Some reason;
    let db = victim.db in
    if Obs.on db.obs then
      Obs.emit db.obs ~ts:(Sim.now db.sim)
        (Obs.Victim_doomed
           { victim = victim.id; by = self.id; reason = abort_reason_to_string reason });
    ignore (Lockmgr.cancel_wait victim.db.locks victim.id (Abort reason))
  end

let set_out t other =
  t.out_conflict <-
    (match t.out_conflict with
    | No_conflict -> Conflict_with other
    | Conflict_with u when u == other -> Conflict_with other
    | _ -> Self_conflict)

let set_in t other =
  t.in_conflict <-
    (match t.in_conflict with
    | No_conflict -> Conflict_with other
    | Conflict_with u when u == other -> Conflict_with other
    | _ -> Self_conflict)

(* Report a recorded rw-edge to the probe: its detection source splits the
   conflict counters (§6.1.5's false-positive analysis) and its resource
   feeds the sketch. Ids rather than records, since a summarized endpoint
   is only [summary_owner]. *)
let observe_edge db ~reader ~writer ~resource source =
  if Obs.on db.obs then
    Obs.emit db.obs ~ts:(Sim.now db.sim) (Obs.Conflict_edge { reader; writer; source; resource })

let policy_name = function
  | Config.Prefer_pivot -> "prefer-pivot"
  | Config.Prefer_younger -> "prefer-younger"

(* markConflict(reader, writer): record the rw-dependency reader -> writer.
   [self] is the transaction running this code (either [reader] or
   [writer]); it absorbs the abort when it is chosen as victim. [source]
   says which detection mechanism noticed the dependency and [resource] the
   row/gap/page behind it (observability only; no behavioural effect).

   Follows Fig 3.3 (basic) / Fig 3.9 (precise), plus the §3.7.1 enhancements:
   conflicts are not recorded against aborted or doomed transactions, and an
   active transaction whose edges become dangerous aborts immediately rather
   than at commit. *)
let mark ~source ~resource ~self ~reader ~writer =
  if reader == writer then ()
  else if reader.state = Aborted || writer.state = Aborted then ()
  else if reader.doomed <> None || writer.doomed <> None then ()
  else begin
    let config = self.db.config in
    (* Provenance first: the edge was *detected* here whether or not the
       flag is recorded below (a committed-pivot branch dooms an endpoint
       instead), and the certificate for that doom cites this edge. *)
    Provenance.record_edge ~reader ~writer ~source ~resource;
    (* Abort-early (§3.7.1): once the new edge makes a dangerous structure,
       pick a victim among the two endpoints per §3.7.2 — either breaks the
       structure, since removing one endpoint removes this rw edge. *)
    let abort_early_check () =
      if config.Config.abort_early then begin
        let reader_dangerous = reader.state = Active && is_dangerous config reader in
        let writer_dangerous = writer.state = Active && is_dangerous config writer in
        if reader_dangerous || writer_dangerous then
          let victim =
            match config.Config.victim with
            | Config.Prefer_pivot ->
                (* the endpoint that is itself the pivot; reader first when
                   both are (deterministic tie-break) *)
                if reader_dangerous then Some reader else Some writer
            | Config.Prefer_younger -> (
                (* Total by construction: selection must stay well-defined
                   even if an endpoint left [Active] between danger
                   detection and victim choice (the former [List.hd] here
                   raised on an empty candidate list). With no Active
                   candidate there is nothing left to break. *)
                match List.filter (fun t -> t.state = Active) [ reader; writer ] with
                | [] -> None
                | c :: cs ->
                    Some (List.fold_left (fun a b -> if b.id > a.id then b else a) c cs))
          in
          match victim with
          | Some v ->
              let pivot = if reader_dangerous then reader else writer in
              Provenance.emit_ssi ~victim:v
                ~policy:(policy_name config.Config.victim)
                ~pivot ~t_in:(Provenance.Nb_ref pivot.in_conflict)
                ~t_out:(Provenance.Nb_ref pivot.out_conflict);
              claim_victim ~self v Unsafe
          | None -> ()
      end
    in
    match config.Config.ssi with
    | Config.Basic ->
        if has_committed writer && ref_is_set writer.out_conflict then begin
          (* The new edge reader -> writer makes the committed [writer] a
             pivot; the flags are not recorded, so name the neighbours
             explicitly: T_in is [reader] (this edge), T_out is whatever the
             writer's outgoing flag says. *)
          Provenance.emit_ssi ~victim:reader ~policy:"committed-pivot" ~pivot:writer
            ~t_in:(Provenance.Nb reader) ~t_out:(Provenance.Nb_ref writer.out_conflict);
          claim_victim ~self reader Unsafe
        end
        else if has_committed reader && ref_is_set reader.in_conflict then begin
          Provenance.emit_ssi ~victim:writer ~policy:"committed-pivot" ~pivot:reader
            ~t_in:(Provenance.Nb_ref reader.in_conflict) ~t_out:(Provenance.Nb writer);
          claim_victim ~self writer Unsafe
        end
        else begin
          set_out reader writer;
          set_in writer reader;
          observe_edge self.db ~reader:reader.id ~writer:writer.id ~resource source;
          abort_early_check ()
        end
    | Config.Precise ->
        (* Fig 3.9: a committed writer that is a pivot whose outgoing
           neighbour committed no later than it dooms the reader. The
           symmetric committed-reader check is unnecessary: the writer (its
           outgoing neighbour) is still running, so it did not commit first. *)
        if
          has_committed writer
          && ref_is_set writer.out_conflict
          && ref_commit_time ~if_self:neg_infinity writer.out_conflict <= commit_time writer
        then begin
          Provenance.emit_ssi ~victim:reader ~policy:"committed-pivot" ~pivot:writer
            ~t_in:(Provenance.Nb reader) ~t_out:(Provenance.Nb_ref writer.out_conflict);
          claim_victim ~self reader Unsafe
        end
        else begin
          set_out reader writer;
          set_in writer reader;
          observe_edge self.db ~reader:reader.id ~writer:writer.id ~resource source;
          abort_early_check ()
        end
  end

(* An rw-dependency whose writer's record is no longer available (only
   possible for bulk-loaded versions): conservatively record an outgoing
   self-conflict on the reader. *)
let mark_unknown_writer ~resource ~self reader =
  if reader.state = Aborted || reader.doomed <> None then ()
  else if reader.isolation = Serializable then begin
    reader.out_conflict <- Self_conflict;
    Provenance.record_unknown_edge ~reader ~resource;
    observe_edge reader.db ~reader:reader.id ~writer:0 ~resource Obs.Unknown_writer;
    let config = reader.db.config in
    if config.Config.abort_early && reader.state = Active && is_dangerous config reader then begin
      Provenance.emit_ssi ~victim:reader ~policy:"unknown-writer" ~pivot:reader
        ~t_in:(Provenance.Nb_ref reader.in_conflict)
        ~t_out:(Provenance.Nb_ref reader.out_conflict);
      claim_victim ~self reader Unsafe
    end
  end

(* {1 Bounded-memory mode: edges against summarized committed transactions}

   When [Config.memory_budget] folds old committed transactions into the
   per-resource summary table (see [Internal.summary]), their records are
   gone but their conflict state survives as OR'd flags under a max commit
   timestamp. These two entry points mirror [mark] with one committed
   endpoint, erring conservative: the loss of precision only ever moves
   towards more aborts, never towards admitting a dangerous structure.
   Post-fold flag updates to the summarized side are dropped, which is safe
   because the critical pivot of any MVSG cycle acquires its outgoing edge
   before it commits (its out-neighbour commits first of the three), so that
   flag is always captured by the fold; every structure the dropped updates
   could have flagged is caught from one of the live endpoints instead. *)

(* [self] (an active writer) met the pooled SIREAD of summarized committed
   readers on [resource]; the caller checked that the folded commit span
   overlaps [self]'s snapshot. In basic mode a folded in-flag means some
   committed reader was a pivot — Fig 3.3's committed-reader branch dooms
   the writer. Otherwise the writer's incoming reference becomes a
   self-reference (+infinity commit time, so every later dangerous-structure
   test errs towards aborting); precise mode, like [mark], has no
   committed-reader pivot check to run. *)
let mark_summarized_reader ~source ~resource ~self ~sm_in =
  if self.state = Aborted || self.doomed <> None then ()
  else begin
    let db = self.db in
    let config = db.config in
    Provenance.record_summary_edge ~self ~source ~resource ~incoming:true;
    observe_edge db ~reader:summary_owner ~writer:self.id ~resource source;
    if config.Config.ssi = Config.Basic && sm_in then begin
      Provenance.emit_ssi ~victim:self ~policy:"summarized-pivot" ~pivot:self
        ~t_in:(Provenance.Nb_ref self.in_conflict)
        ~t_out:(Provenance.Nb_ref self.out_conflict);
      claim_victim ~self self Unsafe
    end
    else begin
      self.in_conflict <- Self_conflict;
      if config.Config.abort_early && self.state = Active && is_dangerous config self then begin
        Provenance.emit_ssi ~victim:self ~policy:"summarized-reader" ~pivot:self
          ~t_in:(Provenance.Nb_ref self.in_conflict)
          ~t_out:(Provenance.Nb_ref self.out_conflict);
        claim_victim ~self self Unsafe
      end
    end
  end

(* [reader] (== [self], active) ignored a version or page stamp newer than
   its snapshot whose creator was summarized away. A folded out-flag means
   some summarized creator may be a committed pivot whose out-neighbour
   committed first; without its commit times the committed-pivot test of
   [mark] cannot discharge it, so the reader dies (a false positive exactly
   in the cases precise mode would have cleared). With no out-flag this is
   the [mark_unknown_writer] situation: a conservative outgoing
   self-reference. *)
let mark_summarized_writer ~source ~resource ~self ~sm_out reader =
  if reader.state = Aborted || reader.doomed <> None then ()
  else if reader.isolation = Serializable then begin
    if sm_out then begin
      Provenance.record_summary_edge ~self:reader ~source ~resource ~incoming:false;
      observe_edge reader.db ~reader:reader.id ~writer:summary_owner ~resource source;
      Provenance.emit_ssi ~victim:reader ~policy:"summarized-pivot" ~pivot:reader
        ~t_in:(Provenance.Nb_ref reader.in_conflict)
        ~t_out:(Provenance.Nb_ref reader.out_conflict);
      claim_victim ~self reader Unsafe
    end
    else mark_unknown_writer ~resource ~self reader
  end

(* Commit-time check of Figs 3.2/3.10: called with the transaction still
   Active; raises [Abort Unsafe] if committing would complete a dangerous
   structure. *)
let check_commit t =
  if is_dangerous t.db.config t then begin
    Provenance.emit_ssi ~victim:t ~policy:"commit-time-check" ~pivot:t
      ~t_in:(Provenance.Nb_ref t.in_conflict) ~t_out:(Provenance.Nb_ref t.out_conflict);
    raise (Abort Unsafe)
  end

(* Fig 3.10 lines 9-12: before suspension, replace references to
   already-committed transactions with self-references, so a suspended
   transaction never references anything that commits (and is cleaned up)
   before it. *)
let seal_references t =
  (match t.in_conflict with
  | Conflict_with u when has_committed u -> t.in_conflict <- Self_conflict
  | _ -> ());
  match t.out_conflict with
  | Conflict_with u when has_committed u -> t.out_conflict <- Self_conflict
  | _ -> ()
