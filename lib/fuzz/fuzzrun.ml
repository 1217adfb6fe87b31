(* Differential matrix runner and oracle.

   Each case executes under SSI, S2PL and SI with the same scripts, rows,
   schedule and configuration point; the recorded committed histories are
   then judged by the MVSG checker (lib/sercheck):

   - SSI and S2PL histories must be MVSG-serializable — a cycle is an
     engine bug, the property PostgreSQL's SSI was hardened against.
   - A non-serializable SI history must contain the Theorem 2 dangerous
     structure (consecutive concurrent rw-edges with T_out committing
     first); a cycle without one falsifies the theory the runtime detector
     is built on.
   - Abort reasons must match the level's taxonomy: Unsafe only under SSI,
     first-committer-wins only under SI/SSI, and Internal_error (including
     the harness's stuck-transaction marker) nowhere.

   Runs where SSI aborted a transaction Unsafe while SI committed the same
   schedule serializably are counted as false positives — the §6.1.5
   metric. *)

open Core.Types

let level_name iso = fst (List.find (fun (_, i) -> i = iso) isolation_names)

(* Canonical one-line-per-transaction serialization of a committed history;
   replay compares digests of this string, so equality here is the
   "byte-for-byte identical history" of the repro contract. *)
let history_to_string (h : committed_record list) =
  String.concat "\n"
    (List.map
       (fun r ->
         Printf.sprintf "T%d %s snap=%d commit=%d reads=[%s] writes=[%s]" r.h_id
           (isolation_to_string r.h_isolation)
           r.h_snapshot r.h_commit
           (String.concat ";"
              (List.map
                 (fun rr -> Printf.sprintf "%s/%s@%d" rr.r_table rr.r_key rr.r_version)
                 r.h_reads))
           (String.concat ";" (List.map (fun (t, k) -> t ^ "/" ^ k) r.h_writes)))
       h)

let history_digest h = Digest.to_hex (Digest.string (history_to_string h))

(* Run one case at one isolation level: how every fuzz campaign runs a
   case. [obs] attaches a sink, [crash] arms a fault plan, and [db]
   continues the case's scripts on an existing (recovered) engine, as in
   {!Interleave.run_interleaving}. *)
let run_case ?obs ?crash ?db ~isolation (c : Fuzzcase.t) : Interleave.result =
  Interleave.run_interleaving
    ~config:(Fuzzcase.config_of_point c.Fuzzcase.cfg)
    ?obs ?crash ?db ~init:c.Fuzzcase.init ~ro:c.Fuzzcase.ro ~isolation c.Fuzzcase.specs
    c.Fuzzcase.schedule

(* Shrinking predicate for SI anomalies (cheap: one run, no matrix). *)
let si_nonserializable c = not (run_case ~isolation:Snapshot c).Interleave.serializable

type violation =
  | Non_serializable of isolation  (** SSI or S2PL committed a cyclic history *)
  | Theorem2_violation  (** cyclic SI history without the Fig 2.2 structure *)
  | Unexpected_abort of isolation * abort_reason
      (** Internal_error anywhere, Unsafe outside SSI, FCW under S2PL *)

let violation_to_string = function
  | Non_serializable iso ->
      Printf.sprintf "non-serializable committed history under %s" (isolation_to_string iso)
  | Theorem2_violation -> "non-serializable SI history without a Theorem 2 dangerous structure"
  | Unexpected_abort (iso, r) ->
      Printf.sprintf "unexpected abort under %s: %s" (isolation_to_string iso)
        (abort_reason_to_string r)

(* Two violations are "the same bug" for shrinking purposes if they have the
   same constructor and level. *)
let same_violation a b =
  match (a, b) with
  | Non_serializable x, Non_serializable y -> x = y
  | Theorem2_violation, Theorem2_violation -> true
  | Unexpected_abort (x, _), Unexpected_abort (y, _) -> x = y
  | _ -> false

type level_report = {
  l_isolation : isolation;
  l_outcomes : abort_reason option list;
  l_serializable : bool;
  l_digest : string;
  l_history_text : string;  (** the canonical serialization the digest is over *)
  l_violation : violation option;
}

let abort_allowed iso (r : abort_reason) =
  match (iso, r) with
  | _, (Deadlock | Duplicate_key | User_abort) -> true
  | (Snapshot | Serializable), Update_conflict -> true
  | Serializable, Unsafe -> true
  | _, Internal_error _ -> false
  | _, (Update_conflict | Unsafe) -> false

let report ~isolation (c : Fuzzcase.t) : level_report =
  let r = run_case ~isolation c in
  let bad_abort =
    List.find_map
      (function Some a when not (abort_allowed isolation a) -> Some a | _ -> None)
      r.Interleave.outcomes
  in
  let violation =
    match bad_abort with
    | Some a -> Some (Unexpected_abort (isolation, a))
    | None -> (
        match isolation with
        | Serializable | S2pl ->
            if not r.Interleave.serializable then Some (Non_serializable isolation) else None
        | Snapshot ->
            if
              (not r.Interleave.serializable)
              && not (Mvsg.check_theorem2 r.Interleave.history)
            then Some Theorem2_violation
            else None
        | Read_committed -> None)
  in
  {
    l_isolation = isolation;
    l_outcomes = r.Interleave.outcomes;
    l_serializable = r.Interleave.serializable;
    l_digest = history_digest r.Interleave.history;
    l_history_text = history_to_string r.Interleave.history;
    l_violation = violation;
  }

type verdict = {
  v_violation : violation option;  (** first violation across the three levels *)
  v_si_anomaly : bool;  (** SI committed a non-serializable history *)
  v_ssi_unsafe : bool;  (** some transaction aborted Unsafe under SSI *)
  v_false_positive : bool;
      (** SSI aborted Unsafe but SI ran the same schedule serializably with
          no error aborts: the unsafe abort was unnecessary (§6.1.5) *)
  v_reports : level_report list;  (** ssi, si, s2pl in that order *)
}

let check (c : Fuzzcase.t) : verdict =
  let ssi = report ~isolation:Serializable c in
  let si = report ~isolation:Snapshot c in
  let s2pl = report ~isolation:S2pl c in
  let reports = [ ssi; si; s2pl ] in
  let ssi_unsafe = List.exists (( = ) (Some Unsafe)) ssi.l_outcomes in
  let si_clean =
    si.l_serializable
    && List.for_all (function None | Some User_abort -> true | Some _ -> false) si.l_outcomes
  in
  {
    v_violation = List.find_map (fun r -> r.l_violation) reports;
    v_si_anomaly = not si.l_serializable;
    v_ssi_unsafe = ssi_unsafe;
    v_false_positive = ssi_unsafe && si_clean;
    v_reports = reports;
  }

(* The same-kind-of-failure predicate the shrinker minimises against. *)
let reproduces viol c =
  match (check c).v_violation with Some v -> same_violation viol v | None -> false
