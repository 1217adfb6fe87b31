(* Campaign driver: generate → differential check → shrink → repro file.

   A campaign is fully determined by (seed, cases, matrix, profile): the
   generator state is seeded once and each case runs under the next matrix
   point round-robin, so a failing seed replays the exact campaign. Any
   oracle violation is delta-debugged against the same violation class and
   kept as a (original, shrunk) pair for repro emission.

   With [shrink_anomalies] the driver additionally minimises committed SI
   anomalies and classifies the result — write skew (two-transaction rw
   cycle) and the read-only anomaly of Fekete et al. (a cycle through a
   transaction that wrote nothing) — until one example of each named class
   has been collected; these are the paper's two motivating histories,
   rediscovered from noise rather than hand-coded. *)

type failure = {
  f_case : Fuzzcase.t;
  f_violation : Fuzzrun.violation;
  f_shrunk : Fuzzcase.t;
}

type summary = {
  s_cases : int;
  s_si_anomalies : int;  (** SI committed a non-serializable history *)
  s_ssi_unsafe : int;  (** cases with at least one Unsafe abort under SSI *)
  s_false_positives : int;  (** §6.1.5: unnecessary unsafe aborts *)
  s_failures : failure list;
  s_anomalies : (string * Fuzzcase.t) list;  (** class name → shrunk SI example *)
}

(* Name the shape of a (shrunk) SI anomaly from its MVSG cycle. *)
let classify_anomaly (c : Fuzzcase.t) : string =
  let r = Fuzzrun.run_case ~isolation:Core.Types.Snapshot c in
  let g = Mvsg.build r.Interleave.history in
  match Mvsg.find_cycle g with
  | None -> "none"
  | Some cycle ->
      let distinct = List.sort_uniq compare cycle in
      let read_only t =
        match Mvsg.txn g t with Some h -> h.Core.Types.h_writes = [] | None -> false
      in
      if List.exists read_only distinct then "read-only-anomaly"
      else if List.length distinct = 2 then "write-skew"
      else "other"

type progress = { pr_done : int; pr_total : int; pr_anomalies : int; pr_unsafe : int }

(* {1 Sharded campaigns}

   A campaign is cut into fixed-size shards of contiguous case indices and
   each shard runs as one pool job. Two properties make the result
   independent of both the pool size and the shard size (and therefore
   byte-identical between [-j 1] and [-j N]):

   - Case [i] of a [(seed, cases)] campaign is generated from its own RNG
     state ([Fuzzgen.campaign_case]), so the case stream does not depend
     on who runs which range. (Before the parallel harness the whole
     campaign threaded one sequential RNG.)

   - Per-class shrunk SI anomalies are an associative merge: a shard
     records the first case whose *shrunk* form classifies as "write-skew"
     or "read-only-anomaly" (shrinking stops once the shard has both), and
     the merge keeps, per class, the record with the smallest case index.
     The smallest-index occurrence of a class is always shrunk by its own
     shard — a shard only skips shrinking after finding both classes at
     even smaller indices — so the merged result is exactly the campaign
     minimum however the cases are cut. Unnamed ("other") anomaly shapes
     are no longer collected: which of them got shrunk depended on scan
     order, so they could not survive sharding deterministically. *)

let named_classes = [ "write-skew"; "read-only-anomaly" ]

(* Partial result for one contiguous range of case indices. *)
type shard = {
  sh_lo : int;
  sh_cases : int;
  sh_si_anomalies : int;
  sh_ssi_unsafe : int;
  sh_false_positives : int;
  sh_failures : failure list; (* in case order *)
  sh_anomalies : (string * (int * Fuzzcase.t)) list; (* class -> (case idx, shrunk) *)
}

let run_shard ~profile ~shrink_anomalies ~seed ~cases ~points ~lo ~hi : shard =
  let si_anomalies = ref 0 and unsafe = ref 0 and false_pos = ref 0 in
  let failures = ref [] in
  let anomalies = ref [] in
  let missing cls = List.assoc_opt cls !anomalies = None in
  for i = lo to hi - 1 do
    let c = Fuzzgen.campaign_case ~profile ~seed ~cases points i in
    let v = Fuzzrun.check c in
    if v.Fuzzrun.v_si_anomaly then incr si_anomalies;
    if v.Fuzzrun.v_ssi_unsafe then incr unsafe;
    if v.Fuzzrun.v_false_positive then incr false_pos;
    (match v.Fuzzrun.v_violation with
    | Some viol ->
        let shrunk = Fuzzshrink.shrink ~keeps:(Fuzzrun.reproduces viol) c in
        failures := { f_case = c; f_violation = viol; f_shrunk = shrunk } :: !failures
    | None -> ());
    if shrink_anomalies && v.Fuzzrun.v_si_anomaly && List.exists missing named_classes then begin
      let shrunk = Fuzzshrink.shrink ~keeps:Fuzzrun.si_nonserializable c in
      let cls = classify_anomaly shrunk in
      if List.mem cls named_classes && missing cls then
        anomalies := (cls, (i, shrunk)) :: !anomalies
    end
  done;
  {
    sh_lo = lo;
    sh_cases = hi - lo;
    sh_si_anomalies = !si_anomalies;
    sh_ssi_unsafe = !unsafe;
    sh_false_positives = !false_pos;
    sh_failures = List.rev !failures;
    sh_anomalies = !anomalies;
  }

let default_shard_size = 250

let run_campaign ?pool ?(shard_size = default_shard_size)
    ?(profile = Fuzzgen.default_profile) ?(shrink_anomalies = false)
    ?(on_progress = fun (_ : progress) -> ()) ~seed ~cases ~matrix () : summary =
  let points = Fuzzgen.matrix_points ~who:"run_campaign" matrix in
  (* Progress streams per completed shard prefix, in case order (stderr
     liveness only; the summary below is what the stdout contract covers). *)
  let done_cases = ref 0 and done_anoms = ref 0 and done_unsafe = ref 0 in
  let report sh =
    done_cases := !done_cases + sh.sh_cases;
    done_anoms := !done_anoms + sh.sh_si_anomalies;
    done_unsafe := !done_unsafe + sh.sh_ssi_unsafe;
    on_progress
      { pr_done = !done_cases; pr_total = cases; pr_anomalies = !done_anoms; pr_unsafe = !done_unsafe }
  in
  let shards =
    Fuzzgen.run_shards ?pool ~who:"run_campaign" ~shard_size ~cases ~on_shard:report
      (run_shard ~profile ~shrink_anomalies ~seed ~cases ~points)
  in
  let merged_anomalies =
    (* per class, the smallest case index across all shards; emitted in
       case-index order (= sequential discovery order) *)
    List.filter_map
      (fun cls ->
        List.concat_map (fun sh -> sh.sh_anomalies) shards
        |> List.filter_map (fun (c, ic) -> if c = cls then Some ic else None)
        |> function
        | [] -> None
        | ics ->
            let i, c = List.fold_left (fun (ai, ac) (bi, bc) -> if bi < ai then (bi, bc) else (ai, ac)) (List.hd ics) ics in
            Some (i, (cls, c)))
      named_classes
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let sum f = List.fold_left (fun acc sh -> acc + f sh) 0 shards in
  {
    s_cases = cases;
    s_si_anomalies = sum (fun sh -> sh.sh_si_anomalies);
    s_ssi_unsafe = sum (fun sh -> sh.sh_ssi_unsafe);
    s_false_positives = sum (fun sh -> sh.sh_false_positives);
    s_failures = List.concat_map (fun sh -> sh.sh_failures) shards;
    s_anomalies = merged_anomalies;
  }

(* {1 Repro files} *)

(* Serialize a case together with the history digests the three levels
   produce right now; replay verifies the digests byte-for-byte. *)
let repro_string ?(comment = []) (c : Fuzzcase.t) =
  let v = Fuzzrun.check c in
  let expect =
    List.map
      (fun r -> (Fuzzrun.level_name r.Fuzzrun.l_isolation, r.Fuzzrun.l_digest))
      v.Fuzzrun.v_reports
  in
  Fuzzcase.to_string ~expect ~comment c

type replay_check = {
  rc_level : string;
  rc_expected : string;
  rc_got : string;
  rc_ok : bool;
}

type replay_outcome = {
  rp_case : Fuzzcase.t;
  rp_checks : replay_check list;
  rp_violation : Fuzzrun.violation option;
  rp_reports : Fuzzrun.level_report list;
  rp_ok : bool;  (** all digests matched and no oracle violation *)
}

let replay_string content : (replay_outcome, string) result =
  Result.bind (Fuzzcase.of_string content) (fun (c, expect) ->
      let v = Fuzzrun.check c in
      let report lvl =
        List.find_opt
          (fun r -> Fuzzrun.level_name r.Fuzzrun.l_isolation = lvl)
          v.Fuzzrun.v_reports
      in
      match List.find_opt (fun (lvl, _) -> report lvl = None) expect with
      | Some (lvl, _) -> Error ("expect line references unknown level: " ^ lvl)
      | None ->
          let checks =
            List.map
              (fun (lvl, d) ->
                let r = Option.get (report lvl) in
                {
                  rc_level = lvl;
                  rc_expected = d;
                  rc_got = r.Fuzzrun.l_digest;
                  rc_ok = d = r.Fuzzrun.l_digest;
                })
              expect
          in
          Ok
            {
              rp_case = c;
              rp_checks = checks;
              rp_violation = v.Fuzzrun.v_violation;
              rp_reports = v.Fuzzrun.v_reports;
              rp_ok = List.for_all (fun rc -> rc.rc_ok) checks && v.Fuzzrun.v_violation = None;
            })
