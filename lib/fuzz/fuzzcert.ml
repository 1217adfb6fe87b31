(* Certificate coverage oracle: couples abort provenance to the fuzzer.

   A certified run executes a fuzz case once at SSI with a provenance sink
   attached, collecting the abort certificates the engine emits. Two
   properties are then checked against each case:

   - Oracle containment: every row-level rw edge cited by an [Ssi_pivot]
     certificate whose two endpoints both appear in the committed SSI
     history must exist as an Rw edge in the MVSG the offline checker
     builds from that same history. The runtime detector is conservative
     (it may cite edges involving aborted transactions, gap or page
     resources, or an Rfu writer that never wrote — those are filtered,
     not matched), but it must never invent a row antidependency between
     two committed transactions that the after-the-fact graph lacks.

   - Replay: the case's [Fuzzcase] codec line, parsed back and re-run,
     must reproduce byte-identical outcomes, the same history digest and
     the same certificate shapes in the same order. This makes every
     certificate a self-contained repro: the [repro] line in its JSON
     export replays to the same abort. *)

open Core.Types

(* Run one case at SSI with abort provenance enabled. Returns the engine
   result plus the certificates in emission order. *)
let certified_run (c : Fuzzcase.t) : Interleave.result * Obs.certificate list =
  let obs = Obs.create ~trace:false ~metrics:false ~provenance:true () in
  let r = Fuzzrun.run_case ~obs ~isolation:Serializable c in
  (r, Obs.certs obs)

(* "r/<table>/<key>" -> Some (table, key). *)
let row_of_resource res =
  let n = String.length res in
  if n < 2 || res.[0] <> 'r' || res.[1] <> '/' then None
  else
    match String.index_from_opt res 2 '/' with
    | None -> None
    | Some i -> Some (String.sub res 2 (i - 2), String.sub res (i + 1) (n - i - 1))

type edge_verdict =
  | Edge_matched  (** a matching Rw edge exists in the MVSG *)
  | Edge_skipped of string  (** not checkable against the oracle; why *)
  | Edge_missing of string  (** checkable but absent: an engine bug *)

let edge_verdict_is_missing = function Edge_missing _ -> true | _ -> false

(* Check one certificate edge against the MVSG of the committed history. *)
let check_edge ~history ~mvsg_edges (e : Obs.cert_edge) : edge_verdict =
  let committed id = List.exists (fun r -> r.h_id = id) history in
  let wrote id (table, key) =
    List.exists
      (fun r -> r.h_id = id && List.exists (fun (t, k) -> t = table && k = key) r.h_writes)
      history
  in
  match row_of_resource e.Obs.ce_resource with
  | None -> Edge_skipped "non-row resource"
  | Some (table, key) -> (
      if not (committed e.Obs.ce_reader) then Edge_skipped "reader not committed"
      else if not (committed e.Obs.ce_writer) then Edge_skipped "writer not committed"
      else
        match e.Obs.ce_source with
        | Obs.Page_stamp | Obs.Gap | Obs.Unknown_writer ->
            Edge_skipped "coarse-grained detection source"
        | Obs.Siread_vs_x when not (wrote e.Obs.ce_writer (table, key)) ->
            (* SELECT FOR UPDATE takes X without installing a version; the
               runtime edge is real but invisible to the version-order
               graph. *)
            Edge_skipped "writer holds X but installed no version"
        | Obs.Newer_version | Obs.Siread_vs_x ->
            if
              List.exists
                (fun (m : Mvsg.edge) ->
                  m.Mvsg.kind = Mvsg.Rw
                  && m.Mvsg.src = e.Obs.ce_reader
                  && m.Mvsg.dst = e.Obs.ce_writer
                  && m.Mvsg.table = table && m.Mvsg.key = key)
                mvsg_edges
            then Edge_matched
            else
              Edge_missing
                (Printf.sprintf "no Rw edge T%d->T%d on %s/%s in MVSG" e.Obs.ce_reader
                   e.Obs.ce_writer table key))

type cert_check = {
  cc_certs : int;  (** SSI certificates emitted for the case *)
  cc_edges_checked : int;  (** pivot edges eligible for oracle matching *)
  cc_edges_matched : int;
  cc_mismatches : string list;  (** oracle-containment failures *)
  cc_replay_ok : bool;
  cc_replay_error : string option;
}

let clean = function
  | { cc_mismatches = []; cc_replay_ok = true; _ } -> true
  | _ -> false

(* Replay the case through its codec line and compare against a reference
   run: outcomes, history digest and certificate shapes must all agree. *)
let replay_check (c : Fuzzcase.t) ~(reference : Interleave.result)
    ~(certs : Obs.certificate list) : bool * string option =
  let line = Fuzzcase.to_string c in
  match Fuzzcase.of_string line with
  | Error e -> (false, Some ("codec roundtrip failed: " ^ e))
  | Ok (c', _) -> (
      let r', certs' = certified_run c' in
      if r'.Interleave.outcomes <> reference.Interleave.outcomes then
        (false, Some "replay outcomes differ")
      else if
        Fuzzrun.history_digest r'.Interleave.history
        <> Fuzzrun.history_digest reference.Interleave.history
      then (false, Some "replay history digest differs")
      else
        let shapes l = List.map Obs.cert_shape l in
        match (shapes certs', shapes certs) with
        | a, b when a = b -> (true, None)
        | a, b ->
            ( false,
              Some
                (Printf.sprintf "replay certificates differ: [%s] vs [%s]"
                   (String.concat "; " a) (String.concat "; " b)) ))

(* Full per-case check: certified run, oracle containment for every pivot
   edge, codec replay. *)
let check_case (c : Fuzzcase.t) : cert_check =
  let r, certs = certified_run c in
  let history = r.Interleave.history in
  let mvsg_edges = Mvsg.edges (Mvsg.build history) in
  let checked = ref 0 and matched = ref 0 and mismatches = ref [] in
  let consider label (e : Obs.cert_edge option) =
    match e with
    | None -> ()
    | Some e -> (
        match check_edge ~history ~mvsg_edges e with
        | Edge_skipped _ -> ()
        | Edge_matched ->
            incr checked;
            incr matched
        | Edge_missing why ->
            incr checked;
            mismatches := Printf.sprintf "%s edge: %s" label why :: !mismatches)
  in
  List.iter
    (fun (cert : Obs.certificate) ->
      match cert.Obs.c_cert with
      | Obs.Ssi_pivot { sp_in_edge; sp_out_edge; _ } ->
          consider "in" sp_in_edge;
          consider "out" sp_out_edge
      | Obs.Deadlock_cycle _ | Obs.Fcw_block _ -> ())
    certs;
  let replay_ok, replay_error =
    (* Replay is the expensive half (a second certified run); certificates
       are what it certifies, so a cert-free case skips it. *)
    match certs with [] -> (true, None) | _ -> replay_check c ~reference:r ~certs
  in
  {
    cc_certs = List.length certs;
    cc_edges_checked = !checked;
    cc_edges_matched = !matched;
    cc_mismatches = List.rev !mismatches;
    cc_replay_ok = replay_ok;
    cc_replay_error = replay_error;
  }

type campaign = {
  ca_cases : int;
  ca_certified : int;  (** cases that emitted at least one certificate *)
  ca_certs : int;
  ca_edges_checked : int;
  ca_edges_matched : int;
  ca_failures : (string * string) list;  (** (codec line, reason) per failing case *)
}

(* Fixed-seed campaign: run the full per-case check on each case of the
   differential campaign with the same [(seed, cases, matrix)]
   ([Fuzzgen.campaign_case]). A failure records the case's codec line so it
   can be replayed from the command line. *)
let campaign ?profile ~seed ~cases ~matrix () : campaign =
  let points = Fuzzgen.matrix_points ~who:"Fuzzcert.campaign" matrix in
  let total_certs = ref 0
  and certified = ref 0
  and checked = ref 0
  and matched = ref 0
  and failures = ref [] in
  for i = 0 to cases - 1 do
    let c = Fuzzgen.campaign_case ?profile ~seed ~cases points i in
    let cc = check_case c in
    total_certs := !total_certs + cc.cc_certs;
    if cc.cc_certs > 0 then incr certified;
    checked := !checked + cc.cc_edges_checked;
    matched := !matched + cc.cc_edges_matched;
    if not (clean cc) then begin
      let reasons =
        cc.cc_mismatches
        @ match cc.cc_replay_error with Some e -> [ e ] | None -> []
      in
      failures := (Fuzzcase.to_string c, String.concat "; " reasons) :: !failures
    end
  done;
  {
    ca_cases = cases;
    ca_certified = !certified;
    ca_certs = !total_certs;
    ca_edges_checked = !checked;
    ca_edges_matched = !matched;
    ca_failures = List.rev !failures;
  }

(* Certificates of a fixed-seed campaign, each paired with its case's codec
   line (the repro): the raw material for the report's provenance section.
   No oracle/replay checking — use {!campaign} for that. *)
let collect_certs ?profile ~seed ~cases ~matrix () : (Obs.certificate * string) list =
  let points = Fuzzgen.matrix_points ~who:"Fuzzcert.collect_certs" matrix in
  let out = ref [] in
  for i = 0 to cases - 1 do
    let c = Fuzzgen.campaign_case ?profile ~seed ~cases points i in
    match certified_run c with
    | _, [] -> ()
    | _, certs ->
        let line = Fuzzcase.to_string c in
        List.iter (fun cert -> out := (cert, line) :: !out) certs
  done;
  List.rev !out
