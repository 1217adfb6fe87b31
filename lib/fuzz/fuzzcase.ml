(* A differential test case: transaction scripts, READ ONLY declarations,
   initial rows, a turn schedule, and the configuration point of the
   variant/ablation matrix it runs under — plus the deterministic
   line-based repro codec that round-trips all of it through a file.

   Repro format (one record per line, '#' comments ignored):

     ssi-fuzz-repro v3
     cfg granularity=row ssi=precise gap_locking=1 abort_early=1 \
         victim=pivot ro_refinement=0 upgrade_siread=1 memory_budget=0 \
         wal_flush=0 checkpoint_interval=0
     init k0=0
     txn ro=0 r(k0);w(k1);scan(k0,k2,1)
     txn ro=1 r(k1)
     schedule 0 0 1 0
     expect ssi <md5 of the serialized committed history>
     expect si <md5>
     expect s2pl <md5>

   Keys and values are restricted to [A-Za-z0-9_.\xff-]* so no escaping is
   needed; the generator only emits such names. *)

open Core

(* {1 The variant/ablation matrix} *)

type cfg_point = {
  granularity : Config.granularity;
  ssi : Config.ssi_variant;
  gap_locking : bool;  (** row mode only; forced off under Page *)
  abort_early : bool;  (** §3.7.1 *)
  victim : Config.victim_policy;  (** §3.7.2 *)
  ro_refinement : bool;  (** Ports & Grittner read-only optimisation *)
  upgrade_siread : bool;  (** §3.7.3 *)
  memory_budget : int;  (** bounded-memory mode budget; [0] = unbounded *)
  wal_flush : bool;  (** synchronous commit flushes (group commit) vs buffered WAL *)
  checkpoint_interval : int;  (** WAL checkpoint every k commits; [0] = off *)
}

let default_point =
  {
    granularity = Config.Row;
    ssi = Config.Precise;
    gap_locking = true;
    abort_early = true;
    victim = Config.Prefer_pivot;
    ro_refinement = false;
    upgrade_siread = true;
    memory_budget = 0;
    wal_flush = false;
    checkpoint_interval = 0;
  }

(* Every meaningful knob combination: 192 points (gap locking only exists in
   row mode; every point runs with the memory budget off and with a tiny
   budget that forces summarization and promotion on small cases). *)
let matrix_full =
  List.concat_map
    (fun granularity ->
      List.concat_map
        (fun ssi ->
          List.concat_map
            (fun gap_locking ->
              List.concat_map
                (fun abort_early ->
                  List.concat_map
                    (fun victim ->
                      List.concat_map
                        (fun ro_refinement ->
                          List.concat_map
                            (fun upgrade_siread ->
                              List.map
                                (fun memory_budget ->
                                  {
                                    default_point with
                                    granularity;
                                    ssi;
                                    gap_locking;
                                    abort_early;
                                    victim;
                                    ro_refinement;
                                    upgrade_siread;
                                    memory_budget;
                                  })
                                [ 0; 4 ])
                            [ true; false ])
                        [ false; true ])
                    [ Config.Prefer_pivot; Config.Prefer_younger ])
                [ true; false ])
            (if granularity = Config.Row then [ true; false ] else [ false ]))
        [ Config.Basic; Config.Precise ])
    [ Config.Row; Config.Page ]

(* The two prototype profiles of the paper (plus precise/basic on each). *)
let matrix_default =
  [
    default_point;
    { default_point with ssi = Config.Basic };
    { default_point with granularity = Config.Page; gap_locking = false };
    { default_point with granularity = Config.Page; gap_locking = false; ssi = Config.Basic };
  ]

(* The matrices by the names --matrix takes. *)
let matrices = [ ("full", matrix_full); ("default", matrix_default) ]

(* Engine configuration for a matrix point: the plain test substrate (no
   I/O waits, no kernel mutex, history recording on) with the point's knobs
   applied. A small fanout makes page-granularity runs span several pages
   even on tiny key domains; page mode uses a fast periodic deadlock
   detector, row mode the immediate one (as in the two prototypes). *)
let config_of_point p =
  {
    (Config.test ()) with
    Config.wal_mode =
      (if p.wal_flush then Wal.Flush_per_commit 0.01 else Wal.No_flush);
    checkpoint_interval =
      (if p.checkpoint_interval > 0 then Some p.checkpoint_interval else None);
    granularity = p.granularity;
    ssi = p.ssi;
    gap_locking = (p.gap_locking && p.granularity = Config.Row);
    abort_early = p.abort_early;
    victim = p.victim;
    ro_refinement = p.ro_refinement;
    upgrade_siread = p.upgrade_siread;
    memory_budget = (if p.memory_budget > 0 then Some p.memory_budget else None);
    (* Aggressive promotion so even tiny fuzz cases exercise row→page
       collapse when a budget is set. *)
    promote_threshold = 2;
    detection =
      (match p.granularity with
      | Config.Row -> Lockmgr.Immediate
      | Config.Page -> Lockmgr.Periodic 0.05);
    record_history = true;
    btree_fanout = 4;
  }

(* {1 The case itself} *)

type t = {
  specs : Interleave.spec list;
  ro : bool list;  (** declared READ ONLY at begin; same length as [specs] *)
  init : (string * string) list;  (** rows loaded before the run *)
  schedule : int list;
      (** the turn list {!Interleave.run_interleaving} takes: index [i]
          appears exactly [List.length (List.nth specs i)] times *)
  cfg : cfg_point;
}

let total_ops c = List.fold_left (fun a s -> a + List.length s) 0 c.specs

(* Structural sanity of a case (also applied after parsing). *)
let validate c =
  let n = List.length c.specs in
  if List.length c.ro <> n then Error "ro/specs length mismatch"
  else if List.exists (fun i -> i < 0 || i >= n) c.schedule then
    Error "schedule index out of range"
  else
    let counts = Array.make (max 1 n) 0 in
    List.iter (fun i -> counts.(i) <- counts.(i) + 1) c.schedule;
    let ok = ref (Ok ()) in
    List.iteri
      (fun i s ->
        if counts.(i) <> List.length s then
          ok := Error (Printf.sprintf "schedule grants %d turns to txn %d with %d ops" counts.(i) i (List.length s)))
      c.specs;
    Result.map (fun () -> c) !ok

(* {1 Codec} *)

let granularity_to_string = function Config.Row -> "row" | Config.Page -> "page"

let variant_to_string = function Config.Basic -> "basic" | Config.Precise -> "precise"

let victim_to_string = function
  | Config.Prefer_pivot -> "pivot"
  | Config.Prefer_younger -> "younger"

let bool01 b = if b then "1" else "0"

let point_to_string p =
  Printf.sprintf
    "granularity=%s ssi=%s gap_locking=%s abort_early=%s victim=%s ro_refinement=%s \
     upgrade_siread=%s memory_budget=%d wal_flush=%s checkpoint_interval=%d"
    (granularity_to_string p.granularity)
    (variant_to_string p.ssi) (bool01 p.gap_locking) (bool01 p.abort_early)
    (victim_to_string p.victim) (bool01 p.ro_refinement) (bool01 p.upgrade_siread)
    p.memory_budget (bool01 p.wal_flush) p.checkpoint_interval

let point_of_string s =
  let ( let* ) = Result.bind in
  let fields =
    List.filter_map
      (fun tok ->
        match String.index_opt tok '=' with
        | Some i -> Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
        | None -> None)
      (String.split_on_char ' ' s)
  in
  let get k =
    match List.assoc_opt k fields with
    | Some v -> Ok v
    | None -> Error ("cfg: missing field " ^ k)
  in
  let get_bool k =
    let* v = get k in
    match v with "1" -> Ok true | "0" -> Ok false | _ -> Error ("cfg: bad bool " ^ k ^ "=" ^ v)
  in
  let* granularity =
    let* v = get "granularity" in
    match v with
    | "row" -> Ok Config.Row
    | "page" -> Ok Config.Page
    | _ -> Error ("cfg: bad granularity " ^ v)
  in
  let* ssi =
    let* v = get "ssi" in
    match v with
    | "basic" -> Ok Config.Basic
    | "precise" -> Ok Config.Precise
    | _ -> Error ("cfg: bad ssi " ^ v)
  in
  let* victim =
    let* v = get "victim" in
    match v with
    | "pivot" -> Ok Config.Prefer_pivot
    | "younger" -> Ok Config.Prefer_younger
    | _ -> Error ("cfg: bad victim " ^ v)
  in
  let* gap_locking = get_bool "gap_locking" in
  let* abort_early = get_bool "abort_early" in
  let* ro_refinement = get_bool "ro_refinement" in
  let* upgrade_siread = get_bool "upgrade_siread" in
  (* Fields added by later codec versions parse with their old default when
     missing, so v1 (no memory_budget) and v2 (no wal_flush /
     checkpoint_interval) repro files keep their original meaning. *)
  let opt_int k =
    match List.assoc_opt k fields with
    | None -> Ok 0
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n >= 0 -> Ok n
        | _ -> Error ("cfg: bad " ^ k ^ " " ^ v))
  in
  let* memory_budget = opt_int "memory_budget" in
  let* checkpoint_interval = opt_int "checkpoint_interval" in
  let* wal_flush =
    match List.assoc_opt "wal_flush" fields with
    | None -> Ok false
    | Some "1" -> Ok true
    | Some "0" -> Ok false
    | Some v -> Error ("cfg: bad wal_flush " ^ v)
  in
  Ok
    {
      granularity;
      ssi;
      gap_locking;
      abort_early;
      victim;
      ro_refinement;
      upgrade_siread;
      memory_budget;
      wal_flush;
      checkpoint_interval;
    }

let op_of_string s : (Interleave.op, string) result =
  let open Interleave in
  let arg prefix =
    let p = String.length prefix in
    let l = String.length s in
    if l > p + 1 && String.sub s 0 (p + 1) = prefix ^ "(" && s.[l - 1] = ')' then
      Some (String.sub s (p + 1) (l - p - 2))
    else None
  in
  if s = "abort" then Ok Abort_op
  else
    match arg "scan" with
    | Some body -> (
        match String.split_on_char ',' body with
        | [ lo; hi; lim ] -> (
            let bound = function "-" -> None | k -> Some k in
            match lim with
            | "-" -> Ok (Scan (bound lo, bound hi, None))
            | n -> (
                match int_of_string_opt n with
                | Some v when v > 0 -> Ok (Scan (bound lo, bound hi, Some v))
                | _ -> Error ("bad scan limit: " ^ s)))
        | _ -> Error ("bad scan op: " ^ s))
    | None -> (
        match (arg "r", arg "w", arg "u", arg "ins", arg "del") with
        | Some k, _, _, _, _ -> Ok (R k)
        | _, Some k, _, _, _ -> Ok (W k)
        | _, _, Some k, _, _ -> Ok (Rfu k)
        | _, _, _, Some k, _ -> Ok (Insert k)
        | _, _, _, _, Some k -> Ok (Delete k)
        | _ -> Error ("unknown op: " ^ s))

let spec_of_string s : (Interleave.spec, string) result =
  if s = "" then Ok []
  else
    List.fold_right
      (fun tok acc ->
        Result.bind acc (fun ops -> Result.map (fun op -> op :: ops) (op_of_string tok)))
      (String.split_on_char ';' s)
      (Ok [])

(* v2 added the optional [memory_budget] cfg field; v3 added [wal_flush]
   and [checkpoint_interval] (durability knobs for the crash fuzzer). Older
   files are still accepted: missing fields parse to the old defaults, so
   every v1/v2 repro keeps its original meaning. *)
let magic = "ssi-fuzz-repro v3"
let magic_v2 = "ssi-fuzz-repro v2"
let magic_v1 = "ssi-fuzz-repro v1"

(* [expect] carries (level, digest) pairs verified on replay. *)
let to_string ?(expect = []) ?(comment = []) (c : t) =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "%s" magic;
  List.iter (fun cm -> line "# %s" cm) comment;
  line "cfg %s" (point_to_string c.cfg);
  List.iter (fun (k, v) -> line "init %s=%s" k v) c.init;
  List.iter2 (fun ro spec -> line "txn ro=%s %s" (bool01 ro) (Interleave.spec_to_string spec)) c.ro
    c.specs;
  line "schedule %s" (String.concat " " (List.map string_of_int c.schedule));
  List.iter (fun (lvl, digest) -> line "expect %s %s" lvl digest) expect;
  Buffer.contents b

let of_string content : (t * (string * string) list, string) result =
  let ( let* ) = Result.bind in
  let lines =
    List.filter
      (fun l -> l <> "" && l.[0] <> '#')
      (List.map String.trim (String.split_on_char '\n' content))
  in
  match lines with
  | [] -> Error "empty repro file"
  | first :: rest when first = magic || first = magic_v2 || first = magic_v1 ->
      let cfg = ref None in
      let init = ref [] in
      let txns = ref [] in
      let schedule = ref None in
      let expect = ref [] in
      let parse_line l =
        match String.index_opt l ' ' with
        | None -> Error ("bad line: " ^ l)
        | Some i -> (
            let kw = String.sub l 0 i in
            let body = String.sub l (i + 1) (String.length l - i - 1) in
            match kw with
            | "cfg" ->
                let* p = point_of_string body in
                cfg := Some p;
                Ok ()
            | "init" -> (
                match String.index_opt body '=' with
                | Some j ->
                    init :=
                      (String.sub body 0 j, String.sub body (j + 1) (String.length body - j - 1))
                      :: !init;
                    Ok ()
                | None -> Error ("bad init line: " ^ l))
            | "txn" -> (
                match String.split_on_char ' ' body with
                | ro_field :: spec_parts ->
                    let* ro =
                      match ro_field with
                      | "ro=1" -> Ok true
                      | "ro=0" -> Ok false
                      | _ -> Error ("bad txn ro field: " ^ l)
                    in
                    let* spec = spec_of_string (String.concat " " spec_parts) in
                    txns := (ro, spec) :: !txns;
                    Ok ()
                | [] -> Error ("bad txn line: " ^ l))
            | "schedule" ->
                let* ids =
                  List.fold_right
                    (fun tok acc ->
                      let* ids = acc in
                      match int_of_string_opt tok with
                      | Some v -> Ok (v :: ids)
                      | None -> Error ("bad schedule entry: " ^ tok))
                    (List.filter (( <> ) "") (String.split_on_char ' ' body))
                    (Ok [])
                in
                schedule := Some ids;
                Ok ()
            | "expect" -> (
                match String.split_on_char ' ' body with
                | [ lvl; digest ] ->
                    expect := (lvl, digest) :: !expect;
                    Ok ()
                | _ -> Error ("bad expect line: " ^ l))
            | _ -> Error ("unknown keyword: " ^ kw))
      in
      let* () =
        List.fold_left (fun acc l -> Result.bind acc (fun () -> parse_line l)) (Ok ()) rest
      in
      let* cfg = match !cfg with Some c -> Ok c | None -> Error "missing cfg line" in
      let* schedule =
        match !schedule with Some s -> Ok s | None -> Error "missing schedule line"
      in
      let txns = List.rev !txns in
      let case =
        {
          specs = List.map snd txns;
          ro = List.map fst txns;
          init = List.rev !init;
          schedule;
          cfg;
        }
      in
      let* case = validate case in
      Ok (case, List.rev !expect)
  | first :: _ -> Error ("bad magic line: " ^ first)
