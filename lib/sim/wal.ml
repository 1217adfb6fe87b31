(* Write-ahead log with group commit, logical redo records and deterministic
   crash injection.

   Commit durability dominates transaction response time in the paper's
   "long transactions" experiments (Fig 6.2-6.5): a synchronous log flush
   costs ~10ms, but one physical flush hardens every record appended before
   it was issued, so concurrent committers share flushes (group commit,
   enabled by default in both Berkeley DB and InnoDB).

   The log carries logical redo records: appends add records to the open
   batch (epoch), a physical flush (or a checkpoint / an explicit harden)
   hardens whole batches, and a seeded crash plan can cut the run at a
   chosen append, mid-flush with a torn tail, or inside the commit window.
   The log keeps the records and a hardened count; the durable image is
   encoded from them only when it is read. Two invariants matter for
   recovery:

   - Batches are sealed in order and hardened whole (except for the
     injected torn tail), so [durable_log] is always a byte-prefix of the
     log a crash-free run would have written.

   - Commit records are appended in commit-ts order (the engine allocates
     the ts and appends in one atomic simulated step), so the durable
     committed set is always a ts-prefix of the logged commits. *)

type mode =
  | No_flush (* commit returns once the record is buffered (Fig 6.1) *)
  | Flush_per_commit of float (* synchronous flush with given latency *)

(* {1 Logical records and the frame codec} *)

type record =
  | Begin of { txn : int }
  | Write of { txn : int; table : string; key : string; value : string }
  | Delete of { txn : int; table : string; key : string }
  | Commit of { txn : int; ts : int }
  | Abort of { txn : int }
  | Checkpoint of { watermark : int; next_ts : int }

let header = "ssi-wal v1\n"

(* Payload fields are space-separated; any byte outside a conservative
   plain set is %HH-escaped so fields can carry spaces, newlines, '%' and
   arbitrary binary (the fuzzer generates such keys). *)
let plain c =
  match c with
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | ',' | '~' | '/' | '-' -> true
  | _ -> false

(* {2 Encoder}

   A frame is "<payload length>:<payload>\n". The payload's length is
   computed first, so the frame is written straight into the destination
   buffer: no payload string, no Printf. [durable_log] and [encode] go
   through here; [durable_bytes] sums [payload_length]s. *)

let hex = "0123456789ABCDEF"

let esc_length s =
  let n = ref 0 in
  for i = 0 to String.length s - 1 do
    n := !n + if plain (String.unsafe_get s i) then 1 else 3
  done;
  !n

let add_esc buf s =
  if esc_length s = String.length s then Buffer.add_string buf s
  else
    for i = 0 to String.length s - 1 do
      let c = String.unsafe_get s i in
      if plain c then Buffer.add_char buf c
      else begin
        Buffer.add_char buf '%';
        Buffer.add_char buf hex.[Char.code c lsr 4];
        Buffer.add_char buf hex.[Char.code c land 15]
      end
    done

(* Decimal digits of [n], as "%d" prints it. *)
let int_length n = if n < 0 then String.length (string_of_int n) else Decimal.length n

let add_int buf n = if n < 0 then Buffer.add_string buf (string_of_int n) else Decimal.add buf n

(* Payload fields after the one-letter tag, each preceded by a space. *)
let payload_length r =
  2
  +
  match r with
  | Begin { txn } | Abort { txn } -> int_length txn
  | Write { txn; table; key; value } ->
      int_length txn + esc_length table + esc_length key + esc_length value + 3
  | Delete { txn; table; key } -> int_length txn + esc_length table + esc_length key + 2
  | Commit { txn; ts } -> int_length txn + int_length ts + 1
  | Checkpoint { watermark; next_ts } -> int_length watermark + int_length next_ts + 1

let add_int_field buf n =
  Buffer.add_char buf ' ';
  add_int buf n

let add_field buf s =
  Buffer.add_char buf ' ';
  add_esc buf s

let add_payload buf r =
  match r with
  | Begin { txn } ->
      Buffer.add_char buf 'B';
      add_int_field buf txn
  | Write { txn; table; key; value } ->
      Buffer.add_char buf 'W';
      add_int_field buf txn;
      add_field buf table;
      add_field buf key;
      add_field buf value
  | Delete { txn; table; key } ->
      Buffer.add_char buf 'D';
      add_int_field buf txn;
      add_field buf table;
      add_field buf key
  | Commit { txn; ts } ->
      Buffer.add_char buf 'C';
      add_int_field buf txn;
      add_int_field buf ts
  | Abort { txn } ->
      Buffer.add_char buf 'A';
      add_int_field buf txn
  | Checkpoint { watermark; next_ts } ->
      Buffer.add_char buf 'K';
      add_int_field buf watermark;
      add_int_field buf next_ts

let add_frame buf r =
  add_int buf (payload_length r);
  Buffer.add_char buf ':';
  add_payload buf r;
  Buffer.add_char buf '\n'

let frame r =
  let buf = Buffer.create 32 in
  add_frame buf r;
  Buffer.contents buf

(* {2 Decoder} *)

let unesc s =
  let n = String.length s in
  let buf = Buffer.create n in
  let i = ref 0 in
  let ok = ref true in
  while !ok && !i < n do
    let c = s.[!i] in
    if c = '%' then
      if !i + 2 < n then begin
        (match int_of_string_opt ("0x" ^ String.sub s (!i + 1) 2) with
        | Some b when b >= 0 && b <= 255 -> Buffer.add_char buf (Char.chr b)
        | _ -> ok := false);
        i := !i + 3
      end
      else ok := false
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  if !ok then Some (Buffer.contents buf) else None

let record_of_payload p =
  let fields = String.split_on_char ' ' p in
  let int_of s = int_of_string_opt s in
  match fields with
  | [ "B"; txn ] -> ( match int_of txn with Some txn -> Some (Begin { txn }) | None -> None)
  | [ "W"; txn; table; key; value ] -> (
      match (int_of txn, unesc table, unesc key, unesc value) with
      | Some txn, Some table, Some key, Some value -> Some (Write { txn; table; key; value })
      | _ -> None)
  | [ "D"; txn; table; key ] -> (
      match (int_of txn, unesc table, unesc key) with
      | Some txn, Some table, Some key -> Some (Delete { txn; table; key })
      | _ -> None)
  | [ "C"; txn; ts ] -> (
      match (int_of txn, int_of ts) with
      | Some txn, Some ts -> Some (Commit { txn; ts })
      | _ -> None)
  | [ "A"; txn ] -> ( match int_of txn with Some txn -> Some (Abort { txn }) | None -> None)
  | [ "K"; watermark; next_ts ] -> (
      match (int_of watermark, int_of next_ts) with
      | Some watermark, Some next_ts -> Some (Checkpoint { watermark; next_ts })
      | _ -> None)
  | _ -> None

let encode records =
  let buf = Buffer.create 256 in
  Buffer.add_string buf header;
  List.iter (add_frame buf) records;
  Buffer.contents buf

(* Decode a log image. Truncation anywhere — inside the header, inside a
   frame's length prefix, inside its payload, or before its terminating
   newline — is reported as a torn tail of that many bytes, never as an
   error; only in-bounds corruption is. *)
let decode s =
  let n = String.length s in
  let hn = String.length header in
  if n < hn then
    if String.equal s (String.sub header 0 n) then Ok ([], n)
    else Error "bad log header"
  else if not (String.equal (String.sub s 0 hn) header) then Error "bad log header"
  else begin
    let records = ref [] in
    let pos = ref hn in
    let result = ref None in
    while !result = None && !pos < n do
      let start = !pos in
      (* length prefix: digits up to ':' *)
      let j = ref start in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
        incr j
      done;
      if !j = start then result := Some (Error (Printf.sprintf "byte %d: expected frame length" start))
      else if !j >= n then result := Some (Ok (List.rev !records, n - start)) (* torn length *)
      else if s.[!j] <> ':' then
        result := Some (Error (Printf.sprintf "byte %d: expected ':' after frame length" !j))
      else begin
        let len = int_of_string (String.sub s start (!j - start)) in
        let p0 = !j + 1 in
        if p0 + len >= n + 1 then result := Some (Ok (List.rev !records, n - start)) (* torn payload *)
        else if p0 + len = n then result := Some (Ok (List.rev !records, n - start)) (* torn: missing \n *)
        else if s.[p0 + len] <> '\n' then
          result := Some (Error (Printf.sprintf "byte %d: frame not newline-terminated" (p0 + len)))
        else
          match record_of_payload (String.sub s p0 len) with
          | Some r ->
              records := r :: !records;
              pos := p0 + len + 1
          | None -> result := Some (Error (Printf.sprintf "byte %d: malformed record payload" p0))
      end
    done;
    match !result with Some r -> r | None -> Ok (List.rev !records, 0)
  end

(* {1 Crash plans} *)

type plan =
  | Crash_on_append of int
  | Crash_mid_flush of { flush : int; keep : int; torn : int }
  | Crash_at_commit_window of int

exception Crash

let plan_to_string = function
  | Crash_on_append n -> Printf.sprintf "append:%d" n
  | Crash_mid_flush { flush; keep; torn } -> Printf.sprintf "flush:%d:%d:%d" flush keep torn
  | Crash_at_commit_window n -> Printf.sprintf "window:%d" n

(* Trigger counts are 1-based; [keep] and [torn] may be 0. *)
let plan_of_string s =
  let at_least min n =
    match int_of_string_opt n with Some n when n >= min -> Some n | _ -> None
  in
  match String.split_on_char ':' s with
  | [ "append"; n ] -> Option.map (fun n -> Crash_on_append n) (at_least 1 n)
  | [ "flush"; f; k; t ] -> (
      match (at_least 1 f, at_least 0 k, at_least 0 t) with
      | Some flush, Some keep, Some torn -> Some (Crash_mid_flush { flush; keep; torn })
      | _ -> None)
  | [ "window"; n ] -> Option.map (fun n -> Crash_at_commit_window n) (at_least 1 n)
  | _ -> None

(* {1 The log} *)

(* The log is every record appended, in order, plus how many of them are
   hardened: a seal (a flush leader's, a checkpoint's, a harden's) closes
   the open batch at the log's length, and hardening the batch raises the
   count to that length. Nothing is encoded until the image is read. *)
type t = {
  sim : Sim.t;
  mode : mode;
  mutable epoch : int; (* current open batch *)
  mutable flushed : int; (* highest hardened batch *)
  mutable flusher_active : bool;
  flushed_cond : Sim.cond;
  mutable log : record array; (* records appended, [0, len) in use *)
  mutable len : int;
  mutable hardened : int; (* the durable prefix of [log]; never falls *)
  mutable torn : string;
      (* the prefix of frame [hardened] that a mid-flush crash wrote *)
  mutable appends : int;
  mutable flushes : int;
  mutable plan : plan option;
  (* Trigger counters, zeroed by [arm] so fault plans count from the arming
     point (after Db.load), not from db creation. *)
  mutable p_appends : int;
  mutable p_flushes : int;
  mutable p_windows : int;
  mutable obs : Obs.t; (* observability sink; Obs.disabled costs one branch *)
}

(* Fills the unused tail of [log]. *)
let spare = Abort { txn = -1 }

let create sim ~mode =
  {
    sim;
    mode;
    epoch = 0;
    flushed = -1;
    flusher_active = false;
    flushed_cond = Sim.cond ();
    log = Array.make 16 spare;
    len = 0;
    hardened = 0;
    torn = "";
    appends = 0;
    flushes = 0;
    plan = None;
    p_appends = 0;
    p_flushes = 0;
    p_windows = 0;
    obs = Obs.disabled;
  }

let set_obs t obs = t.obs <- obs

let mode t = t.mode

let arm t plan =
  t.plan <- Some plan;
  t.p_appends <- 0;
  t.p_flushes <- 0;
  t.p_windows <- 0

let crash t plan =
  if Obs.tracing t.obs then
    Obs.emit t.obs ~ts:(Sim.now t.sim) (Obs.Crash_inject { plan = plan_to_string plan });
  raise Crash

let push t r =
  if t.len = Array.length t.log then begin
    let log = Array.make (2 * t.len) spare in
    Array.blit t.log 0 log 0 t.len;
    t.log <- log
  end;
  t.log.(t.len) <- r;
  t.len <- t.len + 1

(* Buffer a log record; cheap, cost accounted by the caller's CPU model.
   A matching [Crash_on_append] fires *instead of* the append: the record
   is never buffered, modeling a failure before the in-memory log write. *)
let append t r =
  (match t.plan with
  | Some (Crash_on_append n as p) ->
      t.p_appends <- t.p_appends + 1;
      if t.p_appends = n then crash t p
  | Some _ -> t.p_appends <- t.p_appends + 1
  | None -> ());
  push t r;
  t.appends <- t.appends + 1

(* Close the open batch: returns it and the log length it ends at. *)
let seal t =
  let target = t.epoch in
  t.epoch <- t.epoch + 1;
  (target, t.len)

(* Harden a sealed batch and every record before it. Both counts are
   max-guarded: a checkpoint may harden a batch an in-flight flush sealed
   earlier, before that flush ends. *)
let harden_upto t (target, upto) =
  if t.hardened < upto then t.hardened <- upto;
  if t.flushed < target then t.flushed <- target

(* Injected mid-flush failure: harden [keep] whole frames of the sealed
   batch plus [torn] bytes of the following frame, then crash. Clamped so
   the tear is always a strict frame prefix (a whole extra frame would be a
   clean boundary, not a tear). *)
let tear_and_crash t (_, upto) ~keep ~torn plan =
  let batch = max 0 (upto - t.hardened) in
  let keep = max 0 (min keep batch) in
  t.hardened <- t.hardened + keep;
  if torn > 0 && keep < batch then begin
    let f = frame t.log.(t.hardened) in
    t.torn <- String.sub f 0 (min torn (String.length f - 1))
  end;
  crash t plan

let rec ensure_flushed t ~latency ~upto =
  if t.flushed >= upto then ()
  else if t.flusher_active then begin
    Sim.wait t.sim t.flushed_cond;
    ensure_flushed t ~latency ~upto
  end
  else begin
    (* Become the flush leader: seal the open batch, write it, repeat while
       our own record is still unhardened. *)
    t.flusher_active <- true;
    let batch = seal t in
    Sim.delay t.sim latency;
    t.flushes <- t.flushes + 1;
    (match t.plan with
    | Some (Crash_mid_flush { flush; keep; torn } as p) ->
        t.p_flushes <- t.p_flushes + 1;
        if t.p_flushes = flush then tear_and_crash t batch ~keep ~torn p
    | Some _ -> t.p_flushes <- t.p_flushes + 1
    | None -> ());
    harden_upto t batch;
    if Obs.on t.obs then
      Obs.emit t.obs ~ts:(Sim.now t.sim)
        (Obs.Wal_flush { epoch = fst batch; latency; queued = t.len - t.hardened });
    t.flusher_active <- false;
    Sim.broadcast t.sim t.flushed_cond;
    ensure_flushed t ~latency ~upto
  end

(* Make every record appended so far durable; returns when a flush covering
   the caller's batch completes. *)
let commit_flush t =
  match t.mode with
  | No_flush -> ()
  | Flush_per_commit latency -> ensure_flushed t ~latency ~upto:t.epoch

let commit_window_check t =
  match t.plan with
  | Some (Crash_at_commit_window n as p) ->
      t.p_windows <- t.p_windows + 1;
      if t.p_windows = n then crash t p
  | Some _ -> t.p_windows <- t.p_windows + 1
  | None -> ()

(* Checkpoints model background I/O that overlaps normal processing, so
   they take no simulated time: seal the open batch (which hardens any
   batch an in-flight group flush sealed before it; the flush leader's
   later [harden_upto] is then a no-op) and write it plus the checkpoint
   record synchronously. *)
let checkpoint t ~watermark ~next_ts =
  push t (Checkpoint { watermark; next_ts });
  let batch = seal t in
  harden_upto t batch;
  if Obs.on t.obs then
    Obs.emit t.obs ~ts:(Sim.now t.sim)
      (Obs.Wal_checkpoint { epoch = fst batch; watermark; next_ts })

let harden t = harden_upto t (seal t)

let frame_length r =
  let p = payload_length r in
  int_length p + p + 2

let durable_bytes t =
  let n = ref (String.length header + String.length t.torn) in
  for i = 0 to t.hardened - 1 do
    n := !n + frame_length t.log.(i)
  done;
  !n

let durable_log t =
  let buf = Buffer.create (durable_bytes t) in
  Buffer.add_string buf header;
  for i = 0 to t.hardened - 1 do
    add_frame buf t.log.(i)
  done;
  Buffer.add_string buf t.torn;
  Buffer.contents buf

let appends t = t.appends

let flushes t = t.flushes

(* Events seen since [arm] — the trigger-counter values a fault plan indexes
   into. Arming a plan that can never fire (e.g. [Crash_on_append max_int])
   turns a crash-free run into a census of its crashable points. *)
let armed_appends t = t.p_appends

let armed_flushes t = t.p_flushes

let armed_windows t = t.p_windows
