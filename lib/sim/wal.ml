(* Write-ahead log with group commit, logical redo records and deterministic
   crash injection.

   Commit durability dominates transaction response time in the paper's
   "long transactions" experiments (Fig 6.2-6.5): a synchronous log flush
   costs ~10ms, but one physical flush hardens every record appended before
   it was issued, so concurrent committers share flushes (group commit,
   enabled by default in both Berkeley DB and InnoDB).

   Since PR 6 the log carries logical redo records: appends buffer encoded
   frames into the open epoch, a physical flush (or a checkpoint / an
   explicit harden) moves whole epochs into the durable image, and a seeded
   crash plan can cut the run at a chosen append, mid-flush with a torn
   tail, or inside the commit window. Two invariants matter for recovery:

   - Epochs are sealed in order and hardened whole (except for the injected
     torn tail), so [durable_log] is always a byte-prefix of the log a
     crash-free run would have written.

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
   buffer: no payload string, no Printf. Every group flush and [Db.load]
   (which hardens every loaded row) go through here. *)

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

type t = {
  sim : Sim.t;
  mode : mode;
  mutable epoch : int; (* current open batch *)
  mutable flushed : int; (* highest hardened batch *)
  mutable flusher_active : bool;
  flushed_cond : Sim.cond;
  pending : (int * record) Queue.t;
      (* (epoch, record) in append order; epochs never decrease, so every
         sealed batch is a prefix *)
  mutable durable : string list;
      (* the durable log image as the pieces each harden wrote, newest
         first; the oldest is the header. Kept in pieces so that a harden
         never copies the image. *)
  mutable durable_bytes : int; (* the image's length *)
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

let create sim ~mode =
  {
    sim;
    mode;
    epoch = 0;
    flushed = -1;
    flusher_active = false;
    flushed_cond = Sim.cond ();
    pending = Queue.create ();
    durable = [ header ];
    durable_bytes = String.length header;
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
  Queue.add (t.epoch, r) t.pending;
  t.appends <- t.appends + 1

let add_durable t piece =
  t.durable <- piece :: t.durable;
  t.durable_bytes <- t.durable_bytes + String.length piece

(* Move every pending record of epoch <= target into the durable image, in
   append order: they are a prefix of [pending], since epochs only grow.
   They become one piece. *)
let harden_upto t target =
  let hardens () = (not (Queue.is_empty t.pending)) && fst (Queue.peek t.pending) <= target in
  if hardens () then begin
    let buf = Buffer.create 1024 in
    while hardens () do
      add_frame buf (snd (Queue.pop t.pending))
    done;
    add_durable t (Buffer.contents buf)
  end;
  if t.flushed < target then t.flushed <- target

(* Injected mid-flush failure: harden [keep] whole frames of the sealed
   batch plus [torn] bytes of the following frame, then crash. Clamped so
   the tear is always a strict frame prefix (a whole extra frame would be a
   clean boundary, not a tear). *)
let tear_and_crash t target ~keep ~torn plan =
  let frames =
    List.rev (Queue.fold (fun acc (e, r) -> if e <= target then frame r :: acc else acc) [] t.pending)
  in
  let keep = max 0 (min keep (List.length frames)) in
  List.iteri (fun i f -> if i < keep then add_durable t f) frames;
  (match List.nth_opt frames keep with
  | Some f when torn > 0 ->
      let torn = min torn (String.length f - 1) in
      add_durable t (String.sub f 0 torn)
  | _ -> ());
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
    let target = t.epoch in
    t.epoch <- t.epoch + 1;
    Sim.delay t.sim latency;
    t.flushes <- t.flushes + 1;
    (match t.plan with
    | Some (Crash_mid_flush { flush; keep; torn } as p) ->
        t.p_flushes <- t.p_flushes + 1;
        if t.p_flushes = flush then tear_and_crash t target ~keep ~torn p
    | Some _ -> t.p_flushes <- t.p_flushes + 1
    | None -> ());
    harden_upto t target;
    if Obs.on t.obs then
      Obs.emit t.obs ~ts:(Sim.now t.sim)
        (Obs.Wal_flush { epoch = target; latency; queued = Queue.length t.pending });
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
   they take no simulated time: seal the open batch (records of an epoch an
   in-flight group flush already sealed may be hardened here first; the
   flush leader's later [harden_upto] then finds them gone and the
   max-guard on [flushed] keeps the watermark monotone) and write it plus
   the checkpoint record synchronously. *)
let checkpoint t ~watermark ~next_ts =
  Queue.add (t.epoch, Checkpoint { watermark; next_ts }) t.pending;
  let target = t.epoch in
  t.epoch <- t.epoch + 1;
  harden_upto t target;
  if Obs.on t.obs then
    Obs.emit t.obs ~ts:(Sim.now t.sim)
      (Obs.Wal_checkpoint { epoch = target; watermark; next_ts })

let harden t =
  let target = t.epoch in
  t.epoch <- t.epoch + 1;
  harden_upto t target

let durable_log t = String.concat "" (List.rev t.durable)

let durable_bytes t = t.durable_bytes

let appends t = t.appends

let flushes t = t.flushes

(* Events seen since [arm] — the trigger-counter values a fault plan indexes
   into. Arming a plan that can never fire (e.g. [Crash_on_append max_int])
   turns a crash-free run into a census of its crashable points. *)
let armed_appends t = t.p_appends

let armed_flushes t = t.p_flushes

let armed_windows t = t.p_windows
