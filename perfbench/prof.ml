(* Layer profile of one benchmark run, taken from outside the engine.

   - Spans: named wall-clock intervals around the harness's own calls into
     the layers (setup, Driver.run_once, output checks, Explore.explore, the
     on_run oracle). Every span is kept in memory and written out at the end.
   - Stack sampler: a SIGPROF interval timer whose handler walks the OCaml
     call stack (Printexc.get_callstack) and charges the sample to the layer
     of the innermost repository frame, inside the span that is open. Frames
     of the stdlib and other libraries are charged to their caller.
   - GC time: runtime phase begin/end events read back in-process from the
     OCaml 5 runtime_events ring, charged to the open span.

   Nothing here is linked into the engine; with tracing off none of it is
   started. *)

let layers =
  [|
    "lockmgr";
    "btree";
    "mvstore";
    "exec";
    "conflict";
    "sim";
    "wal";
    "obs";
    "driver";
    "benchmarks";
    "sercheck";
    "other";
  |]

let n_layers = Array.length layers

let layer name =
  let rec go i = if layers.(i) = name then i else go (i + 1) in
  go 0

(* Repository frames outside the named layers (par, fuzz, the harness). *)
let other = layer "other"

(* Samples with no repository frame on the stack at all. *)
let unattributed = n_layers

(* Layer of a source file as the debug info names it (a path relative to
   the dune workspace root), or [None] for frames outside the repository.
   The sampler's own frames are skipped too. *)
let layer_of_file file =
  match String.split_on_char '/' file with
  | [ "perfbench"; "prof.ml" ] -> None
  | "perfbench" :: _ -> Some other
  | "lib" :: dir :: base :: _ -> (
      match (dir, base) with
      | "lockmgr", _ -> Some (layer "lockmgr")
      | "btree", _ -> Some (layer "btree")
      | "storage", _ -> Some (layer "mvstore")
      | "core", ("conflict.ml" | "provenance.ml") -> Some (layer "conflict")
      | "core", _ -> Some (layer "exec")
      | "sim", "wal.ml" -> Some (layer "wal")
      | "sim", _ -> Some (layer "sim")
      | "obs", _ -> Some (layer "obs")
      | "workload", _ -> Some (layer "driver")
      | "benchmarks", _ -> Some (layer "benchmarks")
      | "sercheck", _ -> Some (layer "sercheck")
      | _ -> Some other)
  | _ -> None

let spans = [| "setup"; "run_once"; "check"; "explore"; "oracle" |]

let n_spans = Array.length spans

let span_index name =
  let rec go i = if spans.(i) = name then i else go (i + 1) in
  go 0

let no_span = -1

(* {1 State} *)

let current = ref no_span

let samples = Array.make_matrix n_spans (n_layers + 1) 0

let gc_ns = Array.make n_spans 0L

(* Completed spans, newest first: (name, start, duration), wall seconds
   relative to [epoch]. *)
let log = ref []

let epoch = Unix.gettimeofday ()

let sampling = ref false

(* {1 GC time from runtime_events} *)

let cursor = ref None

let gc_depth = ref 0

let gc_begin = ref 0L

(* Runtime phases nest; the time from the outermost begin to its end is GC
   (or other runtime) work done on behalf of the open span. *)
let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ ts _ ->
      if !gc_depth = 0 then gc_begin := Runtime_events.Timestamp.to_int64 ts;
      incr gc_depth)
    ~runtime_end:(fun _ ts _ ->
      if !gc_depth > 0 then begin
        decr gc_depth;
        if !gc_depth = 0 && !current >= 0 then
          gc_ns.(!current) <-
            Int64.add gc_ns.(!current)
              (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !gc_begin)
      end)
    ()

(* The sampler polls too, so a poll may interrupt another one; the ring is
   simply read by whichever comes first. *)
let polling = ref false

let poll_gc () =
  match !cursor with
  | Some c when not !polling ->
      polling := true;
      Fun.protect
        ~finally:(fun () -> polling := false)
        (fun () -> ignore (Runtime_events.read_poll c callbacks None))
  | _ -> ()

(* {1 Stack sampler} *)

let rec slot_layer slot =
  let here =
    match Printexc.Slot.location (Printexc.convert_raw_backtrace_slot slot) with
    | Some loc -> layer_of_file loc.Printexc.filename
    | None -> None
  in
  match here with
  | Some _ -> here
  | None -> (
      (* inlined callers of this frame come next, innermost first *)
      match Printexc.get_raw_backtrace_next_slot slot with
      | Some next -> slot_layer next
      | None -> None)

let classify () =
  let stack = Printexc.get_callstack 64 in
  let n = Printexc.raw_backtrace_length stack in
  let rec go i =
    if i >= n then unattributed
    else
      match slot_layer (Printexc.get_raw_backtrace_slot stack i) with
      | Some l -> l
      | None -> go (i + 1)
  in
  go 0

let tick _ =
  let s = !current in
  if s >= 0 then begin
    let l = classify () in
    samples.(s).(l) <- samples.(s).(l) + 1
  end;
  poll_gc ()

let interval = 0.002

let set_timer on =
  let v = if on then interval else 0.0 in
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = v; it_value = v })

(* Start (or resume) sampling and GC-event collection. *)
let start () =
  if !cursor = None then begin
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None);
    Sys.set_signal Sys.sigprof (Sys.Signal_handle tick)
  end
  else Runtime_events.resume ();
  poll_gc ();
  sampling := true;
  set_timer true

(* Pause both, so untraced stretches of a traced run pay nothing. *)
let stop () =
  if !sampling then begin
    set_timer false;
    poll_gc ();
    Runtime_events.pause ();
    sampling := false
  end

(* {1 Spans} *)

let record_span name f =
  let s = span_index name in
  let prev = !current in
  poll_gc ();
  current := s;
  let t0 = Unix.gettimeofday () in
  let finish () =
    let dt = Unix.gettimeofday () -. t0 in
    poll_gc ();
    current := prev;
    log := (name, t0 -. epoch, dt) :: !log
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* Spans are recorded only between [start] and [stop]. *)
let span name f = if !sampling then record_span name f else f ()

(* {1 Read-out} *)

let samples_in names =
  let total = Array.make (n_layers + 1) 0 in
  List.iter
    (fun name -> Array.iteri (fun l n -> total.(l) <- total.(l) + n) samples.(span_index name))
    names;
  total

let gc_s_in names =
  List.fold_left (fun a name -> a +. (Int64.to_float gc_ns.(span_index name) *. 1e-9)) 0.0 names

(* Spans as one JSON array, oldest first. *)
let write_spans path =
  let oc = open_out path in
  output_string oc "[";
  List.iteri
    (fun i (name, start, dur) ->
      Printf.fprintf oc "%s\n{\"span\":\"%s\",\"start_s\":%.6f,\"dur_s\":%.6f}"
        (if i = 0 then "" else ",")
        name start dur)
    (List.rev !log);
  output_string oc "\n]\n";
  close_out oc
