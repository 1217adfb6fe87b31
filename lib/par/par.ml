(* Fixed-size domain pool with a shared work queue.

   Concurrency story: one mutex [m] guards the queue, the stop flag and the
   per-batch completion counter. Workers block on [nonempty]; the submitter
   blocks on [progress]. Result slots are plain [option array]s written by
   exactly one job each and read by the submitter only after it has
   observed, under [m], that the slot's job finished — the mutex
   release/acquire pair publishes the write, so no atomics are needed.

   Only one batch can be in flight: [run] blocks until its batch drains,
   and nested submission from jobs is rejected (a job waiting on a full
   pool of workers that are all waiting on jobs is a deadlock; rejecting
   loudly at any size keeps [-j 1] and [-j N] behaviourally identical). *)

type t = {
  size : int;
  m : Mutex.t;
  nonempty : Condition.t; (* a job was queued, or the pool is stopping *)
  progress : Condition.t; (* a job finished *)
  queue : (unit -> unit) Queue.t;
      (* a stdlib Queue: this library does not depend on des, and each
         batch drains it *)
  mutable stopping : bool;
  mutable remaining : int; (* jobs of the in-flight batch not yet finished *)
  mutable workers : unit Domain.t list;
}

let size t = t.size

let recommended () = Domain.recommended_domain_count ()

(* Domain-local "currently executing a pool job" flag, for nested-submission
   rejection. *)
let in_job_key = Domain.DLS.new_key (fun () -> false)

let inside_job () = Domain.DLS.get in_job_key

let exec_job (f : unit -> 'a) : 'a =
  Domain.DLS.set in_job_key true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_job_key false) f

let rec worker_loop t =
  Mutex.lock t.m;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.nonempty t.m
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.m (* stopping *)
  else begin
    let job = Queue.pop t.queue in
    Mutex.unlock t.m;
    (* [job] is a completion-counting wrapper built by [run]; it never
       raises (user exceptions are captured into the batch's error slots). *)
    exec_job job;
    worker_loop t
  end

let shutdown t =
  Mutex.lock t.m;
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.m;
  List.iter Domain.join t.workers;
  t.workers <- []

let create n =
  if n < 1 then invalid_arg "Par.create: size must be >= 1";
  let t =
    {
      size = n;
      m = Mutex.create ();
      nonempty = Condition.create ();
      progress = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      remaining = 0;
      workers = [];
    }
  in
  (* A spawn the runtime refuses stops and joins the workers already
     started, so a pool that cannot start leaks no blocked domain. *)
  (try
     for _ = 2 to n do
       t.workers <- Domain.spawn (fun () -> worker_loop t) :: t.workers
     done
   with e ->
     shutdown t;
     invalid_arg
       (Printf.sprintf "Par.create: cannot start a pool of %d domains (%s)" n
          (Printexc.to_string e)));
  t

let with_pool ~j f =
  let t = create j in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Re-raise the lowest-index captured exception, if any. *)
let join_errors errors =
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    errors

let run (type a) ?on_result t (thunks : (unit -> a) list) : a list =
  if inside_job () then invalid_arg "Par.run: nested submission from inside a pool job";
  if t.stopping then invalid_arg "Par.run: pool is shut down";
  let thunks = Array.of_list thunks in
  let n = Array.length thunks in
  if n = 0 then []
  else begin
    let results : a option array = Array.make n None in
    let errors : (exn * Printexc.raw_backtrace) option array = Array.make n None in
    if t.size = 1 then begin
      (* Sequential fallback: same semantics as the pool — every job runs,
         streaming stops at the first failure, lowest-index error re-raised
         at the join. *)
      let failed = ref false in
      Array.iteri
        (fun i th ->
          match exec_job th with
          | v ->
              results.(i) <- Some v;
              if not !failed then Option.iter (fun f -> f i v) on_result
          | exception e ->
              errors.(i) <- Some (e, Printexc.get_raw_backtrace ());
              failed := true)
        thunks
    end
    else begin
      let wrap i th () =
        (match th () with
        | v -> results.(i) <- Some v
        | exception e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
        Mutex.lock t.m;
        t.remaining <- t.remaining - 1;
        Condition.broadcast t.progress;
        Mutex.unlock t.m
      in
      Mutex.lock t.m;
      t.remaining <- n;
      Array.iteri (fun i th -> Queue.push (wrap i th) t.queue) thunks;
      Condition.broadcast t.nonempty;
      Mutex.unlock t.m;
      (* Streaming delivery: [next] is the first slot not yet reported; we
         report the completed prefix, in order, on this thread only, and
         stop for good at the first failed slot. *)
      let next = ref 0 in
      let deliver () =
        match on_result with
        | None -> ()
        | Some f ->
            let ready = ref [] in
            Mutex.lock t.m;
            let continue = ref true in
            while !continue && !next < n do
              if errors.(!next) <> None then begin
                continue := false;
                next := n (* stop reporting forever *)
              end
              else
                match results.(!next) with
                | Some v ->
                    ready := (!next, v) :: !ready;
                    incr next
                | None -> continue := false
            done;
            Mutex.unlock t.m;
            (* callbacks outside the lock, oldest first *)
            List.iter (fun (i, v) -> f i v) (List.rev !ready)
      in
      (* The submitting thread participates: drain the queue, then wait for
         stragglers running on worker domains. *)
      let rec drive () =
        Mutex.lock t.m;
        if not (Queue.is_empty t.queue) then begin
          let job = Queue.pop t.queue in
          Mutex.unlock t.m;
          exec_job job;
          deliver ();
          drive ()
        end
        else if t.remaining > 0 then begin
          Condition.wait t.progress t.m;
          Mutex.unlock t.m;
          deliver ();
          drive ()
        end
        else begin
          Mutex.unlock t.m;
          deliver ()
        end
      in
      drive ()
    end;
    join_errors errors;
    Array.to_list (Array.map Option.get results)
  end

let map ?pool f xs =
  match pool with
  | None -> List.map f xs
  | Some t -> run t (List.map (fun x () -> f x) xs)
