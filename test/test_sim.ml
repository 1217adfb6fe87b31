(* Tests for the discrete-event simulator substrate. *)

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  Pqueue.push q ~time:3.0 ~seq:1 "c";
  Pqueue.push q ~time:1.0 ~seq:2 "a";
  Pqueue.push q ~time:2.0 ~seq:3 "b";
  Alcotest.(check (float 0.0)) "min time" 1.0 (Pqueue.min_time q);
  let order = List.init 3 (fun _ -> Pqueue.pop q) in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] order;
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Alcotest.(check (float 0.0)) "empty min time" infinity (Pqueue.min_time q);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Pqueue.pop: empty queue") (fun () ->
      ignore (Pqueue.pop q))

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  for i = 1 to 100 do
    Pqueue.push q ~time:1.0 ~seq:i i
  done;
  let out = List.init 100 (fun _ -> Pqueue.pop q) in
  Alcotest.(check (list int)) "seq order on equal times" (List.init 100 (fun i -> i + 1)) out

let test_pqueue_random_heap_property () =
  let q = Pqueue.create () in
  let st = Random.State.make [| 42 |] in
  let times = List.init 500 (fun i -> (Random.State.float st 100.0, i)) in
  List.iter (fun (tm, i) -> Pqueue.push q ~time:tm ~seq:i tm) times;
  let rec drain last acc =
    if Pqueue.is_empty q then List.rev acc
    else begin
      let tm = Pqueue.min_time q in
      Alcotest.(check (float 0.0)) "payload at min time" tm (Pqueue.pop q);
      Alcotest.(check bool) "non-decreasing" true (tm >= last);
      drain tm (tm :: acc)
    end
  in
  let out = drain neg_infinity [] in
  Alcotest.(check int) "all drained" 500 (List.length out)

let test_delay_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      Sim.delay sim 2.0;
      log := ("b", Sim.now sim) :: !log);
  Sim.spawn sim (fun () ->
      Sim.delay sim 1.0;
      log := ("a", Sim.now sim) :: !log;
      Sim.delay sim 2.0;
      log := ("c", Sim.now sim) :: !log);
  Sim.run sim;
  Alcotest.(check (list (pair string (float 0.0))))
    "interleaving by simulated time"
    [ ("a", 1.0); ("b", 2.0); ("c", 3.0) ]
    (List.rev !log)

let test_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    Sim.delay sim 1.0;
    incr count;
    tick ()
  in
  Sim.spawn sim tick;
  Sim.run ~until:10.5 sim;
  Alcotest.(check int) "ticks until horizon" 10 !count;
  Alcotest.(check (float 0.0)) "clock stops at horizon" 10.5 (Sim.now sim)

(* Stopping at a horizon must not consume the first event beyond it: a
   later [run] picks up exactly where the clock stopped. *)
let test_run_until_resumes () =
  let sim = Sim.create () in
  let fired = ref [] in
  List.iter
    (fun d -> Sim.spawn sim (fun () -> Sim.delay sim d; fired := d :: !fired))
    [ 0.25; 0.75; 1.25 ];
  Sim.run ~until:0.5 sim;
  Alcotest.(check (list (float 0.0))) "only pre-horizon events" [ 0.25 ] (List.rev !fired);
  Sim.run sim;
  Alcotest.(check (list (float 0.0)))
    "post-horizon events survive the pause" [ 0.25; 0.75; 1.25 ] (List.rev !fired);
  Alcotest.(check (float 0.0)) "clock at last event" 1.25 (Sim.now sim)

let test_cond_broadcast () =
  let sim = Sim.create () in
  let c = Sim.cond () in
  let woken = ref 0 in
  for _ = 1 to 3 do
    Sim.spawn sim (fun () ->
        Sim.wait sim c;
        incr woken)
  done;
  Sim.spawn sim (fun () ->
      Sim.delay sim 5.0;
      Sim.broadcast sim c);
  Sim.run sim;
  Alcotest.(check int) "all woken" 3 !woken

let test_cond_signal_fifo () =
  let sim = Sim.create () in
  let c = Sim.cond () in
  let order = ref [] in
  for i = 1 to 3 do
    Sim.spawn sim (fun () ->
        Sim.delay sim (float_of_int i *. 0.1);
        Sim.wait sim c;
        order := i :: !order)
  done;
  Sim.spawn sim (fun () ->
      Sim.delay sim 1.0;
      Sim.signal sim c;
      Sim.delay sim 1.0;
      Sim.signal sim c;
      Sim.delay sim 1.0;
      Sim.signal sim c);
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO wakeups" [ 1; 2; 3 ] (List.rev !order)

let test_kill_raises () =
  let sim = Sim.create () in
  let saved = ref None in
  let caught = ref false in
  Sim.spawn sim (fun () ->
      try Sim.suspend sim (fun w -> saved := Some w)
      with Failure m ->
        caught := true;
        Alcotest.(check string) "message" "killed" m);
  Sim.spawn sim (fun () ->
      Sim.delay sim 1.0;
      match !saved with Some w -> Sim.kill sim w (Failure "killed") | None -> Alcotest.fail "no waker");
  Sim.run sim;
  Alcotest.(check bool) "exception delivered" true !caught

let test_wake_then_kill_noop () =
  let sim = Sim.create () in
  let saved = ref None in
  let resumed = ref false in
  Sim.spawn sim (fun () ->
      Sim.suspend sim (fun w -> saved := Some w);
      resumed := true);
  Sim.spawn sim (fun () ->
      Sim.delay sim 1.0;
      let w = Option.get !saved in
      Sim.wake sim w;
      Sim.kill sim w Exit (* must be ignored *));
  Sim.run sim;
  Alcotest.(check bool) "woken normally" true !resumed

let test_resource_capacity () =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"cpu" ~capacity:2 in
  let finished = ref [] in
  for i = 1 to 4 do
    Sim.spawn sim (fun () ->
        Resource.use r 1.0 (fun () -> ());
        finished := (i, Sim.now sim) :: !finished)
  done;
  Sim.run sim;
  let times = List.map snd (List.rev !finished) in
  (* 2 servers, 4 jobs of 1s: two finish at t=1, two at t=2. *)
  Alcotest.(check (list (float 0.0))) "completion times" [ 1.0; 1.0; 2.0; 2.0 ] times;
  Alcotest.(check (float 1e-9)) "busy time" 4.0 (Resource.busy_time r)

let test_resource_fifo () =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"mutex" ~capacity:1 in
  let order = ref [] in
  for i = 1 to 5 do
    Sim.spawn sim (fun () ->
        Sim.delay sim (float_of_int i *. 0.01);
        Resource.use r 1.0 (fun () -> order := i :: !order))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO service order" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_resource_utilisation () =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"cpu" ~capacity:1 in
  Sim.spawn sim (fun () -> Resource.consume r 2.0);
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "50%% utilisation over 4s" 0.5 (Resource.utilisation r ~elapsed:4.0)

let test_wal_no_flush () =
  let sim = Sim.create () in
  let wal = Wal.create sim ~mode:Wal.No_flush in
  let t = ref (-1.0) in
  Sim.spawn sim (fun () ->
      Wal.append wal (Wal.Begin { txn = 1 });
      Wal.commit_flush wal;
      t := Sim.now sim);
  Sim.run sim;
  Alcotest.(check (float 0.0)) "instant" 0.0 !t;
  Alcotest.(check int) "no physical flush" 0 (Wal.flushes wal)

let test_wal_group_commit () =
  let sim = Sim.create () in
  let wal = Wal.create sim ~mode:(Wal.Flush_per_commit 0.010) in
  let completion = ref [] in
  (* First committer starts a flush; 9 more arrive during it and share the
     second flush. *)
  for i = 1 to 10 do
    Sim.spawn sim (fun () ->
        Sim.delay sim (float_of_int i *. 0.0001);
        Wal.append wal (Wal.Begin { txn = 1 });
        Wal.commit_flush wal;
        completion := (i, Sim.now sim) :: !completion)
  done;
  Sim.run sim;
  Alcotest.(check int) "two physical flushes for ten commits" 2 (Wal.flushes wal);
  let t1 = List.assoc 1 !completion and t10 = List.assoc 10 !completion in
  Alcotest.(check bool) "leader done after one latency" true (abs_float (t1 -. 0.0101) < 1e-9);
  Alcotest.(check bool) "followers done after second flush" true (abs_float (t10 -. 0.0201) < 1e-9)

let test_wal_sequential_flushes () =
  let sim = Sim.create () in
  let wal = Wal.create sim ~mode:(Wal.Flush_per_commit 0.010) in
  let done_at = ref [] in
  Sim.spawn sim (fun () ->
      for _ = 1 to 3 do
        Wal.append wal (Wal.Begin { txn = 1 });
        Wal.commit_flush wal;
        done_at := Sim.now sim :: !done_at
      done);
  Sim.run sim;
  Alcotest.(check int) "three flushes" 3 (Wal.flushes wal);
  Alcotest.(check (list (float 1e-9))) "10ms apart" [ 0.01; 0.02; 0.03 ] (List.rev !done_at)

let test_determinism () =
  let run_once () =
    let sim = Sim.create () in
    let r = Resource.create sim ~name:"cpu" ~capacity:2 in
    let trace = Buffer.create 64 in
    for i = 1 to 5 do
      Sim.spawn sim (fun () ->
          let st = Random.State.make [| i |] in
          for _ = 1 to 5 do
            Resource.use r (Random.State.float st 0.1) (fun () -> ());
            Buffer.add_string trace (Printf.sprintf "%d@%.6f;" i (Sim.now sim))
          done)
    done;
    Sim.run sim;
    Buffer.contents trace
  in
  Alcotest.(check string) "identical traces" (run_once ()) (run_once ())


let test_schedule_callbacks () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~after:2.0 (fun () -> log := "b" :: !log);
  Sim.schedule sim ~after:1.0 (fun () -> log := "a" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "callback ordering" [ "a"; "b" ] (List.rev !log)

let test_yield_interleaves () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      log := 1 :: !log;
      Sim.yield sim;
      log := 3 :: !log);
  Sim.spawn sim (fun () -> log := 2 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "yield lets the other run" [ 1; 2; 3 ] (List.rev !log)

let test_nested_spawn () =
  let sim = Sim.create () in
  let done_ = ref false in
  Sim.spawn sim (fun () ->
      Sim.delay sim 1.0;
      Sim.spawn sim (fun () ->
          Sim.delay sim 1.0;
          done_ := true));
  Sim.run sim;
  Alcotest.(check bool) "child process ran" true !done_;
  Alcotest.(check (float 1e-9)) "time advanced" 2.0 (Sim.now sim)

let test_events_count () =
  let sim = Sim.create () in
  let c = Sim.cond () in
  Sim.spawn sim (fun () -> Sim.wait sim c);
  Sim.spawn sim (fun () ->
      Sim.delay sim 1.0;
      Sim.signal sim c);
  Alcotest.(check int) "one per spawn" 2 (Sim.events sim);
  Sim.run sim;
  Alcotest.(check int) "one more per delay and wake" 4 (Sim.events sim)

let test_live_procs_accounting () =
  let sim = Sim.create () in
  Sim.spawn sim (fun () -> Sim.delay sim 1.0);
  Sim.spawn sim (fun () -> Sim.delay sim 2.0);
  Alcotest.(check int) "spawned" 2 (Sim.live_procs sim);
  Sim.run sim;
  Alcotest.(check int) "all finished" 0 (Sim.live_procs sim)

(* A delay must be at least zero on every path: the in-place check of a
   process's delay, the heap push it falls back to, and [schedule]. NaN
   compares false with everything, so only [not (dt >= 0.0)] catches it. *)
let test_bad_delay dt () =
  let rejected = Invalid_argument "Sim.schedule: negative or NaN delay" in
  let sim = Sim.create () in
  Sim.spawn sim (fun () -> Sim.delay sim dt);
  Alcotest.check_raises "delay in a process" rejected (fun () -> Sim.run sim);
  Alcotest.check_raises "schedule" rejected (fun () -> Sim.schedule sim ~after:dt ignore);
  Alcotest.(check (float 0.0)) "clock unmoved" 0.0 (Sim.now sim)

(* Outside [Sim.run] there is no event loop to resume the caller, so a
   delay still performs its effect and raises. A resume-in-place rule that
   skipped the horizon check would return instead. *)
let test_delay_outside_run () =
  let sim = Sim.create () in
  let raises when_ =
    match Sim.delay sim 1.0 with
    | () -> Alcotest.failf "Sim.delay %s returned" when_
    | exception Effect.Unhandled _ -> ()
  in
  raises "before any run";
  Sim.spawn sim (fun () -> Sim.delay sim 1.0);
  Sim.run sim;
  raises "after a run";
  Sim.spawn sim (fun () -> failwith "boom");
  Alcotest.check_raises "process failure" (Failure "boom") (fun () -> Sim.run sim);
  raises "after a run that raised";
  Alcotest.(check (float 0.0)) "clock" 1.0 (Sim.now sim);
  Alcotest.(check int) "events" 3 (Sim.events sim)

(* A process's effects are taken by the handler of the simulator it was
   spawned on, which reads their operands from its own simulator. A delay
   or a suspension called on another simulator raises [Invalid_argument]
   in the process instead of using that simulator's operands, and leaves
   no stale state behind: the processes go on with their own simulators,
   and the mismatch is caught again the other way round. *)
let test_other_simulator () =
  let a = Sim.create () and b = Sim.create () in
  let log = ref [] in
  let note s = log := s :: !log in
  let other name call =
    match call () with
    | () -> note (name ^ " returned")
    | exception Invalid_argument m -> note m
  in
  Sim.spawn a (fun () ->
      other "delay" (fun () -> Sim.delay b 1.0);
      other "suspend" (fun () -> Sim.suspend b (fun _ -> note "registered"));
      Sim.delay a 1.0;
      note (Printf.sprintf "a at %g" (Sim.now a)));
  (* Queues an event at 0.5, so the delay above goes through the heap. *)
  Sim.spawn a (fun () -> Sim.delay a 0.5);
  Sim.run a;
  Sim.spawn b (fun () ->
      other "delay" (fun () -> Sim.delay a 1.0);
      Sim.delay b 2.0;
      note (Printf.sprintf "b at %g" (Sim.now b)));
  Sim.spawn b (fun () -> Sim.delay b 0.5);
  Sim.run b;
  Alcotest.(check (list string))
    "each call on the other simulator raised"
    [
      "Sim.delay: the calling process was spawned on another simulator";
      "Sim.suspend: the calling process was spawned on another simulator";
      "a at 1";
      "Sim.delay: the calling process was spawned on another simulator";
      "b at 2";
    ]
    (List.rev !log);
  Alcotest.(check int) "no process left" 0 (Sim.live_procs a + Sim.live_procs b)

(* A delay that ends exactly at a queued event's time runs after it: the
   new event's sequence number loses the tie, so it may not resume in
   place. *)
let test_delay_tie_queues () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      Sim.delay sim 1.0;
      log := "queued" :: !log);
  Sim.spawn sim (fun () ->
      Sim.delay sim 0.5;
      Sim.delay sim 0.5;
      log := "tied" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "queued event first" [ "queued"; "tied" ] (List.rev !log);
  Alcotest.(check int) "events" 5 (Sim.events sim)

(* The kernel's exact order under a seeded mix of everything a process can
   do: delays that are zero, tied on exact binary fractions or distinct,
   yields, service on a 1- and a 2-server resource, cond wait, signal and
   broadcast, parking and being woken or killed. 200 processes each log
   (pid, step, clock) after every step, over three runs that stop at
   horizons the tied delays land on. The digest and event count were
   computed with every delay taken through the heap, so resuming in place
   must not move them. *)
exception Killed of int

let test_kernel_trace () =
  let st = Random.State.make [| 19 |] in
  let sim = Sim.create () in
  let r1 = Resource.create sim ~name:"r1" ~capacity:1 in
  let r2 = Resource.create sim ~name:"r2" ~capacity:2 in
  let c = Sim.cond () in
  let parked = Queue.create () in
  let log = Buffer.create 65536 in
  let dur () =
    match Random.State.int st 4 with
    | 0 -> 0.0
    | 1 -> 0.5
    | 2 -> 1.0
    | _ -> Random.State.float st 1.0
  in
  for pid = 1 to 200 do
    let start = dur () in
    let steps =
      List.init
        (1 + Random.State.int st 12)
        (fun _ ->
          match Random.State.int st 10 with
          | 0 | 1 -> `Delay (dur ())
          | 2 -> `Yield
          | 3 ->
              let r = if Random.State.bool st then r1 else r2 in
              let d = dur () in
              `Use (r, d)
          | 4 -> `Wait
          | 5 -> if Random.State.int st 3 = 0 then `Broadcast else `Signal
          | 6 -> `Park
          | 7 -> `Kill
          | 8 -> `Wake
          | _ -> `Use (r1, 0.25))
    in
    Sim.spawn sim (fun () ->
        let note step = Printf.bprintf log "%d %d %h\n" pid step (Sim.now sim) in
        Sim.delay sim start;
        List.iteri
          (fun i step ->
            (match step with
            | `Delay d -> Sim.delay sim d
            | `Yield -> Sim.yield sim
            | `Use (r, d) -> Resource.use r d (fun () -> note (-1 - i))
            | `Wait -> Sim.wait sim c
            | `Signal -> Sim.signal sim c
            | `Broadcast -> Sim.broadcast sim c
            | `Park -> (
                try Sim.suspend sim (fun w -> Queue.add (pid, w) parked)
                with Killed by -> Printf.bprintf log "%d killed by %d\n" pid by)
            | `Kill | `Wake as op ->
                let rec next () =
                  match Queue.take_opt parked with
                  | Some (_, w) when Sim.waker_fired w -> next ()
                  | Some (_, w) ->
                      if op = `Kill then Sim.kill sim w (Killed pid) else Sim.wake sim w
                  | None -> ()
                in
                next ());
            note i)
          steps)
  done;
  Sim.run ~until:2.0 sim;
  Sim.run ~until:4.5 sim;
  Sim.run sim;
  Printf.bprintf log "end %h %d %d %h %h\n" (Sim.now sim) (Sim.live_procs sim)
    (Sim.pending_events sim) (Resource.busy_time r1) (Resource.busy_time r2);
  Alcotest.(check (pair string int))
    "digest and events"
    ("6e0e3cb5100f01ef7cea0dbca162db8d", 1552)
    (Digest.to_hex (Digest.string (Buffer.contents log)), Sim.events sim)

(* Property: under random arrivals, group commit never loses a committer
   (everyone returns after a flush that covers their append), and the number
   of physical flushes never exceeds the number of commits. *)
let prop_group_commit arrivals =
  let sim = Sim.create () in
  let wal = Wal.create sim ~mode:(Wal.Flush_per_commit 0.01) in
  let completed = ref 0 in
  List.iter
    (fun a ->
      let at = float_of_int a /. 10000.0 in
      Sim.spawn sim (fun () ->
          Sim.delay sim at;
          Wal.append wal (Wal.Begin { txn = 1 });
          let t0 = Sim.now sim in
          Wal.commit_flush wal;
          assert (Sim.now sim >= t0 +. 0.01 -. 1e-12);
          incr completed))
    arrivals;
  Sim.run sim;
  !completed = List.length arrivals
  && Wal.flushes wal <= List.length arrivals
  && (arrivals = [] || Wal.flushes wal >= 1)

let qcheck_group_commit =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"group commit covers every committer"
       QCheck.(list_of_size Gen.(int_bound 30) (int_bound 300))
       prop_group_commit)

(* Property: a Fifo answers a random run of pushes, pops, peeks, emptiness
   and length queries as the stdlib Queue does, [Empty] on an empty pop
   included. Pushes outnumber pops, so runs grow the array and wrap around
   it. *)
let prop_fifo_matches_queue ops =
  let f = Fifo.create () and q = Queue.create () in
  List.for_all
    (fun (op, v) ->
      match op with
      | 0 | 1 | 2 | 3 ->
          Fifo.push f v;
          Queue.add v q;
          true
      | 4 | 5 | 6 ->
          let fifo = match Fifo.pop f with x -> Some x | exception Fifo.Empty -> None in
          let queue = match Queue.pop q with x -> Some x | exception Queue.Empty -> None in
          fifo = queue
      | 7 -> Fifo.peek_opt f = Queue.peek_opt q
      | 8 -> Fifo.is_empty f = Queue.is_empty q
      | _ -> Fifo.length f = Queue.length q)
    ops

let qcheck_fifo =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"fifo matches stdlib Queue"
       QCheck.(list_of_size Gen.(int_bound 300) (pair (int_bound 9) small_int))
       prop_fifo_matches_queue)

(* A popped element keeps nothing alive. The queue and its one element are
   promoted; then 1,000 young 100-word blocks pass through it, each pushed
   before the previous one is popped, so the queue is never empty, and the
   last is popped too. The next minor collection promotes fewer words than
   one block holds. The stdlib Queue promotes all 1,000 (104,024 words):
   its promoted cell links to the first young one, and each popped cell to
   the next. *)
let test_fifo_promotes_nothing () =
  let q = Fifo.create () in
  Fifo.push q (Array.make 100 0);
  Gc.minor ();
  let before = Gc.quick_stat () in
  for i = 1 to 1000 do
    Fifo.push q (Array.make 100 i);
    ignore (Fifo.pop q)
  done;
  ignore (Fifo.pop q);
  Gc.minor ();
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. before.Gc.promoted_words in
  if promoted >= 101.0 then Alcotest.failf "promoted %.0f words" promoted

let suite =
  [
    ("pqueue ordering", `Quick, test_pqueue_ordering);
    ("pqueue fifo ties", `Quick, test_pqueue_fifo_ties);
    ("pqueue random heap property", `Quick, test_pqueue_random_heap_property);
    ("delay ordering", `Quick, test_delay_ordering);
    ("run until horizon", `Quick, test_run_until);
    ("run resumes past horizon", `Quick, test_run_until_resumes);
    ("cond broadcast", `Quick, test_cond_broadcast);
    ("cond signal fifo", `Quick, test_cond_signal_fifo);
    ("kill raises in process", `Quick, test_kill_raises);
    ("wake then kill is noop", `Quick, test_wake_then_kill_noop);
    ("resource capacity", `Quick, test_resource_capacity);
    ("resource fifo", `Quick, test_resource_fifo);
    ("resource utilisation", `Quick, test_resource_utilisation);
    ("wal no flush", `Quick, test_wal_no_flush);
    ("wal group commit", `Quick, test_wal_group_commit);
    ("wal sequential flushes", `Quick, test_wal_sequential_flushes);
    ("determinism", `Quick, test_determinism);
    ("schedule callbacks", `Quick, test_schedule_callbacks);
    ("yield interleaves", `Quick, test_yield_interleaves);
    ("nested spawn", `Quick, test_nested_spawn);
    ("live procs accounting", `Quick, test_live_procs_accounting);
    ("event count", `Quick, test_events_count);
    ("negative delay rejected", `Quick, test_bad_delay (-1.0));
    ("NaN delay rejected", `Quick, test_bad_delay nan);
    ("delay outside run raises", `Quick, test_delay_outside_run);
    ("delay tied with a queued event queues", `Quick, test_delay_tie_queues);
    ("delay or suspend on another simulator raises", `Quick, test_other_simulator);
    ("kernel trace", `Quick, test_kernel_trace);
    ("fifo promotes nothing it popped", `Quick, test_fifo_promotes_nothing);
  ]
  @ [ qcheck_group_commit; qcheck_fifo ]

let () = Alcotest.run "sim" [ ("sim", suite) ]
