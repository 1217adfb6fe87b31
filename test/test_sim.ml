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
  ]
  @ [ qcheck_group_commit ]

let () = Alcotest.run "sim" [ ("sim", suite) ]
