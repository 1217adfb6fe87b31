(* Tests for the domain-pool job runner (lib/par): submission-order results
   under adversarial job durations, exception propagation from worker
   domains, pool reuse, the -j 1 sequential fallback, nested-submission
   rejection, and the streaming on_result contract. These are the properties
   the byte-identical [-j 1] vs [-j N] output guarantee rests on. *)

exception Boom of int

(* Jobs that finish in reverse submission order: later jobs sleep less, so
   any completion-order leak shows up as a permuted result list. *)
let adversarial_jobs n =
  List.init n (fun i ->
      fun () ->
        Unix.sleepf (0.002 *. float_of_int (n - i));
        i * i)

let expected n = List.init n (fun i -> i * i)

let test_order_adversarial () =
  Par.with_pool ~j:4 (fun p ->
      Alcotest.(check (list int)) "submission order" (expected 12) (Par.run p (adversarial_jobs 12)))

let test_sequential_fallback () =
  Par.with_pool ~j:1 (fun p ->
      Alcotest.(check int) "size 1" 1 (Par.size p);
      Alcotest.(check (list int)) "same results" (expected 8) (Par.run p (adversarial_jobs 8)))

let test_pool_reuse () =
  Par.with_pool ~j:3 (fun p ->
      for batch = 1 to 5 do
        let n = 3 + batch in
        Alcotest.(check (list int))
          (Printf.sprintf "batch %d" batch)
          (expected n) (Par.run p (adversarial_jobs n))
      done)

let check_raises_boom k jobs =
  List.iter
    (fun j ->
      Par.with_pool ~j (fun p ->
          match Par.run p jobs with
          | _ -> Alcotest.failf "-j %d: expected Boom %d" j k
          | exception Boom i -> Alcotest.(check int) (Printf.sprintf "-j %d victim" j) k i))
    [ 1; 4 ]

let test_exception_propagation () =
  (* One failing job: its exception crosses the domain boundary intact. *)
  check_raises_boom 2
    (List.init 6 (fun i -> fun () -> if i = 2 then raise (Boom i) else i))

let test_lowest_index_exception () =
  (* Several failures: deterministically the lowest-index one is re-raised,
     even when a higher-index job fails first in wall-clock time. *)
  check_raises_boom 1
    (List.init 6 (fun i ->
         fun () ->
           if i = 5 then raise (Boom i)
           else begin
             Unix.sleepf (0.005 *. float_of_int (6 - i));
             if i = 1 || i = 3 then raise (Boom i) else i
           end))

let test_nested_submission_rejected () =
  List.iter
    (fun j ->
      Par.with_pool ~j (fun p ->
          match Par.run p [ (fun () -> Par.run p [ (fun () -> 0) ]) ] with
          | _ -> Alcotest.failf "-j %d: nested run must be rejected" j
          | exception Invalid_argument _ -> ());
      (* ... even against a *different* pool *)
      Par.with_pool ~j (fun p ->
          Par.with_pool ~j:1 (fun q ->
              match Par.run p [ (fun () -> Par.run q [ (fun () -> 0) ]) ] with
              | _ -> Alcotest.failf "-j %d: cross-pool nested run must be rejected" j
              | exception Invalid_argument _ -> ())))
    [ 1; 3 ]

let test_inside_job_flag () =
  Par.with_pool ~j:2 (fun p ->
      Alcotest.(check bool) "outside" false (Par.inside_job ());
      let flags = Par.run p (List.init 4 (fun _ -> Par.inside_job)) in
      Alcotest.(check (list bool)) "inside" [ true; true; true; true ] flags;
      Alcotest.(check bool) "restored" false (Par.inside_job ()))

let test_on_result_streams_in_order () =
  List.iter
    (fun j ->
      Par.with_pool ~j (fun p ->
          let seen = ref [] in
          let out =
            Par.run ~on_result:(fun i v -> seen := (i, v) :: !seen) p (adversarial_jobs 10)
          in
          Alcotest.(check (list int)) "results" (expected 10) out;
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "-j %d: streamed prefix in order" j)
            (List.init 10 (fun i -> (i, i * i)))
            (List.rev !seen)))
    [ 1; 4 ]

let test_map () =
  Alcotest.(check (list int)) "map without pool" [ 2; 4; 6 ] (Par.map (fun x -> 2 * x) [ 1; 2; 3 ]);
  Par.with_pool ~j:3 (fun p ->
      Alcotest.(check (list int))
        "map with pool" [ 2; 4; 6 ]
        (Par.map ~pool:p (fun x -> 2 * x) [ 1; 2; 3 ]))

let test_shutdown_idempotent () =
  let p = Par.create 3 in
  ignore (Par.run p (adversarial_jobs 4));
  Par.shutdown p;
  Par.shutdown p;
  match Par.run p [ (fun () -> 0) ] with
  | _ -> Alcotest.fail "run after shutdown must be rejected"
  | exception Invalid_argument _ -> ()

(* A pool the runtime cannot start (more domains than it allows) raises
   [Invalid_argument] and leaves no worker behind: a later pool still
   starts and runs a batch. *)
let test_create_failure_joins_workers () =
  (match Par.create 1000 with
  | p ->
      Par.shutdown p;
      Alcotest.fail "a pool of 1000 domains should not start"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        "names the size" true
        (String.starts_with ~prefix:"Par.create: cannot start a pool of 1000 domains" msg));
  Par.with_pool ~j:4 (fun p ->
      Alcotest.(check (list int)) "later pool" (expected 6) (Par.run p (adversarial_jobs 6)))

(* End to end through a real consumer: a parallel Driver.run_seeds summary
   equals the sequential one (the lib-level half of the -j determinism
   contract; bin/dune diffs the CLI output too). *)
let test_run_seeds_pool_equivalence () =
  let make_db sim =
    let db = Core.Db.create ~config:(Core.Config.bdb ()) sim in
    Sibench.setup db ~items:20 ();
    db
  in
  let mix = Sibench.mix ~items:20 () in
  let cfg =
    {
      Driver.default_config with
      Driver.isolation = Core.Types.Serializable;
      mpl = 4;
      warmup = 0.05;
      duration = 0.2;
    }
  in
  let seeds = [ 1; 2; 3; 4 ] in
  let seq = Driver.run_seeds ~make_db ~mix ~seeds cfg in
  let par = Par.with_pool ~j:4 (fun p -> Driver.run_seeds ~pool:p ~make_db ~mix ~seeds cfg) in
  Alcotest.(check (float 0.0)) "throughput" seq.Driver.s_throughput par.Driver.s_throughput;
  Alcotest.(check (float 0.0)) "ci" seq.Driver.s_ci par.Driver.s_ci;
  Alcotest.(check (float 0.0)) "mean response" seq.Driver.s_mean_response par.Driver.s_mean_response;
  Alcotest.(check (float 0.0)) "unsafe rate" seq.Driver.s_unsafe_rate par.Driver.s_unsafe_rate

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "order under adversarial durations" `Quick test_order_adversarial;
          Alcotest.test_case "-j 1 sequential fallback" `Quick test_sequential_fallback;
          Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse;
          Alcotest.test_case "exception crosses domain" `Quick test_exception_propagation;
          Alcotest.test_case "lowest-index exception wins" `Quick test_lowest_index_exception;
          Alcotest.test_case "nested submission rejected" `Quick test_nested_submission_rejected;
          Alcotest.test_case "inside_job flag" `Quick test_inside_job_flag;
          Alcotest.test_case "on_result streams ordered prefix" `Quick
            test_on_result_streams_in_order;
          Alcotest.test_case "map" `Quick test_map;
          Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
          Alcotest.test_case "failed create joins its workers" `Quick
            test_create_failure_joins_workers;
        ] );
      ( "consumers",
        [
          Alcotest.test_case "run_seeds pool = sequential" `Quick
            test_run_seeds_pool_equivalence;
        ] );
    ]
