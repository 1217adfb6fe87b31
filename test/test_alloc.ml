(* Allocation gate: the words allocated by one fixed-seed SmallBank point and
   by one fixed DPOR exploration, counted as the benchmark in perfbench/
   counts them (minor words plus words allocated directly in the major
   heap). On one domain both counts are deterministic, so this test starts
   no domains and fails when either rises more than 5% above its pin.

   The pins are specific to OCaml 5.1.1: another compiler or runtime
   allocates differently, and the pins must be measured again there (the
   failure message prints the counts). Lower counts pass; re-pin them when
   a change cuts allocation, so the gate keeps the gain. *)

open Core

let tolerance = 0.05

(* Words allocated by the SmallBank run (1,957 commits) and by the
   exploration (734 schedules), measured with OCaml 5.1.1 when the hot path
   was last trimmed, running the whole executable: the exploration runs
   after the SmallBank point, and run alone it allocates about 0.3% less. *)
let smallbank_pin = 4_301_681.0

let explore_pin = 15_133_372.0

(* Minor words plus words allocated directly in the major heap, as the
   benchmark counts them, but with the minor count read exactly: in OCaml
   5.1 [Gc.quick_stat]'s minor count moves in steps of a whole minor heap
   (256k words, 6% of the SmallBank run), while [Gc.minor_words] includes
   the heap being filled. *)
let words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* Config.bdb (page locks, basic SSI, no WAL flush), 2,000 customers, MPL 20
   closed-loop clients, 0.05 simulated seconds at SSI. Set-up is not
   counted, as in the benchmark. *)
let smallbank_words () =
  let customers = 2_000 in
  let mix = Smallbank.mix ~customers () in
  let start = ref 0.0 in
  let make_db sim =
    let db = Db.create ~config:(Config.bdb ()) sim in
    Smallbank.setup db ~customers ();
    start := words ();
    db
  in
  let r =
    Driver.run_once ~make_db ~mix
      {
        Driver.default_config with
        Driver.isolation = Types.Serializable;
        mpl = 20;
        warmup = 0.0;
        duration = 0.05;
        think_time = 0.0;
        seed = 1;
      }
  in
  (words () -. !start, r.Driver.commits)

let explore_words () =
  let w0 = words () in
  let _, st = Explore.explore ~isolation:Types.Serializable Interleave.write_skew_spec_4 in
  (words () -. w0, st.Explore.executed)

let check name ~pin ~work (w, n) =
  Printf.printf "%s: %.0f words over %d %s (%.1f per unit), pin %.0f\n%!" name w n work
    (w /. float_of_int (max 1 n)) pin;
  if w > pin *. (1.0 +. tolerance) then
    Alcotest.failf "%s allocated %.0f words, more than %.0f%% above the pin %.0f" name w
      (100.0 *. tolerance) pin

let test_smallbank () =
  check "smallbank" ~pin:smallbank_pin ~work:"commits" (smallbank_words ())

let test_explore () = check "explore write-skew-4" ~pin:explore_pin ~work:"schedules" (explore_words ())

let () =
  Alcotest.run "alloc"
    [
      ( "alloc",
        [
          ("smallbank words within 5% of the pin", `Quick, test_smallbank);
          ("explore words within 5% of the pin", `Quick, test_explore);
        ] );
    ]
