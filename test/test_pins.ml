(* The perf gate: each count of each perf point (lib/experiments/
   perfpoints.ml) against its pin in pins.txt, whose header says how to
   re-pin. A count may rise at most 5% above its pin, and may fall at most
   5% below it: a lower count makes the pin stale, so the change that
   lowers a count re-pins it. A check must equal its pin, and points and
   pins must match one to one. Also, a sink with every channel off must add
   no words to the commit path or the lock manager. *)

let tolerance = 0.05

(* A line of pins.txt: point, counter, value. *)
let line point counter v = Printf.sprintf "%-20s %-9s %.8g" point counter v

let pins =
  In_channel.with_open_text "pins.txt" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         try Scanf.sscanf l " %s %s %f %!" (fun p c v -> ((p, c), v))
         with Scanf.Scan_failure _ | Failure _ | End_of_file ->
           failwith ("pins.txt: bad line: " ^ l))

(* Every count of [name] held to its pin. A failure names each point and
   counter that broke and prints all of the point's measured lines, ready
   to paste into pins.txt. *)
let test_point (name, run) () =
  let s = run () in
  let counts = ("check", float_of_int s.Perfpoints.check) :: s.Perfpoints.counts in
  let measured = List.map (fun (c, v) -> line name c v) counts in
  List.iter print_endline measured;
  let broken =
    List.filter_map
      (fun (c, v) ->
        match List.assoc_opt (name, c) pins with
        | None -> Some (Printf.sprintf "%s %s has no pin" name c)
        | Some pin when c = "check" && v <> pin ->
            Some (Printf.sprintf "%s check %.8g differs from its pin %.8g" name v pin)
        | Some pin when v > pin *. (1.0 +. tolerance) ->
            Some (Printf.sprintf "%s %s %.8g is more than 5%% above its pin %.8g" name c v pin)
        | Some pin when v < pin *. (1.0 -. tolerance) ->
            Some
              (Printf.sprintf "%s %s %.8g is more than 5%% below its pin %.8g: the pin is stale"
                 name c v pin)
        | Some _ -> None)
      counts
    @ List.filter_map
        (fun ((p, c), _) ->
          if p = name && not (List.mem_assoc c counts) then
            Some (Printf.sprintf "%s %s is pinned but not counted" p c)
          else None)
        pins
  in
  if broken <> [] then
    Alcotest.failf "%s\nmeasured:\n%s" (String.concat "\n" broken) (String.concat "\n" measured)

let test_pins_have_points () =
  List.iter
    (fun ((p, c), _) ->
      if not (List.mem_assoc p Perfpoints.points) then
        Alcotest.failf "pin %s %s has no point" p c)
    pins

(* Allocation that happens only when a sink is installed, however small. *)
let test_quiet_sink () =
  let channels_off () = Obs.create ~trace:false ~metrics:false () in
  let words s = List.assoc "words" s.Perfpoints.counts in
  let same name ~none ~off =
    if words none <> words off then
      Alcotest.failf "%s words: %.8g per unit with a channels-off sink, %.8g with none" name
        (words off) (words none)
  in
  same "commit-path" ~none:(Perfpoints.commit_path 1000)
    ~off:(Perfpoints.commit_path ~obs:(channels_off ()) 1000);
  same "lock-acquire-release" ~none:(Perfpoints.lock_path 5000)
    ~off:(Perfpoints.lock_path ~obs:(channels_off ()) 5000)

(* What a short smallbank run promotes to the major heap per commit,
   measured from a compacted heap after set-up, with the minor heap at
   OCaml 5.1's default size. A committed transaction is garbage once it is
   released, so little of what a commit allocates should be promoted: 42
   words here. The bound, 100, fails a queue whose popped cells keep their
   links, such as the stdlib Queue: once one cell is promoted, so is every
   transaction queued after it, and this run promotes 212. *)
let test_smallbank_promotion () =
  let customers = 20_000 in
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 262_144 };
  let promoted = ref 0.0 in
  let make_db sim =
    let db = Core.Db.create ~config:(Core.Config.bdb ()) sim in
    Smallbank.setup db ~customers ();
    Gc.compact ();
    promoted := (Gc.quick_stat ()).Gc.promoted_words;
    db
  in
  let r =
    Driver.run_once ~make_db ~mix:(Smallbank.mix ~customers ())
      {
        Driver.default_config with
        Driver.isolation = Core.Types.Serializable;
        mpl = 20;
        warmup = 0.0;
        duration = 0.25;
        think_time = 0.0;
        seed = 1;
      }
  in
  let per_commit =
    ((Gc.quick_stat ()).Gc.promoted_words -. !promoted) /. float_of_int r.Driver.commits
  in
  Gc.set gc;
  Printf.printf "smallbank promoted words per commit: %.1f over %d commits\n" per_commit
    r.Driver.commits;
  if per_commit >= 100.0 then
    Alcotest.failf "smallbank promoted %.1f words per commit, 100 or more" per_commit

let () =
  Alcotest.run "pins"
    [
      ( "pins",
        List.map (fun ((name, _) as p) -> (name, `Quick, test_point p)) Perfpoints.points
        @ [
            ("every pin has a point", `Quick, test_pins_have_points);
            ("no words from a channels-off sink", `Quick, test_quiet_sink);
            ("smallbank promotes little per commit", `Quick, test_smallbank_promotion);
          ] );
    ]
