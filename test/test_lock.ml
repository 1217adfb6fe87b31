(* Tests for the lock manager: conflict matrix, FIFO queuing, SIREAD
   non-blocking behaviour, upgrades, deadlock detection (immediate and
   periodic), wait cancellation. *)

let with_sim f =
  let sim = Sim.create () in
  f sim;
  Sim.run sim

let test_conflict_matrix () =
  let open Lockmgr in
  Alcotest.(check bool) "S blocks X" true (blocks S X);
  Alcotest.(check bool) "X blocks S" true (blocks X S);
  Alcotest.(check bool) "X blocks X" true (blocks X X);
  Alcotest.(check bool) "S with S" false (blocks S S);
  Alcotest.(check bool) "SIREAD never blocked by X" false (blocks Siread X);
  Alcotest.(check bool) "X never blocked by SIREAD" false (blocks X Siread);
  Alcotest.(check bool) "SIREAD with SIREAD" false (blocks Siread Siread);
  Alcotest.(check bool) "S with SIREAD" false (blocks S Siread)

let test_shared_locks_coexist () =
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      let granted = ref 0 in
      for i = 1 to 3 do
        Sim.spawn sim (fun () ->
            Lockmgr.acquire lm ~owner:i ~mode:Lockmgr.S "a";
            incr granted)
      done;
      Sim.spawn sim (fun () ->
          Sim.delay sim 1.0;
          Alcotest.(check int) "all S granted" 3 !granted;
          Alcotest.(check int) "table size" 3 (Lockmgr.lock_table_size lm)))

let test_x_blocks_until_release () =
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      let t2_got_it = ref (-1.0) in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          Sim.delay sim 5.0;
          Lockmgr.release_all lm 1);
      Sim.spawn sim (fun () ->
          Sim.delay sim 1.0;
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.X "a";
          t2_got_it := Sim.now sim);
      Sim.schedule sim ~after:10.0 (fun () ->
          Alcotest.(check (float 1e-9)) "granted at release" 5.0 !t2_got_it))

let test_siread_never_blocks () =
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          (* SIREAD grants instantly although X is held. *)
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.Siread "a";
          Alcotest.(check (float 0.0)) "no time passed" 0.0 (Sim.now sim);
          let holders = List.sort compare (Lockmgr.holders lm "a") in
          Alcotest.(check (list (pair int string)))
            "both recorded"
            [ (1, "X"); (2, "SIREAD") ]
            (List.map (fun (o, m) -> (o, Lockmgr.mode_to_string m)) holders)))

let test_x_granted_over_siread () =
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.Siread "a";
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.X "a";
          Alcotest.(check (float 0.0)) "X not delayed by SIREAD" 0.0 (Sim.now sim)))

let test_fifo_no_starvation () =
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      let order = ref [] in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          Sim.delay sim 1.0;
          Lockmgr.release_all lm 1);
      (* Writer queues at t=0.1; readers at t=0.2 must not jump it. *)
      Sim.spawn sim (fun () ->
          Sim.delay sim 0.1;
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.X "a";
          order := 2 :: !order;
          Sim.delay sim 1.0;
          Lockmgr.release_all lm 2);
      for i = 3 to 4 do
        Sim.spawn sim (fun () ->
            Sim.delay sim 0.2;
            Lockmgr.acquire lm ~owner:i ~mode:Lockmgr.S "a";
            order := i :: !order;
            Lockmgr.release_all lm i)
      done;
      Sim.schedule sim ~after:10.0 (fun () ->
          Alcotest.(check (list int)) "writer first, readers after" [ 2; 3; 4 ] (List.rev !order)))

let test_reentrant () =
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.S "a";
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.S "a";
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a" (* self-upgrade, no block *);
          Alcotest.(check (float 0.0)) "no blocking on own locks" 0.0 (Sim.now sim);
          let modes = List.sort compare (Lockmgr.holds_of lm ~owner:1 "a") in
          Alcotest.(check int) "holds two modes" 2 (List.length modes)))

let test_upgrade_waits_for_other_s () =
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      let upgraded = ref (-1.0) in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.S "a";
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.S "a" |> ignore;
          ());
      Sim.spawn sim (fun () ->
          Sim.delay sim 0.1;
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          upgraded := Sim.now sim);
      Sim.spawn sim (fun () ->
          Sim.delay sim 2.0;
          Lockmgr.release_all lm 2);
      Sim.schedule sim ~after:5.0 (fun () ->
          Alcotest.(check (float 1e-9)) "upgrade granted when other S released" 2.0 !upgraded))

let test_immediate_deadlock () =
  with_sim (fun sim ->
      let lm = Lockmgr.create ~detection:Lockmgr.Immediate sim in
      let victim = ref 0 in
      let a_done = ref false in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          Sim.delay sim 1.0;
          (try
             Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "b";
             a_done := true
           with Lockmgr.Deadlock_victim ->
             victim := 1;
             Lockmgr.release_all lm 1));
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.X "b";
          Sim.delay sim 2.0;
          (try Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.X "a"
           with Lockmgr.Deadlock_victim -> victim := 2);
          Lockmgr.release_all lm 2);
      Sim.schedule sim ~after:10.0 (fun () ->
          (* T1 blocks on b at t=1 (no cycle yet); T2's request at t=2 would
             close the cycle, so T2 is the victim. *)
          Alcotest.(check int) "requester is victim" 2 !victim;
          Alcotest.(check bool) "T1 eventually granted" true !a_done;
          Alcotest.(check int) "one deadlock counted" 1 (Lockmgr.deadlocks lm)))

let test_periodic_deadlock () =
  with_sim (fun sim ->
      let lm = Lockmgr.create ~detection:(Lockmgr.Periodic 0.5) sim in
      let victim_time = ref (-1.0) in
      let survivor_done = ref false in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          Sim.delay sim 0.1;
          (try
             Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "b";
             survivor_done := true;
             Lockmgr.release_all lm 1
           with Lockmgr.Deadlock_victim -> Alcotest.fail "older txn should survive"));
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.X "b";
          Sim.delay sim 0.1;
          (try Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.X "a"
           with Lockmgr.Deadlock_victim ->
             victim_time := Sim.now sim;
             Lockmgr.release_all lm 2));
      Sim.schedule sim ~after:10.0 (fun () ->
          (* Both blocked by t=0.1; the detector starts at the first block
             and fires one interval later (t=0.6), killing the youngest
             (owner 2). *)
          Alcotest.(check (float 1e-6)) "victim killed at detector tick" 0.6 !victim_time;
          Alcotest.(check bool) "survivor completed" true !survivor_done))

let test_cancel_wait () =
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      let cancelled = ref false in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          Sim.delay sim 5.0;
          Lockmgr.release_all lm 1);
      Sim.spawn sim (fun () ->
          Sim.delay sim 0.5;
          try Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.X "a"
          with Not_found -> cancelled := true);
      Sim.spawn sim (fun () ->
          Sim.delay sim 1.0;
          Alcotest.(check bool) "waiting" true (Lockmgr.is_waiting lm 2);
          Alcotest.(check bool) "cancelled" true (Lockmgr.cancel_wait lm 2 Not_found));
      Sim.schedule sim ~after:10.0 (fun () ->
          Alcotest.(check bool) "exception delivered" true !cancelled;
          Alcotest.(check bool) "no longer waiting" false (Lockmgr.is_waiting lm 2)))

let test_release_keeps_siread () =
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.Siread "a";
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "b";
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.S "c";
          Lockmgr.release_all ~keep_siread:true lm 1;
          Alcotest.(check (list (pair int string)))
            "SIREAD survives"
            [ (1, "SIREAD") ]
            (List.map (fun (o, m) -> (o, Lockmgr.mode_to_string m)) (Lockmgr.holders lm "a"));
          Alcotest.(check (list (pair int string))) "X gone" [] (List.map (fun (o, m) -> (o, Lockmgr.mode_to_string m)) (Lockmgr.holders lm "b"));
          Lockmgr.release_all lm 1;
          Alcotest.(check int) "empty table" 0 (Lockmgr.lock_table_size lm)))

let test_release_wakes_waiter () =
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      let got = ref (-1.0) in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          Sim.delay sim 1.0;
          Lockmgr.release_one lm ~owner:1 ~mode:Lockmgr.X "a");
      Sim.spawn sim (fun () ->
          Sim.delay sim 0.1;
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.S "a";
          got := Sim.now sim);
      Sim.schedule sim ~after:5.0 (fun () ->
          Alcotest.(check (float 1e-9)) "woken on release_one" 1.0 !got))

let test_three_way_deadlock_periodic () =
  with_sim (fun sim ->
      let lm = Lockmgr.create ~detection:(Lockmgr.Periodic 0.5) sim in
      let victims = ref [] in
      let completions = ref 0 in
      for i = 1 to 3 do
        Sim.spawn sim (fun () ->
            let mine = string_of_int i in
            let next = string_of_int ((i mod 3) + 1) in
            Lockmgr.acquire lm ~owner:i ~mode:Lockmgr.X mine;
            Sim.delay sim 0.1;
            (try
               Lockmgr.acquire lm ~owner:i ~mode:Lockmgr.X next;
               incr completions
             with Lockmgr.Deadlock_victim -> victims := i :: !victims);
            Lockmgr.release_all lm i)
      done;
      Sim.schedule sim ~after:20.0 (fun () ->
          Alcotest.(check int) "one victim breaks the 3-cycle" 1 (List.length !victims);
          Alcotest.(check int) "others complete" 2 !completions))


let test_reentrant_bypasses_queue () =
  (* Regression: an owner re-requesting a mode it already effectively holds
     must not queue behind strangers waiting for it (self-deadlock). *)
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      let reacquired = ref (-1.0) in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          Sim.delay sim 1.0;
          (* Owner 2 is queued for X by now; our re-request must succeed
             immediately, not deadlock. *)
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          reacquired := Sim.now sim;
          Lockmgr.release_all lm 1);
      Sim.spawn sim (fun () ->
          Sim.delay sim 0.5;
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.X "a";
          Lockmgr.release_all lm 2);
      Sim.schedule sim ~after:10.0 (fun () ->
          Alcotest.(check (float 1e-9)) "instant re-grant" 1.0 !reacquired;
          Alcotest.(check int) "no deadlock" 0 (Lockmgr.deadlocks lm)))

let test_conversion_goes_to_queue_front () =
  (* An S holder converting to X waits only for the other S holder, then is
     served before the stranger X waiter who arrived earlier. *)
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      let order = ref [] in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.S "a";
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.S "a";
          ());
      (* Stranger X waiter arrives first. *)
      Sim.spawn sim (fun () ->
          Sim.delay sim 0.1;
          Lockmgr.acquire lm ~owner:3 ~mode:Lockmgr.X "a";
          order := 3 :: !order;
          Lockmgr.release_all lm 3);
      (* Holder 1 requests conversion later. *)
      Sim.spawn sim (fun () ->
          Sim.delay sim 0.2;
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.X "a";
          order := 1 :: !order;
          Lockmgr.release_all lm 1);
      (* Holder 2 releases, unblocking the conversion. *)
      Sim.spawn sim (fun () ->
          Sim.delay sim 1.0;
          Lockmgr.release_all lm 2);
      Sim.schedule sim ~after:10.0 (fun () ->
          Alcotest.(check (list int)) "conversion first" [ 1; 3 ] (List.rev !order)))

let test_siread_retained_vs_new_x () =
  (* A suspended owner's SIREAD must be visible to later X acquirers. *)
  with_sim (fun sim ->
      let lm = Lockmgr.create sim in
      Sim.spawn sim (fun () ->
          Lockmgr.acquire lm ~owner:1 ~mode:Lockmgr.Siread "a";
          Lockmgr.release_all ~keep_siread:true lm 1;
          Lockmgr.acquire lm ~owner:2 ~mode:Lockmgr.X "a";
          let holders = List.sort compare (Lockmgr.holders lm "a") in
          Alcotest.(check (list (pair int string)))
            "both visible"
            [ (1, "SIREAD"); (2, "X") ]
            (List.map (fun (o, m) -> (o, Lockmgr.mode_to_string m)) holders)))

(* {1 Properties over random operation sequences} *)

let mode_gen = QCheck.Gen.oneofl [ Lockmgr.S; Lockmgr.X; Lockmgr.Siread ]

let all_modes = [ Lockmgr.X; Lockmgr.S; Lockmgr.Siread ]

(* A reference lock table built the way the lock manager used to build its
   own: a fresh holder table for every new lock entry and a fresh held set
   for every new owner. Hashtable iteration order depends on a table's
   history, so [holders] and [transfer_sireads] only return the same lists
   in the same order if the recycled tables behave exactly like fresh
   ones. No request here ever blocks, so there are no queues to model. *)
module Ref = struct
  type counts = { mutable s : int; mutable x : int; mutable siread : int }

  type t = {
    table : (string, (int, counts) Hashtbl.t) Hashtbl.t;
    owned : (int, (string, unit) Hashtbl.t) Hashtbl.t;
  }

  let create () = { table = Hashtbl.create 16; owned = Hashtbl.create 16 }

  let count c = function Lockmgr.S -> c.s | Lockmgr.X -> c.x | Lockmgr.Siread -> c.siread

  let set_count c m n =
    match m with Lockmgr.S -> c.s <- n | Lockmgr.X -> c.x <- n | Lockmgr.Siread -> c.siread <- n

  let empty c = c.s = 0 && c.x = 0 && c.siread = 0

  let note_owned t owner r =
    let set =
      match Hashtbl.find_opt t.owned owner with
      | Some s -> s
      | None ->
          let s = Hashtbl.create 16 in
          Hashtbl.replace t.owned owner s;
          s
    in
    Hashtbl.replace set r ()

  let holders t r =
    match Hashtbl.find_opt t.table r with
    | None -> []
    | Some holds ->
        Hashtbl.fold
          (fun o c acc ->
            List.fold_left (fun acc m -> if count c m > 0 then (o, m) :: acc else acc) acc all_modes)
          holds []

  let would_block t ~owner ~mode r =
    List.exists (fun (o, m) -> o <> owner && Lockmgr.blocks mode m) (holders t r)

  let acquire t ~owner ~mode r =
    let holds =
      match Hashtbl.find_opt t.table r with
      | Some h -> h
      | None ->
          let h = Hashtbl.create 4 in
          Hashtbl.replace t.table r h;
          h
    in
    let c =
      match Hashtbl.find_opt holds owner with
      | Some c -> c
      | None ->
          let c = { s = 0; x = 0; siread = 0 } in
          Hashtbl.replace holds owner c;
          c
    in
    set_count c mode (count c mode + 1);
    note_owned t owner r

  let drop_if_empty t r holds = if Hashtbl.length holds = 0 then Hashtbl.remove t.table r

  let release_one t ~owner ~mode r =
    match Hashtbl.find_opt t.table r with
    | None -> ()
    | Some holds -> (
        match Hashtbl.find_opt holds owner with
        | Some c when count c mode > 0 ->
            set_count c mode 0;
            if empty c then begin
              Hashtbl.remove holds owner;
              match Hashtbl.find_opt t.owned owner with
              | Some set -> Hashtbl.remove set r
              | None -> ()
            end;
            drop_if_empty t r holds
        | _ -> ())

  let release_all ~keep_siread t owner =
    match Hashtbl.find_opt t.owned owner with
    | None -> ()
    | Some set ->
        List.iter
          (fun r ->
            match Hashtbl.find_opt t.table r with
            | None -> Hashtbl.remove set r
            | Some holds -> (
                match Hashtbl.find_opt holds owner with
                | None -> Hashtbl.remove set r
                | Some c ->
                    c.s <- 0;
                    c.x <- 0;
                    if not keep_siread then c.siread <- 0;
                    if c.siread = 0 then begin
                      Hashtbl.remove holds owner;
                      Hashtbl.remove set r
                    end;
                    drop_if_empty t r holds))
          (Hashtbl.fold (fun r () acc -> r :: acc) set []);
        if Hashtbl.length set = 0 then Hashtbl.remove t.owned owner

  let transfer_sireads t ~owner ~to_owner =
    match Hashtbl.find_opt t.owned owner with
    | None -> []
    | Some set ->
        let moved =
          List.filter_map
            (fun r ->
              match Hashtbl.find_opt t.table r with
              | None ->
                  Hashtbl.remove set r;
                  None
              | Some holds -> (
                  match Hashtbl.find_opt holds owner with
                  | None ->
                      Hashtbl.remove set r;
                      None
                  | Some c when c.siread = 0 -> None
                  | Some c ->
                      c.siread <- 0;
                      if c.s = 0 && c.x = 0 then begin
                        Hashtbl.remove holds owner;
                        Hashtbl.remove set r
                      end;
                      (match Hashtbl.find_opt holds to_owner with
                      | Some tc -> tc.siread <- 1
                      | None -> Hashtbl.replace holds to_owner { s = 0; x = 0; siread = 1 });
                      note_owned t to_owner r;
                      Some r))
            (Hashtbl.fold (fun r () acc -> r :: acc) set [])
        in
        if Hashtbl.length set = 0 then Hashtbl.remove t.owned owner;
        moved

  (* SIREAD holds per owner, indexed by owner id. *)
  let sireads t n_owners =
    let per_owner = Array.make n_owners 0 in
    Hashtbl.iter
      (fun _ holds ->
        Hashtbl.iter (fun o c -> if c.siread > 0 then per_owner.(o) <- per_owner.(o) + 1) holds)
      t.table;
    per_owner
end

type op =
  | Acquire of int * Lockmgr.mode * int
  | Release_one of int * Lockmgr.mode * int
  | Release_all of int * bool
  | Transfer of int * int
  | Spread of int * int  (** owner SIREADs resources 0..n-1: grows its held set *)
  | Crowd of int * int  (** owners 0..n-1 SIREAD one resource: grows its holders *)
  | Drain  (** every owner releases everything: all tables go back for reuse *)

(* Enough owners and names that a [Spread] or a [Crowd] can pass 64 holds,
   so a held set or a holder chain doubles twice, and that the lock table
   grows four times and deletes across clusters that wrap. *)
let n_owners = 96

let n_resources = 100

(* Names 0 to 4 are the first "w<i>" whose [Hashtbl.hash] ends in 511 (three
   of them) or 510 (two) in its low 9 bits, so a lock table of up to 512
   slots probes them from its last two slots: held together, they make a
   cluster that wraps past the table's end, and releasing them deletes
   across it. *)
let wrapping =
  let ending tail k =
    let rec go i acc =
      if List.length acc = k then List.rev acc
      else
        let name = "w" ^ string_of_int i in
        go (i + 1) (if Hashtbl.hash name land 511 = tail then name :: acc else acc)
    in
    go 0 []
  in
  Array.of_list (ending 511 3 @ ending 510 2)

let resource i = if i < Array.length wrapping then wrapping.(i) else "r" ^ string_of_int i

(* Half of the single-resource operations go to the ten first names, so
   the wrapping cluster is often built and deleted across. *)
let op_gen =
  let open QCheck.Gen in
  let owner = int_bound (n_owners - 1)
  and res = oneof [ int_bound 9; int_bound (n_resources - 1) ] in
  frequency
    [
      (10, map3 (fun o m r -> Acquire (o, m, r)) owner mode_gen res);
      (3, map3 (fun o m r -> Release_one (o, m, r)) owner mode_gen res);
      (3, map2 (fun o k -> Release_all (o, k)) owner bool);
      (2, map2 (fun o o' -> Transfer (o, o')) owner owner);
      (1, map2 (fun o n -> Spread (o, n)) owner (int_range 20 n_resources));
      (1, map2 (fun r n -> Crowd (r, n)) res (int_range 20 n_owners));
      (1, return Drain);
    ]

let show_op = function
  | Acquire (o, m, r) -> Printf.sprintf "acquire %d %s r%d" o (Lockmgr.mode_to_string m) r
  | Release_one (o, m, r) -> Printf.sprintf "release_one %d %s r%d" o (Lockmgr.mode_to_string m) r
  | Release_all (o, k) -> Printf.sprintf "release_all %d keep=%b" o k
  | Transfer (o, o') -> Printf.sprintf "transfer %d -> %d" o o'
  | Spread (o, n) -> Printf.sprintf "spread %d %d" o n
  | Crowd (r, n) -> Printf.sprintf "crowd r%d %d" r n
  | Drain -> "drain"

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck.Gen.(list_size (int_range 50 300) op_gen)

(* Apply [ops] to a lock manager and to the reference, checking after every
   step that they agree: [holders] and [holders_with] (order included) on
   every resource, the SIREAD counts ([siread_entries] and each owner's
   [sireads_of]), [holds_mode] against [holds_of] and the reference,
   [transfer_sireads] results, the table size and each owner's held
   resources. A request the reference refuses runs in a process, must
   wait, and is then cancelled: the lock manager decides from its S and X
   counts what the reference decides from a scan of the holders. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"holders and holds_mode match a fresh-table reference" ~count:100
    arb_ops (fun ops ->
      let sim = Sim.create () in
      let lm = Lockmgr.create sim and rf = Ref.create () in
      let acquire owner mode r =
        let r = resource r in
        if not (Ref.would_block rf ~owner ~mode r) then begin
          Lockmgr.acquire lm ~owner ~mode r;
          Ref.acquire rf ~owner ~mode r
        end
        else begin
          Sim.spawn sim (fun () -> try Lockmgr.acquire lm ~owner ~mode r with Exit -> ());
          Sim.run sim;
          if not (Lockmgr.cancel_wait lm owner Exit) then
            QCheck.Test.fail_reportf "%d %s on %s was granted over a conflicting holder" owner
              (Lockmgr.mode_to_string mode) r;
          Sim.run sim
        end
      in
      let release_all owner keep_siread =
        Lockmgr.release_all ~keep_siread lm owner;
        Ref.release_all ~keep_siread rf owner
      in
      (* Holders and SIREAD counts are compared after every step, the rest
         every 20 steps and at the end. *)
      let check_holders () =
        for i = 0 to n_resources - 1 do
          let r = resource i in
          let ref_holders = Ref.holders rf r in
          if Lockmgr.holders lm r <> ref_holders then
            QCheck.Test.fail_reportf "holders of %s differ" r;
          List.iter
            (fun mode ->
              let owners = List.filter_map (fun (o, m) -> if m = mode then Some o else None) in
              if Lockmgr.holders_with lm r mode <> owners ref_holders then
                QCheck.Test.fail_reportf "holders_with %s of %s differ"
                  (Lockmgr.mode_to_string mode) r)
            all_modes
        done;
        let sireads = Ref.sireads rf n_owners in
        if Lockmgr.siread_entries lm <> Array.fold_left ( + ) 0 sireads then
          QCheck.Test.fail_reportf "siread_entries differs";
        Array.iteri
          (fun owner n ->
            if Lockmgr.sireads_of lm owner <> n then
              QCheck.Test.fail_reportf "sireads_of %d differs" owner)
          sireads
      in
      let check_all () =
        for i = 0 to n_resources - 1 do
          let r = resource i in
          let ref_holders = Ref.holders rf r in
          for owner = 0 to n_owners - 1 do
            List.iter
              (fun mode ->
                let got = Lockmgr.holds_mode lm ~owner ~mode r in
                if got <> List.mem mode (Lockmgr.holds_of lm ~owner r) then
                  QCheck.Test.fail_reportf "holds_mode disagrees with holds_of on %s" r;
                if got <> List.mem (owner, mode) ref_holders then
                  QCheck.Test.fail_reportf "holds_mode disagrees with the reference on %s" r)
              all_modes
          done
        done;
        let ref_size =
          Hashtbl.fold
            (fun _ holds acc ->
              acc + Hashtbl.fold (fun _ c acc -> if Ref.empty c then acc else acc + 1) holds 0)
            rf.Ref.table 0
        in
        if Lockmgr.lock_table_size lm <> ref_size then QCheck.Test.fail_reportf "table sizes differ";
        for owner = 0 to n_owners - 1 do
          let ref_owned =
            match Hashtbl.find_opt rf.Ref.owned owner with
            | None -> []
            | Some set -> List.sort compare (Hashtbl.fold (fun r () acc -> r :: acc) set [])
          in
          if Lockmgr.owned_resources lm owner <> ref_owned then
            QCheck.Test.fail_reportf "held resources of %d differ" owner
        done
      in
      List.iteri
        (fun i op ->
          (match op with
          | Acquire (o, m, r) -> acquire o m r
          | Release_one (o, mode, r) ->
              Lockmgr.release_one lm ~owner:o ~mode (resource r);
              Ref.release_one rf ~owner:o ~mode (resource r)
          | Release_all (o, k) -> release_all o k
          | Transfer (owner, to_owner) ->
              let got = Lockmgr.transfer_sireads lm ~owner ~to_owner in
              if got <> Ref.transfer_sireads rf ~owner ~to_owner then
                QCheck.Test.fail_reportf "transfer_sireads %d -> %d differs" owner to_owner
          | Spread (o, n) -> for r = 0 to n - 1 do acquire o Lockmgr.Siread r done
          | Crowd (r, n) -> for o = 0 to n - 1 do acquire o Lockmgr.Siread r done
          | Drain -> for o = 0 to n_owners - 1 do release_all o false done);
          check_holders ();
          if i mod 20 = 19 then check_all ())
        ops;
      check_all ();
      true)

(* [release_all] frees each lock as its walk of the held set reaches it,
   but serves the waiters of those locks in the order of a list of the
   held set's resources built by [fold], as the reference's [release_all]
   visits them: the order waiters wake is part of the simulation. Owner 0
   holds X (and SIREAD under [keep_siread]) on every resource, and one S
   waiter queues on each. *)
let prop_release_wake_order =
  QCheck.Test.make ~name:"release_all wakes waiters in held-set order" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 2 160) (int_bound 9999)) bool)
    (fun (ids, keep_siread) ->
      let rs =
        List.rev
          (List.fold_left
             (fun acc i -> if List.mem (resource i) acc then acc else resource i :: acc)
             [] ids)
      in
      QCheck.assume (List.length rs >= 2);
      let sim = Sim.create () in
      let lm = Lockmgr.create sim and rf = Ref.create () in
      let hold mode r =
        Lockmgr.acquire lm ~owner:0 ~mode r;
        Ref.acquire rf ~owner:0 ~mode r
      in
      List.iter
        (fun r ->
          hold Lockmgr.X r;
          if keep_siread then hold Lockmgr.Siread r)
        rs;
      let woken = ref [] in
      List.iteri
        (fun i r ->
          Sim.spawn sim (fun () ->
              Lockmgr.acquire lm ~owner:(i + 1) ~mode:Lockmgr.S r;
              woken := r :: !woken))
        rs;
      Sim.run sim;
      let expected = Hashtbl.fold (fun r () acc -> r :: acc) (Hashtbl.find rf.Ref.owned 0) [] in
      Lockmgr.release_all ~keep_siread lm 0;
      Sim.run sim;
      List.rev !woken = expected)

(* Immediate detection: a request raises [Deadlock_victim] exactly when the
   whole waits-for graph plus the request's own edges has a cycle through
   the requester. The expected verdict is computed here from public
   introspection only ([holders], [queued], [waits_for_edges]); the lock
   manager itself only searches from the requester. *)

let reaches edges ~from ~target =
  let visited = Hashtbl.create 8 in
  let rec go n =
    n = target
    || (not (Hashtbl.mem visited n))
       && begin
            Hashtbl.replace visited n ();
            List.exists (fun (a, b) -> a = n && go b) edges
          end
  in
  List.exists (fun (a, b) -> a = from && go b) edges

type step = Request of int * Lockmgr.mode * int | Release of int

let step_gen =
  let open QCheck.Gen in
  let owner = int_range 1 4 and res = int_bound 2 in
  frequency
    [
      (6, map3 (fun o m r -> Request (o, m, r)) owner (oneofl [ Lockmgr.S; Lockmgr.X ]) res);
      (1, map (fun o -> Release o) owner);
    ]

let arb_steps =
  QCheck.make
    ~print:(fun steps ->
      String.concat "; "
        (List.map
           (function
             | Request (o, m, r) -> Printf.sprintf "%d %s r%d" o (Lockmgr.mode_to_string m) r
             | Release o -> Printf.sprintf "%d release" o)
           steps))
    QCheck.Gen.(list_size (int_range 5 40) step_gen)

(* [waited] and [cycles] count the requests that waited and those that
   closed a cycle, to show the property saw both verdicts. *)
let prop_immediate_verdict ~waited ~cycles =
  QCheck.Test.make ~name:"immediate detection matches the full waits-for graph" ~count:400
    arb_steps (fun steps ->
      let sim = Sim.create () in
      let lm = Lockmgr.create ~detection:Lockmgr.Immediate sim in
      let busy = Array.make 5 false in
      let ok = ref true in
      List.iteri
        (fun i step ->
          Sim.schedule sim ~after:(float_of_int i) (fun () ->
              Sim.spawn sim (fun () ->
                  match step with
                  | Release o -> if not busy.(o) then Lockmgr.release_all lm o
                  | Request (owner, mode, r) when not busy.(owner) ->
                      let r = resource r in
                      let blocking = List.filter (fun (o, m) -> o <> owner && Lockmgr.blocks mode m) in
                      let already = Lockmgr.holds_of lm ~owner r <> [] in
                      let held = blocking (Lockmgr.holders lm r) in
                      let queued = if already then [] else blocking (Lockmgr.queued lm r) in
                      let edges = List.map (fun (o, _) -> (owner, o)) (held @ queued) in
                      let waits = edges <> [] in
                      let expected =
                        waits && reaches (edges @ Lockmgr.waits_for_edges lm) ~from:owner ~target:owner
                      in
                      if waits then incr waited;
                      if expected then incr cycles;
                      (* The victim is told before it would wait, so by half a
                         step later the request has raised, or else it has
                         been granted or is still waiting. *)
                      let raised = ref false in
                      Sim.schedule sim ~after:0.5 (fun () -> if !raised <> expected then ok := false);
                      busy.(owner) <- true;
                      (match Lockmgr.acquire lm ~owner ~mode r with
                      | () -> ()
                      | exception Lockmgr.Deadlock_victim ->
                          raised := true;
                          Lockmgr.release_all lm owner);
                      busy.(owner) <- false
                  | Request _ -> ())))
        steps;
      Sim.run sim;
      !ok)

let test_immediate_verdict =
  let waited = ref 0 and cycles = ref 0 in
  let name, speed, run = QCheck_alcotest.to_alcotest (prop_immediate_verdict ~waited ~cycles) in
  ( name,
    speed,
    fun () ->
      run ();
      Alcotest.(check bool) "some requests waited" true (!waited > 0);
      Alcotest.(check bool) "some requests closed a cycle" true (!cycles > 0) )

(* Periodic detection: every request lands before t = 100 and the detector
   first runs a full interval after the first block (t >= 1000), so at
   t = 500 the waits-for graph is the one the first pass sees. Its first
   victim must be the largest owner on a cycle in that graph, or there is
   none when the graph has no cycle. A waiter off every cycle may wait
   forever and keep the detector running, so the run stops at [until]. *)
let prop_periodic_victim ~cycles =
  QCheck.Test.make ~name:"periodic detection kills the largest owner on a cycle" ~count:300
    arb_steps (fun steps ->
      let sim = Sim.create () in
      let lm = Lockmgr.create ~detection:(Lockmgr.Periodic 1000.) sim in
      let busy = Array.make 5 false in
      let victims = ref [] and expected = ref None in
      List.iteri
        (fun i step ->
          Sim.schedule sim ~after:(float_of_int i) (fun () ->
              Sim.spawn sim (fun () ->
                  match step with
                  | Release o -> if not busy.(o) then Lockmgr.release_all lm o
                  | Request (owner, mode, r) when not busy.(owner) ->
                      busy.(owner) <- true;
                      (match Lockmgr.acquire lm ~owner ~mode (resource r) with
                      | () -> ()
                      | exception Lockmgr.Deadlock_victim ->
                          victims := owner :: !victims;
                          Lockmgr.release_all lm owner);
                      busy.(owner) <- false
                  | Request _ -> ())))
        steps;
      Sim.schedule sim ~after:500. (fun () ->
          let edges = Lockmgr.waits_for_edges lm in
          expected :=
            List.fold_left
              (fun acc o -> if reaches edges ~from:o ~target:o then Some o else acc)
              None [ 1; 2; 3; 4 ]);
      Sim.run ~until:10_000. sim;
      if !expected <> None then incr cycles;
      match List.rev !victims with
      | [] -> !expected = None
      | first :: _ -> !expected = Some first)

let test_periodic_victim =
  let cycles = ref 0 in
  let name, speed, run = QCheck_alcotest.to_alcotest (prop_periodic_victim ~cycles) in
  ( name,
    speed,
    fun () ->
      run ();
      Alcotest.(check bool) "some runs had a cycle" true (!cycles > 0) )

(* Lock queues against a reference that keeps each queue as a plain list:
   a waiter appended with [@], a conversion (a request by an owner that
   already holds a mode there) put at the front, a cancelled waiter
   filtered out, and waiters served from the head while they do not
   conflict with another owner's hold. Random S/X requests, releases,
   [cancel_wait] calls and looks at [queued] over two resources run one per
   step; each resource's grants, in the order the processes were granted,
   and each look must match. Under [Periodic] the detector runs too late to
   kill anyone, so only cancels end a wait. Under [Immediate] a request
   that would close a cycle raises [Deadlock_victim] without queuing, so
   the reference withdraws it; only a request the reference queued may be
   refused that way. *)
module Qref = struct
  type lock = {
    mutable held : (int * Lockmgr.mode) list;
    mutable queue : (int * Lockmgr.mode) list;
  }

  let blocked l ~owner ~mode =
    List.exists (fun (o, m) -> o <> owner && Lockmgr.blocks mode m) l.held

  let grant l granted owner mode =
    if not (List.mem (owner, mode) l.held) then l.held <- (owner, mode) :: l.held;
    granted := (owner, mode) :: !granted

  let rec serve l granted =
    match l.queue with
    | (o, m) :: rest when not (blocked l ~owner:o ~mode:m) ->
        l.queue <- rest;
        grant l granted o m;
        serve l granted
    | _ -> ()

  (* Whether the request waits, and whether it is a conversion. *)
  let request l granted ~owner ~mode =
    let holds = List.mem_assoc owner l.held in
    let queue_blocks = List.exists (fun (o, m) -> o <> owner && Lockmgr.blocks mode m) l.queue in
    if (not (blocked l ~owner ~mode)) && (holds || not queue_blocks) then begin
      grant l granted owner mode;
      (false, holds)
    end
    else begin
      l.queue <- (if holds then (owner, mode) :: l.queue else l.queue @ [ (owner, mode) ]);
      (true, holds)
    end

  let release l granted owner =
    l.held <- List.filter (fun (o, _) -> o <> owner) l.held;
    serve l granted

  let cancel l granted owner =
    l.queue <- List.filter (fun (o, _) -> o <> owner) l.queue;
    serve l granted
end

type qstep = Ask of int * Lockmgr.mode * int | Drop of int | Cancel of int | Look

let arb_qsteps =
  let open QCheck.Gen in
  let owner = int_range 1 5 in
  let step =
    frequency
      [
        ( 6,
          map3
            (fun o m r -> Ask (o, m, r))
            owner
            (oneofl [ Lockmgr.S; Lockmgr.X ])
            (int_bound 1) );
        (2, map (fun o -> Drop o) owner);
        (2, map (fun o -> Cancel o) owner);
        (1, return Look);
      ]
  in
  QCheck.make
    ~print:(fun steps ->
      String.concat "; "
        (List.map
           (function
             | Ask (o, m, r) -> Printf.sprintf "%d %s r%d" o (Lockmgr.mode_to_string m) r
             | Drop o -> Printf.sprintf "%d release" o
             | Cancel o -> Printf.sprintf "cancel %d" o
             | Look -> "look")
           steps))
    (list_size (int_range 5 60) step)

exception Cancelled

(* [converted], [cancelled] and [victims] count the conversions that
   queued, the cancels that found a waiter and the requests refused as
   deadlock victims, to show the property saw them. *)
let prop_queue_matches_list ~name ~detection ~converted ~cancelled ~victims =
  QCheck.Test.make ~name ~count:300 arb_qsteps (fun steps ->
      let sim = Sim.create () in
      let lm = Lockmgr.create ~detection sim in
      let refs = Array.init 2 (fun _ -> { Qref.held = []; queue = [] }) in
      let granted = Array.init 2 (fun _ -> ref []) in
      let expected = Array.init 2 (fun _ -> ref []) in
      let waiting = Array.make 6 None in
      let ok = ref true in
      List.iteri
        (fun i step ->
          Sim.schedule sim ~after:(float_of_int i) (fun () ->
              Sim.spawn sim (fun () ->
                  match step with
                  | Ask (owner, mode, r) when waiting.(owner) = None -> (
                      let waits, conversion = Qref.request refs.(r) expected.(r) ~owner ~mode in
                      if waits && conversion then incr converted;
                      waiting.(owner) <- Some r;
                      match Lockmgr.acquire lm ~owner ~mode (resource r) with
                      | () ->
                          waiting.(owner) <- None;
                          granted.(r) := (owner, mode) :: !(granted.(r))
                      | exception Cancelled -> waiting.(owner) <- None
                      | exception Lockmgr.Deadlock_victim ->
                          waiting.(owner) <- None;
                          incr victims;
                          if not waits then ok := false;
                          Qref.cancel refs.(r) expected.(r) owner)
                  | Drop owner when waiting.(owner) = None ->
                      Array.iteri (fun r l -> Qref.release l expected.(r) owner) refs;
                      Lockmgr.release_all lm owner
                  | Cancel owner -> (
                      let found = Lockmgr.cancel_wait lm owner Cancelled in
                      match waiting.(owner) with
                      | Some r ->
                          incr cancelled;
                          Qref.cancel refs.(r) expected.(r) owner;
                          if not found then ok := false
                      | None -> if found then ok := false)
                  | Look ->
                      Array.iteri
                        (fun r l ->
                          if Lockmgr.queued lm (resource r) <> l.Qref.queue then ok := false)
                        refs
                  | Ask _ | Drop _ -> ())))
        steps;
      Sim.run ~until:(float_of_int (List.length steps)) sim;
      !ok && Array.for_all2 (fun g e -> !g = !e) granted expected)

let test_queue_matches_list ~name ~detection =
  let converted = ref 0 and cancelled = ref 0 and victims = ref 0 in
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      (prop_queue_matches_list ~name ~detection ~converted ~cancelled ~victims)
  in
  ( name,
    speed,
    fun () ->
      run ();
      Alcotest.(check bool) "some conversions queued" true (!converted > 0);
      Alcotest.(check bool) "some cancels found a waiter" true (!cancelled > 0);
      if detection = Lockmgr.Immediate then
        Alcotest.(check bool) "some requests were deadlock victims" true (!victims > 0) )

let suite =
  [
    ("conflict matrix", `Quick, test_conflict_matrix);
    ("shared locks coexist", `Quick, test_shared_locks_coexist);
    ("X blocks until release", `Quick, test_x_blocks_until_release);
    ("SIREAD never blocks", `Quick, test_siread_never_blocks);
    ("X granted over SIREAD", `Quick, test_x_granted_over_siread);
    ("FIFO no starvation", `Quick, test_fifo_no_starvation);
    ("reentrant acquisition", `Quick, test_reentrant);
    ("upgrade waits for other S", `Quick, test_upgrade_waits_for_other_s);
    ("immediate deadlock detection", `Quick, test_immediate_deadlock);
    ("periodic deadlock detection", `Quick, test_periodic_deadlock);
    ("cancel wait", `Quick, test_cancel_wait);
    ("release keeps SIREAD", `Quick, test_release_keeps_siread);
    ("release_one wakes waiter", `Quick, test_release_wakes_waiter);
    ("three-way deadlock", `Quick, test_three_way_deadlock_periodic);
    ("reentrant bypasses queue", `Quick, test_reentrant_bypasses_queue);
    ("conversion at queue front", `Quick, test_conversion_goes_to_queue_front);
    ("retained SIREAD visible to X", `Quick, test_siread_retained_vs_new_x);
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_release_wake_order;
    test_immediate_verdict;
    test_periodic_victim;
    test_queue_matches_list ~name:"lock queues match a plain-list reference"
      ~detection:(Lockmgr.Periodic 1e9);
    test_queue_matches_list
      ~name:"lock queues match a plain-list reference, immediate detection"
      ~detection:Lockmgr.Immediate;
  ]

let () = Alcotest.run "lockmgr" [ ("lockmgr", suite) ]
