(* Interned footprints for the DPOR explorer.

   The engine names every resource a turn touches with a string (see
   {!Core.Db.set_on_touch}); an exploration maps each name it analyzes to
   one int, so a turn's footprint is two short sorted int arrays and the
   dependency test is three merge walks instead of [List.mem] over string
   lists. The two low bits of an id carry the facts the explorer asks of a
   name, decided once when it is interned. *)

module Names = Hashtbl.Make (String)

(* A visibility shadow "c/<resource>": commits write one at publication,
   snapshot pins read them. *)
let shadow_bit = 1

(* Not a data resource: the snapshot-pin marker "clock", the begin marker
   "tid", doom flags "x/<engine id>" and shadows. *)
let nondata_bit = 2

type names = {
  ids : int Names.t;
  mutable name_of : string array;  (* by index (id lsr 2) *)
  mutable shadows : int array;  (* by index: the shadow's id, or -1 until built *)
  mutable dooms : int array;  (* by index: the engine id of a doom flag, else -1 *)
  mutable scratch : int array;  (* of_names's sort buffer *)
}

let create () =
  {
    ids = Names.create 64;
    name_of = Array.make 64 "";
    shadows = Array.make 64 (-1);
    dooms = Array.make 64 (-1);
    scratch = Array.make 32 0;
  }

let is_shadow id = id land shadow_bit <> 0
let is_data id = id land nondata_bit = 0

let prefixed c name = String.length name >= 2 && name.[0] = c && name.[1] = '/'

let flags name =
  if prefixed 'c' name then shadow_bit lor nondata_bit
  else if name = "clock" || name = "tid" || prefixed 'x' name then nondata_bit
  else 0

(* The engine id in a doom flag's name, as [Core.Internal.doom_resource]
   prints it; -1 for any other name. *)
let doom_of name =
  if prefixed 'x' name then
    let digits = String.sub name 2 (String.length name - 2) in
    match int_of_string_opt digits with
    | Some id when id >= 0 && string_of_int id = digits -> id
    | Some _ | None -> -1
  else -1

let grow a fill n = Array.append a (Array.make n fill)

let intern t name =
  match Names.find t.ids name with
  | id -> id
  | exception Not_found ->
      let i = Names.length t.ids in
      if i = Array.length t.name_of then begin
        let n = Array.length t.name_of in
        t.name_of <- grow t.name_of "" n;
        t.shadows <- grow t.shadows (-1) n;
        t.dooms <- grow t.dooms (-1) n
      end;
      t.name_of.(i) <- name;
      t.dooms.(i) <- doom_of name;
      let id = (i lsl 2) lor flags name in
      Names.add t.ids name id;
      id

let shadow t id =
  let i = id lsr 2 in
  if t.shadows.(i) >= 0 then t.shadows.(i)
  else begin
    let s = intern t ("c/" ^ t.name_of.(i)) in
    t.shadows.(i) <- s;
    s
  end

let doom_owner t id = if id land nondata_bit = 0 then -1 else t.dooms.(id lsr 2)

(* {1 Sorted id sets} *)

type t = { reads : int array; writes : int array }

(* Sort [a.(0 .. n-1)] in place and drop repeats; returns the new length.
   Footprints hold a handful of ids, so insertion sort. *)
let sort_uniq a n =
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done;
  if n = 0 then 0
  else begin
    let m = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!m - 1) then begin
        a.(!m) <- a.(i);
        incr m
      end
    done;
    !m
  end

let rec fill t names k =
  match names with
  | [] -> k
  | name :: rest ->
      if k = Array.length t.scratch then t.scratch <- grow t.scratch 0 k;
      t.scratch.(k) <- intern t name;
      fill t rest (k + 1)

let set_of t names =
  let n = sort_uniq t.scratch (fill t names 0) in
  Array.sub t.scratch 0 n

let of_names t ~reads ~writes = { reads = set_of t reads; writes = set_of t writes }

let add_reads fp ids =
  let a = Array.append fp.reads ids in
  { fp with reads = Array.sub a 0 (sort_uniq a (Array.length a)) }

(* {1 The dependency test}

   Two footprints conflict when one writes what the other reads or writes,
   except that two shadow writes commute (see explore.ml). *)

let rec meets a i b j =
  i < Array.length a
  && j < Array.length b
  &&
  let x = a.(i) and y = b.(j) in
  x = y || if x < y then meets a (i + 1) b j else meets a i b (j + 1)

let rec meets_data a i b j =
  i < Array.length a
  && j < Array.length b
  &&
  let x = a.(i) and y = b.(j) in
  if x = y then (not (is_shadow x)) || meets_data a (i + 1) b (j + 1)
  else if x < y then meets_data a (i + 1) b j
  else meets_data a i b (j + 1)

let conflict f g =
  meets f.writes 0 g.reads 0 || meets_data f.writes 0 g.writes 0 || meets g.writes 0 f.reads 0

let rec mem a i x = i < Array.length a && (a.(i) = x || (a.(i) < x && mem a (i + 1) x))

(* A live turn's names against an interned footprint. Lookups only: a name
   never interned cannot be in [fp]. *)
let rec live_writes t fp = function
  | [] -> false
  | name :: rest -> (
      match Names.find t.ids name with
      | id ->
          mem fp.reads 0 id
          || ((not (is_shadow id)) && mem fp.writes 0 id)
          || live_writes t fp rest
      | exception Not_found -> live_writes t fp rest)

let rec live_reads t fp = function
  | [] -> false
  | name :: rest -> (
      match Names.find t.ids name with
      | id -> mem fp.writes 0 id || live_reads t fp rest
      | exception Not_found -> live_reads t fp rest)

let live_conflict t ~reads ~writes fp = live_writes t fp writes || live_reads t fp reads
