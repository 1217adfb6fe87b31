(* FIFO queue in a growable circular array whose free slots hold [None].

   The queued elements sit in [length] slots from [head] on, wrapping at
   the end of the array; every other slot is [None]. The capacity is 0 or
   a power of two, so an index wraps with a mask. *)

type 'a t = {
  mutable slots : 'a option array;
  mutable head : int;
  mutable length : int;
}

exception Empty

let create () = { slots = [||]; head = 0; length = 0 }

let length t = t.length

let is_empty t = t.length = 0

(* Double a full array, moving the queued range to its front. *)
let grow t =
  let cap = Array.length t.slots in
  let slots = Array.make (max 8 (2 * cap)) None in
  Array.blit t.slots t.head slots 0 (cap - t.head);
  Array.blit t.slots 0 slots (cap - t.head) t.head;
  t.slots <- slots;
  t.head <- 0

let push t x =
  if t.length = Array.length t.slots then grow t;
  t.slots.((t.head + t.length) land (Array.length t.slots - 1)) <- Some x;
  t.length <- t.length + 1

(* The front slot itself, so a peek allocates nothing. *)
let peek_opt t = if t.length = 0 then None else t.slots.(t.head)

let pop t =
  match peek_opt t with
  | None -> raise Empty
  | Some x ->
      t.slots.(t.head) <- None;
      t.head <- (t.head + 1) land (Array.length t.slots - 1);
      t.length <- t.length - 1;
      x
