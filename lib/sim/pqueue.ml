(* Binary min-heap keyed by (time, sequence-number); the sequence number
   makes event ordering total and hence the simulation deterministic.

   The heap is three parallel arrays: times unboxed in a float array,
   sequence numbers, payloads. Pushing allocates nothing but array growth,
   and popping allocates nothing at all. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
}

let create () = { times = [||]; seqs = [||]; payloads = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let grow t payload =
  let cap = Array.length t.payloads in
  if t.size = cap then begin
    let cap' = max 16 (2 * cap) in
    let times = Array.make cap' 0.0 and seqs = Array.make cap' 0 in
    let payloads = Array.make cap' payload in
    Array.blit t.times 0 times 0 t.size;
    Array.blit t.seqs 0 seqs 0 t.size;
    Array.blit t.payloads 0 payloads 0 t.size;
    t.times <- times;
    t.seqs <- seqs;
    t.payloads <- payloads
  end

let move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.payloads.(dst) <- t.payloads.(src)

let push t ~time ~seq payload =
  grow t payload;
  (* sift up: move parents down into the hole until the new entry fits *)
  let i = ref t.size in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = t.times.(parent) in
    if time < pt || (time = pt && seq < t.seqs.(parent)) then begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.payloads.(!i) <- payload;
  t.size <- t.size + 1

let min_time t = if t.size = 0 then infinity else t.times.(0)

let pop t =
  if t.size = 0 then invalid_arg "Pqueue.pop: empty queue";
  let top = t.payloads.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* sift the last entry down from the root *)
    let time = t.times.(n) and seq = t.seqs.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && (t.times.(r) < t.times.(l) || (t.times.(r) = t.times.(l) && t.seqs.(r) < t.seqs.(l)))
          then r
          else l
        in
        let ct = t.times.(c) in
        if ct < time || (ct = time && t.seqs.(c) < seq) then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else continue := false
      end
    done;
    move t ~src:n ~dst:!i
  end;
  top
