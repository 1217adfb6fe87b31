(* A k-server FIFO resource: models CPU cores, a disk, or a global mutex
   (capacity 1, e.g. InnoDB's kernel mutex). *)

(* Total server-seconds consumed, in a record of floats only so that it is
   stored unboxed and adding to it allocates nothing. *)
type busy = { mutable seconds : float }

type t = {
  sim : Sim.t;
  name : string;
  capacity : int;
  mutable in_use : int;
  queue : Sim.waker Fifo.t;
  enqueue : Sim.waker -> unit;
      (* queues a suspending waiter; made once, so a wait allocates no
         closure *)
  busy : busy;
  mutable obs : Obs.t;
      (* profiler sink: a state sample (servers busy, queue depth) is
         emitted on every acquire/release state change, but only when the
         sink is tracing — the disabled sink costs one branch and reads no
         simulated time. *)
}

let sample t =
  if Obs.tracing t.obs then
    Obs.emit t.obs ~ts:(Sim.now t.sim)
      (Obs.Res_sample { res = t.name; in_use = t.in_use; queued = Fifo.length t.queue })

let create sim ~name ~capacity =
  if capacity < 1 then invalid_arg "Resource.create: capacity must be >= 1";
  let rec t =
    {
      sim;
      name;
      capacity;
      in_use = 0;
      queue = Fifo.create ();
      enqueue =
        (fun w ->
          Fifo.push t.queue w;
          sample t);
      busy = { seconds = 0.0 };
      obs = Obs.disabled;
    }
  in
  t

let set_obs t obs = t.obs <- obs

let name t = t.name

let capacity t = t.capacity

let in_use t = t.in_use

let queued t = Fifo.length t.queue

let acquire t =
  if t.in_use < t.capacity then begin
    t.in_use <- t.in_use + 1;
    sample t
  end
  else
    (* The releaser transfers its slot to us; in_use stays constant. *)
    Sim.suspend t.sim t.enqueue

(* Hand the server to the first waiter still suspended, skipping killed
   ones, or free it when none is left. *)
let rec hand_over t =
  if Fifo.is_empty t.queue then t.in_use <- t.in_use - 1
  else begin
    let w = Fifo.pop t.queue in
    if Sim.waker_fired w then hand_over t else Sim.wake t.sim w
  end

let release t =
  hand_over t;
  sample t

let finish t dt =
  t.busy.seconds <- t.busy.seconds +. dt;
  release t

let use t dt f =
  acquire t;
  match
    Sim.delay t.sim dt;
    f ()
  with
  | v ->
      finish t dt;
      v
  | exception e ->
      finish t dt;
      raise e

(* [use] with nothing to run: no closure, and no handler (a delay cannot
   raise). *)
let consume t dt =
  acquire t;
  Sim.delay t.sim dt;
  finish t dt

let busy_time t = t.busy.seconds

(* Utilisation over a window of [elapsed] seconds. *)
let utilisation t ~elapsed =
  if elapsed <= 0.0 then 0.0
  else t.busy.seconds /. (elapsed *. float_of_int t.capacity)
