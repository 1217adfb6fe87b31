(* A k-server FIFO resource: models CPU cores, a disk, or a global mutex
   (capacity 1, e.g. InnoDB's kernel mutex). *)

type t = {
  sim : Sim.t;
  name : string;
  capacity : int;
  mutable in_use : int;
  queue : Sim.waker Queue.t;
  mutable busy_time : float; (* total server-seconds consumed *)
  mutable acquisitions : int;
  mutable last_acquire : float;
  mutable obs : Obs.t;
      (* profiler sink: a state sample (servers busy, queue depth) is
         emitted on every acquire/release state change, but only when the
         sink is tracing — the disabled sink costs one branch and reads no
         simulated time. *)
}

let create sim ~name ~capacity =
  if capacity < 1 then invalid_arg "Resource.create: capacity must be >= 1";
  {
    sim;
    name;
    capacity;
    in_use = 0;
    queue = Queue.create ();
    busy_time = 0.0;
    acquisitions = 0;
    last_acquire = 0.0;
    obs = Obs.disabled;
  }

let set_obs t obs = t.obs <- obs

let sample t =
  if Obs.tracing t.obs then
    Obs.emit t.obs ~ts:(Sim.now t.sim)
      (Obs.Res_sample { res = t.name; in_use = t.in_use; queued = Queue.length t.queue })

let name t = t.name

let capacity t = t.capacity

let in_use t = t.in_use

let queued t = Queue.length t.queue

let acquire t =
  if t.in_use < t.capacity then begin
    t.in_use <- t.in_use + 1;
    sample t
  end
  else begin
    Sim.suspend t.sim (fun w ->
        Queue.add w t.queue;
        sample t);
    (* The releaser transferred its slot to us; in_use stays constant. *)
  end;
  t.acquisitions <- t.acquisitions + 1

let release t =
  let rec go () =
    match Queue.take_opt t.queue with
    | None -> t.in_use <- t.in_use - 1
    | Some w ->
        if Sim.waker_fired w then go () (* waiter was killed; skip it *)
        else Sim.wake t.sim w
  in
  go ();
  sample t

let use t dt f =
  acquire t;
  let finish () =
    t.busy_time <- t.busy_time +. dt;
    release t
  in
  match
    Sim.delay t.sim dt;
    f ()
  with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* [use] with nothing to run: no closures, and no handler (a delay cannot
   raise). *)
let consume t dt =
  acquire t;
  Sim.delay t.sim dt;
  t.busy_time <- t.busy_time +. dt;
  release t

let busy_time t = t.busy_time

let acquisitions t = t.acquisitions

(* Utilisation over a window of [elapsed] seconds. *)
let utilisation t ~elapsed =
  if elapsed <= 0.0 then 0.0
  else t.busy_time /. (elapsed *. float_of_int t.capacity)

let reset_stats t =
  t.busy_time <- 0.0;
  t.acquisitions <- 0
