(* Discrete-event simulator.

   Processes are direct-style OCaml functions run under an effect handler.
   Two effects exist: [Delay dt], which reschedules the process [dt] simulated
   seconds in the future, and [Suspend register], which parks the process and
   hands a {!waker} to [register]; whoever holds the waker later resumes (or
   kills) the process.  Everything runs on one OS thread, so code between two
   effect performs is atomic — this stands in for the latches of the paper's
   "atomic begin/end" blocks. *)

type waker = {
  mutable fired : bool;
  fire : (unit, exn) result -> unit;
}

type t = {
  mutable now : float;
  mutable seq : int;
  events : (unit -> unit) Pqueue.t;
  mutable live_procs : int;
}

type _ Effect.t +=
  | Delay : t * float -> unit Effect.t
  | Suspend : t * (waker -> unit) -> unit Effect.t

let create () = { now = 0.0; seq = 0; events = Pqueue.create (); live_procs = 0 }

let now t = t.now

let live_procs t = t.live_procs

let schedule t ~after thunk =
  if after < 0.0 then invalid_arg "Sim.schedule: negative delay";
  t.seq <- t.seq + 1;
  Pqueue.push t.events ~time:(t.now +. after) ~seq:t.seq thunk

let delay t dt = Effect.perform (Delay (t, dt))

let yield t = delay t 0.0

let suspend t register = Effect.perform (Suspend (t, register))

let wake t w =
  if not w.fired then begin
    w.fired <- true;
    schedule t ~after:0.0 (fun () -> w.fire (Ok ()))
  end

let kill t w exn =
  if not w.fired then begin
    w.fired <- true;
    schedule t ~after:0.0 (fun () -> w.fire (Error exn))
  end

let waker_fired w = w.fired

let spawn t f =
  let open Effect.Deep in
  t.live_procs <- t.live_procs + 1;
  let body () =
    match_with f ()
      {
        retc = (fun () -> t.live_procs <- t.live_procs - 1);
        exnc =
          (fun e ->
            t.live_procs <- t.live_procs - 1;
            raise e);
        effc =
          (fun (type b) (eff : b Effect.t) ->
            match eff with
            | Delay (sim, dt) ->
                Some
                  (fun (k : (b, unit) continuation) ->
                    schedule sim ~after:dt (fun () -> continue k ()))
            | Suspend (sim, register) ->
                Some
                  (fun (k : (b, unit) continuation) ->
                    let w =
                      {
                        fired = false;
                        fire =
                          (function
                          | Ok () -> continue k ()
                          | Error e -> discontinue k e);
                      }
                    in
                    ignore sim;
                    register w)
            | _ -> None);
      }
  in
  schedule t ~after:0.0 body

(* Condition variables: wakeups over a FIFO queue of waiters. Waking only
   schedules the waiter, so nothing joins the queue while it drains. *)

type cond = { waiters : waker Queue.t }

let cond () = { waiters = Queue.create () }

let wait t c = suspend t (fun w -> Queue.add w c.waiters)

let broadcast t c =
  while not (Queue.is_empty c.waiters) do
    wake t (Queue.pop c.waiters)
  done

let signal t c = if not (Queue.is_empty c.waiters) then wake t (Queue.pop c.waiters)

let run ?(until = infinity) t =
  let continue_ = ref true in
  while !continue_ do
    if Pqueue.is_empty t.events then continue_ := false
    else begin
      let time = Pqueue.min_time t.events in
      if time > until then begin
        (* Leave the clock at the horizon; remaining events stay queued
           (look, don't pop: a later [run] must be able to resume). *)
        t.now <- until;
        continue_ := false
      end
      else begin
        t.now <- time;
        (Pqueue.pop t.events) ()
      end
    end
  done

let pending_events t = Pqueue.length t.events

let events t = t.seq
