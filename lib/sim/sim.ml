(* Discrete-event simulator.

   Processes are direct-style OCaml functions run under an effect handler.
   Two effects exist: [Delay dt], which reschedules the process [dt] simulated
   seconds in the future, and [Suspend register], which parks the process and
   hands a {!waker} to [register]; whoever holds the waker later resumes (or
   kills) the process.  Everything runs on one OS thread, so code between two
   effect performs is atomic — this stands in for the latches of the paper's
   "atomic begin/end" blocks.

   Events are data: the heap holds a continuation to resume, a continuation
   to fail with an exception, or a thunk to call. A delay whose event would
   be the next one popped anyway skips the heap and the effect (see
   [delay]). *)

open Effect.Deep

type event =
  | Resume of (unit, unit) continuation
  | Fail of (unit, unit) continuation * exn
  | Call of (unit -> unit)

type waker = {
  mutable fired : bool;
  k : (unit, unit) continuation;
}

(* A record of floats only is stored unboxed, so advancing the clock
   allocates nothing. [horizon] is the running [run]'s [until], and
   [neg_infinity] outside [run]. *)
type clock = {
  mutable now : float;
  mutable horizon : float;
}

type t = {
  clock : clock;
  mutable seq : int;
  events : event Pqueue.t;
  mutable live_procs : int;
}

type _ Effect.t +=
  | Delay : t * float -> unit Effect.t
  | Suspend : (waker -> unit) -> unit Effect.t

let create () =
  {
    clock = { now = 0.0; horizon = neg_infinity };
    seq = 0;
    events = Pqueue.create ();
    live_procs = 0;
  }

let now t = t.clock.now

let live_procs t = t.live_procs

(* The earliest queued time, read in place ([Pqueue.min_time] would box
   it). *)
let next_time t =
  let q = t.events in
  if q.Pqueue.size = 0 then infinity else Array.unsafe_get q.Pqueue.times 0

let push t ~after ev =
  if not (after >= 0.0) then invalid_arg "Sim.schedule: negative or NaN delay";
  t.seq <- t.seq + 1;
  Pqueue.push t.events ~time:(t.clock.now +. after) ~seq:t.seq ev

let schedule t ~after thunk = push t ~after (Call thunk)

(* Resume in place: when [now + dt] is within the running [run]'s horizon
   and strictly before every queued event, the event [Delay] would push is
   the next one [run] pops (a new event loses every tie on its sequence
   number), and nothing runs in between. So advancing the clock and
   counting the event here is exactly what the round trip through the heap
   would do. Outside [run] the horizon is [neg_infinity], and a negative or
   NaN [dt] fails the first test; both take the effect path, where [push]
   rejects a bad [dt]. *)
let delay t dt =
  let c = t.clock in
  let at = c.now +. dt in
  if dt >= 0.0 && at <= c.horizon && at < next_time t then begin
    c.now <- at;
    t.seq <- t.seq + 1
  end
  else Effect.perform (Delay (t, dt))

let yield t = delay t 0.0

let suspend _t register = Effect.perform (Suspend register)

let wake t w =
  if not w.fired then begin
    w.fired <- true;
    push t ~after:0.0 (Resume w.k)
  end

let kill t w exn =
  if not w.fired then begin
    w.fired <- true;
    push t ~after:0.0 (Fail (w.k, exn))
  end

let waker_fired w = w.fired

let spawn t f =
  t.live_procs <- t.live_procs + 1;
  let handler =
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
              Some (fun (k : (b, unit) continuation) -> push sim ~after:dt (Resume k))
          | Suspend register ->
              Some (fun (k : (b, unit) continuation) -> register { fired = false; k })
          | _ -> None);
    }
  in
  push t ~after:0.0 (Call (fun () -> match_with f () handler))

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
  let c = t.clock in
  c.horizon <- until;
  let rec loop () =
    if t.events.Pqueue.size > 0 then begin
      let time = next_time t in
      if time > until then
        (* Leave the clock at the horizon; remaining events stay queued
           (look, don't pop: a later [run] must be able to resume). *)
        c.now <- until
      else begin
        c.now <- time;
        (match Pqueue.pop t.events with
        | Resume k -> continue k ()
        | Fail (k, e) -> discontinue k e
        | Call f -> f ());
        loop ()
      end
    end
  in
  Fun.protect ~finally:(fun () -> c.horizon <- neg_infinity) loop

let pending_events t = Pqueue.length t.events

let events t = t.seq
