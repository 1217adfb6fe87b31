(* Discrete-event simulator.

   Processes are direct-style OCaml functions run under an effect handler.
   Two effects exist: [Delay], which reschedules the process [dt] simulated
   seconds in the future, and [Suspend], which parks the process and hands a
   {!waker} to [register]; whoever holds the waker later resumes (or kills)
   the process. Everything runs on one OS thread, so code between two effect
   performs is atomic — this stands in for the latches of the paper's
   "atomic begin/end" blocks.

   Both effects are constants: their operands ([dt], [register]) are stored
   in the simulator just before the perform, where the process's handler
   reads them, and each process's handler is built once, at [spawn]. So a
   delay through the heap allocates only its continuation and its event,
   and a suspension its continuation, its waker and, when woken, its event.

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

(* A record of floats only is stored unboxed, so advancing the clock or
   setting [delay] allocates nothing. [horizon] is the running [run]'s
   [until], and [neg_infinity] outside [run]. [delay] is the operand of the
   [Delay] being performed. *)
type clock = {
  mutable now : float;
  mutable horizon : float;
  mutable delay : float;
}

type t = {
  clock : clock;
  mutable seq : int;
  events : event Pqueue.t;
  mutable live_procs : int;
  mutable register : waker -> unit; (* the operand of the [Suspend] being performed *)
  mutable performing : bool;
      (* set just before an effect is performed on behalf of this simulator,
         and cleared by the handler that takes it: a handler that finds its
         own flag clear was reached through another simulator *)
}

type _ Effect.t += Delay : unit Effect.t | Suspend : unit Effect.t

let create () =
  {
    clock = { now = 0.0; horizon = neg_infinity; delay = 0.0 };
    seq = 0;
    events = Pqueue.create ();
    live_procs = 0;
    register = ignore;
    performing = false;
  }

let now t = t.clock.now

let live_procs t = t.live_procs

(* The earliest queued time, read in place ([Pqueue.min_time] would box
   it). A float that a call returns or takes is boxed unless the call is
   inlined, and only calls within this module can be: dune's dev profile
   compiles with [-opaque]. So [next_time] and [push] are inlined into
   their callers here, and an event boxes one float, the time
   [Pqueue.push] takes. *)
let[@inline] next_time t =
  let q = t.events in
  if q.Pqueue.size = 0 then infinity else Array.unsafe_get q.Pqueue.times 0

let[@inline] push t ~after ev =
  if not (after >= 0.0) then invalid_arg "Sim.schedule: negative or NaN delay";
  t.seq <- t.seq + 1;
  Pqueue.push t.events ~time:(t.clock.now +. after) ~seq:t.seq ev

let schedule t ~after thunk = push t ~after (Call thunk)

(* Perform [eff], whose operands are already stored in [t]. The flag is
   cleared again if the perform raises, so a call that reached another
   simulator's handler (or none) leaves no stale flag behind. *)
let perform t eff =
  t.performing <- true;
  match Effect.perform eff with
  | () -> ()
  | exception e ->
      t.performing <- false;
      raise e

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
  else begin
    c.delay <- dt;
    perform t Delay
  end

let yield t = delay t 0.0

let suspend t register =
  t.register <- register;
  perform t Suspend

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

(* Whether the effect being handled was performed on [t]; clears the flag. *)
let taken t =
  let mine = t.performing in
  t.performing <- false;
  mine

let other_simulator = "the calling process was spawned on another simulator"

(* The handler and the functions it hands back are built here, once per
   process: an effect returns the same [Some] each time instead of a new
   closure. *)
let spawn t f =
  t.live_procs <- t.live_procs + 1;
  let on_delay =
    Some
      (fun (k : (unit, unit) continuation) ->
        if taken t then push t ~after:t.clock.delay (Resume k)
        else discontinue k (Invalid_argument ("Sim.delay: " ^ other_simulator)))
  in
  let on_suspend =
    Some
      (fun (k : (unit, unit) continuation) ->
        if taken t then t.register { fired = false; k }
        else discontinue k (Invalid_argument ("Sim.suspend: " ^ other_simulator)))
  in
  let handler =
    {
      retc = (fun () -> t.live_procs <- t.live_procs - 1);
      exnc =
        (fun e ->
          t.live_procs <- t.live_procs - 1;
          raise e);
      effc =
        (fun (type b) (eff : b Effect.t) : ((b, unit) continuation -> unit) option ->
          match eff with Delay -> on_delay | Suspend -> on_suspend | _ -> None);
    }
  in
  push t ~after:0.0 (Call (fun () -> match_with f () handler))

(* Condition variables: wakeups over a FIFO queue of waiters. Waking only
   schedules the waiter, so nothing joins the queue while it drains. *)

type cond = {
  waiters : waker Fifo.t;
  enqueue : waker -> unit; (* made once, so a wait builds no closure *)
}

let cond () =
  let waiters = Fifo.create () in
  { waiters; enqueue = Fifo.push waiters }

let wait t c = suspend t c.enqueue

let broadcast t c =
  while not (Fifo.is_empty c.waiters) do
    wake t (Fifo.pop c.waiters)
  done

let signal t c = if not (Fifo.is_empty c.waiters) then wake t (Fifo.pop c.waiters)

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
