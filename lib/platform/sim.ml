open Dstore_util

(* The two effects a process can perform. [Wait] advances its local time;
   [Suspend] parks the process, handing a resume closure to synchronization
   primitives (mutex/cond/resource waiter queues). The resume closure
   schedules the continuation at the resumer's current time — a direct
   ownership handoff, so wakeups are FIFO-fair and never lost. *)
type _ Effect.t +=
  | Wait : int -> unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t

type t = {
  mutable clock : int;
  mutable seq : int;
  events : (unit -> unit) Pqueue.t;
  mutable live : int;
  mutable blocked : int;
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable in_process : bool;  (* a process of this sim is running *)
  mutable deadline : int;  (* last instant the running loop may reach *)
}

let create () =
  {
    clock = 0;
    seq = 0;
    events = Pqueue.create ();
    live = 0;
    blocked = 0;
    failure = None;
    in_process = false;
    deadline = max_int;
  }

let now t = t.clock

let schedule t time thunk =
  t.seq <- t.seq + 1;
  Pqueue.push t.events (max time t.clock) t.seq thunk

let start t name f =
  let open Effect.Deep in
  ignore name;
  t.live <- t.live + 1;
  (* [in_process] is true exactly while this process's code runs: set on
     entry and on every resume, cleared whenever control comes back to
     the handler. *)
  let resume k () =
    t.in_process <- true;
    continue k ()
  in
  t.in_process <- true;
  match_with f ()
    {
      retc =
        (fun () ->
          t.in_process <- false;
          t.live <- t.live - 1);
      exnc =
        (fun e ->
          t.in_process <- false;
          t.live <- t.live - 1;
          if t.failure = None then
            t.failure <- Some (e, Printexc.get_raw_backtrace ()));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wait d ->
              Some
                (fun (k : (a, unit) continuation) ->
                  t.in_process <- false;
                  schedule t (t.clock + max 0 d) (resume k))
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  t.in_process <- false;
                  t.blocked <- t.blocked + 1;
                  register (fun () ->
                      t.blocked <- t.blocked - 1;
                      schedule t t.clock (resume k)))
          | _ -> None);
    }

let spawn t name f = schedule t t.clock (fun () -> start t name f)

(* A wait whose resume instant [at] comes strictly before every pending
   event (and within the running loop's deadline) would be pushed as
   [(at, seq + 1)] and popped straight back: every pending event is later,
   and an equal time would win on its smaller [seq]. So it advances the
   clock and [seq] in place instead, and the event order is the same. A
   raw [Wait] always goes through the queue. [at] is clamped the way
   [schedule] clamps, so an overflowing [d] resumes at once either way. *)
let wait t d =
  let at = max (t.clock + max 0 d) t.clock in
  if t.in_process && at < Pqueue.min_time t.events && at <= t.deadline then begin
    t.seq <- t.seq + 1;
    t.clock <- at
  end
  else Effect.perform (Wait d)

let check_failure t =
  match t.failure with
  | Some (e, bt) ->
      t.failure <- None;
      Printexc.raise_with_backtrace e bt
  | None -> ()

(* Run every event due by [deadline]. *)
let drain t deadline =
  t.deadline <- deadline;
  let q = t.events in
  while (not (Pqueue.is_empty q)) && Pqueue.min_time q <= deadline do
    t.clock <- Pqueue.min_time q;
    let thunk = Pqueue.pop q in
    thunk ();
    check_failure t
  done

let run t = drain t max_int

let run_until t deadline =
  drain t deadline;
  if t.clock < deadline then t.clock <- deadline

let clear_pending t =
  while not (Pqueue.is_empty t.events) do
    let (_ : unit -> unit) = Pqueue.pop t.events in
    ()
  done;
  t.live <- 0;
  t.blocked <- 0

let blocked_processes t = t.blocked

let live_processes t = t.live

module Mutex = struct
  type sim = t

  type t = { mutable locked : bool; waiters : (unit -> unit) Queue.t }

  let create (_ : sim) = { locked = false; waiters = Queue.create () }

  let lock m =
    if not m.locked then m.locked <- true
    else Effect.perform (Suspend (fun resume -> Queue.push resume m.waiters))
  (* When resumed, ownership was handed off by [unlock]; [locked] stays true. *)

  let unlock m =
    assert m.locked;
    match Queue.pop m.waiters with
    | resume -> resume ()
    | exception Queue.Empty -> m.locked <- false

  let locked m = m.locked
end

module Cond = struct
  type sim = t

  type t = { waiters : (unit -> unit) Queue.t }

  let create (_ : sim) = { waiters = Queue.create () }

  let wait c (m : Mutex.t) =
    (* The register closure runs after the continuation is captured, so
       releasing the mutex there makes wait-and-release atomic: a signal
       arriving from the code the unlock admits finds us in the queue. *)
    Effect.perform
      (Suspend
         (fun resume ->
           Queue.push resume c.waiters;
           Mutex.unlock m));
    Mutex.lock m

  let signal c =
    match Queue.pop c.waiters with
    | resume -> resume ()
    | exception Queue.Empty -> ()

  let broadcast c =
    let pending = Queue.length c.waiters in
    for _ = 1 to pending do
      match Queue.pop c.waiters with
      | resume -> resume ()
      | exception Queue.Empty -> ()
    done
end

module Resource = struct
  type sim = t

  type t = {
    capacity : int;
    sim : sim;
    mutable in_use : int;
    waiters : (unit -> unit) Queue.t;
  }

  let create sim ~capacity =
    assert (capacity > 0);
    { capacity; sim; in_use = 0; waiters = Queue.create () }

  let acquire r =
    if r.in_use < r.capacity then r.in_use <- r.in_use + 1
    else Effect.perform (Suspend (fun resume -> Queue.push resume r.waiters))
  (* Handoff: the releaser keeps [in_use] constant and wakes us directly. *)

  let release r =
    assert (r.in_use > 0);
    match Queue.pop r.waiters with
    | resume -> resume ()
    | exception Queue.Empty -> r.in_use <- r.in_use - 1

  let use r ~service_ns =
    acquire r;
    wait r.sim service_ns;
    release r

  let in_use r = r.in_use

  let queued r = Queue.length r.waiters
end
