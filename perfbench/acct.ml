(* Wall-clock accounting for the traced run, done entirely from outside
   the library: the benchmark hands the store builders a wrapped
   [Platform.t] and wraps its own [Kv_intf] client calls.

   A DES fiber runs atomically between two platform calls that may yield
   (consume, sleep, a contended lock, cond wait, a full semaphore), so
   every wall interval between two such calls belongs to exactly one
   fiber, or to the scheduler when no fiber is running. Each interval is
   charged to the bucket the running fiber is tagged with at that moment:
   the benchmark's client loop, the store foreground (inside a client's
   store call), a background fiber (by its spawn name), or the
   benchmark's own recording. The buckets therefore partition the wall
   time of the window exactly. *)

open Dstore_platform

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let sched = 0

let client = 1

let fg = 2

let recording = 3

(* Background fibers the store spawns, by spawn-name prefix; any other
   name lands in "other". *)
let bg_names =
  [|
    "dipper-ckpt-manager";
    "ckpt-worker";
    "batch-io";
    "link.deliver";
    "repl.linger";
    "repl.ack";
    "repl.backup.recv";
    "repl.backup.apply";
    "other";
  |]

let n_buckets = 4 + Array.length bg_names

let bucket_name i =
  match i with
  | 0 -> "sched"
  | 1 -> "client"
  | 2 -> "fg"
  | 3 -> "recording"
  | i -> bg_names.(i - 4)

let has_prefix name p =
  String.length name >= String.length p && String.sub name 0 (String.length p) = p

(* Benchmark fibers are spawned under names starting with "bench.". *)
let bucket_of_spawn name =
  if has_prefix name "bench." then client
  else
    let rec find i =
      if i = Array.length bg_names - 1 || has_prefix name bg_names.(i) then 4 + i
      else find (i + 1)
    in
    find 0

type fiber = { id : int; mutable tag : int; mutable req : int }

(* One Chrome trace-event "complete" slice. *)
type slice = {
  s_name : string;
  s_tid : int;
  s_ts : int;
  s_dur : int;
  s_req : int;
  s_virt : int;  (** Virtual-time latency of an op slice, else -1. *)
}

type t = {
  wall : int array;
  sched_fiber : fiber;
  mutable cur : fiber;
  mutable mark : int;
  mutable events : int;  (** Fiber starts and resumptions after a yield. *)
  mutable switches : int;
  mutable next_id : int;
  mutable next_req : int;
  mutable capture : int;  (** Slices still to record; 0 = not capturing. *)
  mutable slices : slice list;
  origin : int;
}

let create () =
  let s = { id = 0; tag = sched; req = 0 } in
  let n = now_ns () in
  {
    wall = Array.make n_buckets 0;
    sched_fiber = s;
    cur = s;
    mark = n;
    events = 0;
    switches = 0;
    next_id = 1;
    next_req = 1;
    capture = 0;
    slices = [];
    origin = n;
  }

let emit t name (f : fiber) ts dur virt =
  if t.capture > 0 then begin
    t.capture <- t.capture - 1;
    t.slices <-
      { s_name = name; s_tid = f.id; s_ts = ts; s_dur = dur; s_req = f.req; s_virt = virt }
      :: t.slices
  end

(* Close the running interval into the current fiber's bucket. *)
let charge t =
  let n = now_ns () in
  let f = t.cur in
  t.wall.(f.tag) <- t.wall.(f.tag) + (n - t.mark);
  if t.capture > 0 && n > t.mark then emit t (bucket_name f.tag) f t.mark (n - t.mark) (-1);
  t.mark <- n;
  n

(* Start a measured window: zero the buckets and counters; returns the
   window's start instant. *)
let reset t ~capture =
  let n = charge t in
  Array.fill t.wall 0 n_buckets 0;
  t.events <- 0;
  t.capture <- capture;
  t.slices <- [];
  n

(* [around t name ~always f]: the running fiber calls a platform
   primitive that may yield. [always] = the call always goes through the
   event queue; otherwise it yielded iff another fiber ran meanwhile. *)
let around t name ~always f =
  let t0 = charge t in
  let me = t.cur in
  t.cur <- t.sched_fiber;
  let s0 = t.switches in
  let r = f () in
  if always || t.switches <> s0 then t.events <- t.events + 1;
  let t1 = charge t in
  if me != t.sched_fiber then emit t name me t0 (t1 - t0) (-1);
  t.cur <- me;
  t.switches <- t.switches + 1;
  r

let wrap t (p : Platform.t) : Platform.t =
  let wrap_mutex (m : Platform.mutex) =
    { m with Platform.lock = (fun () -> around t "lock" ~always:false m.Platform.lock) }
  in
  let new_cond () =
    let c = p.Platform.new_cond () in
    { c with Platform.wait = (fun m -> around t "cond.wait" ~always:true (fun () -> c.Platform.wait m)) }
  in
  let new_sem n =
    let s = p.Platform.new_sem n in
    { s with Platform.acquire = (fun () -> around t "sem.acquire" ~always:false s.Platform.acquire) }
  in
  let spawn name f =
    p.Platform.spawn name (fun () ->
        ignore (charge t);
        let me = { id = t.next_id; tag = bucket_of_spawn name; req = 0 } in
        t.next_id <- t.next_id + 1;
        t.cur <- me;
        t.switches <- t.switches + 1;
        t.events <- t.events + 1;
        f ();
        ignore (charge t);
        t.cur <- t.sched_fiber)
  in
  {
    p with
    Platform.consume =
      (fun ns -> if ns > 0 then around t "consume" ~always:true (fun () -> p.Platform.consume ns));
    sleep = (fun ns -> around t "sleep" ~always:true (fun () -> p.Platform.sleep ns));
    spawn;
    new_mutex = (fun () -> wrap_mutex (p.Platform.new_mutex ()));
    new_cond;
    new_sem;
  }

(* Run a client's store call with the fiber tagged foreground, as one
   request of the Chrome trace; [virt] reads the virtual clock. *)
let store_call t name ~virt f =
  let me = t.cur in
  let t0 = charge t in
  let v0 = virt () in
  me.tag <- fg;
  me.req <- t.next_req;
  t.next_req <- t.next_req + 1;
  match f () with
  | r ->
      let t1 = charge t in
      emit t name me t0 (t1 - t0) (virt () - v0);
      me.tag <- client;
      me.req <- 0;
      r
  | exception e ->
      ignore (charge t);
      me.tag <- client;
      me.req <- 0;
      raise e

(* Run benchmark-side recording work (span draining) in its own bucket. *)
let recording_call t f =
  let me = t.cur in
  ignore (charge t);
  let old = me.tag in
  me.tag <- recording;
  f ();
  ignore (charge t);
  me.tag <- old

(* Chrome trace-event JSON (load in chrome://tracing or Perfetto): one
   thread per fiber, wall-clock microseconds. Op slices carry the
   request id and their virtual latency; the fiber's wall segments and
   platform calls inside an op carry the same request id. *)
let write_chrome t path ~workload =
  let oc = open_out path in
  Printf.fprintf oc "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":%S},\"traceEvents\":[\n" workload;
  let first = ref true in
  List.iter
    (fun s ->
      if not !first then output_string oc ",\n";
      first := false;
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d%s}}"
        s.s_name s.s_tid
        (float_of_int (s.s_ts - t.origin) /. 1e3)
        (float_of_int s.s_dur /. 1e3)
        s.s_req
        (if s.s_virt >= 0 then Printf.sprintf ",\"virt_ns\":%d" s.s_virt else ""))
    (List.rev t.slices);
  output_string oc "\n]}\n";
  close_out oc
