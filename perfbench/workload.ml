(* The three benchmark workloads and one measured repetition of each: set
   up the system, load it, run 28 closed-loop clients for a fixed
   virtual window, then check the outputs. Everything inside a
   repetition is a pure function of (code, seed) except the wall-clock
   readings. *)

open Dstore_util
open Dstore_platform
open Dstore_pmem
open Dstore_ssd
open Dstore_core
open Dstore_workload
module Obs = Dstore_obs.Obs
module Span = Dstore_obs.Span
module Metrics = Dstore_obs.Metrics
module Group = Dstore_repl.Group
module Backup = Dstore_repl.Backup

type spec = {
  name : string;
  read_pct : int;
  batch : int;  (** Client-side group-commit batch; 1 = per-op commit. *)
  cache_mb : int;
  log_slots : int;
  repl : bool;
  window_ms : int;  (** Virtual measurement window. *)
}

let records = 10_000

let value_bytes = 4096

let clients = 28

let think_ns = 100_000

let default_log_slots = Systems.default_scale.Systems.log_slots

(* ckpt-write: the paper's Fig. 1 regime — 100% updates with a log 1/16
   of the default, so checkpoints run back to back; it isolates the
   DIPPER append/commit/checkpoint path, PMEM and SSD writes.
   cached-read: YCSB-B with a 64 MiB cache over a 40 MiB data set; it
   isolates the cache-hit read path and the DES per-op overhead.
   repl-mixed: YCSB-A on an Ack_all primary-backup pair, cache 1/8 of the
   data, updates in group-commit batches of 8; it isolates replication,
   SSD misses, cache fills and the batched append path. *)
let specs =
  [
    { name = "ckpt-write"; read_pct = 0; batch = 1; cache_mb = 0;
      log_slots = default_log_slots / 16; repl = false;
      window_ms = 500 };
    { name = "cached-read"; read_pct = 95; batch = 1; cache_mb = 64;
      log_slots = default_log_slots; repl = false;
      window_ms = 1500 };
    { name = "repl-mixed"; read_pct = 50; batch = 8;
      cache_mb = records * value_bytes / 8 / (1024 * 1024);
      log_slots = default_log_slots; repl = true;
      window_ms = 400 };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

(* --- systems ----------------------------------------------------------------- *)

type sys = {
  client : unit -> Kv_intf.client;
  alive : unit -> bool;  (** False once a replicated group is fenced. *)
  stores : unit -> Dstore.t list;  (** Serving store first, then backups. *)
  pms : Pmem.t list;
  ssds : Ssd.t list;
}

let dstore_client st =
  let ctx = Dstore.ds_init st in
  {
    Kv_intf.put = Dstore.oput ctx;
    get = Dstore.oget_into ctx;
    delete = (fun k -> ignore (Dstore.odelete ctx k));
    put_batch = Some (Dstore.oput_batch ctx);
    read_view =
      Some (fun k buf -> match Dstore.oget_view ctx k buf with Some (_, n) -> n | None -> -1);
  }

let scale spec =
  {
    Systems.default_scale with
    Systems.objects = records;
    value_bytes;
    log_slots = spec.log_slots;
    cache_mb = spec.cache_mb;
    (* The power-fail that ends every window must drop unflushed lines
       for real. *)
    crash_model = true;
  }

let build spec ~obs p =
  let scale = scale spec in
  if spec.repl then begin
    let kv, g = Systems.replicated ~backups:1 ~mode:Dstore_repl.Repl.Ack_all p scale in
    Obs.set_enabled (Group.obs g) obs;
    List.iter (fun (_, b) -> Obs.set_enabled (Dstore.obs (Backup.store b)) obs) (Group.backups g);
    {
      client = kv.Kv_intf.client;
      alive = (fun () -> Group.primary_alive g);
      stores = (fun () -> Group.store g :: List.map (fun (_, b) -> Backup.store b) (Group.backups g));
      pms = kv.Kv_intf.pms;
      ssds = kv.Kv_intf.ssds;
    }
  end
  else begin
    let tweak c = { c with Config.obs_enabled = obs } in
    let st, pm, ssd, _ = Systems.dstore_store ~tweak p scale in
    {
      client = (fun () -> dstore_client st);
      alive = (fun () -> true);
      stores = (fun () -> [ st ]);
      pms = [ pm ];
      ssds = [ ssd ];
    }
  end

let config_digest sys =
  match sys.stores () with
  | st :: _ -> Digest.to_hex (Digest.string (Marshal.to_string (Dstore.config st) []))
  | [] -> ""

(* --- counters sampled around the window -------------------------------------- *)

type snap = {
  dipper : Dipper.stats;
  fences : int;
  flushes : int;
  flushed_bytes : int;
  ssd_read : int;
  ssd_written : int;
  bw_extra : int;
  cache_hits : int;
  cache_lookups : int;
  cache_evictions : int;
  cache_invalidations : int;
  ships : int;
  ship_msgs : int;
  apply_batches : int;
  lag_max : int;  (** Peak replication lag since the group started. *)
  causes : int array;  (** Blame ns per cause: serving store + backups. *)
  gc : Gc.stat;
}

let metric_value (st : Dstore.t) name =
  Option.value ~default:0 (Metrics.value (Dstore.obs st).Obs.metrics name)

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

let snapshot sys =
  let stores = sys.stores () in
  let primary = List.hd stores in
  let d = Dipper.stats (Dstore.engine primary) in
  let pm = List.map Pmem.stats sys.pms and sd = List.map Ssd.stats sys.ssds in
  let cs = Dstore.cache_stats primary in
  let cache f = match cs with Some c -> f c | None -> 0 in
  let gauge name = sum (fun st -> metric_value st name) stores in
  {
    (* A copy: the engine keeps mutating its stats record. *)
    dipper = { d with Dipper.checkpoints = d.Dipper.checkpoints };
    fences = sum (fun s -> s.Pmem.fence_calls) pm;
    flushes = sum (fun s -> s.Pmem.flush_calls) pm;
    flushed_bytes = sum (fun s -> s.Pmem.bytes_flushed) pm;
    ssd_read = sum (fun s -> s.Ssd.bytes_read) sd;
    ssd_written = sum (fun s -> s.Ssd.bytes_written) sd;
    bw_extra = gauge "pmem.bw_contended_extra_ns";
    cache_hits = cache (fun c -> c.Dstore_cache.Cache.hits);
    cache_lookups = cache (fun c -> c.Dstore_cache.Cache.hits + c.Dstore_cache.Cache.misses);
    cache_evictions = cache (fun c -> c.Dstore_cache.Cache.evictions);
    cache_invalidations = cache (fun c -> c.Dstore_cache.Cache.invalidations);
    ships = gauge "repl.ships";
    ship_msgs = gauge "repl.ship_msgs";
    apply_batches = gauge "repl.apply_batches";
    lag_max = gauge "repl.lag_max";
    causes =
      Array.init Span.n_causes (fun i ->
          sum (fun st -> Span.cause_ns (Dstore.obs st).Obs.spans i) stores);
    gc = Gc.quick_stat ();
  }

(* --- span draining (traced run) ---------------------------------------------- *)

(* Per-op segment sums over every op span finished in the window. The
   store's ring holds the newest 1024 spans; draining every 256 finished
   spans loses none. A batch span stands for its n ops, each charged the
   whole call, as the update latency is. *)
let all_segs =
  Span.
    [| S_index; S_ticket; S_lock; S_append; S_fence; S_data; S_structs; S_stage; S_commit;
       S_ckpt_archive; S_ckpt_clone; S_ckpt_replay; S_ckpt_persist; S_ckpt_publish;
       S_rec_metadata; S_rec_replay; S_cache_fill; S_other |]

type segs = { seg_ns : int array; mutable seg_ops : int; mutable seen : int }

let new_segs () = { seg_ns = Array.make Span.n_segs 0; seg_ops = 0; seen = 0 }

let drain segs (r : Span.recorder) =
  if Span.finished r > segs.seen then begin
    List.iter
      (fun s ->
        if Span.span_seq s >= segs.seen && Span.is_op (Span.span_kind s) then begin
          let n = Span.span_ops s in
          segs.seg_ops <- segs.seg_ops + n;
          Array.iteri
            (fun i sg -> segs.seg_ns.(i) <- segs.seg_ns.(i) + (n * Span.segment s sg))
            all_segs
        end)
      (Span.spans r);
    segs.seen <- Span.finished r
  end

(* --- one repetition ---------------------------------------------------------- *)

type samples = { mutable a : int array; mutable n : int }

let samples () = { a = Array.make 4096 0; n = 0 }

let add s v =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- v;
  s.n <- s.n + 1

let sorted s =
  let a = Array.sub s.a 0 s.n in
  Array.sort compare a;
  a

type tracing = { acct : Acct.t; segs : segs; capture : int }

type rep = {
  setup_ns : int;  (** Wall: devices, store, load. *)
  window_wall_ns : int;
  buckets : int array;  (** Traced: window wall per {!Acct} bucket. *)
  events : int;  (** Traced: fiber starts and resumptions in the window. *)
  ops : int;  (** Ops completed inside the window. *)
  attempted : int;
  failed : int;
  failures : string list;  (** The first few failure messages. *)
  fsck : string list;  (** Post-recovery [Fsck] violations. *)
  reads : int array;  (** Sorted virtual latencies (ns). *)
  updates : int array;
  recovery_ns : int;  (** Virtual. *)
  footprint : int * int * int;
  before : snap;
  after : snap;
  digest : string;  (** Of the store's [Config.t]. *)
}

let crash_poll_ns = 5_000

let crash_delay_ns = 20_000

let run_rep ?tracing ~check ~seed ~window_ns spec =
  let sim = Sim.create () in
  let base = Sim_platform.make ~parallelism:clients sim in
  let p = match tracing with Some tr -> Acct.wrap tr.acct base | None -> base in
  let wl = { (Ycsb.a ~records ~value_bytes ()) with Ycsb.name = spec.name; read_pct = spec.read_pct } in
  let rng = Rng.create seed in
  let attempted = ref 0 and failed = ref 0 and failures = ref [] in
  let fail msg =
    incr failed;
    if List.length !failures < 5 then failures := msg :: !failures
  in
  let attempt n f =
    attempted := !attempted + n;
    try f () with e -> failed := !failed + n - 1; fail (Printexc.to_string e)
  in
  (* Set-up: devices, store, load. *)
  let t_setup = Acct.now_ns () in
  let sys = ref None in
  p.Platform.spawn "bench.setup" (fun () -> sys := Some (build spec ~obs:(tracing <> None) p));
  Sim.run sim;
  let sys = Option.get !sys in
  let loaders = 8 in
  let per = (records + loaders - 1) / loaders in
  for l = 0 to loaders - 1 do
    let lr = Rng.split rng in
    p.Platform.spawn "bench.loader" (fun () ->
        let c = sys.client () in
        let v = Rng.bytes lr value_bytes in
        for i = l * per to min records ((l + 1) * per) - 1 do
          attempt 1 (fun () -> c.Kv_intf.put (Ycsb.key i) v)
        done)
  done;
  Sim.run sim;
  let setup_ns = Acct.now_ns () - t_setup in
  (* Measurement window: closed-loop clients with the runner's jittered
     100 us think time. They keep running past the window until the
     power-fail; only ops completed inside the window are measured. *)
  let t0 = Sim.now sim in
  let t_end = t0 + window_ns in
  let reads = samples () and updates = samples () in
  let ops = ref 0 in
  let serving () = List.hd (sys.stores ()) in
  let recorder = (Dstore.obs (serving ())).Obs.spans in
  let call name f =
    match tracing with
    | None -> f ()
    | Some tr ->
        let r = Acct.store_call tr.acct name ~virt:p.Platform.now f in
        if Span.finished recorder - tr.segs.seen >= 256 then
          Acct.recording_call tr.acct (fun () -> drain tr.segs recorder);
        r
  in
  let complete hist t_op n =
    let now = Sim.now sim in
    if now <= t_end then begin
      ops := !ops + n;
      for _ = 1 to n do
        add hist (now - t_op)
      done
    end
  in
  for _ = 1 to clients do
    let cr = Rng.split rng in
    p.Platform.spawn "bench.client" (fun () ->
        let c = sys.client () in
        let g = Ycsb.gen wl cr in
        let value = Rng.bytes cr value_bytes in
        let buf = Bytes.create value_bytes in
        let read =
          match c.Kv_intf.read_view with Some rv -> rv | None -> c.Kv_intf.get
        in
        let pending = ref [] and npending = ref 0 in
        let flush () =
          if !npending > 0 then begin
            let kvs = List.rev !pending and n = !npending in
            pending := [];
            npending := 0;
            let t_op = Sim.now sim in
            attempt n (fun () ->
                call "put_batch" (fun () -> (Option.get c.Kv_intf.put_batch) kvs);
                if not (sys.alive ()) then fail "batch absorbed by a fenced group");
            complete updates t_op n
          end
        in
        while true do
          p.Platform.consume (think_ns * (90 + Rng.int cr 21) / 100);
          match Ycsb.next g with
          | Ycsb.Read k ->
              flush ();
              let t_op = Sim.now sim in
              attempt 1 (fun () ->
                  let n = call "get" (fun () -> read k buf) in
                  if n <> value_bytes then fail (Printf.sprintf "read %s returned %d" k n));
              complete reads t_op 1
          | Ycsb.Update k when spec.batch > 1 ->
              pending := (k, value) :: !pending;
              incr npending;
              if !npending >= spec.batch then flush ()
          | Ycsb.Update k ->
              let t_op = Sim.now sim in
              attempt 1 (fun () ->
                  call "put" (fun () -> c.Kv_intf.put k value);
                  if not (sys.alive ()) then fail "put absorbed by a fenced group");
              complete updates t_op 1
        done)
  done;
  Gc.full_major ();
  let before = snapshot sys in
  let w0 =
    match tracing with
    | Some tr -> Acct.reset tr.acct ~capture:tr.capture
    | None -> Acct.now_ns ()
  in
  Sim.run_until sim t_end;
  let window_wall_ns, buckets, events =
    match tracing with
    | Some tr ->
        let w1 = Acct.charge tr.acct in
        tr.acct.Acct.capture <- 0;
        drain tr.segs recorder;
        (w1 - w0, Array.copy tr.acct.Acct.wall, tr.acct.Acct.events)
    | None -> (Acct.now_ns () - w0, [||], 0)
  in
  let after = snapshot sys in
  let footprint =
    let f = Dstore.footprint (serving ()) in
    (f.Dstore.dram, f.Dstore.pmem, f.Dstore.ssd)
  in
  (* Output checks: every loaded key must read back whole. *)
  let verify_all c =
    let buf = Bytes.create value_bytes in
    for i = 0 to records - 1 do
      let k = Ycsb.key i in
      attempt 1 (fun () ->
          let n = c.Kv_intf.get k buf in
          if n <> value_bytes then fail (Printf.sprintf "verify %s returned %d" k n))
    done
  in
  (* Power-fail inside the first checkpoint after the window, the
     paper's worst failure point (Table 4): in-flight ops are lost,
     unflushed PMEM lines of every node revert, then the serving node
     recovers on its own devices, redoing the interrupted checkpoint. *)
  let recovery_ns = ref 0 and fsck = ref [] in
  let cfg = Dstore.config (serving ()) in
  let engine = Dstore.engine (serving ()) in
  let give_up = t_end + window_ns in
  while (not (Dipper.is_checkpoint_running engine)) && Sim.now sim < give_up do
    Sim.run_until sim (Sim.now sim + crash_poll_ns)
  done;
  Sim.run_until sim (Sim.now sim + crash_delay_ns);
  Sim.clear_pending sim;
  List.iter (fun pm -> Pmem.crash pm Pmem.Drop_all) sys.pms;
  p.Platform.spawn "bench.recover" (fun () ->
      let r0 = Sim.now sim in
      let st = Dstore.recover p (List.hd sys.pms) (List.hd sys.ssds) cfg in
      recovery_ns := Sim.now sim - r0;
      if check then begin
        fsck := Dstore_check.Fsck.run st;
        verify_all (dstore_client st)
      end;
      Dstore.stop st);
  Sim.run sim;
  {
    setup_ns;
    window_wall_ns;
    buckets;
    events;
    ops = !ops;
    attempted = !attempted;
    failed = !failed;
    failures = List.rev !failures;
    fsck = !fsck;
    reads = sorted reads;
    updates = sorted updates;
    recovery_ns = !recovery_ns;
    footprint;
    before;
    after;
    digest = config_digest sys;
  }

(* Everything virtual a repetition measured: equal across repetitions of
   one seed, traced or not. *)
let virtual_signature r =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( r.ops,
            r.reads,
            r.updates,
            r.recovery_ns,
            r.footprint,
            r.after.dipper.Dipper.checkpoints - r.before.dipper.Dipper.checkpoints,
            r.after.fences - r.before.fences,
            r.after.ssd_read - r.before.ssd_read )
          []))
