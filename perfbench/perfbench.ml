(* The store benchmark. One process, one domain: 28 simulated clients
   are DES fibers on one OS thread.

     perfbench.exe run --workload W --seed N --seconds S --trace 0|1
                       [--out DIR] [--rev REV]
     perfbench.exe selftest

   [run] repeats the workload at one seed for about S wall seconds.
   Virtual-time metrics come from the first repetition, and every later
   repetition must reproduce them exactly; wall-clock metrics are
   medians over repetitions. With --trace 1 it alternates untraced and
   traced repetitions and reports the per-layer metrics instead. The
   last stdout line is the JSON result; the full result with provenance
   and the Chrome trace go to DIR. *)

open Workload
module Dipper = Dstore_core.Dipper

(* --- statistics ------------------------------------------------------------- *)

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* Nearest-rank percentile of a sorted array. *)
let pct a q =
  let n = Array.length a in
  if n = 0 then 0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let us ns = float_of_int ns /. 1e3

let per n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d

let mean_us a = per (Array.fold_left ( + ) 0 a) (Array.length a) /. 1e3

(* --- metrics ---------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let wall_ns_per_op r = per r.window_wall_ns r.ops

let end_to_end spec ~rep0 ~untraced =
  let r = rep0 in
  let window_s = float_of_int spec.window_ms /. 1e3 in
  let dram, pmem, ssd = r.footprint in
  let user_bytes = records * value_bytes in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  [
    m "throughput_kops" "Kops/s" (float_of_int r.ops /. window_s /. 1e3);
    m "op_mean_us" "us" (mean_us (Array.append r.reads r.updates));
    m "update_mean_us" "us" (mean_us r.updates);
    m "recovery_ms" "ms" (float_of_int r.recovery_ns /. 1e6);
    m "space_amp" "ratio" (per (dram + pmem + ssd) user_bytes);
    m "wall_ns_per_op" "ns" (median (List.map wall_ns_per_op untraced));
    (* The first set-up of a process also grows the heap; later ones
       are the steady cost. *)
    m "setup_s" "s"
      (median
         (List.map
            (fun r -> float_of_int r.setup_ns /. 1e9)
            (match untraced with _ :: (_ :: _ as warm) -> warm | l -> l)));
    m "heap_peak_mb" "MB" heap_mb;
  ]

(* Virtual-time numbers that only some workloads support: read latency
   where there are reads, p9999 where >= 10 samples lie beyond it; 0
   where unsupported. *)
let optional_virtual r =
  let reads = Array.length r.reads and updates = Array.length r.updates in
  let read_pct q = if reads > 0 then us (pct r.reads q) else 0.0 in
  [
    m "read_p50_us" "us" (read_pct 0.50);
    m "read_p999_us" "us" (read_pct 0.999);
    m "update_p50_us" "us" (us (pct r.updates 0.50));
    m "update_p999_us" "us" (us (pct r.updates 0.999));
    m "update_p9999_us" "us" (if updates >= 100_000 then us (pct r.updates 0.9999) else 0.0);
    m "failed_ops_pct" "%" (100.0 *. per r.failed r.attempted);
  ]

let per_layer ~rep0 ~traced ~segs ~untraced ~traced_reps ~probe =
  let r = traced in
  let ops = r.ops in
  let b = r.before and a = r.after in
  let d f = f a - f b in
  let dd f = f a.dipper - f b.dipper in
  let wall = r.buckets in
  let wall_per i = per wall.(i) ops in
  let seg s = per segs.seg_ns.(Span.seg_index s) segs.seg_ops in
  let blame c = per (a.causes.(Span.cause_index c) - b.causes.(Span.cause_index c)) ops in
  let ckpts = dd (fun s -> s.Dipper.checkpoints) in
  let per_ckpt f = per (dd f) ckpts in
  let gc_words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
  let u = rep0 in
  let user_update_bytes = Array.length r.updates * value_bytes in
  let batches = dd (fun s -> s.Dipper.batches_committed) in
  let total_wall = Array.fold_left ( + ) 0 r.buckets in
  let untraced_wall = median (List.map wall_ns_per_op untraced) in
  let traced_wall = median (List.map wall_ns_per_op traced_reps) in
  [
    m "sim.events_per_op" "count" (per r.events ops);
    m "sim.sched_wall_ns_per_op" "ns" (wall_per Acct.sched);
    m "gc.alloc_words_per_op" "words"
      ((gc_words u.after.gc -. gc_words u.before.gc) /. float_of_int u.ops);
    m "gc.minor_per_kop" "count"
      (1000.0 *. per (u.after.gc.Gc.minor_collections - u.before.gc.Gc.minor_collections) u.ops);
    m "gc.major_per_kop" "count"
      (1000.0 *. per (u.after.gc.Gc.major_collections - u.before.gc.Gc.major_collections) u.ops);
    m "store.fg_wall_ns_per_op" "ns" (wall_per Acct.fg);
  ]
  @ Array.to_list
      (Array.mapi
         (fun i name -> m ("store.bg_wall_ns_per_op." ^ name) "ns" (wall_per (4 + i)))
         Acct.bg_names)
  @ [
      m "client.wall_ns_per_op" "ns" (wall_per Acct.client);
      m "bench.recording_wall_ns_per_op" "ns" (wall_per Acct.recording);
      m "wall.traced_ns_per_op" "ns" (per r.window_wall_ns ops);
      m "wall.attributed_pct" "%" (100.0 *. per total_wall r.window_wall_ns);
      m "seg.index_ns" "ns" (seg Span.S_index);
      m "seg.ticket_ns" "ns" (seg Span.S_ticket);
      m "seg.lock_ns" "ns" (seg Span.S_lock);
      m "seg.structs_ns" "ns" (seg Span.S_structs);
      m "seg.append_ns" "ns" (seg Span.S_append);
      m "seg.fence_ns" "ns" (seg Span.S_fence);
      m "seg.commit_ns" "ns" (seg Span.S_commit);
      m "seg.stage_ns" "ns" (seg Span.S_stage);
      m "seg.data_ns" "ns" (seg Span.S_data);
      m "seg.cache_fill_ns" "ns" (seg Span.S_cache_fill);
      m "dipper.batch_fill" "records"
        (if batches = 0 then 1.0 else per (dd (fun s -> s.Dipper.batch_records)) batches);
      m "dipper.checkpoints" "count" (float_of_int ckpts);
      m "dipper.ckpt_archive_ns" "ns" (per_ckpt (fun s -> s.Dipper.ckpt_archive_ns));
      m "dipper.ckpt_clone_ns" "ns" (per_ckpt (fun s -> s.Dipper.ckpt_clone_ns));
      m "dipper.ckpt_replay_ns" "ns" (per_ckpt (fun s -> s.Dipper.ckpt_replay_ns));
      m "dipper.ckpt_persist_ns" "ns" (per_ckpt (fun s -> s.Dipper.ckpt_persist_ns));
      m "dipper.ckpt_publish_ns" "ns" (per_ckpt (fun s -> s.Dipper.ckpt_publish_ns));
      m "dipper.ckpt_bytes_cloned" "bytes" (per_ckpt (fun s -> s.Dipper.ckpt_bytes_cloned));
      m "dipper.conflict_waits" "count" (float_of_int (dd (fun s -> s.Dipper.conflict_waits)));
      m "dipper.log_full_stalls" "count" (float_of_int (dd (fun s -> s.Dipper.log_full_stalls)));
      m "blame.ckpt_interference_ns" "ns" (blame Span.Ckpt_interference);
      m "blame.conflict_retry_ns" "ns" (blame Span.Conflict_retry);
      m "blame.log_full_ns" "ns" (blame Span.Log_full);
      m "blame.ssd_queue_ns" "ns" (blame Span.Ssd_queue);
      m "blame.repl_wait_ns" "ns" (blame Span.Repl_wait);
      m "blame.repl_apply_ns" "ns" (blame Span.Repl_apply);
      m "pmem.fences_per_op" "count" (per (d (fun s -> s.fences)) ops);
      m "pmem.flushes_per_op" "count" (per (d (fun s -> s.flushes)) ops);
      m "pmem.flushed_bytes_per_user_byte" "ratio" (per (d (fun s -> s.flushed_bytes)) user_update_bytes);
      m "pmem.bw_contended_extra_ns" "ns" (per (d (fun s -> s.bw_extra)) ops);
      m "ssd.read_bytes_per_op" "bytes" (per (d (fun s -> s.ssd_read)) ops);
      m "ssd.write_bytes_per_op" "bytes" (per (d (fun s -> s.ssd_written)) ops);
      m "cache.hit_ratio" "ratio" (per (d (fun s -> s.cache_hits)) (d (fun s -> s.cache_lookups)));
      m "cache.evictions_per_op" "count" (per (d (fun s -> s.cache_evictions)) ops);
      m "cache.invalidations_per_op" "count" (per (d (fun s -> s.cache_invalidations)) ops);
      m "repl.ship_batch_fill" "entries" (per (d (fun s -> s.ships)) (d (fun s -> s.ship_msgs)));
      m "repl.ships_per_op" "count" (per (d (fun s -> s.ship_msgs)) ops);
      m "repl.apply_batches" "count" (float_of_int (d (fun s -> s.apply_batches)));
      m "repl.lag_max" "entries" (float_of_int a.lag_max);
      m "fsck.violations" "count" (float_of_int (List.length rep0.fsck));
      m "obs.tracing_overhead_pct" "%" (100.0 *. ((traced_wall /. untraced_wall) -. 1.0));
    ]
  @ List.map (fun (p : Probe.row) -> m p.Probe.metric "ns" p.Probe.ns) probe

(* --- output ----------------------------------------------------------------- *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_num x.value) x.unit_)
         ms)
  ^ "}"

let print_table title ms =
  print_endline title;
  List.iter (fun x -> Printf.printf "  %-44s %14.4f %s\n" x.name x.value x.unit_) ms

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

(* --- run -------------------------------------------------------------------- *)

(* Chrome-trace slices kept from the first traced repetition's window. *)
let trace_slices = 20_000

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let check_determinism ~label rep0 reps =
  let s0 = virtual_signature rep0 in
  List.for_all
    (fun r ->
      let ok = virtual_signature r = s0 in
      if not ok then Printf.printf "DETERMINISM VIOLATION: a %s repetition changed a virtual-time metric\n" label;
      ok)
    reps

let run_workload ~seed ~seconds ~trace ~out ~rev spec =
  let window_ns = spec.window_ms * 1_000_000 in
  let t_start = Acct.now_ns () in
  let budget_ns = int_of_float (seconds *. 1e9) in
  let rep ?tracing ~check () =
    Gc.compact ();
    run_rep ?tracing ~check ~seed ~window_ns spec
  in
  let rep0 = rep ~check:true () in
  let untraced = ref [ rep0 ] and traced = ref [] in
  let first_trace = ref None in
  let traced_rep () =
    let tr = { acct = Acct.create (); segs = new_segs (); capture = (if !first_trace = None then trace_slices else 0) } in
    let r = rep ~tracing:tr ~check:false () in
    if !first_trace = None then first_trace := Some (tr, r);
    traced := r :: !traced
  in
  if trace then traced_rep ();
  (* Repeat while another repetition fits in the budget. *)
  let last = ref (Acct.now_ns () - t_start) and n = ref (if trace then 2 else 1) in
  let rec more () =
    let elapsed = Acct.now_ns () - t_start in
    let per_rep = !last / !n in
    if elapsed + per_rep <= budget_ns then begin
      if trace && !n mod 2 = 1 then traced_rep () else untraced := rep ~check:false () :: !untraced;
      incr n;
      last := Acct.now_ns () - t_start;
      more ()
    end
  in
  more ();
  let untraced = List.rev !untraced and traced_reps = List.rev !traced in
  let deterministic =
    check_determinism ~label:"untraced" rep0 untraced
    && check_determinism ~label:"traced" rep0 traced_reps
  in
  let attempted = List.fold_left (fun a (r : rep) -> a + r.attempted) 0 (untraced @ traced_reps) in
  let failed = List.fold_left (fun a (r : rep) -> a + r.failed) 0 (untraced @ traced_reps) in
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) rep0.failures;
  List.iter (fun v -> Printf.printf "FSCK VIOLATION after recovery: %s\n" v) rep0.fsck;
  let e2e = end_to_end spec ~rep0 ~untraced in
  let probe = if trace then Probe.run ~seed ~records ~value_bytes else [] in
  let layers =
    match !first_trace with
    | Some (tr, r) -> optional_virtual rep0 @ per_layer ~rep0 ~traced:r ~segs:tr.segs ~untraced ~traced_reps ~probe
    | None -> []
  in
  (* The quiescent-free claim: no writer ever waits for log space. *)
  let stalls =
    rep0.after.dipper.Dipper.log_full_stalls
    > rep0.before.dipper.Dipper.log_full_stalls
  in
  if stalls then print_endline "QUIESCENT-FREE VIOLATION: writers stalled on a full log";
  let correct = deterministic && failed = 0 && not stalls in
  Printf.printf "perfbench %s seed=%d reps=%d untraced + %d traced, %d ops/rep, window %d ms virtual\n"
    spec.name seed (List.length untraced) (List.length traced_reps) rep0.ops spec.window_ms;
  print_table "end-to-end" e2e;
  if trace then begin
    Probe.print probe;
    print_table "per-layer (traced run)" layers
  end;
  (* Full result with provenance. *)
  (match out with
  | None -> ()
  | Some dir ->
      mkdir_p dir;
      let base = Printf.sprintf "%s/%s-seed%d-trace%d" dir spec.name seed (if trace then 1 else 0) in
      (match !first_trace with
      | Some (tr, _) -> Acct.write_chrome tr.acct (base ^ ".trace.json") ~workload:spec.name
      | None -> ());
      let oc = open_out (base ^ ".json") in
      Printf.fprintf oc
        "{\"provenance\": {\"rev\": %S, \"seed\": %d, \"workload\": %S, \"records\": %d, \"value_bytes\": %d, \"clients\": %d, \"think_ns\": %d, \"read_pct\": %d, \"batch\": %d, \"cache_mb\": %d, \"log_slots\": %d, \"replicated\": %b, \"window_ms\": %d, \"config_digest\": %S, \"ocaml\": %S, \"nproc\": %d},\n"
        rev seed spec.name records value_bytes clients think_ns spec.read_pct spec.batch spec.cache_mb
        spec.log_slots spec.repl spec.window_ms rep0.digest Sys.ocaml_version
        (Domain.recommended_domain_count ());
      Printf.fprintf oc " \"correct\": %b, \"attempted\": %d, \"failed\": %d,\n" correct attempted failed;
      Printf.fprintf oc " \"end_to_end\": %s,\n \"per_layer\": %s,\n" (metrics_json e2e) (metrics_json layers);
      Printf.fprintf oc " \"reps\": [%s]}\n"
        (String.concat ", "
           (List.map
              (fun r ->
                Printf.sprintf "{\"traced\": %b, \"setup_ns\": %d, \"window_wall_ns\": %d, \"ops\": %d}"
                  (List.memq r traced_reps) r.setup_ns r.window_wall_ns r.ops)
              (untraced @ traced_reps)));
      close_out oc);
  { correct; attempted; failed; metrics = (if trace then layers else e2e) }

(* --- selftest: the determinism guard ------------------------------------------ *)

(* A short cut of every workload, run twice untraced and once traced at
   one seed: every virtual-time metric must be identical across all
   three, and every check must pass. *)
let selftest () =
  let ok =
    List.for_all
      (fun spec ->
        let window_ns = 20 * 1_000_000 in
        let a = run_rep ~check:true ~seed:7 ~window_ns spec in
        let b = run_rep ~check:true ~seed:7 ~window_ns spec in
        let tr = { acct = Acct.create (); segs = new_segs (); capture = 1000 } in
        let c = run_rep ~tracing:tr ~check:true ~seed:7 ~window_ns spec in
        let same = check_determinism ~label:"selftest" a [ b; c ] in
        let clean = a.failed = 0 && b.failed = 0 && c.failed = 0 in
        let attributed = Array.fold_left ( + ) 0 c.buckets = c.window_wall_ns in
        Printf.printf "selftest %-12s ops=%d deterministic=%b clean=%b wall-partition=%b\n" spec.name a.ops
          same clean attributed;
        List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) (a.failures @ b.failures @ c.failures);
        List.iter (fun v -> Printf.printf "  FSCK VIOLATION after recovery: %s\n" v) a.fsck;
        same && clean && attributed && a.ops > 0)
      specs
  in
  if not ok then exit 1

(* --- CLI -------------------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  match args with
  | "selftest" :: _ -> selftest ()
  | "run" :: rest -> (
      let get name default = Option.value (opt name rest) ~default in
      match find (get "--workload" "") with
      | None ->
          prerr_endline
            ("unknown --workload; one of: " ^ String.concat ", " (List.map (fun (s : spec) -> s.name) specs));
          exit 2
      | Some spec ->
          let o =
            run_workload ~seed:(int_of_string (get "--seed" "42"))
              ~seconds:(float_of_string (get "--seconds" "10"))
              ~trace:(get "--trace" "0" = "1") ~out:(opt "--out" rest) ~rev:(get "--rev" "unknown")
              spec
          in
          Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!" o.correct
            o.attempted o.failed (metrics_json o.metrics);
          if not o.correct then exit 1)
  | _ ->
      prerr_endline "usage: perfbench.exe run --workload W --seed N --seconds S --trace 0|1 [--out DIR] [--rev REV]\n       perfbench.exe selftest";
      exit 2
