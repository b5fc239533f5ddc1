(* Tests for the workload layer: YCSB generation, the closed-loop runner,
   and the system builders (each must function behind the common
   interface). *)

open Dstore_util
open Dstore_workload

let check = Alcotest.check

(* --- Ycsb ------------------------------------------------------------ *)

let test_ycsb_key_format () =
  List.iter
    (fun i -> check Alcotest.string (string_of_int i) (Printf.sprintf "user%010d" i) (Ycsb.key i))
    [ 0; 9; 10; 9_999_999_999; 10_000_000_000; -1 ]

let test_ycsb_mixes () =
  let count wl =
    let g = Ycsb.gen wl (Rng.create 7) in
    let reads = ref 0 in
    for _ = 1 to 10_000 do
      match Ycsb.next g with Ycsb.Read _ -> incr reads | Ycsb.Update _ -> ()
    done;
    !reads
  in
  let a = count (Ycsb.a ~records:1000 ()) in
  Alcotest.(check bool) "A ~50% reads" true (abs (a - 5000) < 400);
  let b = count (Ycsb.b ~records:1000 ()) in
  Alcotest.(check bool) "B ~95% reads" true (abs (b - 9500) < 300);
  check Alcotest.int "C all reads" 10_000 (count (Ycsb.c ~records:1000 ()));
  check Alcotest.int "write-only no reads" 0
    (count (Ycsb.write_only ~records:1000 ()))

let test_ycsb_keys_in_range () =
  let wl = Ycsb.a ~records:500 () in
  let g = Ycsb.gen wl (Rng.create 9) in
  for _ = 1 to 5000 do
    let k = match Ycsb.next g with Ycsb.Read k | Ycsb.Update k -> k in
    Alcotest.(check bool) "key format" true
      (String.length k = 14 && String.sub k 0 4 = "user");
    let id = int_of_string (String.sub k 4 10) in
    Alcotest.(check bool) "id in range" true (id >= 0 && id < 500)
  done

let test_ycsb_skew () =
  (* Zipfian: the most popular key should appear far more than uniform. *)
  let wl = Ycsb.a ~records:1000 () in
  let g = Ycsb.gen wl (Rng.create 11) in
  let counts = Hashtbl.create 1000 in
  for _ = 1 to 20_000 do
    let k = match Ycsb.next g with Ycsb.Read k | Ycsb.Update k -> k in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let hottest = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  Alcotest.(check bool) "hot key >> uniform share" true (hottest > 400)

let test_ycsb_deterministic () =
  let ops wl seed =
    let g = Ycsb.gen wl (Rng.create seed) in
    List.init 100 (fun _ -> Ycsb.next g)
  in
  let wl = Ycsb.a ~records:100 () in
  Alcotest.(check bool) "same seed same stream" true (ops wl 5 = ops wl 5);
  Alcotest.(check bool) "different seed differs" true (ops wl 5 <> ops wl 6)

(* --- Runner over every system ------------------------------------------- *)

let tiny_scale =
  {
    Systems.default_scale with
    Systems.objects = 200;
    ssd_pages = 8192;
    retain_data = true;
    log_slots = 512;
  }

let tiny_wl = Ycsb.a ~records:200 ~value_bytes:1024 ()

let run_system build =
  Runner.run ~seed:1 ~timeline_bin_ns:100_000_000 ~build ~workload:tiny_wl
    ~clients:4 ~duration_ns:300_000_000 ()

let check_result r =
  Alcotest.(check bool) "made progress" true (r.Runner.total_ops > 100);
  Alcotest.(check bool) "throughput positive" true (r.Runner.throughput > 0.0);
  Alcotest.(check bool) "reads recorded" true (Histogram.count r.Runner.reads > 0);
  Alcotest.(check bool) "updates recorded" true
    (Histogram.count r.Runner.updates > 0);
  Alcotest.(check bool) "timeline bins" true (List.length r.Runner.timeline >= 2);
  let ops_in_bins =
    List.fold_left (fun acc s -> acc + s.Runner.ops) 0 r.Runner.timeline
  in
  Alcotest.(check bool) "timeline accounts for most ops" true
    (ops_in_bins > r.Runner.total_ops / 2);
  let dram, pmem, _ssd = r.Runner.footprint in
  Alcotest.(check bool) "footprint sane" true (dram >= 0 && pmem > 0)

let test_runner_dstore () =
  check_result (run_system (fun p -> Systems.dstore p tiny_scale))

let test_runner_dstore_cow () =
  check_result
    (run_system (fun p -> Systems.dstore ~tweak:Systems.cow_tweak p tiny_scale))

let test_runner_cached () =
  check_result (run_system (fun p -> Systems.cached p tiny_scale))

let test_runner_lsm () =
  check_result (run_system (fun p -> Systems.lsm p tiny_scale))

let test_runner_inline () =
  check_result (run_system (fun p -> Systems.inline p tiny_scale))

let test_runner_deterministic () =
  let r1 = run_system (fun p -> Systems.dstore p tiny_scale) in
  let r2 = run_system (fun p -> Systems.dstore p tiny_scale) in
  check Alcotest.int "same ops" r1.Runner.total_ops r2.Runner.total_ops;
  check Alcotest.int "same p999"
    (Histogram.percentile r1.Runner.updates 99.9)
    (Histogram.percentile r2.Runner.updates 99.9)

let test_runner_seed_sensitivity () =
  let r1 =
    Runner.run ~seed:1 ~build:(fun p -> Systems.dstore p tiny_scale)
      ~workload:tiny_wl ~clients:4 ~duration_ns:100_000_000 ()
  in
  let r2 =
    Runner.run ~seed:2 ~build:(fun p -> Systems.dstore p tiny_scale)
      ~workload:tiny_wl ~clients:4 ~duration_ns:100_000_000 ()
  in
  Alcotest.(check bool) "different seeds differ somewhere" true
    (r1.Runner.total_ops <> r2.Runner.total_ops
    || Histogram.max_value r1.Runner.reads <> Histogram.max_value r2.Runner.reads)

let test_runner_no_load () =
  let r =
    Runner.run ~seed:1 ~load:false
      ~build:(fun p -> Systems.dstore p tiny_scale)
      ~workload:tiny_wl ~clients:2 ~duration_ns:50_000_000 ()
  in
  check Alcotest.int "no load phase" 0 r.Runner.load_ns;
  Alcotest.(check bool) "ops ran (reads miss, writes create)" true
    (r.Runner.total_ops > 0)

let suite =
  [
    ("ycsb key format", `Quick, test_ycsb_key_format);
    ("ycsb mixes", `Quick, test_ycsb_mixes);
    ("ycsb keys in range", `Quick, test_ycsb_keys_in_range);
    ("ycsb zipfian skew", `Quick, test_ycsb_skew);
    ("ycsb deterministic", `Quick, test_ycsb_deterministic);
    ("runner drives DStore", `Quick, test_runner_dstore);
    ("runner drives DStore-CoW", `Quick, test_runner_dstore_cow);
    ("runner drives cached", `Quick, test_runner_cached);
    ("runner drives LSM", `Quick, test_runner_lsm);
    ("runner drives inline", `Quick, test_runner_inline);
    ("runner deterministic", `Quick, test_runner_deterministic);
    ("runner seed sensitivity", `Quick, test_runner_seed_sensitivity);
    ("runner without load phase", `Quick, test_runner_no_load);
  ]
