(* Layer probe: wall-clock cost of single inner-layer calls, made
   directly through each layer's public functions on the workload's own
   keys and values, outside the simulator. Each row stands for one
   modeled CPU cost of [Config.costs]; the report prints measured ÷
   modeled instead of asserting either is small. *)

open Dstore_util
open Dstore_platform
open Dstore_memory
open Dstore_structs
open Dstore_core
module Cache = Dstore_cache.Cache

type row = {
  metric : string;
  ns : float;
  modeled : (string * int) option;  (** The [Config.costs] field it stands for. *)
}

(* Median over [rounds] of the mean cost of [iters] calls. *)
let time_per_call ?(rounds = 7) ~iters f =
  let samples =
    Array.init rounds (fun _ ->
        let t0 = Acct.now_ns () in
        for i = 0 to iters - 1 do
          f i
        done;
        float_of_int (Acct.now_ns () - t0) /. float_of_int iters)
  in
  Array.sort compare samples;
  samples.(rounds / 2)

let run ~seed ~records ~value_bytes =
  let costs = Config.default_costs in
  (* The workload's own request stream: scrambled-Zipfian keys. *)
  let n_keys = 4096 in
  let g = Dstore_workload.Ycsb.gen (Dstore_workload.Ycsb.a ~records ~value_bytes ()) (Rng.create seed) in
  let keys =
    Array.init n_keys (fun _ ->
        match Dstore_workload.Ycsb.next g with
        | Dstore_workload.Ycsb.Read k | Dstore_workload.Ycsb.Update k -> k)
  in
  let key i = keys.(i land (n_keys - 1)) in
  let logrec =
    let ops =
      Array.init n_keys (fun i ->
          Logrec.Put
            {
              key = keys.(i);
              size = value_bytes;
              meta = i;
              extents = [ (i, 1) ];
              freed_meta = i + 1;
              freed_extents = [ (i + 7, 1) ];
            })
    in
    time_per_call ~iters:20_000 (fun i ->
        let b = Logrec.encode_payload ops.(i land (n_keys - 1)) in
        ignore (Checksum.crc32c b ~pos:0 ~len:(Bytes.length b)))
  in
  let space = Space.format (Mem.dram (16 * 1024 * 1024)) in
  let bt = Btree.create space ~root_slot:0 in
  for i = 0 to records - 1 do
    ignore (Btree.insert bt (Dstore_workload.Ycsb.key i) i)
  done;
  let find = time_per_call ~iters:50_000 (fun i -> ignore (Btree.find bt (key i))) in
  let insert = time_per_call ~iters:50_000 (fun i -> ignore (Btree.insert bt (key i) i)) in
  let alloc =
    time_per_call ~iters:100_000 (fun _ ->
        let o = Space.alloc space 256 in
        Space.free space o 256)
  in
  let cache = Cache.create ~budget:(2 * records * value_bytes) in
  let v = Rng.bytes (Rng.create (seed + 1)) value_bytes in
  for i = 0 to records - 1 do
    Cache.put cache (Dstore_workload.Ycsb.key i) v ~pos:0 ~len:value_bytes
  done;
  let borrow = time_per_call ~iters:100_000 (fun i -> ignore (Cache.borrow cache (key i))) in
  (* A DES consume round trip: one fiber, one event per call. *)
  let yield_ns =
    let sim = Sim.create () in
    let p = Sim_platform.make sim in
    let out = ref 0.0 in
    Sim.spawn sim "bench.probe" (fun () ->
        out := time_per_call ~iters:50_000 (fun _ -> p.Platform.consume 1));
    Sim.run sim;
    !out
  in
  [
    { metric = "probe.logrec_encode_crc_ns"; ns = logrec; modeled = Some ("log_cpu_ns", costs.Config.log_cpu_ns) };
    { metric = "probe.btree_find_ns"; ns = find; modeled = Some ("lookup_ns", costs.Config.lookup_ns) };
    { metric = "probe.btree_insert_ns"; ns = insert; modeled = Some ("btree_ns", costs.Config.btree_ns) };
    { metric = "probe.space_alloc_free_ns"; ns = alloc; modeled = Some ("meta_ns", costs.Config.meta_ns) };
    { metric = "probe.cache_borrow_ns"; ns = borrow; modeled = None };
    { metric = "probe.sim_yield_ns"; ns = yield_ns; modeled = None };
  ]

let print rows =
  print_endline "layer probe (host wall ns per call; modeled = Config.costs virtual ns)";
  List.iter
    (fun r ->
      match r.modeled with
      | Some (field, m) ->
          Printf.printf "  %-28s %9.1f ns   %-11s %4d ns   measured/modeled %.2f\n" r.metric r.ns field m
            (r.ns /. float_of_int m)
      | None -> Printf.printf "  %-28s %9.1f ns\n" r.metric r.ns)
    rows
