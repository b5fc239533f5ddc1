(* Methodology microbenchmarks (Bechamel, real wall-clock time): the CPU
   cost of the actual software path on this machine — log-record encoding,
   key compares, B-tree operations, slab allocation, the PMEM crash model,
   CRC — independent of the simulated device times. Each row that stands
   for a modeled cost prints measured ÷ modeled against it, so the table
   says how far the host's real work is from the virtual time charged for
   it, rather than asserting either is small. *)

open Bechamel
open Toolkit
open Dstore_util
open Dstore_platform
open Dstore_pmem
open Dstore_memory
open Dstore_structs
open Dstore_core

let costs = Config.default_costs

type row = {
  test : Test.t;
  modeled : (string * int) option;  (** Modeled cost it stands for, virtual ns. *)
}

let logrec_encode =
  let op =
    Logrec.Put
      {
        key = "user0000012345";
        size = 4096;
        meta = 77;
        extents = [ (123, 1) ];
        freed_meta = 42;
        freed_extents = [ (99, 1) ];
      }
  in
  {
    test =
      Test.make ~name:"logrec encode+crc"
        (Staged.stage (fun () ->
             let b = Logrec.encode_payload op in
             ignore (Checksum.crc32c b ~pos:0 ~len:(Bytes.length b))));
    modeled = Some ("log_cpu_ns", costs.Config.log_cpu_ns);
  }

(* Keys are formatted once, outside the timed loops. *)
let n_keys = 10_000

let keys = Array.init n_keys (Printf.sprintf "user%010d")

let btree_ops =
  let space = Space.format (Mem.dram (16 * 1024 * 1024)) in
  let bt = Btree.create space ~root_slot:0 in
  Array.iteri (fun i k -> ignore (Btree.insert bt k i)) keys;
  let i = ref 0 in
  [
    {
      test =
        Test.make ~name:"btree find (10k keys)"
          (Staged.stage (fun () ->
               incr i;
               ignore (Btree.find bt keys.(!i mod n_keys))));
      modeled = Some ("lookup_ns", costs.Config.lookup_ns);
    };
    {
      test =
        Test.make ~name:"btree overwrite"
          (Staged.stage (fun () ->
               incr i;
               ignore (Btree.insert bt keys.(!i mod n_keys) !i)));
      modeled = Some ("btree_ns", costs.Config.btree_ns);
    };
  ]

(* One stored 14-byte key against probes that differ at the last byte —
   the common case inside a B-tree search over [user%010d] keys. *)
let key_compare =
  let m = Mem.dram 4096 in
  Mem.write_string m ~off:64 keys.(5000);
  let i = ref 0 in
  {
    test =
      Test.make ~name:"key compare (14 B)"
        (Staged.stage (fun () ->
             incr i;
             ignore (Mem.compare_string m ~off:64 ~len:14 keys.(4995 + (!i land 7)))));
    modeled = None;
  }

let slab =
  let space = Space.format (Mem.dram (16 * 1024 * 1024)) in
  {
    test =
      Test.make ~name:"slab alloc+free 256B"
        (Staged.stage (fun () ->
             let o = Space.alloc space 256 in
             Space.free space o 256));
    modeled = Some ("meta_ns", costs.Config.meta_ns);
  }

(* A 4 KiB store + flush on a crash-model device: undo capture of 64
   lines, then their release. Device time is not consumed (the platform's
   [consume] is a no-op), so this is the host cost of the model alone,
   set against the flush latency the device charges for the same call. *)
let pmem_write_flush =
  let p = { (Sim_platform.make (Sim.create ())) with Platform.consume = ignore } in
  let cfg = { Pmem.default_config with size = 1 lsl 20; crash_model = true } in
  let pm = Pmem.create p cfg in
  let page = Bytes.make 4096 'x' in
  let i = ref 0 in
  let flush_ns =
    cfg.Pmem.flush_ns + int_of_float (float_of_int (4096 - Pmem.line_size) /. cfg.Pmem.write_bw)
  in
  {
    test =
      Test.make ~name:"pmem 4KB write+flush"
        (Staged.stage (fun () ->
             incr i;
             let off = (!i land 255) * 4096 in
             Pmem.blit_from_bytes pm page ~src:0 ~dst:off ~len:4096;
             Pmem.flush pm off 4096));
    modeled = Some ("pmem flush 4KB", flush_ns);
  }

let crc =
  let b = Bytes.create 4096 in
  {
    test =
      Test.make ~name:"crc32c 4KB"
        (Staged.stage (fun () -> ignore (Checksum.crc32c b ~pos:0 ~len:4096)));
    modeled = None;
  }

let histogram =
  let h = Histogram.create () in
  let i = ref 0 in
  {
    test =
      Test.make ~name:"histogram record"
        (Staged.stage (fun () ->
             incr i;
             Histogram.record h (!i * 7919 mod 1_000_000)));
    modeled = None;
  }

let run (_ : Common.opts) =
  Common.hdr "Microbenchmarks: real CPU cost of the software path (Bechamel)";
  let rows =
    [ logrec_encode; key_compare ] @ btree_ops
    @ [ slab; pmem_write_flush; crc; histogram ]
  in
  let grouped =
    Test.make_grouped ~name:"micro" ~fmt:"%s %s" (List.map (fun r -> r.test) rows)
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let t = Tablefmt.create [ "benchmark"; "ns/op"; "modeled as"; "modeled ns"; "measured/modeled" ] in
  List.iter
    (fun r ->
      let name = Test.Elt.name (List.hd (Test.elements r.test)) in
      let est =
        match Hashtbl.find_opt results ("micro " ^ name) with
        | Some res -> (
            match Analyze.OLS.estimates res with Some [ e ] -> Some e | _ -> None)
        | None -> None
      in
      let cell f = match est with Some e -> f e | None -> "n/a" in
      match r.modeled with
      | Some (field, m) ->
          Tablefmt.row t
            [
              name;
              cell Tablefmt.f1;
              field;
              string_of_int m;
              cell (fun e -> Tablefmt.f2 (e /. float_of_int m));
            ]
      | None -> Tablefmt.row t [ name; cell Tablefmt.f1; "-"; "-"; "-" ])
    rows;
  Tablefmt.print t;
  Common.note "measured = host wall ns per call; modeled = virtual ns the simulator charges";
  Common.note "(Config.costs fields, or the device's own flush latency for the pmem row)."
