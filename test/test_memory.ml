(* Tests for Mem (arena abstraction) and Space (slab allocator + clone). *)

open Dstore_platform
open Dstore_memory
open Dstore_pmem
open Dstore_util

let check = Alcotest.check

let with_sim f =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let result = ref None in
  Sim.spawn sim "test" (fun () -> result := Some (f p sim));
  Sim.run sim;
  Option.get !result

let pmem_mem p size =
  let pm = Pmem.create p { Pmem.default_config with size } in
  (Mem.of_pmem pm ~off:0 ~len:size, pm)

(* --- Mem ------------------------------------------------------------- *)

let mem_roundtrip (m : Mem.t) =
  m.set_u8 0 0x7F;
  m.set_u16 2 0xBEEF;
  m.set_u32 4 0xCAFEBABE;
  m.set_u64 8 (0x1122334455667788 / 2);
  check Alcotest.int "u8" 0x7F (Mem.get_u8 m 0);
  check Alcotest.int "u16" 0xBEEF (Mem.get_u16 m 2);
  check Alcotest.int "u32" 0xCAFEBABE (Mem.get_u32 m 4);
  check Alcotest.int "u64" (0x1122334455667788 / 2) (Mem.get_u64 m 8);
  Mem.write_string m ~off:100 "arena string";
  check Alcotest.string "string" "arena string" (Mem.read_string m ~off:100 ~len:12)

let test_mem_dram () = mem_roundtrip (Mem.dram 4096)

let test_mem_pmem () =
  with_sim (fun p _ ->
      let m, _ = pmem_mem p 4096 in
      mem_roundtrip m)

let test_mem_sub () =
  let base = Mem.dram 4096 in
  let s = Mem.sub base ~off:1024 ~len:1024 in
  s.Mem.set_u64 0 42;
  check Alcotest.int "sub view maps to base" 42 (Mem.get_u64 base 1024);
  check Alcotest.int "sub read" 42 (Mem.get_u64 s 0);
  Alcotest.check_raises "sub bounds"
    (Invalid_argument "Mem: access [1024,+8) outside arena of 1024") (fun () ->
      ignore (Mem.get_u64 s 1024))

let test_mem_persist_dram_noop () =
  let m = Mem.dram 128 in
  m.Mem.persist 0 128;
  Alcotest.(check bool) "not persistent" false m.Mem.is_persistent

let test_mem_persist_pmem_clears_dirty () =
  with_sim (fun p _ ->
      let pm = Pmem.create p { Pmem.default_config with size = 4096 } in
      let m = Mem.of_pmem pm ~off:0 ~len:4096 in
      m.Mem.set_u64 0 9;
      check Alcotest.int "dirty" 1 (Pmem.dirty_lines pm);
      m.Mem.persist 0 8;
      check Alcotest.int "clean" 0 (Pmem.dirty_lines pm);
      Alcotest.(check bool) "persistent flag" true m.Mem.is_persistent)

let test_mem_pmem_view_offset () =
  with_sim (fun p _ ->
      let pm = Pmem.create p { Pmem.default_config with size = 8192 } in
      let v = Mem.of_pmem pm ~off:4096 ~len:4096 in
      v.Mem.set_u64 0 77;
      check Alcotest.int "rebased" 77 (Pmem.get_u64 pm 4096))

let test_mem_equal_range () =
  let a = Mem.dram 256 and b = Mem.dram 256 in
  a.Mem.set_u64 0 5;
  b.Mem.set_u64 0 5;
  Alcotest.(check bool) "equal" true (Mem.equal_range a b ~off:0 ~len:256);
  b.Mem.set_u8 100 1;
  Alcotest.(check bool) "unequal" false (Mem.equal_range a b ~off:0 ~len:256)

(* --- Space ------------------------------------------------------------ *)

let test_space_format_attach () =
  let m = Mem.dram (64 * 1024) in
  let s = Space.format m in
  check Alcotest.int "used = header" Space.header_bytes (Space.used_bytes s);
  let s2 = Space.attach m in
  check Alcotest.int "attach sees used" Space.header_bytes (Space.used_bytes s2)

let test_space_attach_bad_magic () =
  let m = Mem.dram 4096 in
  Alcotest.check_raises "bad magic"
    (Invalid_argument "Space.attach: bad magic (not a formatted space)")
    (fun () -> ignore (Space.attach m))

let test_space_alloc_distinct () =
  let s = Space.format (Mem.dram (1 lsl 20)) in
  let a = Space.alloc s 100 and b = Space.alloc s 100 in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check bool) "no overlap" true (abs (a - b) >= 128)

let test_space_class_rounding () =
  check Alcotest.int "16 min" 16 (Space.class_size 1);
  check Alcotest.int "exact pow2" 256 (Space.class_size 256);
  check Alcotest.int "round up" 512 (Space.class_size 257)

let test_space_free_reuse () =
  let s = Space.format (Mem.dram (1 lsl 20)) in
  let a = Space.alloc s 128 in
  Space.free s a 128;
  let b = Space.alloc s 128 in
  check Alcotest.int "LIFO reuse" a b

let test_space_free_list_segregation () =
  let s = Space.format (Mem.dram (1 lsl 20)) in
  let a = Space.alloc s 128 in
  Space.free s a 128;
  let b = Space.alloc s 64 in
  Alcotest.(check bool) "different class not reused" true (a <> b)

let test_space_roots () =
  let s = Space.format (Mem.dram 65536) in
  Space.set_root s 0 123;
  Space.set_root s 15 456;
  check Alcotest.int "slot 0" 123 (Space.get_root s 0);
  check Alcotest.int "slot 15" 456 (Space.get_root s 15)

let test_space_reserve () =
  let m = Mem.dram 65536 in
  let s = Space.format m in
  let r1 = Space.reserve s 1000 in
  let r2 = Space.reserve s 1000 in
  check Alcotest.int "first after header" Space.header_bytes r1;
  check Alcotest.int "aligned" 0 (r2 mod 16);
  Alcotest.(check bool) "sequential" true (r2 > r1);
  (* reserve is rejected once the heap is live *)
  ignore (Space.alloc s 16);
  Alcotest.check_raises "sealed"
    (Invalid_argument "Space.reserve: space already sealed (alloc happened or attached)")
    (fun () -> ignore (Space.reserve s 16))

let test_space_out_of_space () =
  let s = Space.format (Mem.dram 8192) in
  Alcotest.check_raises "exhausted" Space.Out_of_space (fun () ->
      for _ = 1 to 10 do
        ignore (Space.alloc s 1024)
      done)

let test_space_oversize_alloc_rejected () =
  let s = Space.format (Mem.dram 65536) in
  Alcotest.check_raises "too big"
    (Invalid_argument "Space.alloc: 2097152 exceeds max block (1048576)")
    (fun () -> ignore (Space.alloc s (2 * 1024 * 1024)))

let test_space_copy_into () =
  let src = Space.format (Mem.dram (1 lsl 20)) in
  let off = Space.alloc src 64 in
  Mem.write_string (Space.mem src) ~off "checkpoint me";
  Space.set_root src 0 off;
  let dst_mem = Mem.dram (1 lsl 20) in
  let dst = Space.copy_into src dst_mem in
  let off' = Space.get_root dst 0 in
  check Alcotest.int "relative offset identical" off off';
  check Alcotest.string "data carried" "checkpoint me"
    (Mem.read_string (Space.mem dst) ~off:off' ~len:13)

let test_space_copy_carries_allocator () =
  (* After the copy, allocations in the clone must not collide with live
     blocks — i.e. the allocator state travelled. *)
  let src = Space.format (Mem.dram (1 lsl 20)) in
  let offs = List.init 10 (fun _ -> Space.alloc src 64) in
  let dst = Space.copy_into src (Mem.dram (1 lsl 20)) in
  let fresh = Space.alloc dst 64 in
  List.iter
    (fun o -> Alcotest.(check bool) "no collision" true (abs (fresh - o) >= 64))
    offs;
  check Alcotest.int "same high-water" (Space.used_bytes src) (Space.used_bytes dst - 64)

let test_space_clone_freelist_travels () =
  let src = Space.format (Mem.dram (1 lsl 20)) in
  let a = Space.alloc src 128 in
  Space.free src a 128;
  let dst = Space.copy_into src (Mem.dram (1 lsl 20)) in
  let b = Space.alloc dst 128 in
  check Alcotest.int "clone reuses freed block" a b

let test_space_persist_used_pmem () =
  with_sim (fun p _ ->
      let pm = Pmem.create p { Pmem.default_config with size = 1 lsl 20 } in
      let s = Space.format (Mem.of_pmem pm ~off:0 ~len:(1 lsl 20)) in
      ignore (Space.alloc s 4096);
      Alcotest.(check bool) "dirty" true (Pmem.dirty_lines pm > 0);
      Space.persist_used s;
      check Alcotest.int "all clean" 0 (Pmem.dirty_lines pm))

let test_space_free_list_bytes () =
  let s = Space.format (Mem.dram (1 lsl 20)) in
  check Alcotest.int "empty" 0 (Space.free_list_bytes s);
  let a = Space.alloc s 128 and b = Space.alloc s 1024 in
  Space.free s a 128;
  Space.free s b 1024;
  check Alcotest.int "two blocks" (128 + 1024) (Space.free_list_bytes s)

let prop_space_allocations_disjoint =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"space allocations never overlap" ~count:100
       QCheck.(list_of_size Gen.(int_range 1 60) (int_range 1 2048))
       (fun sizes ->
         let s = Space.format (Mem.dram (1 lsl 22)) in
         let blocks =
           List.map (fun n -> (Space.alloc s n, Space.class_size n)) sizes
         in
         (* All intervals pairwise disjoint and inside the heap. *)
         let rec pairwise = function
           | [] -> true
           | (o1, l1) :: rest ->
               List.for_all (fun (o2, l2) -> o1 + l1 <= o2 || o2 + l2 <= o1) rest
               && pairwise rest
         in
         pairwise blocks
         && List.for_all
              (fun (o, l) -> o >= Space.header_bytes && o + l <= Space.used_bytes s)
              blocks))

let prop_space_alloc_free_alloc_stable =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"alloc/free churn preserves content integrity"
       ~count:50
       QCheck.(int_range 1 1000)
       (fun seed ->
         let r = Rng.create seed in
         let s = Space.format (Mem.dram (1 lsl 22)) in
         let live = ref [] in
         let ok = ref true in
         for i = 0 to 200 do
           if Rng.bool r || !live = [] then begin
             let n = 8 * (1 + Rng.int r 64) in
             let off = Space.alloc s n in
             (* Stamp the block with a signature we can verify later. *)
             (Space.mem s).Mem.set_u64 off i;
             live := (off, n, i) :: !live
           end
           else begin
             match !live with
             | (off, n, stamp) :: rest ->
                 if Mem.get_u64 (Space.mem s) off <> stamp then ok := false;
                 Space.free s off n;
                 live := rest
             | [] -> ()
           end
         done;
         List.iter
           (fun (off, _, stamp) ->
             if Mem.get_u64 (Space.mem s) off <> stamp then ok := false)
           !live;
         !ok))

(* --- Write tracking and page-granular copying -------------------------- *)

let test_mem_tracked () =
  let base = Mem.dram 4096 in
  let notes = ref [] in
  let m = Mem.tracked base ~note:(fun off len -> notes := (off, len) :: !notes) in
  m.Mem.set_u8 10 0xAA;
  m.Mem.set_u16 20 0xBBBB;
  m.Mem.set_u32 40 0xCC;
  m.Mem.set_u64 80 0xDD;
  m.Mem.blit_from_bytes (Bytes.of_string "hello") ~src:0 ~dst:100 ~len:5;
  m.Mem.blit_within ~src:100 ~dst:200 ~len:5;
  m.Mem.fill 300 16 0xEE;
  check
    Alcotest.(list (pair int int))
    "every mutation noted with its offset and length"
    [ (10, 1); (20, 2); (40, 4); (80, 8); (100, 5); (200, 5); (300, 16) ]
    (List.rev !notes);
  check Alcotest.int "writes reach the base arena" 0xAA (Mem.get_u8 base 10);
  check Alcotest.string "blit reaches the base arena" "hello"
    (Mem.read_string base ~off:200 ~len:5);
  check Alcotest.int "fill reaches the base arena" 0xEE (Mem.get_u8 base 315);
  let before = List.length !notes in
  ignore (Mem.get_u64 m 80);
  ignore (Mem.read_string m ~off:100 ~len:5);
  check Alcotest.int "reads are not noted" before (List.length !notes)

let test_mem_copy_pages () =
  let page = 256 in
  let npages = 8 in
  let src = Mem.dram (page * npages) and dst = Mem.dram (page * npages) in
  for i = 0 to (page * npages / 8) - 1 do
    src.Mem.set_u64 (i * 8) (i * 17)
  done;
  let dirty = [ 1; 2; 5 ] in
  let probes = ref 0 in
  let is_dirty p =
    incr probes;
    List.mem p dirty
  in
  let copied =
    Mem.copy_pages ~src ~dst ~page_bytes:page ~is_dirty ~limit:(page * npages)
  in
  check Alcotest.int "bytes copied = dirty pages" (3 * page) copied;
  List.iter
    (fun p ->
      check Alcotest.bool
        (Printf.sprintf "dirty page %d copied" p)
        true
        (Mem.equal_range src dst ~off:(p * page) ~len:page))
    dirty;
  check Alcotest.int "clean page untouched" 0 (Mem.get_u64 dst 0);
  check Alcotest.int "clean page 3 untouched" 0 (Mem.get_u64 dst (3 * page));
  (* A limit short of the last dirty page clips the copy. *)
  let dst2 = Mem.dram (page * npages) in
  let copied2 =
    Mem.copy_pages ~src ~dst:dst2 ~page_bytes:page
      ~is_dirty:(fun p -> List.mem p dirty)
      ~limit:(3 * page)
  in
  check Alcotest.int "limit clips trailing dirty pages" (2 * page) copied2;
  check Alcotest.int "page 5 beyond limit untouched" 0 (Mem.get_u64 dst2 (5 * page))

let test_space_copy_delta () =
  let size = 256 * 1024 in
  let page = 4096 in
  let src_mem = Mem.dram size and dst_mem = Mem.dram size in
  let src = Space.format src_mem in
  (* Pad the used prefix across many pages (reserve must precede alloc)
     so the delta is a real fraction of the store, not dominated by the
     growth region. *)
  ignore (Space.reserve src (100 * 1024));
  let a = Space.alloc src 1000 in
  Mem.write_string src_mem ~off:a "first generation";
  (* Seed the target with a full copy, then mutate the source and track
     exactly the pages we touch — the contract the engine maintains. *)
  ignore (Space.copy_into src dst_mem);
  let old_used = Space.used_bytes src in
  let dirty = Hashtbl.create 8 in
  let touch off len =
    for p = off / page to (off + len - 1) / page do
      Hashtbl.replace dirty p ()
    done
  in
  Mem.write_string src_mem ~off:a "second generation";
  touch a 17;
  let b = Space.alloc src 5000 in
  Mem.write_string src_mem ~off:b "grown tail";
  (* Allocation updated the header and free lists; charge those pages. *)
  touch 0 Space.header_bytes;
  let copied_pages = ref [] in
  let shadow, copied =
    Space.copy_delta src dst_mem ~page_bytes:page
      ~is_dirty:(Hashtbl.mem dirty)
      ~on_page:(fun p -> copied_pages := p :: !copied_pages)
  in
  let new_used = Space.used_bytes src in
  check Alcotest.bool "store grew" true (new_used > old_used);
  check Alcotest.bool "delta copies less than a full clone" true
    (copied < new_used);
  check Alcotest.bool "target byte-identical over the used prefix" true
    (Mem.equal_range src_mem dst_mem ~off:0 ~len:new_used);
  check Alcotest.int "attached shadow sees the new used prefix" new_used
    (Space.used_bytes shadow);
  check Alcotest.bool "on_page saw every copied page" true
    (!copied_pages <> []);
  (* The growth region is copied even though nothing marked it dirty. *)
  check Alcotest.bool "growth page reported via on_page" true
    (List.exists (fun p -> p >= old_used / page) !copied_pages);
  check Alcotest.string "grown data arrived" "grown tail"
    (Mem.read_string dst_mem ~off:b ~len:10)

let test_space_copy_delta_rejects_unformatted () =
  let src = Space.format (Mem.dram 65536) in
  let blank = Mem.dram 65536 in
  Alcotest.check_raises "unformatted target rejected"
    (Invalid_argument "Space.copy_delta: target is not a formatted space")
    (fun () ->
      ignore
        (Space.copy_delta src blank ~page_bytes:4096
           ~is_dirty:(fun _ -> true)
           ~on_page:(fun _ -> ())))

let suite =
  [
    ("mem dram roundtrip", `Quick, test_mem_dram);
    ("mem pmem roundtrip", `Quick, test_mem_pmem);
    ("mem sub views", `Quick, test_mem_sub);
    ("mem persist noop on dram", `Quick, test_mem_persist_dram_noop);
    ("mem persist clears pmem dirty", `Quick, test_mem_persist_pmem_clears_dirty);
    ("mem pmem view offset", `Quick, test_mem_pmem_view_offset);
    ("mem equal_range", `Quick, test_mem_equal_range);
    ("space format/attach", `Quick, test_space_format_attach);
    ("space attach bad magic", `Quick, test_space_attach_bad_magic);
    ("space alloc distinct", `Quick, test_space_alloc_distinct);
    ("space class rounding", `Quick, test_space_class_rounding);
    ("space free reuse (LIFO)", `Quick, test_space_free_reuse);
    ("space free-list segregation", `Quick, test_space_free_list_segregation);
    ("space roots", `Quick, test_space_roots);
    ("space reserve", `Quick, test_space_reserve);
    ("space out of space", `Quick, test_space_out_of_space);
    ("space oversize alloc rejected", `Quick, test_space_oversize_alloc_rejected);
    ("space copy_into", `Quick, test_space_copy_into);
    ("space copy carries allocator", `Quick, test_space_copy_carries_allocator);
    ("space clone free list travels", `Quick, test_space_clone_freelist_travels);
    ("space persist_used on pmem", `Quick, test_space_persist_used_pmem);
    ("space free_list_bytes", `Quick, test_space_free_list_bytes);
    ("mem tracked notes writes", `Quick, test_mem_tracked);
    ("mem copy_pages", `Quick, test_mem_copy_pages);
    ("space copy_delta", `Quick, test_space_copy_delta);
    ( "space copy_delta rejects unformatted",
      `Quick,
      test_space_copy_delta_rejects_unformatted );
    prop_space_allocations_disjoint;
    prop_space_alloc_free_alloc_stable;
  ]
