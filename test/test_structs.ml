(* Tests for the arena data structures: Btree, Bitpool, Metazone,
   Readcount. The B-tree gets model-based property tests against Map. *)

open Dstore_memory
open Dstore_structs
open Dstore_util

let check = Alcotest.check

let fresh_space ?(bytes = 1 lsl 22) () = Space.format (Mem.dram bytes)

(* --- Btree ------------------------------------------------------------ *)

let fresh_tree ?bytes () =
  let s = fresh_space ?bytes () in
  (s, Btree.create s ~root_slot:0)

let test_btree_empty () =
  let _, t = fresh_tree () in
  check Alcotest.int "length" 0 (Btree.length t);
  Alcotest.(check (option int)) "find" None (Btree.find t "nope");
  Alcotest.(check (option int)) "delete" None (Btree.delete t "nope");
  Btree.check_invariants t

let test_btree_insert_find () =
  let _, t = fresh_tree () in
  Alcotest.(check (option int)) "fresh" None (Btree.insert t "alpha" 1);
  Alcotest.(check (option int)) "found" (Some 1) (Btree.find t "alpha");
  Alcotest.(check bool) "mem" true (Btree.mem t "alpha");
  check Alcotest.int "length" 1 (Btree.length t)

let test_btree_overwrite () =
  let _, t = fresh_tree () in
  ignore (Btree.insert t "k" 1);
  Alcotest.(check (option int)) "old returned" (Some 1) (Btree.insert t "k" 2);
  Alcotest.(check (option int)) "new value" (Some 2) (Btree.find t "k");
  check Alcotest.int "length unchanged" 1 (Btree.length t)

let test_btree_delete () =
  let _, t = fresh_tree () in
  ignore (Btree.insert t "a" 1);
  ignore (Btree.insert t "b" 2);
  Alcotest.(check (option int)) "deleted value" (Some 1) (Btree.delete t "a");
  Alcotest.(check (option int)) "gone" None (Btree.find t "a");
  Alcotest.(check (option int)) "b stays" (Some 2) (Btree.find t "b");
  check Alcotest.int "length" 1 (Btree.length t)

let test_btree_many_sequential () =
  let _, t = fresh_tree () in
  let n = 5000 in
  for i = 0 to n - 1 do
    ignore (Btree.insert t (Printf.sprintf "key%08d" i) i)
  done;
  check Alcotest.int "length" n (Btree.length t);
  Btree.check_invariants t;
  for i = 0 to n - 1 do
    match Btree.find t (Printf.sprintf "key%08d" i) with
    | Some v when v = i -> ()
    | other ->
        Alcotest.failf "key%08d -> %s" i
          (match other with Some v -> string_of_int v | None -> "None")
  done

let test_btree_many_random_order () =
  let _, t = fresh_tree () in
  let n = 5000 in
  let keys = Array.init n (fun i -> Printf.sprintf "k%06x" (i * 2654435761 mod 16777216)) in
  Array.iteri (fun i k -> ignore (Btree.insert t k i)) keys;
  Btree.check_invariants t;
  Array.iteri
    (fun i k ->
      match Btree.find t k with
      | Some v when v = i || keys.(v) = k -> ()
      | _ -> Alcotest.failf "lost key %s" k)
    keys

let test_btree_iter_sorted () =
  let _, t = fresh_tree () in
  let r = Rng.create 77 in
  for _ = 1 to 2000 do
    ignore (Btree.insert t (Printf.sprintf "%08x" (Rng.int r (1 lsl 24))) 0)
  done;
  let prev = ref "" in
  let n = ref 0 in
  Btree.iter t (fun k _ ->
      Alcotest.(check bool) "ascending" true (!prev < k);
      prev := k;
      incr n);
  check Alcotest.int "iter covers all" (Btree.length t) !n

let test_btree_fold () =
  let _, t = fresh_tree () in
  for i = 1 to 100 do
    ignore (Btree.insert t (Printf.sprintf "%03d" i) i)
  done;
  let sum = Btree.fold t ~init:0 ~f:(fun acc _ v -> acc + v) in
  check Alcotest.int "sum" 5050 sum

let test_btree_empty_key () =
  let _, t = fresh_tree () in
  ignore (Btree.insert t "" 42);
  Alcotest.(check (option int)) "empty key" (Some 42) (Btree.find t "");
  ignore (Btree.insert t "a" 1);
  Btree.check_invariants t;
  Alcotest.(check (option int)) "delete empty" (Some 42) (Btree.delete t "")

let test_btree_long_keys () =
  let _, t = fresh_tree () in
  let k1 = String.make 1000 'a' and k2 = String.make 1000 'a' ^ "b" in
  ignore (Btree.insert t k1 1);
  ignore (Btree.insert t k2 2);
  Alcotest.(check (option int)) "k1" (Some 1) (Btree.find t k1);
  Alcotest.(check (option int)) "k2" (Some 2) (Btree.find t k2);
  Btree.check_invariants t

let test_btree_prefix_keys () =
  let _, t = fresh_tree () in
  List.iteri (fun i k -> ignore (Btree.insert t k i)) [ "a"; "ab"; "abc"; "abcd"; "b" ];
  List.iteri
    (fun i k -> Alcotest.(check (option int)) k (Some i) (Btree.find t k))
    [ "a"; "ab"; "abc"; "abcd"; "b" ];
  Btree.check_invariants t

let test_btree_delete_reinsert_churn () =
  let _, t = fresh_tree () in
  for round = 0 to 4 do
    for i = 0 to 999 do
      ignore (Btree.insert t (Printf.sprintf "key%04d" i) (round * 1000 + i))
    done;
    for i = 0 to 999 do
      if i mod 2 = 0 then
        ignore (Btree.delete t (Printf.sprintf "key%04d" i))
    done;
    Btree.check_invariants t
  done;
  check Alcotest.int "final population" 500 (Btree.length t)

let test_btree_survives_copy () =
  let s, t = fresh_tree () in
  for i = 0 to 999 do
    ignore (Btree.insert t (Printf.sprintf "obj%04d" i) i)
  done;
  let s2 = Space.copy_into s (Mem.dram (1 lsl 22)) in
  let t2 = Btree.attach s2 ~root_slot:0 in
  Btree.check_invariants t2;
  check Alcotest.int "length" 1000 (Btree.length t2);
  for i = 0 to 999 do
    Alcotest.(check (option int)) "value" (Some i)
      (Btree.find t2 (Printf.sprintf "obj%04d" i))
  done;
  (* Divergence check: the copy is independent. *)
  ignore (Btree.insert t2 "new" 1);
  Alcotest.(check (option int)) "original untouched" None (Btree.find t "new")

let btree_model_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun k -> `Insert (Printf.sprintf "k%02d" k)) (int_bound 60));
        (2, map (fun k -> `Delete (Printf.sprintf "k%02d" k)) (int_bound 60));
        (2, map (fun k -> `Find (Printf.sprintf "k%02d" k)) (int_bound 60));
      ])

let prop_btree_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"btree agrees with Map on random op sequences"
       ~count:200
       QCheck.(make Gen.(list_size (int_range 1 400) btree_model_op_gen))
       (fun ops ->
         let _, t = fresh_tree () in
         let module M = Map.Make (String) in
         let model = ref M.empty in
         let counter = ref 0 in
         let ok = ref true in
         List.iter
           (fun op ->
             incr counter;
             match op with
             | `Insert k ->
                 let expect = M.find_opt k !model in
                 let got = Btree.insert t k !counter in
                 if got <> expect then ok := false;
                 model := M.add k !counter !model
             | `Delete k ->
                 let expect = M.find_opt k !model in
                 let got = Btree.delete t k in
                 if got <> expect then ok := false;
                 model := M.remove k !model
             | `Find k ->
                 if Btree.find t k <> M.find_opt k !model then ok := false)
           ops;
         Btree.check_invariants t;
         !ok && Btree.length t = M.cardinal !model
         && M.for_all (fun k v -> Btree.find t k = Some v) !model))

let prop_btree_large_split_stress =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"btree splits keep every binding reachable" ~count:20
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let r = Rng.create seed in
         let _, t = fresh_tree () in
         let module M = Map.Make (String) in
         let model = ref M.empty in
         for i = 0 to 2999 do
           let k = Printf.sprintf "%06d" (Rng.int r 100_000) in
           ignore (Btree.insert t k i);
           model := M.add k i !model
         done;
         Btree.check_invariants t;
         M.for_all (fun k v -> Btree.find t k = Some v) !model))

(* --- Btree position reuse ------------------------------------------------ *)

(* [replace] must leave exactly what [insert] leaves. Each check runs one
   scenario on two fresh trees — [locate], [between], then [replace] on
   one and plain [insert] on the other — and compares the results and
   every used arena byte. *)
let used_bytes_equal sa sb =
  Space.used_bytes sa = Space.used_bytes sb
  && Mem.equal_range (Space.mem sa) (Space.mem sb) ~off:0 ~len:(Space.used_bytes sa)

let check_replace_matches_insert name ~setup ~between key =
  let run reuse =
    let s, t = fresh_tree () in
    setup s t;
    let p = Btree.locate t key in
    between s t;
    let r = if reuse then Btree.replace p key 999_999 else Btree.insert t key 999_999 in
    Btree.check_invariants t;
    (s, r)
  in
  let sa, ra = run true and sb, rb = run false in
  Alcotest.(check (option int)) (name ^ ": result") rb ra;
  Alcotest.(check bool) (name ^ ": arena bytes") true (used_bytes_equal sa sb)

let rkey i = Printf.sprintf "r%06d" i

let insert_range t lo hi =
  for i = lo to hi - 1 do
    ignore (Btree.insert t (rkey (i * 10)) i)
  done

(* The root node's header (white-box: tag at byte 0, 2 = branch; cell
   count at byte 2). *)
let root_is_branch s = Mem.get_u8 (Space.mem s) (Space.get_root s 0) = 2

let root_cells s = Mem.get_u16 (Space.mem s) (Space.get_root s 0 + 2)

let btree_order = 84

let test_replace_in_place () =
  check_replace_matches_insert "nothing moved"
    ~setup:(fun _ t -> insert_range t 0 500)
    ~between:(fun _ t -> ignore (Btree.find t (rkey 10)))
    (rkey 2500)

(* Ascending inserts until the root is a branch holding [cells] cells. *)
let grow_root_to cells s t =
  while not (root_is_branch s && root_cells s = cells) do
    let n = Btree.length t in
    ignore (Btree.insert t (rkey (n * 10)) n)
  done

let test_replace_after_split () =
  (* The located leaf is untouched, but a leaf split elsewhere fills the
     root, so [insert] grows the root before it lands on the cell. *)
  let fill = grow_root_to (btree_order - 1) and split = grow_root_to btree_order in
  check_replace_matches_insert "split since locate" ~setup:fill ~between:split (rkey 0)

let test_replace_full_at_locate () =
  (* [locate] meets a full node: a root leaf, then a root branch, holding
     [order] cells, which [insert] splits first. *)
  check_replace_matches_insert "full leaf at locate"
    ~setup:(fun s t ->
      insert_range t 0 btree_order;
      Alcotest.(check int) "root leaf full" btree_order (root_cells s))
    ~between:(fun _ _ -> ())
    (rkey 50);
  check_replace_matches_insert "full branch at locate"
    ~setup:(grow_root_to btree_order)
    ~between:(fun _ _ -> ())
    (rkey 0)

let test_replace_leaf_filled () =
  check_replace_matches_insert "leaf filled since locate"
    ~setup:(fun _ t -> insert_range t 0 (btree_order - 1))
    ~between:(fun s t ->
      (* Above the located key: its slot does not move. *)
      ignore (Btree.insert t (rkey 5000) 0);
      Alcotest.(check int) "leaf now full" btree_order (root_cells s))
    (rkey 300)

let test_replace_slot_shifted () =
  check_replace_matches_insert "slot shifted by an insert"
    ~setup:(fun _ t -> insert_range t 0 10)
    ~between:(fun _ t -> ignore (Btree.insert t (rkey 5) 0))
    (rkey 50);
  check_replace_matches_insert "slot shifted by a delete"
    ~setup:(fun _ t -> insert_range t 0 10)
    ~between:(fun _ t -> ignore (Btree.delete t (rkey 10)))
    (rkey 50)

let test_replace_key_deleted () =
  check_replace_matches_insert "key deleted"
    ~setup:(fun _ t -> insert_range t 0 10)
    ~between:(fun _ t -> ignore (Btree.delete t (rkey 50)))
    (rkey 50);
  check_replace_matches_insert "last key deleted"
    ~setup:(fun _ t -> insert_range t 0 10)
    ~between:(fun _ t -> ignore (Btree.delete t (rkey 90)))
    (rkey 90)

(* Programs of inserts (over a key space wide enough to split leaves and
   grow the root), deletes and overwrites; an overwrite runs [locate], a
   batch of other operations, then [replace] — or, in the reference run,
   plain [insert]. *)
let reuse_op_gen =
  QCheck.Gen.(
    let ins = map (fun k -> `Ins k) (int_bound 1499) in
    let del = map (fun i -> `Del i) (int_bound 10_000) in
    frequency
      [
        (6, ins);
        (2, del);
        ( 4,
          map2
            (fun i batch -> `Over (i, batch))
            (int_bound 10_000)
            (list_size (int_bound 4) (frequency [ (3, ins); (1, del) ])) );
      ])

let run_reuse_program ~reuse ops =
  let s, t = fresh_tree () in
  let module M = Map.Make (String) in
  let model = ref M.empty in
  let results = ref [] in
  let note r = results := r :: !results in
  let nth i =
    match M.cardinal !model with
    | 0 -> "absent"
    | n -> fst (List.nth (M.bindings !model) (i mod n))
  in
  let step = ref 0 in
  let insert k =
    incr step;
    model := M.add k !step !model;
    Btree.insert t k !step
  in
  let run_simple = function
    | `Ins k -> note (insert (Printf.sprintf "q%05d" k))
    | `Del i ->
        let k = nth i in
        model := M.remove k !model;
        note (Btree.delete t k)
  in
  List.iter
    (function
      | (`Ins _ | `Del _) as op -> run_simple op
      | `Over (i, batch) ->
          let k = nth i in
          let p = Btree.locate t k in
          note (Btree.value p);
          List.iter run_simple batch;
          incr step;
          model := M.add k !step !model;
          note (if reuse then Btree.replace p k !step else Btree.insert t k !step))
    ops;
  Btree.check_invariants t;
  (s, List.rev !results, M.for_all (fun k v -> Btree.find t k = Some v) !model)

let prop_btree_replace_matches_insert =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"btree locate+replace matches insert on random programs"
       ~count:100
       QCheck.(make Gen.(list_size (int_range 100 700) reuse_op_gen))
       (fun ops ->
         let sa, ra, model_a = run_reuse_program ~reuse:true ops in
         let sb, rb, model_b = run_reuse_program ~reuse:false ops in
         model_a && model_b && ra = rb && used_bytes_equal sa sb))

(* --- Bitpool ------------------------------------------------------------ *)

let fresh_pool ?(count = 200) () =
  let s = fresh_space () in
  let off = Space.reserve s (Bitpool.bytes_needed count) in
  (s, Bitpool.format s ~off ~count)

let test_bitpool_alloc_unique () =
  let _, p = fresh_pool ~count:100 () in
  let seen = Hashtbl.create 100 in
  for _ = 1 to 100 do
    match Bitpool.alloc p with
    | Some id ->
        Alcotest.(check bool) "unique" false (Hashtbl.mem seen id);
        Hashtbl.add seen id ()
    | None -> Alcotest.fail "pool exhausted early"
  done;
  Alcotest.(check (option int)) "exhausted" None (Bitpool.alloc p)

let test_bitpool_free_recycle () =
  let _, p = fresh_pool ~count:10 () in
  for _ = 1 to 10 do
    ignore (Bitpool.alloc p)
  done;
  Bitpool.free p 4;
  Alcotest.(check (option int)) "recycled" (Some 4) (Bitpool.alloc p)

let test_bitpool_circular_hint () =
  let _, p = fresh_pool ~count:10 () in
  let a = Option.get (Bitpool.alloc p) in
  let b = Option.get (Bitpool.alloc p) in
  Bitpool.free p a;
  (* The hint moved past [a]; the next alloc continues forward. *)
  let c = Option.get (Bitpool.alloc p) in
  Alcotest.(check bool) "scan continues forward" true (c > b || c = a);
  check Alcotest.int "b distinct" 1 b

let test_bitpool_set_allocated () =
  let _, p = fresh_pool ~count:50 () in
  Bitpool.set_allocated p 17;
  Alcotest.(check bool) "marked" true (Bitpool.is_allocated p 17);
  (* Replay-marked ids are skipped by the scanner. *)
  for _ = 1 to 49 do
    match Bitpool.alloc p with
    | Some id -> Alcotest.(check bool) "skips 17" true (id <> 17)
    | None -> Alcotest.fail "should have space"
  done

let test_bitpool_alloc_run_coalesces () =
  let _, p = fresh_pool ~count:100 () in
  match Bitpool.alloc_run p 10 with
  | Some [ (start, 10) ] -> check Alcotest.int "single extent from empty pool" 0 start
  | Some other ->
      Alcotest.failf "expected one extent, got %d" (List.length other)
  | None -> Alcotest.fail "allocation failed"

let test_bitpool_alloc_run_fragmented () =
  let _, p = fresh_pool ~count:20 () in
  (* Allocate everything, then free odd ids: runs must come back as
     single-id extents. *)
  for _ = 1 to 20 do
    ignore (Bitpool.alloc p)
  done;
  List.iter (fun i -> Bitpool.free p i) [ 1; 3; 5; 7; 9 ];
  (match Bitpool.alloc_run p 3 with
  | Some extents ->
      check Alcotest.int "three extents" 3 (List.length extents);
      List.iter (fun (_, len) -> check Alcotest.int "len 1" 1 len) extents
  | None -> Alcotest.fail "allocation failed");
  Alcotest.(check (option int)) "counts" (Some 18) (Some (Bitpool.allocated p))

let test_bitpool_alloc_run_insufficient () =
  let _, p = fresh_pool ~count:5 () in
  for _ = 1 to 3 do
    ignore (Bitpool.alloc p)
  done;
  Alcotest.(check bool) "refused" true (Bitpool.alloc_run p 3 = None);
  check Alcotest.int "nothing leaked" 3 (Bitpool.allocated p)

let test_bitpool_word_boundary () =
  (* Exercise ids straddling the 32-bit word boundary. *)
  let _, p = fresh_pool ~count:70 () in
  for i = 0 to 69 do
    match Bitpool.alloc p with
    | Some id -> check Alcotest.int "sequential from empty" i id
    | None -> Alcotest.fail "exhausted early"
  done;
  Bitpool.free p 31;
  Bitpool.free p 32;
  Bitpool.free p 63;
  Bitpool.free p 64;
  check Alcotest.int "allocated count" 66 (Bitpool.allocated p)

let test_bitpool_survives_copy () =
  let s = fresh_space () in
  let off = Space.reserve s (Bitpool.bytes_needed 64) in
  let p = Bitpool.format s ~off ~count:64 in
  for _ = 1 to 10 do
    ignore (Bitpool.alloc p)
  done;
  let s2 = Space.copy_into s (Mem.dram (1 lsl 22)) in
  let p2 = Bitpool.attach s2 ~off ~count:64 in
  check Alcotest.int "allocation state carried" 10 (Bitpool.allocated p2);
  for i = 0 to 9 do
    Alcotest.(check bool) "ids carried" true (Bitpool.is_allocated p2 i)
  done

let prop_bitpool_alloc_free =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"bitpool alloc/free maintains exact live set"
       ~count:100
       QCheck.(int_range 0 10_000)
       (fun seed ->
         let r = Rng.create seed in
         let _, p = fresh_pool ~count:64 () in
         let live = Hashtbl.create 64 in
         let ok = ref true in
         for _ = 0 to 500 do
           if Rng.bool r then (
             match Bitpool.alloc p with
             | Some id ->
                 if Hashtbl.mem live id then ok := false;
                 Hashtbl.add live id ()
             | None -> if Hashtbl.length live < 64 then ok := false)
           else if Hashtbl.length live > 0 then begin
             let ids = Hashtbl.fold (fun k () acc -> k :: acc) live [] in
             let id = List.nth ids (Rng.int r (List.length ids)) in
             Bitpool.free p id;
             Hashtbl.remove live id
           end
         done;
         !ok
         && Bitpool.allocated p = Hashtbl.length live
         && Hashtbl.fold (fun id () acc -> acc && Bitpool.is_allocated p id) live true))

(* --- Metazone ------------------------------------------------------------ *)

let fresh_zone ?(count = 100) () =
  let s = fresh_space () in
  let off = Space.reserve s (Metazone.bytes_needed count) in
  (s, Metazone.format s ~off ~count)

let ext start len = { Metazone.start; len }

let test_metazone_write_read () =
  let _, z = fresh_zone () in
  Metazone.write_object z 5 ~size:4096 [ ext 10 1 ];
  Alcotest.(check bool) "live" true (Metazone.is_live z 5);
  let size, extents = Metazone.read_object z 5 in
  check Alcotest.int "size" 4096 size;
  check Alcotest.int "one extent" 1 (List.length extents);
  (match extents with
  | [ e ] ->
      check Alcotest.int "start" 10 e.Metazone.start;
      check Alcotest.int "len" 1 e.Metazone.len
  | _ -> Alcotest.fail "extent shape")

let test_metazone_spill () =
  let _, z = fresh_zone () in
  let extents = List.init 12 (fun i -> ext (i * 10) 2) in
  Metazone.write_object z 0 ~size:98304 extents;
  let size, got = Metazone.read_object z 0 in
  check Alcotest.int "size" 98304 size;
  check Alcotest.int "all extents" 12 (List.length got);
  List.iteri
    (fun i e ->
      check Alcotest.int "start" (i * 10) e.Metazone.start;
      check Alcotest.int "len" 2 e.Metazone.len)
    got

let test_metazone_free () =
  let s, z = fresh_zone () in
  let used_before = Space.used_bytes s in
  Metazone.write_object z 3 ~size:1000 (List.init 12 (fun i -> ext i 1));
  Metazone.free_object z 3;
  Alcotest.(check bool) "not live" false (Metazone.is_live z 3);
  (* The spill block is back on the free list: writing again reuses it. *)
  Metazone.write_object z 3 ~size:1000 (List.init 12 (fun i -> ext i 1));
  check Alcotest.int "no heap growth on reuse"
    (Space.used_bytes s - used_before)
    (Space.class_size ((12 - Metazone.inline_extents) * 8))

let test_metazone_set_size () =
  let _, z = fresh_zone () in
  Metazone.write_object z 1 ~size:100 [ ext 0 1 ];
  Metazone.set_size z 1 5000;
  let size, _ = Metazone.read_object z 1 in
  check Alcotest.int "updated" 5000 size

let test_metazone_append_extents_inline () =
  let _, z = fresh_zone () in
  Metazone.write_object z 2 ~size:4096 [ ext 0 1 ];
  Metazone.append_extents z 2 [ ext 5 2 ];
  let _, extents = Metazone.read_object z 2 in
  check Alcotest.int "two extents" 2 (List.length extents);
  check Alcotest.int "blocks" 3 (Metazone.blocks_of extents)

let test_metazone_append_extents_to_spill () =
  let _, z = fresh_zone () in
  Metazone.write_object z 2 ~size:4096 (List.init 4 (fun i -> ext i 1));
  Metazone.append_extents z 2 (List.init 4 (fun i -> ext (100 + i) 1));
  let _, extents = Metazone.read_object z 2 in
  check Alcotest.int "eight extents" 8 (List.length extents);
  List.iteri
    (fun i e ->
      let expected = if i < 4 then i else 100 + (i - 4) in
      check Alcotest.int "order preserved" expected e.Metazone.start)
    extents

let test_metazone_survives_copy () =
  let s, z = fresh_zone () in
  Metazone.write_object z 7 ~size:8192 (List.init 9 (fun i -> ext i 3));
  let s2 = Space.copy_into s (Mem.dram (1 lsl 22)) in
  let off = (* the zone was the first reservation *) Space.header_bytes in
  let z2 = Metazone.attach s2 ~off ~count:100 in
  let size, extents = Metazone.read_object z2 7 in
  check Alcotest.int "size carried" 8192 size;
  check Alcotest.int "extents carried (incl. spill)" 9 (List.length extents)

(* --- Readcount ------------------------------------------------------------ *)

let test_readcount_basic () =
  let rc = Readcount.create () in
  check Alcotest.int "zero" 0 (Readcount.readers rc "obj");
  Readcount.enter_reader rc "obj";
  Readcount.enter_reader rc "obj";
  check Alcotest.int "two" 2 (Readcount.readers rc "obj");
  Readcount.exit_reader rc "obj";
  check Alcotest.int "one" 1 (Readcount.readers rc "obj");
  Readcount.exit_reader rc "obj";
  check Alcotest.int "zero again" 0 (Readcount.readers rc "obj")

let test_readcount_distinct_names () =
  let rc = Readcount.create ~buckets:(1 lsl 16) () in
  Readcount.enter_reader rc "a";
  check Alcotest.int "b unaffected (likely distinct bucket)" 0
    (Readcount.readers rc "bbbbbb");
  check Alcotest.int "total" 1 (Readcount.total rc);
  Readcount.exit_reader rc "a"

let test_readcount_concurrent () =
  (* Real threads hammering fetch-and-add: final counts must balance. *)
  let module RP = Dstore_platform.Real_platform in
  let rp = RP.create ~parallelism:2 () in
  let p = RP.platform rp in
  let rc = Readcount.create () in
  for _ = 1 to 4 do
    p.Dstore_platform.Platform.spawn "r" (fun () ->
        for _ = 1 to 5000 do
          Readcount.enter_reader rc "hot";
          Readcount.exit_reader rc "hot"
        done)
  done;
  RP.join_all rp;
  check Alcotest.int "balanced" 0 (Readcount.readers rc "hot")

(* Key edge cases for the range compare: shared prefixes, keys that are
   prefixes of other keys, the empty key and high/low bytes, on a DRAM
   arena and on a PMEM-backed one at a non-zero device offset. *)
let test_btree_key_edges () =
  let base =
    [ ""; "a"; "ab"; "abc"; "abd"; "abcd"; "b"; "\000"; "a\000"; "\255"; "a\255" ]
  in
  let shared =
    List.init 300 (fun i -> Printf.sprintf "common/prefix/long/%03d" (i * 7 mod 300))
  in
  let prefixes = List.init 40 (fun i -> String.make (i + 1) 'p') in
  let keys = base @ shared @ prefixes in
  let absent = [ "abcc"; "abce"; "ac"; "common/prefix/long/"; "common/prefix/long/3000"; "p\000" ] in
  let run name space =
    let t = Btree.create space ~root_slot:0 in
    List.iteri (fun i k -> ignore (Btree.insert t k i)) keys;
    Btree.check_invariants t;
    check Alcotest.int (name ^ ": length") (List.length keys) (Btree.length t);
    List.iteri
      (fun i k -> Alcotest.(check (option int)) (name ^ ": find " ^ String.escaped k) (Some i) (Btree.find t k))
      keys;
    List.iter
      (fun k -> Alcotest.(check (option int)) (name ^ ": absent " ^ String.escaped k) None (Btree.find t k))
      absent;
    let order = List.rev (Btree.fold t ~init:[] ~f:(fun acc k _ -> k :: acc)) in
    Alcotest.(check (list string)) (name ^ ": key order") (List.sort String.compare keys) order;
    Alcotest.(check (option int)) (name ^ ": delete empty key") (Some 0) (Btree.delete t "");
    Alcotest.(check (option int)) (name ^ ": empty key gone") None (Btree.find t "");
    Alcotest.(check (option int)) (name ^ ": prefix survives") (Some 1) (Btree.find t "a");
    Btree.check_invariants t
  in
  run "dram" (fresh_space ());
  let sim = Dstore_platform.Sim.create () in
  let p = Dstore_platform.Sim_platform.make sim in
  let pm =
    Dstore_pmem.Pmem.create p { Dstore_pmem.Pmem.default_config with size = 1 lsl 21 }
  in
  run "pmem" (Space.format (Mem.of_pmem pm ~off:(1 lsl 20) ~len:(1 lsl 20)))

let suite =
  [
    ("btree empty", `Quick, test_btree_empty);
    ("btree insert/find", `Quick, test_btree_insert_find);
    ("btree overwrite", `Quick, test_btree_overwrite);
    ("btree delete", `Quick, test_btree_delete);
    ("btree key edges: prefixes, empty key", `Quick, test_btree_key_edges);
    ("btree 5k sequential", `Quick, test_btree_many_sequential);
    ("btree 5k random order", `Quick, test_btree_many_random_order);
    ("btree iter sorted", `Quick, test_btree_iter_sorted);
    ("btree fold", `Quick, test_btree_fold);
    ("btree empty key", `Quick, test_btree_empty_key);
    ("btree long keys", `Quick, test_btree_long_keys);
    ("btree prefix keys", `Quick, test_btree_prefix_keys);
    ("btree delete/reinsert churn", `Quick, test_btree_delete_reinsert_churn);
    ("btree survives space copy", `Quick, test_btree_survives_copy);
    prop_btree_model;
    prop_btree_large_split_stress;
    ("btree replace: in place when nothing moved", `Quick, test_replace_in_place);
    ("btree replace: split since locate", `Quick, test_replace_after_split);
    ("btree replace: full node at locate", `Quick, test_replace_full_at_locate);
    ("btree replace: leaf filled since locate", `Quick, test_replace_leaf_filled);
    ("btree replace: slot shifted", `Quick, test_replace_slot_shifted);
    ("btree replace: key deleted", `Quick, test_replace_key_deleted);
    prop_btree_replace_matches_insert;
    ("bitpool alloc unique", `Quick, test_bitpool_alloc_unique);
    ("bitpool free/recycle", `Quick, test_bitpool_free_recycle);
    ("bitpool circular hint", `Quick, test_bitpool_circular_hint);
    ("bitpool set_allocated (replay)", `Quick, test_bitpool_set_allocated);
    ("bitpool alloc_run coalesces", `Quick, test_bitpool_alloc_run_coalesces);
    ("bitpool alloc_run fragmented", `Quick, test_bitpool_alloc_run_fragmented);
    ("bitpool alloc_run insufficient", `Quick, test_bitpool_alloc_run_insufficient);
    ("bitpool word boundary", `Quick, test_bitpool_word_boundary);
    ("bitpool survives space copy", `Quick, test_bitpool_survives_copy);
    prop_bitpool_alloc_free;
    ("metazone write/read", `Quick, test_metazone_write_read);
    ("metazone spill extents", `Quick, test_metazone_spill);
    ("metazone free releases spill", `Quick, test_metazone_free);
    ("metazone set_size", `Quick, test_metazone_set_size);
    ("metazone append inline", `Quick, test_metazone_append_extents_inline);
    ("metazone append to spill", `Quick, test_metazone_append_extents_to_spill);
    ("metazone survives space copy", `Quick, test_metazone_survives_copy);
    ("readcount basic", `Quick, test_readcount_basic);
    ("readcount distinct names", `Quick, test_readcount_distinct_names);
    ("readcount concurrent", `Quick, test_readcount_concurrent);
  ]
