(* Tests for the DIPPER building blocks: Logrec (codec), Oplog (slotted
   log, flush protocol, torn-record validity), Root (atomic state). *)

open Dstore_platform
open Dstore_pmem
open Dstore_core
open Dstore_util

let check = Alcotest.check

let with_sim f =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let result = ref None in
  Sim.spawn sim "test" (fun () -> result := Some (f p sim));
  Sim.run sim;
  Option.get !result

let pmem p size = Pmem.create p { Pmem.default_config with size }

(* --- Logrec ------------------------------------------------------------ *)

let sample_ops =
  [
    Logrec.Put
      {
        key = "user42";
        size = 4096;
        meta = 7;
        extents = [ (10, 1) ];
        freed_meta = -1;
        freed_extents = [];
      };
    Logrec.Put
      {
        key = "overwrite-me";
        size = 16384;
        meta = 9;
        extents = [ (20, 2); (30, 2) ];
        freed_meta = 3;
        freed_extents = [ (1, 4) ];
      };
    Logrec.Create { key = "fresh"; meta = 0 };
    Logrec.Write
      { key = "grow"; meta = 5; size = 20000; new_extents = [ (99, 1) ] };
    Logrec.Delete { key = "gone"; meta = 2; extents = [ (50, 3) ] };
    Logrec.Noop { key = "locked-object" };
    Logrec.Phys { images = [ (100, "abcdef"); (4096, String.make 64 'z') ] };
  ]

let test_logrec_roundtrip () =
  List.iter
    (fun op ->
      let payload = Logrec.encode_payload op in
      let back = Logrec.decode_at ~tag:(Logrec.tag_of_op op) payload ~pos:0 in
      Alcotest.(check bool) "roundtrip" true (back = op))
    sample_ops

let test_logrec_roundtrip_padded () =
  (* Decoding must tolerate slot-rounding zero padding. *)
  List.iter
    (fun op ->
      let payload = Logrec.encode_payload op in
      let padded = Bytes.make (Bytes.length payload + 40) '\000' in
      Bytes.blit payload 0 padded 0 (Bytes.length payload);
      let back = Logrec.decode_at ~tag:(Logrec.tag_of_op op) padded ~pos:0 in
      Alcotest.(check bool) "roundtrip with padding" true (back = op))
    sample_ops

let test_logrec_compact () =
  (* The paper: "the size of each log record is just 32B plus the object
     name". Our record adds the freed-extent fields; verify a plain put
     stays within one or two cache lines. *)
  let key = "user42" in
  let op =
    Logrec.Put
      {
        key;
        size = 4096;
        meta = 1;
        extents = [ (5, 1) ];
        freed_meta = -1;
        freed_extents = [];
      }
  in
  (* Header (24 B) + ~36 B of fixed fields incl. freed-id bookkeeping. *)
  Alcotest.(check bool) "within 64B + name" true
    (Logrec.record_bytes op <= 64 + String.length key);
  check Alcotest.int "single slot for short names" 1 (Logrec.slots_needed op)

let test_logrec_multislot () =
  let op = Logrec.Noop { key = String.make 300 'k' } in
  Alcotest.(check bool) "multiple slots" true (Logrec.slots_needed op > 1);
  let payload = Logrec.encode_payload op in
  Alcotest.(check bool) "roundtrip" true
    (Logrec.decode_at ~tag:5 payload ~pos:0 = op)

let test_logrec_bad_tag () =
  Alcotest.check_raises "unknown tag" (Failure "Logrec: unknown op tag 99")
    (fun () -> ignore (Logrec.decode_at ~tag:99 (Bytes.create 8) ~pos:0))

let test_logrec_truncated () =
  let op = Logrec.Delete { key = "someobject"; meta = 1; extents = [ (1, 1) ] } in
  let payload = Logrec.encode_payload op in
  let cut = Bytes.sub payload 0 4 in
  Alcotest.(check bool) "fails cleanly" true
    (match Logrec.decode_at ~tag:4 cut ~pos:0 with
    | exception Failure _ -> true
    | _ -> false)

let prop_logrec_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"logrec roundtrips arbitrary puts" ~count:300
       QCheck.(
         quad (string_of_size Gen.(int_range 0 100)) (int_bound 1_000_000)
           (int_bound 10_000)
           (list_of_size Gen.(int_range 0 10) (pair (int_bound 100_000) (int_range 1 64))))
       (fun (key, size, meta, extents) ->
         let op =
           Logrec.Put { key; size; meta; extents; freed_meta = -1; freed_extents = [] }
         in
         Logrec.decode_at ~tag:1 (Logrec.encode_payload op) ~pos:0 = op))

(* Reference encoder: the payload format spelled out byte by byte on a
   Buffer. [Logrec] sizes records arithmetically and encodes in place;
   both must agree with this spec exactly. *)
let ref_encode op =
  let buf = Buffer.create 64 in
  let u16 v =
    Buffer.add_char buf (Char.chr (v land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff))
  in
  let u32 v =
    u16 (v land 0xffff);
    u16 ((v lsr 16) land 0xffff)
  in
  let u64 v =
    u32 (v land 0xFFFFFFFF);
    u32 ((v lsr 32) land 0x7FFFFFFF)
  in
  let str s =
    u16 (String.length s);
    Buffer.add_string buf s
  in
  let extents l =
    u16 (List.length l);
    List.iter
      (fun (a, b) ->
        u32 a;
        u32 b)
      l
  in
  (match op with
  | Logrec.Put { key; size; meta; extents = e; freed_meta; freed_extents } ->
      str key;
      u64 size;
      u32 meta;
      extents e;
      u32 (if freed_meta < 0 then 0xFFFFFFFF else freed_meta);
      extents freed_extents
  | Logrec.Create { key; meta } ->
      str key;
      u32 meta
  | Logrec.Write { key; meta; size; new_extents } ->
      str key;
      u32 meta;
      u64 size;
      extents new_extents
  | Logrec.Delete { key; meta; extents = e } ->
      str key;
      u32 meta;
      extents e
  | Logrec.Noop { key } -> str key
  | Logrec.Phys { images } ->
      u16 (List.length images);
      List.iter
        (fun (off, b) ->
          u64 off;
          str b)
        images
  | Logrec.Txn_begin { txn; members } ->
      u64 txn;
      u16 members
  | Logrec.Txn_commit { txn } -> u64 txn);
  Buffer.to_bytes buf

(* Every constructor, with arbitrary field values. *)
let gen_op =
  let open QCheck.Gen in
  let key = string_size ~gen:printable (int_range 0 300) in
  let ext = list_size (int_range 0 12) (pair (int_bound 1_000_000) (int_range 1 64)) in
  let id = int_bound 0xFFFFFF in
  let big = int_bound max_int in
  oneof
    [
      map3
        (fun (key, size, meta) extents (freed_meta, freed_extents) ->
          Logrec.Put { key; size; meta; extents; freed_meta; freed_extents })
        (triple key big id) ext
        (pair (int_range (-1) 0xFFFFFF) ext);
      map2 (fun key meta -> Logrec.Create { key; meta }) key id;
      map3
        (fun key (meta, size) new_extents -> Logrec.Write { key; meta; size; new_extents })
        key (pair id big) ext;
      map3 (fun key meta extents -> Logrec.Delete { key; meta; extents }) key id ext;
      map (fun key -> Logrec.Noop { key }) key;
      map
        (fun images -> Logrec.Phys { images })
        (list_size (int_range 0 6) (pair big (string_size (int_range 0 200))));
      map2 (fun txn members -> Logrec.Txn_begin { txn; members }) big (int_bound 0xFFFF);
      map (fun txn -> Logrec.Txn_commit { txn }) big;
    ]

let prop_logrec_sizing =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"logrec: arithmetic sizing and in-place encode match the spec"
       ~count:500 (QCheck.make gen_op) (fun op ->
         let spec = ref_encode op in
         let enc = Logrec.encode_payload op in
         (* In place at an offset, surrounded by sentinel bytes. *)
         let framed = Bytes.make (Bytes.length spec + 40) '\xAA' in
         Logrec.encode_into op framed ~pos:17;
         Logrec.record_bytes op = Logrec.header_bytes + Bytes.length spec
         && Logrec.payload_bytes op = Bytes.length spec
         && Bytes.equal enc spec
         && Bytes.equal (Bytes.sub framed 17 (Bytes.length spec)) spec
         && Bytes.get framed 16 = '\xAA'
         && Bytes.get framed (17 + Bytes.length spec) = '\xAA'
         && Logrec.slots_needed op
            = (Logrec.header_bytes + Bytes.length spec + Logrec.slot_bytes - 1)
              / Logrec.slot_bytes
         && Logrec.decode_at ~tag:(Logrec.tag_of_op op) framed ~pos:17 = op))

(* [put_max_slots] is closed form; it must equal the slot count of the
   worst-case Put it stands for (one extent per block, nblocks + 4 freed
   extents). *)
let prop_put_max_slots =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"logrec: put_max_slots = slots of the worst-case put"
       ~count:300
       QCheck.(pair (string_of_size Gen.(int_range 0 400)) (int_range 0 200))
       (fun (key, nblocks) ->
         let n = max nblocks 1 in
         let worst =
           Logrec.Put
             {
               key;
               size = 0;
               meta = 0;
               extents = List.init n (fun i -> (i * 2, 1));
               freed_meta = 0;
               freed_extents = List.init (n + 4) (fun i -> (i * 2, 1));
             }
         in
         Logrec.put_max_slots key nblocks = Logrec.slots_needed worst))

(* --- Oplog ------------------------------------------------------------ *)

let fresh_log ?(slots = 64) p =
  let pm = pmem p (1 lsl 20) in
  let log = Oplog.attach pm ~off:0 ~slots in
  Oplog.reset log ~lsn_base:100;
  (pm, log)

let put_op key =
  Logrec.Put
    {
      key;
      size = 4096;
      meta = 1;
      extents = [ (1, 1) ];
      freed_meta = -1;
      freed_extents = [];
    }

let append log op =
  match Oplog.reserve log (Logrec.slots_needed op) with
  | None -> Alcotest.fail "log full"
  | Some (slot, lsn) ->
      Oplog.write_record log ~slot ~lsn op;
      Oplog.flush_record log ~slot ~lsn op;
      (slot, lsn)

let test_oplog_append_scan () =
  with_sim (fun p _ ->
      let _, log = fresh_log p in
      let s1, l1 = append log (put_op "a") in
      let _s2, l2 = append log (put_op "b") in
      check Alcotest.int "lsn equation" 100 l1;
      check Alcotest.int "lsn sequence" 101 l2;
      Oplog.commit_record log ~slot:s1;
      let entries = Oplog.scan log in
      check Alcotest.int "two valid records" 2 (List.length entries);
      match entries with
      | [ e1; e2 ] ->
          Alcotest.(check bool) "first committed" true e1.Oplog.committed;
          Alcotest.(check bool) "second uncommitted" false e2.Oplog.committed;
          Alcotest.(check bool) "ops preserved" true
            (e1.Oplog.op = put_op "a" && e2.Oplog.op = put_op "b")
      | _ -> Alcotest.fail "entry count")

let test_oplog_multislot_records () =
  with_sim (fun p _ ->
      let _, log = fresh_log p in
      let big = Logrec.Noop { key = String.make 200 'x' } in
      let slot, lsn = append log big in
      let _ = append log (put_op "after") in
      Oplog.commit_record log ~slot;
      let entries = Oplog.scan log in
      check Alcotest.int "both found" 2 (List.length entries);
      check Alcotest.int "multislot lsn" lsn (List.hd entries).Oplog.lsn)

let test_oplog_reserve_exhaustion () =
  with_sim (fun p _ ->
      let _, log = fresh_log ~slots:4 p in
      ignore (append log (put_op "1"));
      ignore (append log (put_op "2"));
      ignore (append log (put_op "3"));
      ignore (append log (put_op "4"));
      Alcotest.(check bool) "full" true (Oplog.reserve log 1 = None);
      check Alcotest.int "free" 0 (Oplog.free_slots log))

let test_oplog_reset_clears () =
  with_sim (fun p _ ->
      let _, log = fresh_log p in
      ignore (append log (put_op "old"));
      Oplog.reset log ~lsn_base:500;
      check Alcotest.int "empty" 0 (List.length (Oplog.scan log));
      check Alcotest.int "base" 500 (Oplog.lsn_base log);
      let _, lsn = append log (put_op "new") in
      check Alcotest.int "new epoch lsn" 500 lsn)

let test_oplog_stale_epoch_invalid () =
  (* Records from a previous epoch must not validate after reset, even
     though their bytes may linger if the reset zeroing were skipped. The
     reset zeroes, so simulate staleness via base change on a re-attach. *)
  with_sim (fun p _ ->
      let pm = pmem p (1 lsl 20) in
      let log = Oplog.attach pm ~off:0 ~slots:64 in
      Oplog.reset log ~lsn_base:100;
      ignore (append log (put_op "epoch1"));
      (* Tamper: bump the header base without zeroing (not the public
         API; emulates a stale record with a wrong-epoch LSN). *)
      Pmem.set_u64 pm 8 200;
      let log2 = Oplog.attach pm ~off:0 ~slots:64 in
      check Alcotest.int "stale record invisible" 0 (List.length (Oplog.scan log2)))

let test_oplog_torn_lsn_invalid () =
  (* Crash before the LSN line is flushed: the record must not validate.
     write_record stores everything except the LSN; without flush_record
     the LSN word is still zero — and even the written parts are dirty. *)
  with_sim (fun p _ ->
      let pm, log = fresh_log p in
      (match Oplog.reserve log 1 with
      | Some (slot, lsn) -> Oplog.write_record log ~slot ~lsn (put_op "torn")
      | None -> Alcotest.fail "reserve");
      Pmem.crash pm Pmem.Drop_all;
      check Alcotest.int "torn record skipped" 0 (List.length (Oplog.scan log)))

let test_oplog_torn_multislot_does_not_hide_later () =
  (* A torn multi-slot record must not make a later valid record
     unreachable (DESIGN.md deviation 1). *)
  with_sim (fun p _ ->
      let pm, log = fresh_log p in
      let big = Logrec.Noop { key = String.make 200 'y' } in
      (* Reserve + write the big record but never flush it (simulating a
         crash mid-append)... *)
      (match Oplog.reserve log (Logrec.slots_needed big) with
      | Some (slot, lsn) -> Oplog.write_record log ~slot ~lsn big
      | None -> Alcotest.fail "reserve");
      (* ...while a later record is fully appended and committed. *)
      let slot2, _ = append log (put_op "later") in
      Oplog.commit_record log ~slot:slot2;
      Pmem.crash pm Pmem.Drop_all;
      let entries = Oplog.scan log in
      check Alcotest.int "later record found" 1 (List.length entries);
      Alcotest.(check bool) "and committed" true (List.hd entries).Oplog.committed)

let test_oplog_interior_collision_rejected () =
  (* Adversarial: a torn multi-slot record whose interior slot contains
     bytes that satisfy the slot/LSN equation at that position. The probe
     may parse a header there, but the CRC must reject it (DESIGN.md
     deviation 1). *)
  with_sim (fun p _ ->
      let pm, log = fresh_log p in
      (* Hand-craft a fake record start at slot 3: write the equation-
         satisfying LSN directly into the slot region, with garbage CRC. *)
      let slot3_off = (3 + 1) * 64 in
      Pmem.set_u64 pm slot3_off (Oplog.lsn_base log + 3);
      Pmem.set_u16 pm (slot3_off + 16) 1 (* len_slots *);
      Pmem.set_u8 pm (slot3_off + 18) 5 (* Noop tag *);
      (* CRC field left zero: almost surely wrong. *)
      check Alcotest.int "forged slot rejected" 0 (List.length (Oplog.scan log));
      (* A genuine record elsewhere still scans. *)
      let slot, _ = append log (put_op "real") in
      Oplog.commit_record log ~slot;
      let entries = Oplog.scan log in
      check Alcotest.int "real record found" 1 (List.length entries))

let test_oplog_commit_persists () =
  with_sim (fun p _ ->
      let pm, log = fresh_log p in
      let slot, _ = append log (put_op "c") in
      Oplog.commit_record log ~slot;
      Pmem.crash pm Pmem.Drop_all;
      let entries = Oplog.scan log in
      check Alcotest.int "record survives" 1 (List.length entries);
      Alcotest.(check bool) "committed survives" true
        (List.hd entries).Oplog.committed)

let test_oplog_uncommitted_after_crash () =
  with_sim (fun p _ ->
      let pm, log = fresh_log p in
      ignore (append log (put_op "u"));
      Pmem.crash pm Pmem.Drop_all;
      let entries = Oplog.scan log in
      (* flush_record ran, so the record is durable but must scan as
         uncommitted. *)
      check Alcotest.int "valid" 1 (List.length entries);
      Alcotest.(check bool) "uncommitted" false (List.hd entries).Oplog.committed)

let test_oplog_recover_tail () =
  with_sim (fun p _ ->
      let pm, log = fresh_log p in
      ignore (append log (put_op "a"));
      ignore (append log (Logrec.Noop { key = String.make 100 'b' }));
      let expected_tail = Oplog.tail log in
      (* A fresh attach (the recovery path) must land on the same tail. *)
      let log2 = Oplog.attach pm ~off:0 ~slots:64 in
      Oplog.recover_tail log2;
      check Alcotest.int "tail recovered" expected_tail (Oplog.tail log2))

(* --- Oplog persistence-call accounting (group commit) ------------------ *)

(* Pin the exact flush/fence counts of every append/commit shape, so a
   protocol change that silently adds or drops a persistence round fails
   here. Single-slot append: the LSN line is the whole record — 1 flush +
   1 fence. Multi-slot append: payload round then LSN round — 2 + 2.
   Per-record commit: 1 + 1. A batched append is 2 + 2 {e regardless of
   record count} (two coalesced passes over the whole staged span), and a
   batch commit 1 + 1 — that amortization is the whole point of group
   commit. *)
let test_oplog_persist_call_accounting () =
  with_sim (fun p _ ->
      let pm, log = fresh_log ~slots:128 p in
      let st = Pmem.stats pm in
      let snap () = (st.Pmem.flush_calls, st.Pmem.fence_calls) in
      let diff (f0, fe0) =
        (st.Pmem.flush_calls - f0, st.Pmem.fence_calls - fe0)
      in
      (* Single-slot record. *)
      let s = snap () in
      let slot, _ = append log (put_op "one") in
      Alcotest.(check (pair int int)) "single-slot append: 1 flush, 1 fence"
        (1, 1) (diff s);
      let s = snap () in
      Oplog.commit_record log ~slot;
      Alcotest.(check (pair int int)) "commit: 1 flush, 1 fence" (1, 1) (diff s);
      (* Multi-slot record: payload round then LSN round. *)
      let big = Logrec.Noop { key = String.make 100 'm' } in
      Alcotest.(check bool) "fixture is multi-slot" true
        (Logrec.slots_needed big > 1);
      let s = snap () in
      ignore (append log big);
      Alcotest.(check (pair int int)) "multi-slot append: 2 flushes, 2 fences"
        (2, 2) (diff s);
      (* Batched append: four records, still two coalesced rounds. *)
      let stage op =
        match Oplog.reserve log (Logrec.slots_needed op) with
        | None -> Alcotest.fail "log full"
        | Some (slot, lsn) ->
            Oplog.write_record log ~slot ~lsn op;
            (slot, lsn, op)
      in
      let items =
        List.map
          (fun i -> stage (put_op (Printf.sprintf "b%d" i)))
          [ 1; 2; 3; 4 ]
      in
      let s = snap () in
      Oplog.flush_batch log items;
      Alcotest.(check (pair int int)) "batched append: 2 flushes, 2 fences"
        (2, 2) (diff s);
      (* Batch commit: all commit words set, one persist over the span. *)
      List.iter (fun (slot, _, _) -> Oplog.set_commit_word log ~slot) items;
      let lo = List.fold_left (fun a (sl, _, _) -> min a sl) max_int items in
      let hi =
        List.fold_left
          (fun a (sl, _, op) -> max a (sl + Logrec.slots_needed op))
          0 items
      in
      let s = snap () in
      Oplog.persist_span log ~slot:lo ~slots:(hi - lo);
      Alcotest.(check (pair int int)) "batch commit: 1 flush, 1 fence" (1, 1)
        (diff s))

let test_oplog_flush_batch_durable () =
  with_sim (fun p _ ->
      let pm, log = fresh_log ~slots:128 p in
      let stage op =
        match Oplog.reserve log (Logrec.slots_needed op) with
        | None -> Alcotest.fail "log full"
        | Some (slot, lsn) ->
            Oplog.write_record log ~slot ~lsn op;
            (slot, lsn, op)
      in
      (* Mixed shapes: the middle record spans several slots. *)
      let items =
        List.map stage
          [ put_op "k0"; Logrec.Noop { key = String.make 100 'z' }; put_op "k2" ]
      in
      Oplog.flush_batch log items;
      Pmem.crash pm Pmem.Drop_all;
      let entries = Oplog.scan log in
      check Alcotest.int "all records valid after crash" 3 (List.length entries);
      Alcotest.(check bool) "all uncommitted" true
        (List.for_all (fun e -> not e.Oplog.committed) entries);
      (* Batch commit, then crash again: every member durable-committed. *)
      List.iter (fun (slot, _, _) -> Oplog.set_commit_word log ~slot) items;
      let lo = List.fold_left (fun a (sl, _, _) -> min a sl) max_int items in
      let hi =
        List.fold_left
          (fun a (sl, _, op) -> max a (sl + Logrec.slots_needed op))
          0 items
      in
      Oplog.persist_span log ~slot:lo ~slots:(hi - lo);
      Pmem.crash pm Pmem.Drop_all;
      let entries = Oplog.scan log in
      Alcotest.(check bool) "all committed after crash" true
        (List.length entries = 3
        && List.for_all (fun e -> e.Oplog.committed) entries))

let prop_oplog_random_crash_valid_prefix =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"oplog: after random crash, scan returns exactly the flushed records"
       ~count:60
       QCheck.(int_range 0 100_000)
       (fun seed ->
         Seed_report.attempt ~test:"oplog random-crash valid prefix" ~seed
           ~repro:
             (Printf.sprintf
                "dune exec test/test_main.exe -- test core  # seed %d" seed)
         @@ fun () ->
         with_sim (fun p _ ->
             let r = Rng.create seed in
             let pm, log = fresh_log ~slots:128 p in
             let flushed = ref [] in
             let unflushed = ref 0 in
             for i = 0 to 20 + Rng.int r 20 do
               let key = Printf.sprintf "k%d" i in
               let op =
                 if Rng.int r 4 = 0 then Logrec.Noop { key = key ^ String.make 80 'p' }
                 else put_op key
               in
               match Oplog.reserve log (Logrec.slots_needed op) with
               | None -> ()
               | Some (slot, lsn) ->
                   Oplog.write_record log ~slot ~lsn op;
                   if Rng.int r 5 > 0 then begin
                     Oplog.flush_record log ~slot ~lsn op;
                     flushed := (lsn, op) :: !flushed
                   end
                   else incr unflushed
             done;
             Pmem.crash pm (Pmem.Random (Rng.split r));
             let entries = Oplog.scan log in
             let expected = List.rev !flushed in
             (* Every flushed record must be found; unflushed ones may or
                may not appear (spurious eviction), but never corrupted. *)
             let found = List.map (fun e -> (e.Oplog.lsn, e.Oplog.op)) entries in
             List.for_all (fun fe -> List.mem fe found) expected)))

(* --- Root ------------------------------------------------------------ *)

let some_state =
  {
    Root.current_space = 1;
    active_log = 0;
    ckpt_in_progress = true;
    ckpt_archived_log = 1;
    last_applied_lsn = 777;
  }

let test_root_init_read () =
  with_sim (fun p _ ->
      let pm = pmem p 8192 in
      let r = Root.init pm ~off:0 some_state in
      Alcotest.(check bool) "state read back" true (Root.read r = some_state);
      Alcotest.(check bool) "initialized" true (Root.is_initialized pm ~off:0))

let test_root_attach_uninitialized () =
  with_sim (fun p _ ->
      let pm = pmem p 8192 in
      Alcotest.(check bool) "not initialized" false (Root.is_initialized pm ~off:0);
      Alcotest.check_raises "attach fails"
        (Invalid_argument "Root.attach: no initialized root object") (fun () ->
          ignore (Root.attach pm ~off:0)))

let test_root_publish_atomic () =
  with_sim (fun p _ ->
      let pm = pmem p 8192 in
      let r = Root.init pm ~off:0 some_state in
      let s2 = { some_state with current_space = 0; last_applied_lsn = 999 } in
      Root.publish r s2;
      Alcotest.(check bool) "new state" true (Root.read r = s2);
      Root.publish r some_state;
      Alcotest.(check bool) "flip again" true (Root.read r = some_state))

let test_root_crash_between_publishes () =
  (* A crash that loses the unflushed bank write must leave the previous
     complete state. publish persists before flipping, so crash-after-
     publish keeps the new state; tamper by writing a bank without the
     selector flip. *)
  with_sim (fun p _ ->
      let pm = pmem p 8192 in
      let r = Root.init pm ~off:0 some_state in
      let s2 = { some_state with last_applied_lsn = 1234 } in
      Root.publish r s2;
      Pmem.crash pm Pmem.Drop_all;
      let r2 = Root.attach pm ~off:0 in
      Alcotest.(check bool) "published state durable" true (Root.read r2 = s2))

let prop_root_publish_crash =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"root: crash during publishes yields some previously published state"
       ~count:60
       QCheck.(int_range 0 100_000)
       (fun seed ->
         Seed_report.attempt ~test:"root publish crash" ~seed
           ~repro:
             (Printf.sprintf
                "dune exec test/test_main.exe -- test core  # seed %d" seed)
         @@ fun () ->
         with_sim (fun p _ ->
             let r = Rng.create seed in
             let pm = pmem p 8192 in
             let state_n n = { some_state with last_applied_lsn = n } in
             let root = Root.init pm ~off:0 (state_n 0) in
             let published = ref [ 0 ] in
             for n = 1 to 1 + Rng.int r 6 do
               Root.publish root (state_n n);
               published := n :: !published
             done;
             (* One more publish interrupted by a crash: tamper mid-way by
                crashing immediately after a bank write would require
                internal access; instead crash with random line loss right
                after a full publish — the selector line may or may not
                have made it... it is persisted, so the last state holds. *)
             Pmem.crash pm (Pmem.Random (Rng.split r));
             let got = (Root.read (Root.attach pm ~off:0)).Root.last_applied_lsn in
             List.mem got !published)))

let suite =
  [
    ("logrec roundtrip", `Quick, test_logrec_roundtrip);
    ("logrec roundtrip padded", `Quick, test_logrec_roundtrip_padded);
    ("logrec compact (32B + name)", `Quick, test_logrec_compact);
    ("logrec multislot", `Quick, test_logrec_multislot);
    ("logrec bad tag", `Quick, test_logrec_bad_tag);
    ("logrec truncated", `Quick, test_logrec_truncated);
    prop_logrec_roundtrip;
    prop_logrec_sizing;
    prop_put_max_slots;
    ("oplog append+scan", `Quick, test_oplog_append_scan);
    ("oplog multislot records", `Quick, test_oplog_multislot_records);
    ("oplog reserve exhaustion", `Quick, test_oplog_reserve_exhaustion);
    ("oplog reset clears", `Quick, test_oplog_reset_clears);
    ("oplog stale epoch invalid", `Quick, test_oplog_stale_epoch_invalid);
    ("oplog torn LSN invalid", `Quick, test_oplog_torn_lsn_invalid);
    ("oplog torn multislot doesn't hide later", `Quick,
     test_oplog_torn_multislot_does_not_hide_later);
    ("oplog forged interior slot rejected", `Quick, test_oplog_interior_collision_rejected);
    ("oplog commit persists", `Quick, test_oplog_commit_persists);
    ("oplog uncommitted after crash", `Quick, test_oplog_uncommitted_after_crash);
    ("oplog recover_tail", `Quick, test_oplog_recover_tail);
    ("oplog persist-call accounting", `Quick, test_oplog_persist_call_accounting);
    ("oplog flush_batch durable", `Quick, test_oplog_flush_batch_durable);
    prop_oplog_random_crash_valid_prefix;
    ("root init/read", `Quick, test_root_init_read);
    ("root attach uninitialized", `Quick, test_root_attach_uninitialized);
    ("root publish atomic", `Quick, test_root_publish_atomic);
    ("root crash after publish", `Quick, test_root_crash_between_publishes);
    prop_root_publish_crash;
  ]
