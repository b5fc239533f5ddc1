(* Tests for the PMEM device model: accessors, flush semantics, crash
   injection, cost accounting. *)

open Dstore_platform
open Dstore_pmem
open Dstore_util

let check = Alcotest.check

let small_config =
  { Pmem.default_config with size = 64 * 1024; crash_model = true }

(* Run [f pmem platform] inside a sim process so consume works. *)
let with_pmem ?(cfg = small_config) f =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let pm = Pmem.create p cfg in
  let result = ref None in
  Sim.spawn sim "test" (fun () -> result := Some (f pm p sim));
  Sim.run sim;
  Option.get !result

let test_rw_roundtrip () =
  with_pmem (fun pm _ _ ->
      Pmem.set_u8 pm 0 0xAB;
      Pmem.set_u16 pm 2 0xCDEF;
      Pmem.set_u32 pm 4 0xDEADBEEF;
      Pmem.set_u64 pm 8 0x123456789ABCDEF;
      check Alcotest.int "u8" 0xAB (Pmem.get_u8 pm 0);
      check Alcotest.int "u16" 0xCDEF (Pmem.get_u16 pm 2);
      check Alcotest.int "u32" 0xDEADBEEF (Pmem.get_u32 pm 4);
      check Alcotest.int "u64" 0x123456789ABCDEF (Pmem.get_u64 pm 8))

let test_blit_roundtrip () =
  with_pmem (fun pm _ _ ->
      let src = Bytes.of_string "persistent memory payload" in
      Pmem.blit_from_bytes pm src ~src:0 ~dst:100 ~len:(Bytes.length src);
      let dst = Bytes.create (Bytes.length src) in
      Pmem.blit_to_bytes pm ~src:100 dst ~dst:0 ~len:(Bytes.length src);
      check Alcotest.bytes "roundtrip" src dst)

let test_bounds_checked () =
  with_pmem (fun pm _ _ ->
      Alcotest.check_raises "oob" (Invalid_argument "Pmem: access [65536,+8) outside device of 65536 bytes")
        (fun () -> ignore (Pmem.get_u64 pm (64 * 1024))))

let test_dirty_tracking () =
  with_pmem (fun pm _ _ ->
      check Alcotest.int "clean initially" 0 (Pmem.dirty_lines pm);
      Pmem.set_u64 pm 0 1;
      Pmem.set_u64 pm 8 2;
      check Alcotest.int "one line dirty" 1 (Pmem.dirty_lines pm);
      Pmem.set_u64 pm 64 3;
      check Alcotest.int "two lines dirty" 2 (Pmem.dirty_lines pm);
      Pmem.persist pm 0 72;
      check Alcotest.int "clean after persist" 0 (Pmem.dirty_lines pm))

let test_crash_drop_reverts_unflushed () =
  with_pmem (fun pm _ _ ->
      Pmem.set_u64 pm 0 42;
      Pmem.persist pm 0 8;
      Pmem.set_u64 pm 0 99;
      (* dirty again, not flushed *)
      Pmem.crash pm Pmem.Drop_all;
      check Alcotest.int "reverted to persisted value" 42 (Pmem.get_u64 pm 0))

let test_crash_keep_retains () =
  with_pmem (fun pm _ _ ->
      Pmem.set_u64 pm 0 42;
      Pmem.persist pm 0 8;
      Pmem.set_u64 pm 0 99;
      Pmem.crash pm Pmem.Keep_all;
      check Alcotest.int "eviction persisted it" 99 (Pmem.get_u64 pm 0))

let test_crash_never_undoes_flushed () =
  with_pmem (fun pm _ _ ->
      for i = 0 to 63 do
        Pmem.set_u64 pm (i * 8) (i + 1)
      done;
      Pmem.persist pm 0 512;
      Pmem.crash pm Pmem.Drop_all;
      for i = 0 to 63 do
        check Alcotest.int "flushed survives" (i + 1) (Pmem.get_u64 pm (i * 8))
      done)

let test_crash_word_granularity () =
  (* A random crash can tear a line at 8-byte boundaries, but each 8-byte
     word must hold either the old or the new value, never garbage. *)
  with_pmem (fun pm _ _ ->
      for i = 0 to 7 do
        Pmem.set_u64 pm (i * 8) 1000
      done;
      Pmem.persist pm 0 64;
      for i = 0 to 7 do
        Pmem.set_u64 pm (i * 8) 2000
      done;
      Pmem.crash pm (Pmem.Random (Rng.create 5));
      for i = 0 to 7 do
        let v = Pmem.get_u64 pm (i * 8) in
        Alcotest.(check bool) "old or new" true (v = 1000 || v = 2000)
      done)

let prop_crash_random_tears_at_words =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random crash leaves old-or-new per word" ~count:50
       QCheck.(int_range 0 10_000)
       (fun seed ->
         with_pmem (fun pm _ _ ->
             let r = Rng.create seed in
             (* Persist a base pattern, overwrite some of it unflushed,
                crash, and verify word-level old-or-new. *)
             for w = 0 to 127 do
               Pmem.set_u64 pm (w * 8) w
             done;
             Pmem.persist pm 0 1024;
             let touched = Array.make 128 false in
             for _ = 0 to 63 do
               let w = Rng.int r 128 in
               touched.(w) <- true;
               Pmem.set_u64 pm (w * 8) (w + 100_000)
             done;
             Pmem.crash pm (Pmem.Random (Rng.split r));
             let ok = ref true in
             for w = 0 to 127 do
               let v = Pmem.get_u64 pm (w * 8) in
               let valid = if touched.(w) then v = w || v = w + 100_000 else v = w in
               if not valid then ok := false
             done;
             !ok)))

let test_flush_cost_model () =
  with_pmem (fun pm p sim ->
      let t0 = Sim.now sim in
      Pmem.persist pm 0 8;
      (* one line: flush_ns + fence_ns = 100 + 200 *)
      check Alcotest.int "single-line persist cost" 300 (Sim.now sim - t0);
      ignore p)

let test_flush_cost_pipelines () =
  with_pmem (fun pm _ sim ->
      let t0 = Sim.now sim in
      Pmem.persist pm 0 (64 * 1024);
      let dt = Sim.now sim - t0 in
      (* 1024 lines: 100 + 1023*64/10 + 200 ≈ 6847; far below 1024 serial
         flushes. *)
      Alcotest.(check bool) "pipelined" true (dt < 10_000);
      Alcotest.(check bool) "nonzero" true (dt > 1_000))

let test_stats_counters () =
  with_pmem (fun pm _ _ ->
      let st = Pmem.stats pm in
      Pmem.set_u64 pm 0 1;
      check Alcotest.int "bytes written" 8 st.Pmem.bytes_written;
      Pmem.persist pm 0 8;
      check Alcotest.int "flush calls" 1 st.Pmem.flush_calls;
      check Alcotest.int "fence calls" 1 st.Pmem.fence_calls;
      check Alcotest.int "bytes flushed (line)" 64 st.Pmem.bytes_flushed;
      Pmem.bulk_read_cost pm 4096;
      check Alcotest.int "bulk read" 4096 st.Pmem.bytes_read_bulk)

let test_crash_model_off_rejects_crash () =
  let cfg = { small_config with crash_model = false } in
  with_pmem ~cfg (fun pm _ _ ->
      Pmem.set_u64 pm 0 7;
      Alcotest.check_raises "crash rejected"
        (Invalid_argument "Pmem.crash: device created with crash_model = false")
        (fun () -> Pmem.crash pm Pmem.Drop_all))

let test_fill () =
  with_pmem (fun pm _ _ ->
      Pmem.fill pm 128 256 0xEE;
      check Alcotest.int "filled" 0xEE (Pmem.get_u8 pm 300);
      check Alcotest.int "outside untouched" 0 (Pmem.get_u8 pm 127))

let test_blit_within () =
  with_pmem (fun pm _ _ ->
      let src = Bytes.of_string "0123456789" in
      Pmem.blit_from_bytes pm src ~src:0 ~dst:0 ~len:10;
      Pmem.blit_within pm ~src:0 ~dst:1000 ~len:10;
      let dst = Bytes.create 10 in
      Pmem.blit_to_bytes pm ~src:1000 dst ~dst:0 ~len:10;
      check Alcotest.bytes "copied" src dst)

(* A segmented bulk transfer under [with_bulk] must account as ONE
   in-flight transfer for its whole duration: the domain's active count
   stays at 1 across the segments instead of bouncing per call. *)
let test_with_bulk_single_registration () =
  let sim = Sim.create () in
  let p = Sim_platform.make sim in
  let bw = Pmem.Bw.create () in
  let mk () =
    Pmem.create p { small_config with share = Some bw }
  in
  let pm = mk () and other = mk () in
  Sim.spawn sim "test" (fun () ->
      check Alcotest.int "idle domain" 0 (Pmem.Bw.active bw);
      let r =
        Pmem.with_bulk pm (fun () ->
            check Alcotest.int "registered once" 1 (Pmem.Bw.active bw);
            Pmem.bulk_read_cost pm 4096;
            Pmem.bulk_read_cost pm 4096;
            check Alcotest.int "segments do not re-register" 1
              (Pmem.Bw.active bw);
            (* A nested scope is a no-op, not a second registration. *)
            Pmem.with_bulk pm (fun () ->
                check Alcotest.int "reentrant" 1 (Pmem.Bw.active bw));
            (* A concurrent transfer on another device in the domain
               contends with this one. *)
            Pmem.with_bulk other (fun () ->
                check Alcotest.int "second device adds" 2 (Pmem.Bw.active bw));
            17)
      in
      check Alcotest.int "result passes through" 17 r;
      check Alcotest.int "deregistered" 0 (Pmem.Bw.active bw);
      check Alcotest.int "peak recorded" 2 (Pmem.Bw.peak bw);
      (* Crash-abort safety: an exception still deregisters. *)
      (try Pmem.with_bulk pm (fun () -> failwith "boom") with _ -> ());
      check Alcotest.int "deregistered after raise" 0 (Pmem.Bw.active bw));
  Sim.run sim

(* with_bulk charges segments at the contended per-byte rate instead of
   re-paying the registration overhead per segment: total time for N
   segments inside one scope is the same as one transfer of N times the
   size. *)
let test_with_bulk_cost_linear () =
  let elapsed segs bytes =
    let sim = Sim.create () in
    let p = Sim_platform.make sim in
    let bw = Pmem.Bw.create () in
    let pm = Pmem.create p { small_config with share = Some bw } in
    let t = ref 0 in
    Sim.spawn sim "test" (fun () ->
        let t0 = p.Platform.now () in
        Pmem.with_bulk pm (fun () ->
            for _ = 1 to segs do
              Pmem.bulk_read_cost pm bytes
            done);
        t := p.Platform.now () - t0);
    Sim.run sim;
    !t
  in
  (* Segment sizes divisible by read_bw so per-call rounding cancels. *)
  check Alcotest.int "4 segments cost the same as one 4x transfer"
    (elapsed 1 19200) (elapsed 4 4800)

(* --- undo slot table ---------------------------------------------------- *)

let big_config = { small_config with size = 1024 * 1024 }

let test_undo_first_write_after_flush () =
  with_pmem (fun pm _ _ ->
      Pmem.set_u64 pm 0 1;
      Pmem.set_u64 pm 0 2;
      Pmem.set_u64 pm 8 3;
      Pmem.crash pm Pmem.Drop_all;
      check Alcotest.int "image predates the first write" 0 (Pmem.get_u64 pm 0);
      check Alcotest.int "same line, same image" 0 (Pmem.get_u64 pm 8);
      Pmem.set_u64 pm 0 10;
      Pmem.persist pm 0 8;
      Pmem.set_u64 pm 0 11;
      Pmem.set_u64 pm 0 12;
      Pmem.crash pm Pmem.Drop_all;
      check Alcotest.int "image retaken after flush" 10 (Pmem.get_u64 pm 0))

let test_undo_dirty_count () =
  with_pmem ~cfg:big_config (fun pm _ _ ->
      Pmem.fill pm 60 200 7;
      (* bytes 60..259 touch lines 0..4 *)
      check Alcotest.int "fill spans five lines" 5 (Pmem.dirty_lines pm);
      Pmem.set_u8 pm 70 1;
      Pmem.blit_from_bytes pm (Bytes.make 64 'x') ~src:0 ~dst:320 ~len:64;
      check Alcotest.int "rewrites of dirty lines count once" 6 (Pmem.dirty_lines pm);
      Pmem.flush pm 64 64;
      check Alcotest.int "flush of one line" 5 (Pmem.dirty_lines pm);
      Pmem.flush pm 4096 4096;
      check Alcotest.int "flush of clean lines" 5 (Pmem.dirty_lines pm);
      Pmem.flush pm 0 1024;
      check Alcotest.int "all clean" 0 (Pmem.dirty_lines pm))

let test_undo_slot_reuse () =
  with_pmem ~cfg:big_config (fun pm _ _ ->
      (* Line 0 stays dirty throughout, so the pool never resets; lines
         1..1000 are flushed with a new durable value and re-dirtied, ten
         times over. Their slots must be reused (one chunk holds the whole
         working set) and every image must stay exact. *)
      Pmem.set_u64 pm 0 99;
      for round = 1 to 10 do
        for l = 1 to 1000 do
          Pmem.set_u64 pm (l * 64) (round * 10_000 + l)
        done;
        Pmem.flush pm 64 (1000 * 64);
        for l = 1 to 1000 do
          Pmem.set_u64 pm (l * 64) (-1)
        done;
        check Alcotest.int "working set dirty" 1001 (Pmem.dirty_lines pm);
        check Alcotest.int "one chunk reused" 65536 (Pmem.undo_pool_bytes pm)
      done;
      Pmem.crash pm Pmem.Drop_all;
      check Alcotest.int "pinned line reverted" 0 (Pmem.get_u64 pm 0);
      for l = 1 to 1000 do
        if Pmem.get_u64 pm (l * 64) <> (10 * 10_000) + l then
          Alcotest.failf "line %d: reused slot lost its image" l
      done;
      check Alcotest.int "clean after crash" 0 (Pmem.dirty_lines pm))

let test_undo_random_crash_deterministic () =
  (* The same dirty set, dirtied in opposite orders (so the lines land in
     different slots), crashed at one seed: byte-identical devices. *)
  let run order =
    with_pmem ~cfg:big_config (fun pm _ _ ->
        let r = Rng.create 5 in
        for l = 0 to 4095 do
          Pmem.set_u64 pm (l * 64) (Rng.int r 1_000_000)
        done;
        Pmem.persist pm 0 (4096 * 64);
        let lines = List.init 3000 (fun i -> (i * 7919) mod 16384) in
        List.iter
          (fun l -> Pmem.fill pm (l * 64) 64 (l land 0xff))
          (if order then lines else List.rev lines);
        Pmem.crash pm (Pmem.Random (Rng.create 42));
        let b = Bytes.create (Pmem.size pm) in
        Pmem.blit_to_bytes pm ~src:0 b ~dst:0 ~len:(Pmem.size pm);
        b)
  in
  Alcotest.(check bool) "identical after Random crash" true (Bytes.equal (run true) (run false))

let test_undo_pool_bounded () =
  (* The pool keeps its high-water mark: a burst of 20 001 dirty lines
     needs 20 chunks, and no later cycle — burst or steady dirty/flush
     traffic — allocates another. *)
  let burst_pool = 20 * 65536 in
  with_pmem ~cfg:{ small_config with size = 4 * 1024 * 1024 } (fun pm _ _ ->
      let r = Rng.create 11 in
      let max_pool = ref 0 in
      Pmem.set_u64 pm 0 1;
      for cycle = 1 to 10_000 do
        if cycle mod 1000 = 0 then begin
          (* A checkpoint-sized burst, then the device goes clean. *)
          Pmem.fill pm 64 (20_000 * 64) cycle;
          check Alcotest.int "burst grows the pool" burst_pool
            (Pmem.undo_pool_bytes pm);
          Pmem.persist pm 0 (20_001 * 64);
          check Alcotest.int "clean device" 0 (Pmem.dirty_lines pm);
          check Alcotest.int "kept when clean" burst_pool (Pmem.undo_pool_bytes pm);
          Pmem.set_u64 pm 0 cycle
        end
        else begin
          let k = 1 + Rng.int r 64 in
          let first = 1 + Rng.int r 60_000 in
          Pmem.fill pm (first * 64) (k * 64) cycle;
          Pmem.flush pm (first * 64) (k * 64);
          if cycle < 1000 then max_pool := max !max_pool (Pmem.undo_pool_bytes pm)
          else if Pmem.undo_pool_bytes pm <> burst_pool then
            Alcotest.failf "cycle %d: pool %d bytes" cycle (Pmem.undo_pool_bytes pm)
        end
      done;
      check Alcotest.int "steady state before any burst fits one chunk" 65536 !max_pool)

(* --- stores into lines that already hold an undo image --- *)

let test_dirty_rewrite_rolls_back () =
  with_pmem (fun pm _ _ ->
      let line = Bytes.init 64 (fun i -> Char.chr (i + 1)) in
      Pmem.blit_from_bytes pm line ~src:0 ~dst:128 ~len:64;
      Pmem.persist pm 128 64;
      Pmem.blit_from_bytes pm (Bytes.make 64 'a') ~src:0 ~dst:128 ~len:64;
      (* Every line of these already holds an image: nothing to capture. *)
      Pmem.blit_from_bytes pm (Bytes.make 64 'b') ~src:0 ~dst:128 ~len:64;
      Pmem.set_u64 pm 136 7;
      check Alcotest.int "one dirty line" 1 (Pmem.dirty_lines pm);
      Pmem.crash pm Pmem.Drop_all;
      let got = Bytes.create 64 in
      Pmem.blit_to_bytes pm ~src:128 got ~dst:0 ~len:64;
      check Alcotest.bytes "pre-first-write bytes" line got)

let test_straddle_dirty_and_clean () =
  with_pmem (fun pm _ _ ->
      Pmem.fill pm 0 512 0x11;
      Pmem.persist pm 0 512;
      (* Line 0 dirty, then a store over lines 0..1; line 3 dirty, then a
         store over lines 2..3: the clean line of each pair is captured. *)
      Pmem.set_u64 pm 0 1;
      Pmem.fill pm 32 64 0x22;
      Pmem.set_u64 pm 192 1;
      Pmem.fill pm 160 64 0x33;
      check Alcotest.int "four dirty lines" 4 (Pmem.dirty_lines pm);
      Pmem.crash pm Pmem.Drop_all;
      for i = 0 to 255 do
        if Pmem.get_u8 pm i <> 0x11 then Alcotest.failf "byte %d not rolled back" i
      done)

(* Random stores (many into lines already dirty) and flushes against a
   model of what the undo table must hold: the dirty-line set, the pool
   size (chunks of 1024 images, kept at the high-water mark of dirty
   lines) and, after a [Drop_all] crash, the last flushed bytes. *)
let test_dirty_fast_path_model () =
  with_pmem ~cfg:big_config (fun pm _ _ ->
      let size = Pmem.size pm and lines = Pmem.size pm / 64 in
      let durable = Bytes.make size '\000' in
      let dirty = Array.make lines false in
      let ndirty = ref 0 and high = ref 0 in
      let r = Rng.create 3 in
      for step = 1 to 4000 do
        let first = Rng.int r 2000 in
        let len = 1 + Rng.int r (if Rng.int r 4 = 0 then 4096 else 100) in
        let off = (first * 64) + Rng.int r 64 in
        if Rng.int r 5 = 0 then begin
          Pmem.flush pm off len;
          for l = off / 64 to (off + len - 1) / 64 do
            Bytes.blit (Pmem.unsafe_data pm) (l * 64) durable (l * 64) 64;
            if dirty.(l) then decr ndirty;
            dirty.(l) <- false
          done
        end
        else begin
          Pmem.fill pm off len (step land 0xff);
          for l = off / 64 to (off + len - 1) / 64 do
            if not dirty.(l) then incr ndirty;
            dirty.(l) <- true
          done;
          high := max !high !ndirty
        end;
        if Pmem.dirty_lines pm <> !ndirty then
          Alcotest.failf "step %d: %d dirty lines, model %d" step (Pmem.dirty_lines pm) !ndirty;
        let pool = (!high + 1023) / 1024 * 65536 in
        if Pmem.undo_pool_bytes pm <> pool then
          Alcotest.failf "step %d: pool %d bytes, model %d" step (Pmem.undo_pool_bytes pm) pool
      done;
      Pmem.crash pm Pmem.Drop_all;
      Alcotest.(check bool) "device = last flushed bytes" true
        (Bytes.equal durable (Pmem.unsafe_data pm)))

let suite =
  [
    ("read/write roundtrip", `Quick, test_rw_roundtrip);
    ("blit roundtrip", `Quick, test_blit_roundtrip);
    ("bounds checked", `Quick, test_bounds_checked);
    ("dirty-line tracking", `Quick, test_dirty_tracking);
    ("crash drops unflushed", `Quick, test_crash_drop_reverts_unflushed);
    ("crash may keep evicted", `Quick, test_crash_keep_retains);
    ("crash never undoes flushed", `Quick, test_crash_never_undoes_flushed);
    ("crash tears at 8B words", `Quick, test_crash_word_granularity);
    prop_crash_random_tears_at_words;
    ("flush cost model", `Quick, test_flush_cost_model);
    ("flush cost pipelines", `Quick, test_flush_cost_pipelines);
    ("stats counters", `Quick, test_stats_counters);
    ("crash_model off rejects crash", `Quick, test_crash_model_off_rejects_crash);
    ("fill", `Quick, test_fill);
    ("blit within", `Quick, test_blit_within);
    ("with_bulk single registration", `Quick, test_with_bulk_single_registration);
    ("with_bulk segment cost linear", `Quick, test_with_bulk_cost_linear);
    ("undo: image taken at first write after flush", `Quick,
     test_undo_first_write_after_flush);
    ("undo: dirty_lines counts lines", `Quick, test_undo_dirty_count);
    ("undo: slots reused across flush and re-dirty", `Quick, test_undo_slot_reuse);
    ("undo: Random crash deterministic per seed", `Quick,
     test_undo_random_crash_deterministic);
    ("undo: pool bounded over 10^4 cycles", `Quick, test_undo_pool_bounded);
    ("undo: dirty line rewritten rolls back to its first image", `Quick,
      test_dirty_rewrite_rolls_back);
    ("undo: store straddling dirty and clean lines", `Quick,
      test_straddle_dirty_and_clean);
    ("undo: dirty set and pool match the model", `Quick, test_dirty_fast_path_model);
  ]
