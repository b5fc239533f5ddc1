open Dstore_util

exception Out_of_space

let magic = 0x44535052434B5354 (* "DSPRCKST" *)

let header_bytes = 4096

let root_slots = 16

(* Size classes: powers of two from 2^4 (16 B) to 2^20 (1 MB). *)
let min_class = 4

let max_class = 20

let n_classes = max_class - min_class + 1

(* Header field offsets. *)
let off_magic = 0

let off_size = 8

let off_used = 16

let off_heap_base = 24

let off_roots = 32 (* 16 slots *)

let off_free_lists = off_roots + (8 * root_slots) (* 17 heads *)

let header_end = off_free_lists + (8 * n_classes)

let () = assert (header_end <= header_bytes)

type t = { mem : Mem.t; guard : Mutex.t; mutable sealed : bool }

let class_of n =
  assert (n > 0);
  let c = max min_class (Base_bits.log2_ceil n) in
  if c > max_class then invalid_arg (Printf.sprintf "Space.alloc: %d exceeds max block (%d)" n (1 lsl max_class));
  c

let class_size n = 1 lsl (class_of n)

let align16 n = (n + 15) land lnot 15

let format mem =
  let t = { mem; guard = Mutex.create (); sealed = false } in
  mem.Mem.set_u64 off_magic magic;
  mem.Mem.set_u64 off_size mem.Mem.size;
  mem.Mem.set_u64 off_used header_bytes;
  mem.Mem.set_u64 off_heap_base header_bytes;
  for i = 0 to root_slots - 1 do
    mem.Mem.set_u64 (off_roots + (8 * i)) 0
  done;
  for c = 0 to n_classes - 1 do
    mem.Mem.set_u64 (off_free_lists + (8 * c)) 0
  done;
  t

let attach mem =
  if Mem.get_u64 mem off_magic <> magic then
    invalid_arg "Space.attach: bad magic (not a formatted space)";
  { mem; guard = Mutex.create (); sealed = true }

let mem t = t.mem

let used t = Mem.get_u64 t.mem off_used

let set_used t v = t.mem.Mem.set_u64 off_used v

let used_bytes = used

let size t = t.mem.Mem.size

let reserve t n =
  Mutex.lock t.guard;
  if t.sealed then begin
    Mutex.unlock t.guard;
    invalid_arg "Space.reserve: space already sealed (alloc happened or attached)"
  end;
  let n = align16 n in
  let off = used t in
  if off + n > t.mem.Mem.size then begin
    Mutex.unlock t.guard;
    raise Out_of_space
  end;
  set_used t (off + n);
  t.mem.Mem.set_u64 off_heap_base (off + n);
  Mutex.unlock t.guard;
  off

let head_off c = off_free_lists + (8 * (c - min_class))

let alloc t n =
  let c = class_of n in
  let csize = 1 lsl c in
  Mutex.lock t.guard;
  t.sealed <- true;
  let result =
    let head = Mem.get_u64 t.mem (head_off c) in
    if head <> 0 then begin
      (* Pop: the free block's first word is the next pointer. *)
      let next = Mem.get_u64 t.mem head in
      t.mem.Mem.set_u64 (head_off c) next;
      Ok head
    end
    else begin
      let off = used t in
      if off + csize > t.mem.Mem.size then Error ()
      else begin
        set_used t (off + csize);
        Ok off
      end
    end
  in
  Mutex.unlock t.guard;
  match result with Ok off -> off | Error () -> raise Out_of_space

let free t off n =
  let c = class_of n in
  assert (off >= Mem.get_u64 t.mem off_heap_base && off < used t);
  Mutex.lock t.guard;
  let head = Mem.get_u64 t.mem (head_off c) in
  t.mem.Mem.set_u64 off head;
  t.mem.Mem.set_u64 (head_off c) off;
  Mutex.unlock t.guard

let get_root t slot =
  assert (slot >= 0 && slot < root_slots);
  Mem.get_u64 t.mem (off_roots + (8 * slot))

let set_root t slot v =
  assert (slot >= 0 && slot < root_slots);
  t.mem.Mem.set_u64 (off_roots + (8 * slot)) v

let persist_used t = t.mem.Mem.persist 0 (used t)

let copy_into src dst_mem =
  let n = used src in
  if n > dst_mem.Mem.size then raise Out_of_space;
  Mem.copy_range ~src:src.mem ~dst:dst_mem ~off:0 ~len:n;
  attach dst_mem

(* Incremental variant of [copy_into] for ping-pong checkpoint targets.
   Precondition (the delta invariant): [dst] is a formatted space that was
   byte-identical to [src] up to [dst]'s recorded used prefix, except for
   the pages [is_dirty] selects. Copies those pages plus every page
   intersecting the grown part of the prefix [dst.used, src.used) — the
   latter unconditionally, because bytes above [dst]'s old high-water mark
   were never cloned and hold unrelated garbage. The result is
   byte-identical to a full [copy_into] over the whole used prefix. *)
let copy_delta src dst_mem ~page_bytes ~is_dirty ~on_page =
  if Mem.get_u64 dst_mem off_magic <> magic then
    invalid_arg "Space.copy_delta: target is not a formatted space";
  let old_used = Mem.get_u64 dst_mem off_used in
  let new_used = used src in
  if new_used > dst_mem.Mem.size then raise Out_of_space;
  if old_used < header_bytes || old_used > new_used then
    invalid_arg "Space.copy_delta: target used prefix out of range";
  let growth_from = old_used / page_bytes in
  let grown = new_used > old_used in
  let select p =
    let d = is_dirty p || (grown && p >= growth_from) in
    if d then on_page p;
    d
  in
  let n =
    Mem.copy_pages ~src:src.mem ~dst:dst_mem ~page_bytes ~is_dirty:select
      ~limit:new_used
  in
  (attach dst_mem, n)

let free_list_bytes t =
  Mutex.lock t.guard;
  let total = ref 0 in
  for c = min_class to max_class do
    let csize = 1 lsl c in
    let p = ref (Mem.get_u64 t.mem (head_off c)) in
    while !p <> 0 do
      total := !total + csize;
      p := Mem.get_u64 t.mem !p
    done
  done;
  Mutex.unlock t.guard;
  !total

(* Structural self-check. Unlike free_list_bytes this walk is bounded and
   cycle-safe, so it terminates on arbitrarily corrupted bytes. *)
let fsck t =
  let bad = ref [] in
  let err fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  let m = Mem.get_u64 t.mem off_magic in
  if m <> magic then err "space: bad magic %#x" m;
  let size = Mem.get_u64 t.mem off_size in
  if size <> t.mem.Mem.size then
    err "space: header size %d <> region size %d" size t.mem.Mem.size;
  let used = Mem.get_u64 t.mem off_used in
  let heap_base = Mem.get_u64 t.mem off_heap_base in
  if not (header_bytes <= heap_base && heap_base <= used && used <= t.mem.Mem.size)
  then
    err "space: bounds violated (header=%d heap_base=%d used=%d size=%d)"
      header_bytes heap_base used t.mem.Mem.size;
  (* Every free-list node must lie inside the heap, be 16-aligned, and the
     lists must be acyclic. Bound the walk by the worst-case node count. *)
  let max_nodes = ((t.mem.Mem.size - header_bytes) / 16) + 1 in
  for c = min_class to max_class do
    let seen = Hashtbl.create 16 in
    let p = ref (Mem.get_u64 t.mem (head_off c)) in
    let steps = ref 0 in
    let stop = ref false in
    while !p <> 0 && not !stop do
      incr steps;
      if !steps > max_nodes then begin
        err "space: free list class %d longer than heap capacity" c;
        stop := true
      end
      else if Hashtbl.mem seen !p then begin
        err "space: free list class %d has a cycle at %d" c !p;
        stop := true
      end
      else if !p < heap_base || !p >= used || !p land 15 <> 0 then begin
        err "space: free list class %d node %d outside heap [%d,%d) or unaligned"
          c !p heap_base used;
        stop := true
      end
      else begin
        Hashtbl.add seen !p ();
        p := Mem.get_u64 t.mem !p
      end
    done
  done;
  List.rev !bad
