open Dstore_memory

(* Entry layout (64 bytes):
     0  state      u8  (0 free, 1 live)
     2  nextents   u16
     8  size       u64
    16  spill      u64 (space offset of extra extents array, 0 = none)
    24  extents    5 * {start u32, len u32}
   Spill array: (nextents - 5) * {start u32, len u32}. *)

type extent = { start : int; len : int }

let entry_bytes = 64

let inline_extents = 5

type t = { space : Space.t; off : int; count : int }

let bytes_needed count = count * entry_bytes

let mem t = Space.mem t.space

let entry t id =
  assert (id >= 0 && id < t.count);
  t.off + (id * entry_bytes)

let format space ~off ~count =
  let t = { space; off; count } in
  (Space.mem space).Mem.fill off (count * entry_bytes) 0;
  t

let attach space ~off ~count = { space; off; count }

let count t = t.count

let is_live t id = Mem.get_u8 (mem t) (entry t id) = 1

let nextents t id = Mem.get_u16 (mem t) (entry t id + 2)

let spill_bytes n = (n - inline_extents) * 8

let write_extent_at m off e =
  m.Mem.set_u32 off e.start;
  m.Mem.set_u32 (off + 4) e.len

let read_extent_at m off =
  { start = Mem.get_u32 m off; len = Mem.get_u32 m (off + 4) }

let write_object t id ~size extents =
  let e = entry t id in
  let m = mem t in
  (* Entries are reclaimed lazily: a slot whose id was released and then
     reallocated may still hold its previous life's contents (including a
     spill array), which we reclaim here. This keeps entry-slot reuse safe
     under parallel checkpoint replay — see DESIGN.md. *)
  if is_live t id then begin
    let old_n = nextents t id in
    let old_spill = Mem.get_u64 m (e + 16) in
    if old_spill <> 0 then Space.free t.space old_spill (spill_bytes old_n)
  end;
  let n = List.length extents in
  m.Mem.set_u8 e 1;
  m.Mem.set_u16 (e + 2) n;
  m.Mem.set_u64 (e + 8) size;
  let spill =
    if n > inline_extents then Space.alloc t.space (spill_bytes n) else 0
  in
  m.Mem.set_u64 (e + 16) spill;
  List.iteri
    (fun i ext ->
      if i < inline_extents then write_extent_at m (e + 24 + (i * 8)) ext
      else write_extent_at m (spill + ((i - inline_extents) * 8)) ext)
    extents

let read_object t id =
  let e = entry t id in
  let m = mem t in
  assert (is_live t id);
  let n = nextents t id in
  let spill = Mem.get_u64 m (e + 16) in
  let read i =
    if i < inline_extents then read_extent_at m (e + 24 + (i * 8))
    else read_extent_at m (spill + ((i - inline_extents) * 8))
  in
  (Mem.get_u64 m (e + 8), List.init n read)

let set_size t id size =
  assert (is_live t id);
  (mem t).Mem.set_u64 (entry t id + 8) size

let append_extents t id extra =
  let size, existing = read_object t id in
  let e = entry t id in
  let m = mem t in
  let old_n = List.length existing in
  let all = existing @ extra in
  let n = List.length all in
  if n > inline_extents then begin
    (* Reallocate the spill array if it grows (size classes may absorb it,
       but re-writing unconditionally keeps this simple and correct). *)
    let old_spill = Mem.get_u64 m (e + 16) in
    if old_spill <> 0 then Space.free t.space old_spill (spill_bytes old_n);
    let spill = Space.alloc t.space (spill_bytes n) in
    m.Mem.set_u64 (e + 16) spill
  end;
  m.Mem.set_u16 (e + 2) n;
  m.Mem.set_u64 (e + 8) size;
  let spill = Mem.get_u64 m (e + 16) in
  List.iteri
    (fun i ext ->
      if i < inline_extents then write_extent_at m (e + 24 + (i * 8)) ext
      else write_extent_at m (spill + ((i - inline_extents) * 8)) ext)
    all

let free_object t id =
  let e = entry t id in
  let m = mem t in
  assert (is_live t id);
  let n = nextents t id in
  let spill = Mem.get_u64 m (e + 16) in
  if spill <> 0 then Space.free t.space spill (spill_bytes n);
  m.Mem.fill e entry_bytes 0

let blocks_of extents = List.fold_left (fun acc e -> acc + e.len) 0 extents
