module Pmem = Dstore_pmem.Pmem

type t = {
  size : int;
  raw : Bytes.t;
  raw_off : int;
  set_u8 : int -> int -> unit;
  set_u16 : int -> int -> unit;
  set_u32 : int -> int -> unit;
  set_u64 : int -> int -> unit;
  blit_from_bytes : Bytes.t -> src:int -> dst:int -> len:int -> unit;
  blit_within : src:int -> dst:int -> len:int -> unit;
  fill : int -> int -> int -> unit;
  persist : int -> int -> unit;
  is_persistent : bool;
}

let bounds size off len =
  if off < 0 || len < 0 || off + len > size then
    invalid_arg (Printf.sprintf "Mem: access [%d,+%d) outside arena of %d" off len size)

let of_bytes b =
  let size = Bytes.length b in
  let chk off len = bounds size off len in
  {
    size;
    raw = b;
    raw_off = 0;
    set_u8 = (fun o v -> chk o 1; Bytes.unsafe_set b o (Char.unsafe_chr (v land 0xff)));
    set_u16 = (fun o v -> chk o 2; Bytes.set_uint16_le b o (v land 0xffff));
    set_u32 = (fun o v -> chk o 4; Bytes.set_int32_le b o (Int32.of_int v));
    set_u64 = (fun o v -> chk o 8; Bytes.set_int64_le b o (Int64.of_int v));
    blit_from_bytes =
      (fun src_b ~src ~dst ~len -> chk dst len; Bytes.blit src_b src b dst len);
    blit_within = (fun ~src ~dst ~len -> chk src len; chk dst len; Bytes.blit b src b dst len);
    fill = (fun off len byte -> chk off len; Bytes.fill b off len (Char.chr (byte land 0xff)));
    persist = (fun off len -> chk off len);
    is_persistent = false;
  }

let dram n = of_bytes (Bytes.make n '\000')

let of_pmem pm ~off ~len =
  bounds (Pmem.size pm) off len;
  let chk o l = bounds len o l in
  {
    size = len;
    raw = Pmem.unsafe_data pm;
    raw_off = off;
    set_u8 = (fun o v -> chk o 1; Pmem.set_u8 pm (off + o) v);
    set_u16 = (fun o v -> chk o 2; Pmem.set_u16 pm (off + o) v);
    set_u32 = (fun o v -> chk o 4; Pmem.set_u32 pm (off + o) v);
    set_u64 = (fun o v -> chk o 8; Pmem.set_u64 pm (off + o) v);
    blit_from_bytes =
      (fun src_b ~src ~dst ~len:l -> chk dst l; Pmem.blit_from_bytes pm src_b ~src ~dst:(off + dst) ~len:l);
    blit_within =
      (fun ~src ~dst ~len:l -> chk src l; chk dst l; Pmem.blit_within pm ~src:(off + src) ~dst:(off + dst) ~len:l);
    fill = (fun o l byte -> chk o l; Pmem.fill pm (off + o) l byte);
    persist = (fun o l -> chk o l; Pmem.persist pm (off + o) l);
    is_persistent = true;
  }

let sub t ~off ~len =
  bounds t.size off len;
  let chk o l = bounds len o l in
  {
    size = len;
    raw = t.raw;
    raw_off = t.raw_off + off;
    set_u8 = (fun o v -> chk o 1; t.set_u8 (off + o) v);
    set_u16 = (fun o v -> chk o 2; t.set_u16 (off + o) v);
    set_u32 = (fun o v -> chk o 4; t.set_u32 (off + o) v);
    set_u64 = (fun o v -> chk o 8; t.set_u64 (off + o) v);
    blit_from_bytes =
      (fun src_b ~src ~dst ~len:l -> chk dst l; t.blit_from_bytes src_b ~src ~dst:(off + dst) ~len:l);
    blit_within =
      (fun ~src ~dst ~len:l -> chk src l; chk dst l; t.blit_within ~src:(off + src) ~dst:(off + dst) ~len:l);
    fill = (fun o l byte -> chk o l; t.fill (off + o) l byte);
    persist = (fun o l -> chk o l; t.persist (off + o) l);
    is_persistent = t.is_persistent;
  }

(* Reads: straight from the backing buffer, one bounds check each. *)
let raw_pos t ~off ~len =
  bounds t.size off len;
  t.raw_off + off

let get_u8 t o =
  bounds t.size o 1;
  Char.code (Bytes.unsafe_get t.raw (t.raw_off + o))

let get_u16 t o =
  bounds t.size o 2;
  Bytes.get_uint16_le t.raw (t.raw_off + o)

let get_u32 t o =
  bounds t.size o 4;
  Int32.to_int (Bytes.get_int32_le t.raw (t.raw_off + o)) land 0xFFFFFFFF

let get_u64 t o =
  bounds t.size o 8;
  Int64.to_int (Bytes.get_int64_le t.raw (t.raw_off + o))

let blit_to_bytes t ~src b ~dst ~len =
  bounds t.size src len;
  Bytes.blit t.raw (t.raw_off + src) b dst len

(* Write-tracking view: every mutating access reports its byte range to
   [note] before being forwarded to [base]. Reads and [persist] pass
   through untouched, so wrapping costs nothing on the read path. *)
let tracked base ~note =
  {
    base with
    set_u8 = (fun o v -> note o 1; base.set_u8 o v);
    set_u16 = (fun o v -> note o 2; base.set_u16 o v);
    set_u32 = (fun o v -> note o 4; base.set_u32 o v);
    set_u64 = (fun o v -> note o 8; base.set_u64 o v);
    blit_from_bytes =
      (fun b ~src ~dst ~len -> note dst len; base.blit_from_bytes b ~src ~dst ~len);
    blit_within =
      (fun ~src ~dst ~len -> note dst len; base.blit_within ~src ~dst ~len);
    fill = (fun off len v -> note off len; base.fill off len v);
  }

(* Compare [len] bytes at [off] with [s], straight from the backing
   buffer: one bounds check, then a plain byte loop. *)
let compare_string t ~off ~len s =
  bounds t.size off len;
  let b = t.raw and base = t.raw_off + off in
  let slen = String.length s in
  let n = if len < slen then len else slen in
  let i = ref 0 in
  while !i < n && Bytes.unsafe_get b (base + !i) = String.unsafe_get s !i do
    incr i
  done;
  if !i < n then
    compare (Char.code (Bytes.unsafe_get b (base + !i))) (Char.code (String.unsafe_get s !i))
  else compare len slen

(* [len] bytes at [off] of [src] into the same offset of [dst], read
   straight from [src]'s backing buffer and written through [dst]'s own
   write path (so write tracking and undo capture still see every byte). *)
let copy_range ~src ~dst ~off ~len =
  bounds src.size off len;
  dst.blit_from_bytes src.raw ~src:(src.raw_off + off) ~dst:off ~len

(* Copy every page [p] with [is_dirty p] from [src] into the same offset of
   [dst], coalescing adjacent dirty pages into single runs. Only pages
   starting below [limit] are candidates; the final run is clipped to the
   arena size. Returns the bytes copied. *)
let copy_pages ~src ~dst ~page_bytes ~is_dirty ~limit =
  if page_bytes <= 0 then invalid_arg "Mem.copy_pages: page_bytes <= 0";
  let limit = min limit (min src.size dst.size) in
  let npages = (limit + page_bytes - 1) / page_bytes in
  let copied = ref 0 in
  let p = ref 0 in
  while !p < npages do
    if is_dirty !p then begin
      let q = ref !p in
      while !q + 1 < npages && is_dirty (!q + 1) do incr q done;
      let off = !p * page_bytes in
      let len = min (((!q + 1) * page_bytes) - off) (src.size - off) in
      copy_range ~src ~dst ~off ~len;
      copied := !copied + len;
      p := !q + 1
    end
    else incr p
  done;
  !copied

let read_string t ~off ~len =
  let b = Bytes.create len in
  blit_to_bytes t ~src:off b ~dst:0 ~len;
  Bytes.unsafe_to_string b

let write_string t ~off s =
  t.blit_from_bytes (Bytes.unsafe_of_string s) ~src:0 ~dst:off ~len:(String.length s)

let equal_range a b ~off ~len =
  let ba = Bytes.create len and bb = Bytes.create len in
  blit_to_bytes a ~src:off ba ~dst:0 ~len;
  blit_to_bytes b ~src:off bb ~dst:0 ~len;
  Bytes.equal ba bb
