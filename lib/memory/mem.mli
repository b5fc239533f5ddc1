(** Uniform byte-addressable arena interface over DRAM and PMEM.

    This is the mechanism behind the paper's central implementation claim
    (§3.5): "since the representations of the DRAM and PMEM data structures
    are the same, the same code can be used for both". Every data structure
    in this codebase (slab allocator, B-tree, bitmap pools, metadata zone)
    is written against [Mem.t] and stores only {e relative} offsets, so the
    identical code runs on the volatile frontend and the persistent shadow
    copies, and a region can be relocated (cloned between PMEM halves,
    copied wholesale into DRAM at recovery) without fixups.

    [persist] is a flush-plus-fence on PMEM-backed arenas and free on DRAM
    ones — which is exactly the cost asymmetry DIPPER exploits. *)

type t = {
  size : int;
  raw : Bytes.t;
      (** Backing buffer (the DRAM bytes or the PMEM device's data). Every
          read goes straight to it; never write it directly. *)
  raw_off : int;  (** Offset of the arena's byte 0 within [raw]. *)
  set_u8 : int -> int -> unit;
  set_u16 : int -> int -> unit;
  set_u32 : int -> int -> unit;
  set_u64 : int -> int -> unit;
  blit_from_bytes : Bytes.t -> src:int -> dst:int -> len:int -> unit;
  blit_within : src:int -> dst:int -> len:int -> unit;
  fill : int -> int -> int -> unit;  (** [fill off len byte] *)
  persist : int -> int -> unit;  (** [persist off len]: no-op on DRAM. *)
  is_persistent : bool;
}
(** Reads are plain functions over [raw] (below); only the write path is a
    set of closures, so views can add write tracking, undo capture or a
    copy-on-write barrier without touching reads. *)

val of_bytes : Bytes.t -> t
(** DRAM arena over a plain byte buffer. Bounds-checked. *)

val dram : int -> t
(** [dram n] allocates a fresh [n]-byte DRAM arena. *)

val of_pmem : Dstore_pmem.Pmem.t -> off:int -> len:int -> t
(** View of a PMEM device range; offsets are relative to [off]. The range
    should be cache-line aligned so [persist] does not touch neighbours. *)

val get_u8 : t -> int -> int
(** Bounds-checked reads at an arena offset. *)

val raw_pos : t -> off:int -> len:int -> int
(** [raw_pos t ~off ~len] is the index of arena byte [off] in [t.raw],
    after checking that [\[off, off + len)] lies inside the arena (else
    [Invalid_argument]). For structures that read a whole node or key
    blob straight from [raw] after one check. *)

val get_u16 : t -> int -> int

val get_u32 : t -> int -> int

val get_u64 : t -> int -> int

val blit_to_bytes : t -> src:int -> Bytes.t -> dst:int -> len:int -> unit

val sub : t -> off:int -> len:int -> t
(** Narrow an arena to a sub-range (offsets re-based to 0). *)

val tracked : t -> note:(int -> int -> unit) -> t
(** Write-tracking view: every mutating access calls [note off len] before
    forwarding to the underlying arena; reads and [persist] pass through.
    This is how DIPPER's delta checkpoints capture, at page granularity,
    which parts of a shadow space a log replay dirtied — the structures
    (B-tree, bitmap pools, metadata zone) all write through the space's
    [Mem.t], so wrapping here covers them without touching their code. *)

val compare_string : t -> off:int -> len:int -> string -> int
(** [compare_string t ~off ~len s] compares the [len] stored bytes at [off]
    with [s] lexicographically (bytes unsigned, a proper prefix sorts
    first): negative, zero or positive. One bounds check, then a plain
    byte loop; allocation-free. *)

val copy_range : src:t -> dst:t -> off:int -> len:int -> unit
(** Copy [len] bytes at [off] from [src] to the same offset in [dst],
    writing through [dst]'s write path. Device time is not charged. *)

val copy_pages :
  src:t -> dst:t -> page_bytes:int -> is_dirty:(int -> bool) -> limit:int -> int
(** Copy every page [p] (of [page_bytes]) with [is_dirty p] from [src] to
    the same offset in [dst], coalescing adjacent dirty pages into single
    runs. Only pages starting below [limit] are candidates; runs are
    clipped to the arena size. Returns bytes copied. [is_dirty] may be
    called more than once per page. Device time is not charged (same
    contract as {!Space.copy_into}). *)

val read_string : t -> off:int -> len:int -> string

val write_string : t -> off:int -> string -> unit

val equal_range : t -> t -> off:int -> len:int -> bool
(** Compare the same range across two arenas (testing aid). *)
