(** DIPPER log records: the logical operations DStore logs, and their wire
    format (Figure 3 of the paper, adapted to a 64-byte-slotted log — see
    DESIGN.md deviation 1).

    A record occupies one or more contiguous 64 B slots:

    {v
    slot 0:  lsn u64 | commit u64 | len_slots u16 | op u8 | pad u8 | crc u32
             | payload (40 B) ...
    slot k:  payload continuation (64 B each)
    v}

    The LSN is written and flushed {e last} (reverse-order flush), so a
    record is valid iff its stored LSN equals the slot/LSN equation for its
    position and its CRC-32C validates; the commit word (excluded from the
    CRC) is set and flushed only after the operation's data is durable. *)

type extent = int * int
(** [(first_block, count)]. *)

type op =
  | Put of {
      key : string;
      size : int;
      meta : int;
      extents : extent list;
      freed_meta : int;  (** Metadata entry released by an overwrite; -1 if none. *)
      freed_extents : extent list;
    }
      (** Whole-object write. Allocated {e and} released ids are logged so
          replay is allocation-exact and order-robust (DESIGN.md
          deviation 2); releases happen at commit time on the frontend. *)
  | Create of { key : string; meta : int }
      (** [oopen] with creation, before any data is written. *)
  | Write of { key : string; meta : int; size : int; new_extents : extent list }
      (** Metadata-modifying partial write: the object grew to [size],
          gaining [new_extents]. In-place overwrites log nothing (§4.3). *)
  | Delete of { key : string; meta : int; extents : extent list }
      (** Removal; the released ids are logged for the same reason. *)
  | Noop of { key : string }
      (** [olock]'s lock record (§4.5): ignored by recovery, visible to
          conflict scans. *)
  | Phys of { images : (int * string) list }
      (** Physical logging baseline: redo images [(space_offset, bytes)]. *)
  | Txn_begin of { txn : int; members : int }
      (** Opens a transaction span: the next [members] records (in slot
          order, contiguous by construction — the whole span is staged
          under one frontend-lock hold) are the transaction's write-set. *)
  | Txn_commit of { txn : int }
      (** Closes a transaction span. Its validity (LSN line durable) {e is}
          the transaction's commit point: replay surfaces the member
          records iff this record probes valid, regardless of the members'
          own commit words — all-or-nothing by construction. *)

val op_key : op -> string option
(** The object name an operation conflicts on ([None] for [Phys] and the
    transaction framing records). *)

val header_bytes : int
(** 24. *)

val slot_bytes : int
(** 64. *)

val payload_bytes : op -> int
(** Length of the encoded payload, computed from the field widths without
    encoding. *)

val encode_into : op -> Bytes.t -> pos:int -> unit
(** Serialize the operation (without the record header) into
    [\[pos, pos + payload_bytes op)]. *)

val encode_payload : op -> Bytes.t
(** [encode_into] a fresh buffer of exactly [payload_bytes op] bytes. *)

val decode_at : tag:int -> Bytes.t -> pos:int -> op
(** Decode a payload starting at [pos]; it may extend to the end of the
    buffer. [tag] comes from the header. Raises [Failure] on malformed
    input. With [~pos:0] it is the inverse of [encode_payload]. *)

val tag_of_op : op -> int

val slots_needed : op -> int
(** Total slots for the record carrying [op]. *)

val record_bytes : op -> int
(** Header + payload size (before slot rounding) — the paper's "32 B plus
    the object name" claim is checked against this in tests. *)

val put_max_slots : string -> int -> int
(** [put_max_slots key nblocks]: slots of the largest [Put] of [key] an
    object of [nblocks] blocks can log (one extent per block, up to
    [nblocks + 4] freed extents), computable before the extents are
    allocated. *)
