open Dstore_pmem
open Dstore_util

(* Region layout: one 64 B header slot, then [slots] record slots.
   Header: magic u64 | lsn_base u64.
   Record slot 0: lsn u64 | commit u64 | len u16 | op u8 | pad | crc u32 |
   payload(40); continuation slots are raw payload. *)

let slot_bytes = Logrec.slot_bytes

let magic = 0x444C4F474C4F47 (* "DLOGLOG" *)

(* Log-level registry counters; both logs of an engine share one set (the
   series describe the engine's logging activity, not one region). *)
type counters = {
  c_appends : Dstore_obs.Metrics.counter;
  c_commits : Dstore_obs.Metrics.counter;
  c_resets : Dstore_obs.Metrics.counter;
  c_scans : Dstore_obs.Metrics.counter;
}

type t = {
  pm : Pmem.t;
  off : int;
  slots : int;
  mutable base : int;  (* cached lsn_base *)
  mutable tail_ : int;
  ctr : counters option;
  fault : Config.fault;  (* injected protocol bug; No_fault in production *)
}

let region_bytes ~slots = (slots + 1) * slot_bytes

let hdr_off t = t.off

let slot_off t s =
  assert (s >= 0 && s < t.slots);
  t.off + ((s + 1) * slot_bytes)

let counters_of obs =
  let m = obs.Dstore_obs.Obs.metrics in
  let module M = Dstore_obs.Metrics in
  {
    c_appends = M.counter m "oplog.records_written";
    c_commits = M.counter m "oplog.records_committed";
    c_resets = M.counter m "oplog.resets";
    c_scans = M.counter m "oplog.scans";
  }

let count c f = match c with Some c -> Dstore_obs.Metrics.incr (f c) | None -> ()

let attach ?obs ?(fault = Config.No_fault) pm ~off ~slots =
  assert (off mod slot_bytes = 0);
  let ctr = Option.map counters_of obs in
  let t = { pm; off; slots; base = 0; tail_ = 0; ctr; fault } in
  t.base <- Pmem.get_u64 pm (hdr_off t + 8);
  t

let reset t ~lsn_base =
  count t.ctr (fun c -> c.c_resets);
  Pmem.fill t.pm t.off (region_bytes ~slots:t.slots) 0;
  Pmem.set_u64 t.pm (hdr_off t) magic;
  Pmem.set_u64 t.pm (hdr_off t + 8) lsn_base;
  Pmem.persist t.pm t.off (region_bytes ~slots:t.slots);
  t.base <- lsn_base;
  t.tail_ <- 0

let capacity t = t.slots

let lsn_base t = t.base

let tail t = t.tail_

let free_slots t = t.slots - t.tail_

let reserve t n =
  assert (n > 0);
  if t.tail_ + n > t.slots then None
  else begin
    let slot = t.tail_ in
    t.tail_ <- t.tail_ + n;
    Some (slot, t.base + slot)
  end

(* Assemble the full record image (header + payload) in a scratch buffer.
   The CRC covers lsn, len, op and payload — everything except the commit
   word and the CRC itself. *)
let build_record ~lsn op =
  let len_slots = Logrec.slots_needed op in
  let img = Bytes.make (len_slots * slot_bytes) '\000' in
  Bytes.set_int64_le img 0 (Int64.of_int lsn);
  (* commit word at 8 stays 0 *)
  Bytes.set_uint16_le img 16 len_slots;
  Bytes.set_uint8 img 18 (Logrec.tag_of_op op);
  Logrec.encode_into op img ~pos:Logrec.header_bytes;
  let crc =
    Checksum.crc32c img ~pos:0 ~len:8
    |> fun c ->
    Checksum.crc32c ~init:c img ~pos:16 ~len:(Bytes.length img - 16)
  in
  Bytes.set_int32_le img 20 (Int32.of_int crc);
  img

let record_crc t ~slot ~len_slots =
  let img = Bytes.create (len_slots * slot_bytes) in
  Pmem.blit_to_bytes t.pm ~src:(slot_off t slot) img ~dst:0
    ~len:(len_slots * slot_bytes);
  (* Zero the commit and crc fields before hashing. *)
  Bytes.set_int64_le img 8 0L;
  let stored = Int32.to_int (Bytes.get_int32_le img 20) land 0xFFFFFFFF in
  Bytes.set_int32_le img 20 0l;
  let crc =
    Checksum.crc32c img ~pos:0 ~len:8
    |> fun c ->
    Checksum.crc32c ~init:c img ~pos:16 ~len:(Bytes.length img - 16)
  in
  (stored, crc, img)

let write_record t ~slot ~lsn op =
  count t.ctr (fun c -> c.c_appends);
  let img = build_record ~lsn op in
  let n = Bytes.length img / slot_bytes in
  assert (slot + n <= t.slots);
  (* Store everything except the LSN word; it is written by flush_record,
     after the rest of the record is durable. *)
  Pmem.blit_from_bytes t.pm img ~src:8
    ~dst:(slot_off t slot + 8)
    ~len:(Bytes.length img - 8)

let flush_record t ~slot ~lsn op =
  let n = Logrec.slots_needed op in
  let skip_payload = t.fault = Config.Skip_payload_flush in
  (* 1. Persist every line except the first. *)
  if n > 1 && not skip_payload then
    Pmem.flush t.pm (slot_off t slot + slot_bytes) ((n - 1) * slot_bytes);
  if n > 1 && not skip_payload then Pmem.fence t.pm;
  (* 2. Write the LSN last, then persist its line: the record becomes
     valid only once this line is durable. *)
  Pmem.set_u64 t.pm (slot_off t slot) lsn;
  Pmem.persist t.pm (slot_off t slot) slot_bytes

(* Group commit (§3.4 batched): persist a whole batch of staged records
   with two coalesced flush+fence rounds instead of one or two per record.
   [items] are (slot, lsn, op) triples staged by write_record into
   consecutive slots of this log.

   Phase A flushes the entire staged slot span in one pass. Every LSN word
   is still zero at this point, so including each record's first line is
   harmless — no record can probe as valid until its LSN is stored. Phase B
   stores all LSN words; phase C flushes the span again (one call) and
   fences. Each record therefore keeps the single-record invariant: its
   payload is durable strictly before its LSN line, so after a crash any
   subset of the batch survives, each member individually valid-or-absent. *)
let flush_batch t items =
  match items with
  | [] -> ()
  | _ ->
      let lo =
        List.fold_left (fun acc (slot, _, _) -> min acc slot) max_int items
      in
      let hi =
        List.fold_left
          (fun acc (slot, _, op) -> max acc (slot + Logrec.slots_needed op))
          0 items
      in
      let span = (hi - lo) * slot_bytes in
      let skip_payload = t.fault = Config.Skip_payload_flush in
      if not skip_payload then begin
        Pmem.flush t.pm (slot_off t lo) span;
        Pmem.fence t.pm
      end;
      List.iter
        (fun (slot, lsn, _) -> Pmem.set_u64 t.pm (slot_off t slot) lsn)
        items;
      if skip_payload then
        (* Mirror the single-record fault: persist only each record's LSN
           line, leaving continuation lines unflushed. *)
        List.iter
          (fun (slot, _, _) -> Pmem.flush t.pm (slot_off t slot) slot_bytes)
          items
      else Pmem.flush t.pm (slot_off t lo) span;
      Pmem.fence t.pm

(* Transaction commit point: make the span's Txn_commit record valid. The
   members were already persisted (flush_batch), so storing + flushing the
   commit record's LSN line is the single atomic step that commits the
   whole span. Under [Skip_txn_commit_record] the LSN word is stored but
   never flushed — recovery still sees the commit in the cache-warm image
   (checkpoint replay reads memory), but a power failure can drop the
   line, evaporating an acknowledged transaction wholesale. *)
let flush_txn_commit t ~slot ~lsn op =
  assert (Logrec.slots_needed op = 1);
  ignore op;
  Pmem.set_u64 t.pm (slot_off t slot) lsn;
  if t.fault <> Config.Skip_txn_commit_record then
    Pmem.persist t.pm (slot_off t slot) slot_bytes

(* Batch-commit persistence: one flush+fence over the contiguous slot span
   holding the batch's commit words. Skipped entirely under
   [Skip_batch_commit_fence] — in this PMEM model a flushed line is durable
   immediately, so skipping only the fence would not be observable; the
   fault models losing the whole commit persist pass. *)
let persist_span t ~slot ~slots =
  if slots > 0 && t.fault <> Config.Skip_batch_commit_fence then
    Pmem.persist t.pm (slot_off t slot) (slots * slot_bytes)

let set_commit_word t ~slot =
  count t.ctr (fun c -> c.c_commits);
  Pmem.set_u64 t.pm (slot_off t slot + 8) 1

let persist_slot t ~slot =
  if t.fault <> Config.Skip_commit_persist then
    Pmem.persist t.pm (slot_off t slot) slot_bytes

let commit_record t ~slot =
  set_commit_word t ~slot;
  persist_slot t ~slot

let is_committed t ~slot = Pmem.get_u64 t.pm (slot_off t slot + 8) = 1

type entry = { lsn : int; slot : int; committed : bool; op : Logrec.op }

(* Validity probe at slot [s]: LSN equation + CRC. Returns the decoded
   entry and its slot length. *)
let probe t s =
  let base_off = slot_off t s in
  let lsn = Pmem.get_u64 t.pm base_off in
  if lsn <> t.base + s then None
  else begin
    let len_slots = Pmem.get_u16 t.pm (base_off + 16) in
    if len_slots < 1 || s + len_slots > t.slots then None
    else begin
      let stored, crc, img = record_crc t ~slot:s ~len_slots in
      if stored <> crc then None
      else begin
        let tag = Bytes.get_uint8 img 18 in
        match Logrec.decode_at ~tag img ~pos:Logrec.header_bytes with
        | op ->
            let committed = Pmem.get_u64 t.pm (base_off + 8) = 1 in
            Some ({ lsn; slot = s; committed; op }, len_slots)
        | exception Failure _ -> None
      end
    end
  end

let scan t =
  count t.ctr (fun c -> c.c_scans);
  let rec go s acc =
    if s >= t.slots then List.rev acc
    else
      match probe t s with
      | Some (e, len) -> go (s + len) (e :: acc)
      | None -> go (s + 1) acc
  in
  go 0 []

(* Resolve transaction span framing over one log's scan (ascending slot
   order). A Txn_begin opens a span: its member records follow at
   contiguous slots (staged under one frontend-lock hold; a log swap
   re-homes the whole span together, so contiguity survives). The span is
   committed iff the full member chain is intact AND the matching
   Txn_commit record probes valid at the expected slot — members of a
   committed span are surfaced with [committed = true] (they carry no
   commit words of their own), members of a torn span are dropped, and
   framing records never escape. A record that breaks the chain (a torn
   member made scan skip ahead) is outside the span and re-enters the
   normal stream, where its own commit word governs. *)
let resolve_txn_spans entries =
  let rec go = function
    | [] -> []
    | e :: rest -> (
        match e.op with
        | Logrec.Txn_commit _ -> go rest (* orphan commit: no open span *)
        | Logrec.Txn_begin { txn; members } ->
            let rec take k expected acc l =
              if k = 0 then (List.rev acc, expected, l)
              else
                match l with
                | m :: tl
                  when m.slot = expected
                       && (match m.op with
                          | Logrec.Txn_begin _ | Logrec.Txn_commit _ -> false
                          | _ -> true) ->
                    take (k - 1)
                      (expected + Logrec.slots_needed m.op)
                      (m :: acc) tl
                | _ -> (List.rev acc, -1, l)
            in
            let mems, expected, rest' =
              take members (e.slot + Logrec.slots_needed e.op) [] rest
            in
            (match rest' with
            | c :: tl
              when expected >= 0 && c.slot = expected
                   && (match c.op with
                      | Logrec.Txn_commit tc -> tc.txn = txn
                      | _ -> false) ->
                List.map (fun m -> { m with committed = true }) mems @ go tl
            | _ -> go rest')
        | _ -> e :: go rest)
  in
  go entries

let recover_tail t =
  let entries = scan t in
  let last_end =
    List.fold_left
      (fun acc e -> max acc (e.slot + Logrec.slots_needed e.op))
      0 entries
  in
  t.tail_ <- last_end

let read_op t ~slot =
  match probe t slot with
  | Some (e, _) -> e.op
  | None -> invalid_arg "Oplog.read_op: no valid record at slot"

(* Structural self-check over the persistent region. Only properties that
   must hold in ANY reachable durable state are checked: header magic and
   base, and for every slot that probes as a valid record, sane commit
   word and in-range extent. Invalid slots are fine — a torn append leaves
   garbage that scan skips by design. *)
let fsck t =
  let bad = ref [] in
  let err fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  let m = Pmem.get_u64 t.pm (hdr_off t) in
  if m <> magic then err "oplog@%d: bad magic %#x" t.off m;
  let base = Pmem.get_u64 t.pm (hdr_off t + 8) in
  if base < 0 then err "oplog@%d: negative lsn base %d" t.off base;
  let rec go s =
    if s < t.slots then
      match probe t s with
      | Some (e, len) ->
          let commit = Pmem.get_u64 t.pm (slot_off t s + 8) in
          if commit <> 0 && commit <> 1 then
            err "oplog@%d slot %d: commit word %d not in {0,1}" t.off s commit;
          if e.slot + len > t.slots then
            err "oplog@%d slot %d: record overruns region" t.off s;
          go (s + len)
      | None -> go (s + 1)
  in
  go 0;
  List.rev !bad
