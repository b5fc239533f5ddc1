type extent = int * int

type op =
  | Put of {
      key : string;
      size : int;
      meta : int;
      extents : extent list;
      freed_meta : int;
      freed_extents : extent list;
    }
  | Create of { key : string; meta : int }
  | Write of { key : string; meta : int; size : int; new_extents : extent list }
  | Delete of { key : string; meta : int; extents : extent list }
  | Noop of { key : string }
  | Phys of { images : (int * string) list }
  | Txn_begin of { txn : int; members : int }
  | Txn_commit of { txn : int }

let op_key = function
  | Put { key; _ } | Create { key; _ } | Write { key; _ } | Delete { key; _ }
  | Noop { key } ->
      Some key
  | Phys _ | Txn_begin _ | Txn_commit _ -> None

let header_bytes = 24

let slot_bytes = 64

let tag_of_op = function
  | Put _ -> 1
  | Create _ -> 2
  | Write _ -> 3
  | Delete _ -> 4
  | Noop _ -> 5
  | Phys _ -> 6
  | Txn_begin _ -> 7
  | Txn_commit _ -> 8

(* --- sizing --- *)

(* Field widths of the payload encoding: strings carry a u16 length,
   extent lists a u16 count and (u32, u32) per extent. *)
let str_bytes s = 2 + String.length s

let extents_bytes n = 2 + (8 * n)

let put_payload_bytes ~key_len ~extents ~freed_extents =
  2 + key_len + 8 + 4 + extents_bytes extents + 4 + extents_bytes freed_extents

let payload_bytes = function
  | Put { key; extents; freed_extents; _ } ->
      put_payload_bytes ~key_len:(String.length key)
        ~extents:(List.length extents)
        ~freed_extents:(List.length freed_extents)
  | Create { key; _ } -> str_bytes key + 4
  | Write { key; new_extents; _ } ->
      str_bytes key + 4 + 8 + extents_bytes (List.length new_extents)
  | Delete { key; extents; _ } ->
      str_bytes key + 4 + extents_bytes (List.length extents)
  | Noop { key } -> str_bytes key
  | Phys { images } ->
      List.fold_left (fun acc (_, bytes) -> acc + 8 + str_bytes bytes) 2 images
  | Txn_begin _ -> 8 + 2
  | Txn_commit _ -> 8

let record_bytes op = header_bytes + payload_bytes op

let slots_of_bytes n = (n + slot_bytes - 1) / slot_bytes

let slots_needed op = slots_of_bytes (record_bytes op)

(* The worst-case Put an object of [nblocks] blocks can log: one extent
   per block, and up to [nblocks + 4] freed extents from the overwritten
   version (extents are counted, not valued, so this is exact). *)
let put_max_slots key nblocks =
  let n = max nblocks 1 in
  slots_of_bytes
    (header_bytes
    + put_payload_bytes ~key_len:(String.length key) ~extents:n
        ~freed_extents:(n + 4))

(* --- encoding: little-endian stores at a moving position --- *)

type writer = { w : Bytes.t; mutable at : int }

let put_u16 c v =
  Bytes.set_uint16_le c.w c.at (v land 0xffff);
  c.at <- c.at + 2

let put_u32 c v =
  Bytes.set_int32_le c.w c.at (Int32.of_int (v land 0xFFFFFFFF));
  c.at <- c.at + 4

let put_u64 c v =
  (* 63-bit value, bit 63 clear *)
  Bytes.set_int64_le c.w c.at (Int64.logand (Int64.of_int v) Int64.max_int);
  c.at <- c.at + 8

let put_str c s =
  put_u16 c (String.length s);
  Bytes.blit_string s 0 c.w c.at (String.length s);
  c.at <- c.at + String.length s

let put_extents c extents =
  put_u16 c (List.length extents);
  List.iter
    (fun (start, len) ->
      put_u32 c start;
      put_u32 c len)
    extents

let encode_into op b ~pos =
  let c = { w = b; at = pos } in
  match op with
  | Put { key; size; meta; extents; freed_meta; freed_extents } ->
      put_str c key;
      put_u64 c size;
      put_u32 c meta;
      put_extents c extents;
      put_u32 c (if freed_meta < 0 then 0xFFFFFFFF else freed_meta);
      put_extents c freed_extents
  | Create { key; meta } ->
      put_str c key;
      put_u32 c meta
  | Write { key; meta; size; new_extents } ->
      put_str c key;
      put_u32 c meta;
      put_u64 c size;
      put_extents c new_extents
  | Delete { key; meta; extents } ->
      put_str c key;
      put_u32 c meta;
      put_extents c extents
  | Noop { key } -> put_str c key
  | Phys { images } ->
      put_u16 c (List.length images);
      List.iter
        (fun (off, bytes) ->
          put_u64 c off;
          put_str c bytes)
        images
  | Txn_begin { txn; members } ->
      put_u64 c txn;
      put_u16 c members
  | Txn_commit { txn } -> put_u64 c txn

let encode_payload op =
  let b = Bytes.create (payload_bytes op) in
  encode_into op b ~pos:0;
  b

(* --- decoding --- *)

type cursor = { b : Bytes.t; mutable pos : int }

let get_u16 c =
  let v = Bytes.get_uint16_le c.b c.pos in
  c.pos <- c.pos + 2;
  v

let get_u32 c =
  let v = Int32.to_int (Bytes.get_int32_le c.b c.pos) land 0xFFFFFFFF in
  c.pos <- c.pos + 4;
  v

let get_u64 c =
  let v = Int64.to_int (Bytes.get_int64_le c.b c.pos) in
  c.pos <- c.pos + 8;
  v

let get_str c =
  let len = get_u16 c in
  if c.pos + len > Bytes.length c.b then failwith "Logrec: truncated string";
  let s = Bytes.sub_string c.b c.pos len in
  c.pos <- c.pos + len;
  s

let get_extents c =
  let n = get_u16 c in
  List.init n (fun _ ->
      let start = get_u32 c in
      let len = get_u32 c in
      (start, len))

let decode_at ~tag b ~pos =
  let c = { b; pos } in
  try
    match tag with
    | 1 ->
        let key = get_str c in
        let size = get_u64 c in
        let meta = get_u32 c in
        let extents = get_extents c in
        let fm = get_u32 c in
        let freed_meta = if fm = 0xFFFFFFFF then -1 else fm in
        let freed_extents = get_extents c in
        Put { key; size; meta; extents; freed_meta; freed_extents }
    | 2 ->
        let key = get_str c in
        let meta = get_u32 c in
        Create { key; meta }
    | 3 ->
        let key = get_str c in
        let meta = get_u32 c in
        let size = get_u64 c in
        let new_extents = get_extents c in
        Write { key; meta; size; new_extents }
    | 4 ->
        let key = get_str c in
        let meta = get_u32 c in
        let extents = get_extents c in
        Delete { key; meta; extents }
    | 5 -> Noop { key = get_str c }
    | 6 ->
        let n = get_u16 c in
        let images =
          List.init n (fun _ ->
              let off = get_u64 c in
              let bytes = get_str c in
              (off, bytes))
        in
        Phys { images }
    | 7 ->
        let txn = get_u64 c in
        let members = get_u16 c in
        Txn_begin { txn; members }
    | 8 -> Txn_commit { txn = get_u64 c }
    | t -> failwith (Printf.sprintf "Logrec: unknown op tag %d" t)
  with Invalid_argument _ -> failwith "Logrec: truncated payload"
