open Dstore_memory

(* Node layout (2048 bytes):
     0  tag        u8   (1 = leaf, 2 = branch)
     2  nkeys      u16
     8  link       u64  (leaf: next leaf in key order; branch: child0)
    16  cells      nkeys * 24 bytes
   Cell layout: key_off u64 | value u64 | key_len u16 | pad.
   A branch cell's value is the child holding keys >= the cell's key;
   keys < cell0's key live under child0 (the link field). *)

let node_bytes = 2048

let cell_bytes = 24

let cells_off = 16

let order = (node_bytes - cells_off) / cell_bytes (* 84 *)

let max_key_len = 4096

let tag_leaf = 1

let tag_branch = 2

type t = { space : Space.t; root_slot : int }

let m t = Space.mem t.space

(* --- node field accessors ------------------------------------------- *)

let tag t n = Mem.get_u8 (m t) n

let set_tag t n v = (m t).Mem.set_u8 n v

let nkeys t n = Mem.get_u16 (m t) (n + 2)

let set_nkeys t n v = (m t).Mem.set_u16 (n + 2) v

let link t n = Mem.get_u64 (m t) (n + 8)

let set_link t n v = (m t).Mem.set_u64 (n + 8) v

let cell t n i = n + cells_off + (i * cell_bytes)

let cell_koff t n i = Mem.get_u64 (m t) (cell t n i)

let cell_value t n i = Mem.get_u64 (m t) (cell t n i + 8)

let cell_klen t n i = Mem.get_u16 (m t) (cell t n i + 16)

let set_cell t n i ~koff ~klen ~value =
  let c = cell t n i in
  (m t).Mem.set_u64 c koff;
  (m t).Mem.set_u64 (c + 8) value;
  (m t).Mem.set_u16 (c + 16) klen

let set_cell_value t n i v = (m t).Mem.set_u64 (cell t n i + 8) v

(* Shift cells [i, nkeys) right by one slot to open slot i. *)
let open_slot t n i =
  let k = nkeys t n in
  if k > i then
    (m t).Mem.blit_within ~src:(cell t n i) ~dst:(cell t n (i + 1))
      ~len:((k - i) * cell_bytes)

let close_slot t n i =
  let k = nkeys t n in
  if k - 1 > i then
    (m t).Mem.blit_within ~src:(cell t n (i + 1)) ~dst:(cell t n i)
      ~len:((k - 1 - i) * cell_bytes)

(* --- keys ------------------------------------------------------------ *)

let alloc_key t (key : string) =
  let len = String.length key in
  let off = Space.alloc t.space (max len 1) in
  Mem.write_string (m t) ~off key;
  off

let free_key t koff klen = Space.free t.space koff (max klen 1)

let read_key t koff klen = Mem.read_string (m t) ~off:koff ~len:klen

(* Compare the stored key at (koff, klen) with [key]; negative if stored
   key is smaller. Allocation-free. *)
let cmp_stored t koff klen (key : string) =
  Mem.compare_string (m t) ~off:koff ~len:klen key

(* Binary search in node [n] for [key]. Returns [Found i] or [Insert i]
   (the slot where the key would go). *)
type probe = Found of int | Insert of int

let search t n key =
  let lo = ref 0 and hi = ref (nkeys t n) in
  let found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = cmp_stored t (cell_koff t n mid) (cell_klen t n mid) key in
    if c = 0 then found := mid
    else if c < 0 then lo := mid + 1
    else hi := mid
  done;
  if !found >= 0 then Found !found else Insert !lo

(* Child of branch [n] to follow for [key]. *)
let child_for t n key =
  match search t n key with
  | Found i -> cell_value t n i
  | Insert 0 -> link t n
  | Insert i -> cell_value t n (i - 1)

(* Index of the child slot in branch [n]: -1 for child0, else cell id. *)
let child_slot_for t n key =
  match search t n key with Found i -> i | Insert i -> i - 1

(* --- roots ------------------------------------------------------------ *)

let root t = Space.get_root t.space t.root_slot

let set_root_node t v = Space.set_root t.space t.root_slot v

let length t = Space.get_root t.space (t.root_slot + 1)

let set_length t v = Space.set_root t.space (t.root_slot + 1) v

let new_node t tag_v =
  let n = Space.alloc t.space node_bytes in
  set_tag t n tag_v;
  set_nkeys t n 0;
  set_link t n 0;
  n

let create space ~root_slot =
  let t = { space; root_slot } in
  let leaf = new_node t tag_leaf in
  set_root_node t leaf;
  set_length t 0;
  t

let attach space ~root_slot =
  let t = { space; root_slot } in
  assert (root t <> 0);
  t

(* --- split ------------------------------------------------------------ *)

(* Split the full child at [child] of branch [parent]; [pslot] is the
   cell index in [parent] after which the new separator goes (i.e. the
   separator is inserted at pslot + 1... we pass the insert position
   directly). The separator for a leaf split is a fresh copy of the right
   node's first key; for a branch split the middle cell moves up. *)
let split_child t parent ipos child =
  let right = new_node t (tag t child) in
  let k = nkeys t child in
  assert (k = order);
  let sep_koff, sep_klen =
    if tag t child = tag_leaf then begin
      let half = k / 2 in
      let moved = k - half in
      (m t).Mem.blit_within ~src:(cell t child half) ~dst:(cell t right 0)
        ~len:(moved * cell_bytes);
      set_nkeys t right moved;
      set_nkeys t child half;
      set_link t right (link t child);
      set_link t child right;
      (* Separator: private copy of right's first key. *)
      let koff = cell_koff t right 0 and klen = cell_klen t right 0 in
      let s = read_key t koff klen in
      (alloc_key t s, klen)
    end
    else begin
      let mid = k / 2 in
      let moved = k - mid - 1 in
      (m t).Mem.blit_within ~src:(cell t child (mid + 1)) ~dst:(cell t right 0)
        ~len:(moved * cell_bytes);
      set_nkeys t right moved;
      set_link t right (cell_value t child mid);
      let koff = cell_koff t child mid and klen = cell_klen t child mid in
      set_nkeys t child mid;
      (koff, klen)
    end
  in
  (* Insert separator into parent at slot ipos, pointing at [right]. *)
  open_slot t parent ipos;
  set_cell t parent ipos ~koff:sep_koff ~klen:sep_klen ~value:right;
  set_nkeys t parent (nkeys t parent + 1)

let grow_root t =
  let old_root = root t in
  let nr = new_node t tag_branch in
  set_link t nr old_root;
  set_root_node t nr;
  split_child t nr 0 old_root

(* --- public operations ------------------------------------------------ *)

let insert t key v =
  assert (v >= 0);
  if String.length key > max_key_len then invalid_arg "Btree.insert: key too long";
  if nkeys t (root t) = order then grow_root t;
  let rec go n =
    if tag t n = tag_leaf then
      match search t n key with
      | Found i ->
          let old = cell_value t n i in
          set_cell_value t n i v;
          Some old
      | Insert i ->
          open_slot t n i;
          let koff = alloc_key t key in
          set_cell t n i ~koff ~klen:(String.length key) ~value:v;
          set_nkeys t n (nkeys t n + 1);
          set_length t (length t + 1);
          None
    else begin
      let slot = child_slot_for t n key in
      let child = if slot < 0 then link t n else cell_value t n slot in
      if nkeys t child = order then begin
        split_child t n (slot + 1) child;
        (* Re-route: the key may belong in the new right sibling. *)
        go (child_for t n key)
      end
      else go child
    end
  in
  go (root t)

let find t key =
  let rec go n =
    if tag t n = tag_leaf then
      match search t n key with
      | Found i -> Some (cell_value t n i)
      | Insert _ -> None
    else go (child_for t n key)
  in
  go (root t)

let mem t key = find t key <> None

let delete t key =
  let rec go n =
    if tag t n = tag_leaf then
      match search t n key with
      | Found i ->
          let old = cell_value t n i in
          free_key t (cell_koff t n i) (cell_klen t n i);
          close_slot t n i;
          set_nkeys t n (nkeys t n - 1);
          set_length t (length t - 1);
          Some old
      | Insert _ -> None
    else go (child_for t n key)
  in
  go (root t)

let leftmost_leaf t =
  let rec go n = if tag t n = tag_leaf then n else go (link t n) in
  go (root t)

let iter t f =
  let rec walk n =
    if n <> 0 then begin
      for i = 0 to nkeys t n - 1 do
        f (read_key t (cell_koff t n i) (cell_klen t n i)) (cell_value t n i)
      done;
      walk (link t n)
    end
  in
  walk (leftmost_leaf t)

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun k v -> acc := f !acc k v);
  !acc

(* --- invariant checking ------------------------------------------------ *)

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let leaf_depth = ref (-1) in
  let counted = ref 0 in
  (* Returns (min_key, max_key) of the subtree. *)
  let rec walk n depth ~lo ~hi =
    let k = nkeys t n in
    let key_at i = read_key t (cell_koff t n i) (cell_klen t n i) in
    for i = 0 to k - 2 do
      if not (key_at i < key_at (i + 1)) then
        fail "node %d: cells out of order at %d (%S >= %S)" n i (key_at i) (key_at (i + 1))
    done;
    (match lo with
    | Some l when k > 0 && key_at 0 < l -> fail "node %d: key %S below bound %S" n (key_at 0) l
    | _ -> ());
    (match hi with
    | Some h when k > 0 && key_at (k - 1) >= h ->
        fail "node %d: key %S above bound %S" n (key_at (k - 1)) h
    | _ -> ());
    if tag t n = tag_leaf then begin
      if !leaf_depth = -1 then leaf_depth := depth
      else if !leaf_depth <> depth then fail "leaf %d at depth %d, expected %d" n depth !leaf_depth;
      counted := !counted + k
    end
    else begin
      if k = 0 && n <> root t then fail "empty branch %d" n;
      walk (link t n) (depth + 1) ~lo ~hi:(if k > 0 then Some (key_at 0) else hi);
      for i = 0 to k - 1 do
        let child_lo = Some (key_at i) in
        let child_hi = if i + 1 < k then Some (key_at (i + 1)) else hi in
        walk (cell_value t n i) (depth + 1) ~lo:child_lo ~hi:child_hi
      done
    end
  in
  walk (root t) 0 ~lo:None ~hi:None;
  if !counted <> length t then fail "count mismatch: tree has %d, header says %d" !counted (length t);
  (* Leaf chain must visit every key in ascending order. *)
  let prev = ref None in
  let chained = ref 0 in
  let rec follow n =
    if n <> 0 then begin
      if tag t n <> tag_leaf then fail "leaf chain reached non-leaf %d" n;
      for i = 0 to nkeys t n - 1 do
        let key = read_key t (cell_koff t n i) (cell_klen t n i) in
        (match !prev with
        | Some p when not (p < key) -> fail "leaf chain out of order: %S then %S" p key
        | _ -> ());
        prev := Some key;
        incr chained
      done;
      follow (link t n)
    end
  in
  follow (leftmost_leaf t);
  if !chained <> length t then fail "leaf chain covers %d keys, expected %d" !chained (length t)
