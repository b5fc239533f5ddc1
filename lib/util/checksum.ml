(* CRC-32C, polynomial 0x1EDC6F41 (reflected 0x82F63B78), slicing-by-8:
   [tables] holds eight 256-entry tables back to back (table k at
   [k * 0x100]); table k advances a byte's contribution by k further
   bytes, so the main loop folds eight input bytes per step with eight
   independent lookups. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0x82F63B78 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let crc32c ?(init = 0) b ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= Bytes.length b);
  let t = tables in
  let c = ref (init lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = !c lxor (Int32.to_int (Bytes.get_int32_le b !i) land 0xFFFFFFFF) in
    let hi = Int32.to_int (Bytes.get_int32_le b (!i + 4)) land 0xFFFFFFFF in
    c :=
      Array.unsafe_get t (0x700 lor (lo land 0xff))
      lxor Array.unsafe_get t (0x600 lor ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x500 lor ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t (0x400 lor (lo lsr 24))
      lxor Array.unsafe_get t (0x300 lor (hi land 0xff))
      lxor Array.unsafe_get t (0x200 lor ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (0x100 lor ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32c_string s = crc32c (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
