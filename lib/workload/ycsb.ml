open Dstore_util

type t = {
  name : string;
  read_pct : int;
  records : int;
  value_bytes : int;
  uniform : bool;
}

let make name read_pct ?(records = 10_000) ?(value_bytes = 4096)
    ?(uniform = false) () =
  { name; read_pct; records; value_bytes; uniform }

let a ?records ?value_bytes () = make "YCSB-A" 50 ?records ?value_bytes ()

let b ?records ?value_bytes () = make "YCSB-B" 95 ?records ?value_bytes ()

let c ?records ?value_bytes () = make "YCSB-C" 100 ?records ?value_bytes ()

let write_only ?records ?value_bytes () =
  make "write-only" 0 ?records ?value_bytes ()

let write_only_uniform ?records ?value_bytes () =
  make "write-only-uniform" 0 ?records ?value_bytes ~uniform:true ()

(* The hot path of every generated op: a hand-rolled zero-padded
   formatter, with [Printf] only where "%010d" would print a sign or more
   than ten digits. *)
let key i =
  if i < 0 || i >= 10_000_000_000 then Printf.sprintf "user%010d" i
  else begin
    let b = Bytes.create 14 in
    Bytes.blit_string "user" 0 b 0 4;
    let n = ref i in
    for p = 13 downto 4 do
      Bytes.unsafe_set b p (Char.unsafe_chr (48 + (!n mod 10)));
      n := !n / 10
    done;
    Bytes.unsafe_to_string b
  end

type op = Read of string | Update of string

type gen = { wl : t; zipf : Zipf.t; rng : Rng.t }

let gen wl rng = { wl; zipf = Zipf.create wl.records; rng }

let next g =
  let i =
    if g.wl.uniform then Rng.int g.rng g.wl.records
    else Zipf.draw_scrambled g.zipf g.rng
  in
  let k = key i in
  if Rng.int g.rng 100 < g.wl.read_pct then Read k else Update k

let load_keys wl = Array.init wl.records Fun.id
