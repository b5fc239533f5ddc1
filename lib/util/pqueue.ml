(* Parallel arrays rather than an array of records, so a push allocates
   nothing (beyond doubling the arrays) and a pop builds no tuple. The
   sifts move a hole instead of swapping. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable n : int;
}

let create () = { times = [||]; seqs = [||]; vals = [||]; n = 0 }

let is_empty q = q.n = 0

let length q = q.n

let min_time q = if q.n = 0 then max_int else Array.unsafe_get q.times 0

let grow q v =
  let cap = Array.length q.times in
  if q.n = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let times = Array.make ncap 0 and seqs = Array.make ncap 0 in
    let vals = Array.make ncap v in
    Array.blit q.times 0 times 0 q.n;
    Array.blit q.seqs 0 seqs 0 q.n;
    Array.blit q.vals 0 vals 0 q.n;
    q.times <- times;
    q.seqs <- seqs;
    q.vals <- vals
  end

let push q time seq v =
  grow q v;
  let times = q.times and seqs = q.seqs and vals = q.vals in
  (* Sift the hole up from the new last slot. *)
  let i = ref q.n in
  q.n <- q.n + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Array.unsafe_get times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs parent) then begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set vals !i (Array.unsafe_get vals parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set vals !i v

let pop q =
  if q.n = 0 then invalid_arg "Pqueue.pop: empty queue";
  let times = q.times and seqs = q.seqs and vals = q.vals in
  let top = Array.unsafe_get vals 0 in
  let n = q.n - 1 in
  q.n <- n;
  if n > 0 then begin
    (* Sift the former last element down from the root's hole. *)
    let time = Array.unsafe_get times n and seq = Array.unsafe_get seqs n in
    let v = Array.unsafe_get vals n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then
            let tl = Array.unsafe_get times l and tr = Array.unsafe_get times r in
            if tr < tl || (tr = tl && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
            then r
            else l
          else l
        in
        let ct = Array.unsafe_get times c in
        if ct < time || (ct = time && Array.unsafe_get seqs c < seq) then begin
          Array.unsafe_set times !i ct;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set vals !i (Array.unsafe_get vals c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set vals !i v
  end;
  top
