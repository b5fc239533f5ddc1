(** Array-based binary min-heap keyed by [(time, seq)] int pairs.

    The discrete-event scheduler keys events by [(virtual_time, sequence)],
    so FIFO order among simultaneous events is deterministic. Neither
    {!push} nor {!pop} allocates (beyond the occasional doubling of the
    backing arrays). *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val push : 'a t -> int -> int -> 'a -> unit
(** [push q time seq v] inserts [v]. *)

val min_time : 'a t -> int
(** Time of the minimum element, or [max_int] when the queue is empty. *)

val pop : 'a t -> 'a
(** Remove and return the minimum element (read its time with
    {!min_time} first). Raises [Invalid_argument] when empty. *)
