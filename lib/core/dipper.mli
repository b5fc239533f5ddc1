(** The DIPPER engine: Decoupled, In-memory, and Parallel PERsistence
    (§3 of the paper).

    DIPPER treats a set of DRAM data structures as a black box (§3.2): the
    host store supplies two hooks — [format_structures] creates the
    structures in a fresh space, [apply] replays one logical operation —
    and the engine provides everything else:

    - the persistent logical log (two {!Oplog}s, swapped by pointer),
    - the frontend critical section and write-write concurrency control
      (in-flight records + commit-flag spinning, §4.4),
    - atomic quiescent-free checkpoints (§3.5): archive the log, clone the
      current shadow space into the other PMEM half, replay committed
      records with a worker pool, persist, publish the root — all while
      the frontend keeps serving,
    - CoW checkpointing (§4.5) as a drop-in alternative for the ablation,
    - idempotent recovery (§3.6) from both failure points: redo an
      interrupted checkpoint from the old shadow copies, rebuild the
      volatile space by bulk copy, replay committed active-log records,
    - physical-logging capture for the Figure 9 naïve baseline.

    Because the same [apply] code runs on the volatile space (recovery) and
    the PMEM shadow space (checkpoints), the engine realizes the paper's
    "same code for both spaces" claim literally. *)

open Dstore_platform
open Dstore_pmem
open Dstore_memory

exception Log_full
(** Raised by {!append} when a unit can never fit the log (more slots
    than its capacity), or under [No_checkpoint] when the log is
    exhausted. *)

type hooks = {
  format_structures : Space.t -> unit;
      (** Create the store's structures in a freshly formatted space. Must
          be deterministic: it runs identically on the volatile space and
          the PMEM shadow. *)
  prepare : Space.t -> Logrec.op -> unit;
      (** Replay phase 1 — the operation's allocation-pool effects (the
          work the frontend did inside its critical section). Called
          serially in LSN order; must read only the pools and the
          operation's explicit ids, never the key-indexed structures. *)
  apply : Space.t -> Logrec.op -> unit;
      (** Replay phase 2 — the key-indexed structure updates (the work the
          frontend did outside the lock, under observational equivalence).
          Operations on distinct keys may run in parallel. Must charge its
          modeled CPU costs. Neither hook ever sees [Noop]. *)
}

type t

type ticket
(** An in-flight (appended, uncommitted) record. *)

val layout_bytes : Config.t -> int
(** PMEM bytes the engine needs for root + two logs + two spaces. *)

val create :
  ?obs:Dstore_obs.Obs.t -> Platform.t -> Pmem.t -> Config.t -> hooks -> t
(** Format a fresh store on the device (root at offset 0). [obs] supplies
    an existing observability handle (so traces survive engine re-creation
    across crash/recover cycles); by default one is built from the config's
    [obs_enabled] / [trace_capacity] using the platform's virtual clock. *)

val recover :
  ?obs:Dstore_obs.Obs.t -> Platform.t -> Pmem.t -> Config.t -> hooks -> t
(** Open after a shutdown or crash: redoes an interrupted checkpoint if the
    root says one was running, rebuilds the volatile space from the current
    shadow copies, and replays committed log records beyond the applied
    watermark. Emits [Recovery] trace events for each phase. *)

val is_initialized : Pmem.t -> bool

val volatile : t -> Space.t
(** The volatile system space (CoW-barrier-wrapped when configured). *)

val platform : t -> Platform.t

val config : t -> Config.t

(** {1 Verification seam (dstore_check)}

    Read-only access to the persistent pieces a recovered-state checker
    must inspect; no engine state is modified. *)

val log_handles : t -> Oplog.t array
(** Both oplog handles, index 0 and 1 of the layout. *)

val root_snapshot : t -> Root.state
(** The root bank currently selected on the device. *)

val shadow_space : t -> Space.t
(** A fresh handle on the published PMEM shadow space (the checkpoint
    target the root's [current_space] selects). *)

val key_in_flight : t -> string -> int
(** The key index's count of in-flight records on the key. *)

val in_flight_keys : t -> string list
(** The key of every in-flight record that has one, by a fold over the
    in-flight table (one entry per record, so a key repeats). With
    {!key_in_flight}, lets a test check the index against the table. *)

(** {1 The write path (paper Figure 4)}

    One append/commit protocol serves every durability unit. {!append}
    runs steps 1–5 for all of a unit's records under a single
    frontend-lock hold: the up-front capacity check (a unit larger than
    the whole log raises {!Log_full} at once), one conflict scan over the
    unit's keys — an in-flight record on any of them is waited out
    (spinning on its commit flag) and the scan retried — then the
    log-space check, which triggers a checkpoint and waits when the active
    log is short (raising {!Log_full} instead under [No_checkpoint]);
    then, for a transaction, OCC validation; then each item's builder
    (the caller's allocation steps, which return the final operation) and
    the record's staging into consecutive slots, each holding an in-flight
    ticket. The §3.4 flush runs after the lock is released. {!commit} is
    step 9. With a live [span], conflict and log-full waits are booked as
    [Conflict_retry] / [Log_full] blame, the lock hold and the flush as
    the [S_lock] / [S_append] segments.

    Items are [(key, max_slots, builder)] with pairwise-distinct keys;
    [max_slots] bounds the record the builder may return. A [Record] takes
    exactly one item, a [Group] or [Txn] at least one
    ([Invalid_argument] otherwise). [ignore]
    excludes the caller's own advisory-lock records from the conflict
    scan, so a lock holder can write the object it locked.

    {2 [Record]: one op}

    Persist calls: [Oplog.flush_record] (continuation lines, fence, then
    the LSN line), then [Oplog.persist_slot] of the commit word. Crash
    contract: the op survives iff its commit word persisted. Fault hooks:
    [Skip_payload_flush], [Skip_commit_persist].

    {2 [Group]: a batch}

    Persist calls: one coalesced [Oplog.flush_batch] (two flush+fence
    rounds for the whole group), then one [Oplog.persist_span] per log
    over the group's commit words (tickets are grouped by log because a
    concurrent swap may have re-homed part of the group). Crash contract:
    {e no member is acknowledged durable until [commit] returns; after a
    crash any subset of the group may survive}, each member individually
    valid-or-absent and committed-or-not, so recovery needs no batch
    awareness. Fault hooks: [Skip_payload_flush],
    [Skip_batch_commit_fence].

    {2 [Txn reads]: an OCC transaction}

    [reads] is the read-set as [(key, observed version)] pairs (see
    {!key_version}). After the conflict scan, still under the lock, the
    read-set is validated against the committed versions: a stale read
    raises {!Stale_read} with nothing appended (stats count an abort).
    Otherwise the write-set is staged as one contiguous span — [Txn_begin],
    the members, [Txn_commit]. Persist calls: [Oplog.flush_batch] of the
    begin + member records, then [Oplog.flush_txn_commit] of the commit
    record alone. Crash contract: the commit record's validity {e is} the
    commit point — recovery surfaces the members iff it persisted
    (all-or-nothing, see [Oplog.resolve_txn_spans]); members never get
    commit words. Every span record holds an in-flight ticket, so a
    concurrent swap re-homes the span wholesale. Fault hooks:
    [Skip_payload_flush], [Skip_txn_commit_record]. *)

type durability =
  | Record  (** A single op. *)
  | Group  (** An [obatch] sub-batch: group commit. *)
  | Txn of (string * int) list
      (** A transaction write-set, validated against this read-set. *)

type appended
(** A unit's staged, flushed, uncommitted records. *)

exception Stale_read of string
(** Raised by a [Txn] {!append} whose read-set is stale; names the first
    stale key. *)

val append :
  ?span:Dstore_obs.Span.t ->
  t ->
  ignore:ticket list ->
  durability ->
  (string * int * (unit -> Logrec.op)) list ->
  appended
(** Steps 1–5 for one durability unit (see above). *)

val commit : t -> appended -> unit
(** Step 9: retire every ticket of the unit under one lock hold (setting
    commit words for [Record]/[Group], bumping write-set versions), run the
    unit's commit persist, then fire the commit hook with the members. On
    return the unit is durable and conflict waiters release. *)

val tickets : appended -> ticket list
(** The member tickets, in item order. *)

val ticket_op : ticket -> Logrec.op
(** The operation a ticket logged — builders may compute it from
    under-lock state the caller wants back. *)

val wait_readers : t -> Dstore_structs.Readcount.t -> string -> unit
(** Poll the read count to zero (§4.4 read-write conflicts). *)

val read_probe :
  ?versioned:bool -> t -> ignore:ticket list -> string -> (int, ticket) result
(** The reader-entry probe, one frontend-lock round: [Error tk] when an
    in-flight record on the key (other than [ignore]'s) must be waited
    out first, else [Ok v]. With [~versioned:true], [v] is the key's
    committed version, observed atomically with the scan; a plain read
    may skip that lookup, and its [v] means nothing. *)

val wait_ticket : ?span:Dstore_obs.Span.t -> t -> ticket -> unit
(** Spin (with backoff) until the ticket's record commits; with a live
    [span], the wait is booked as [Conflict_retry] blame. *)

val with_frontend_lock : t -> (unit -> 'a) -> 'a
(** Run under the pool lock without logging — for [oe = false] configs the
    store also performs its structure updates inside an {!append}
    builder; this entry point serves staging and read-side uses. *)

val set_commit_hook : t -> ((int * Logrec.op) list -> unit) option -> unit
(** Oplog span export seam (dstore_repl). The hook fires after a commit's
    closing persist with the (lsn, op) pairs of the unit's members,
    mirroring the persist that made them durable. It runs on the
    committing thread, outside the frontend lock, so it may take locks
    of its own but must not call back into the engine. *)

(** {1 OCC transactions}

    The engine half of [lib/txn]: per-key committed versions, bumped
    under the frontend lock at every commit on the key, and the
    read-only commit. Write-sets commit through {!append} with a [Txn]
    unit. *)

val key_version : t -> string -> int
(** The key's committed-version counter (bumped at every commit on the
    key). Observe it {e before} reading the value: validation then aborts
    any transaction whose read raced a commit. *)

val txn_validate : t -> reads:(string * int) list -> (unit, string) result
(** Read-only transaction commit: validate the read-set under the
    frontend lock; [Error key] on the first stale read. *)

(** {1 Physical logging (ablation)} *)

val capture_writes : t -> (unit -> unit) -> (int * string) list
(** Run [f] with volatile-space write capture enabled and return the redo
    images. Caller must hold the frontend lock (physical logging runs with
    [oe = false]). *)

(** {1 Checkpoints} *)

val checkpoint_now : t -> unit
(** Trigger a checkpoint and block until it completes. *)

val is_checkpoint_running : t -> bool
(** Lock-free snapshot (racy by design) — lets crash harnesses detect the
    paper's worst failure point from outside process context. *)

val set_ckpt_gate : t -> ((unit -> unit) -> unit) -> unit
(** Install a wrapper around checkpoint execution. The manager thread
    calls [gate run] instead of running the checkpoint directly; the gate
    must call [run] exactly once. The shard layer uses this to cap how
    many engines checkpoint concurrently (staggered scheduling) and to
    emit cluster-level trace notes around each shard checkpoint. Default:
    [fun run -> run ()]. *)

val log_fill : t -> float
(** Fraction of the active log's slots currently occupied, in [0, 1] —
    the quantity the checkpoint trigger thresholds on ([Config.t]'s
    [checkpoint_threshold]); surfaced for status displays. *)

(** {1 Snapshot image transfer (replica catch-up)} *)

val capture_image : t -> Bytes.t
(** Copy the published space half's used prefix to DRAM (bulk read cost
    charged). Meaningful only while the engine is write-quiesced right
    after a {!checkpoint_now} — the image is then checkpoint-consistent
    and holds the entire committed history. The replication layer streams
    it to a re-syncing laggard. *)

val install_image : Pmem.t -> Config.t -> image:Bytes.t -> unit
(** Overwrite [pm] with a captured image, leaving the device exactly as a
    freshly-recovered store: image in space half 0, both logs empty, root
    pointing at them ([last_applied_lsn = 0]). Crash-safe by ordering:
    the root magic is zeroed {e first} and re-created {e last}, so a
    crash mid-install leaves a visibly uninitialized device rather than a
    half-old, half-new one. Follow with {!recover}. *)

(** {1 Lifecycle} *)

val stop : t -> unit
(** Stop the background checkpoint manager (no final checkpoint — matching
    the paper's shutdown, which recovers by replaying the active log). *)

type stats = {
  mutable checkpoints : int;
  mutable ckpt_total_ns : int;  (** Wall (virtual) time inside checkpoints. *)
  mutable ckpt_archive_ns : int;  (** Log reset + swap + root publish. *)
  mutable ckpt_clone_ns : int;  (** Shadow clone (full or delta). *)
  mutable ckpt_replay_ns : int;  (** Archived-log replay onto the shadow. *)
  mutable ckpt_persist_ns : int;  (** End-of-checkpoint durability pass. *)
  mutable ckpt_publish_ns : int;  (** Root flip making the shadow current. *)
  mutable ckpt_bytes_cloned : int;  (** Bytes actually copied into targets. *)
  mutable ckpt_bytes_skipped : int;
      (** Bytes of the used prefix a delta clone did {e not} copy — the
          incremental win over a full clone. *)
  mutable ckpt_full_clones : int;
      (** Wholesale clones: every clone under [Config.Full], plus delta
          fallbacks (first checkpoint, post-recovery, unformatted target). *)
  mutable ckpt_delta_clones : int;  (** Dirty-page incremental clones. *)
  mutable log_full_stalls : int;  (** Writers that waited for log space. *)
  mutable conflict_waits : int;
  mutable records_appended : int;
  mutable append_flush_ns : int;
      (** Total time in the record-flush protocol (Table 3's log-flush
          component, together with commit flushes). *)
  mutable batches_committed : int;
      (** Group commits completed ([Group] {!commit} calls). *)
  mutable batch_records : int;
      (** Records committed through group commits — [batch_records /
          batches_committed] is the mean batch fill (full distribution in
          the [dipper.batch_fill] histogram). *)
  mutable txns_committed : int;
      (** OCC transactions committed (including read-only validations). *)
  mutable txns_aborted : int;
      (** OCC validation failures — each retry attempt counts once. *)
  mutable txn_member_records : int;
      (** Write-set records committed through transaction spans. *)
  mutable records_replayed : int;
  mutable records_moved : int;  (** Uncommitted records re-homed at swaps. *)
  mutable cow_faults : int;  (** Client-absorbed CoW page copies. *)
  mutable recovery_metadata_ns : int;
  mutable recovery_replay_ns : int;
  mutable recovery_replayed_records : int;
}

val stats : t -> stats

val obs : t -> Dstore_obs.Obs.t
(** The engine's observability handle: metrics registry (device counters,
    [dipper.*] views of {!stats}) and the trace ring. *)

val pmem_footprint : t -> int
(** Bytes of PMEM in active use: root, both logs, used prefixes of both
    space halves. *)

val dram_footprint : t -> int
(** Used bytes of the volatile space. *)
