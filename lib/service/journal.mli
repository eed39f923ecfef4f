(** Per-session durable storage: an append-only event journal plus atomic
    monitor-snapshot checkpoints, built from the {!Codec} primitives.

    A durable session owns two files under its journal directory:

    - [s<id>.journal] — [TMJ1] magic, then [base:uv] (the session's
      applied-event index when this journal file began), then a sequence
      of records: [1:u8] followed by a count-prefixed event batch
      ({!Codec.put_events}), or [2:u8] followed by a sticky-verdict
      record ({!record_verdict}).  Appends are single [write(2)] calls of whole
      records, so an in-process crash never interleaves partial records
      from the writer's own buffers; a record torn by the kernel or a
      power cut is detected on load and the file is truncated back to the
      last whole record — a documented clean loss of the torn tail, never
      a parse error or a wrong replay.
    - [s<id>.snap] — [TMS1] magic, [applied:uv], then a serialized
      {!Tm_checker.Monitor.persisted} capsule; always written to a
      temporary file and [rename(2)]d into place, so the snapshot is
      either the old one or the new one, never a torn hybrid.

    Recovery is snapshot-load + journal-replay: restore the session
    monitor ({!Tm_checker.Session_monitor}) from the capsule, skip the
    journal events the snapshot already covers (the journal header's
    [base] makes this exact even if a crash landed between the snapshot
    rename and the journal truncation), and push the rest.  Determinism of monitor replay makes the recovered session
    verdict-identical to an uninterrupted one.

    Writes happen only from the session's owning worker domain, so no
    locking; [load]/[recover] run before a session goes live. *)

type t

val create : ?sync:bool -> dir:string -> session:int -> unit -> t
(** Start a fresh journal for [session] under [dir] (created if missing),
    deleting any previous files for that session id.  [sync] (default
    [false]) additionally [fsync]s after every append — in-process crash
    durability needs no fsync because appends are unbuffered writes.
    @raise Unix.Unix_error on filesystem failure. *)

val exists : dir:string -> session:int -> bool
(** A journal or snapshot file for this session id is on disk. *)

val applied : t -> int
(** Events durably applied: the snapshot's base plus journalled events. *)

val since_snapshot : t -> int
(** Events appended since the last {!snapshot} (the replay cost of a crash
    right now) — the server auto-checkpoints when this passes a bound. *)

val append : t -> Event.t list -> int
(** Append one record; returns the new {!applied} index.
    @raise Unix.Unix_error on write failure (the caller sheds the
    session rather than lying about durability). *)

val record_verdict :
  t -> Tm_checker.Monitor.outcome -> int option -> unit
(** Append a sticky-verdict record ([2:u8], outcome, violation index):
    the monitor's live outcome at the moment it flipped.  Replay alone
    cannot be trusted to re-derive it — a violation the backtracking
    search found under the pre-crash node budget degrades to [`Budget]
    when the restarted server replays under a smaller one — so {!recover}
    adopts the journalled verdict whenever replay disagrees.  Subsumed by
    the next {!snapshot} (whose capsule carries the sticky status).
    @raise Unix.Unix_error on write failure. *)

val snapshot : t -> Tm_checker.Monitor.persisted -> unit
(** Atomically persist the capsule at the current applied index and reset
    the journal file (its new [base] is the current applied index). *)

val recover :
  ?sync:bool ->
  ?max_nodes:int ->
  dir:string ->
  session:int ->
  unit ->
  (Tm_checker.Session_monitor.t * int * t, string) result
(** Rebuild the session: restore the session monitor from the snapshot
    (or a fresh one under [max_nodes] when no snapshot exists), replay the
    journal suffix into it, truncate any torn tail, certify, and reopen
    the journal for appending.  Returns the monitor, the applied index,
    and the journal handle.  Because the rebuilt stream is certified
    before returning, the caller's [Resumed] status is never a provisional
    [`Ok] over an uncertified suffix.  Capsules written by
    {!Tm_checker.Monitor.persist} restore too: the two monitors share the
    format.  [Error _] on a corrupt snapshot or an unreadable directory —
    never an exception on torn or truncated journal bytes. *)

val recover_sharded :
  ?sync:bool ->
  ?max_nodes:int ->
  dir:string ->
  session:int ->
  unit ->
  (Tm_checker.Session_monitor.t * int * t, string) result
(** {!recover} under its former name, kept because the frozen perfbench
    harness calls it. *)

val close : t -> unit
(** Close the journal fd; the files stay on disk (the session remains
    recoverable).  Idempotent. *)

val delete : dir:string -> session:int -> unit
(** Remove the session's files (expiry, or explicit close of a durable
    session).  Best-effort. *)

val sessions_on_disk : dir:string -> int list
(** Session ids with durable state under [dir] (for sweeping). *)
