(** Per-session durable storage: one append-only event journal, built from
    the {!Codec} primitives.

    A durable session owns one file under its journal directory,
    [s<id>.journal]: [TMJ2] magic, then a sequence of records — [1:u8]
    followed by a count-prefixed event batch ({!Codec.put_events}), or
    [2:u8] followed by a sticky-verdict record ({!record_verdict}).
    Appends are single [write(2)] calls of whole records, so an in-process
    crash never interleaves partial records from the writer's own buffers;
    a record torn by the kernel or a power cut is detected on load and the
    file is truncated back to the last whole record — a documented clean
    loss of the torn tail, never a parse error or a wrong replay.

    The monitor's state is a deterministic function of the event stream,
    so the journal is the session's whole durable state: recovery ingests
    it into a fresh {!Tm_checker.Monitor}, once, and the recovered session
    is verdict-identical to an uninterrupted one.

    Writes happen only from the session's owning worker, so no
    locking; {!recover} runs before a session goes live. *)

type t

val create : ?sync:bool -> dir:string -> session:int -> unit -> t
(** Start a fresh journal for [session] under [dir] (created if missing),
    deleting any previous files for that session id.  [sync] (default
    [false]) additionally [fsync]s after every append — in-process crash
    durability needs no fsync because appends are unbuffered writes.
    @raise Unix.Unix_error on filesystem failure. *)

val exists : dir:string -> session:int -> bool
(** Durable state for this session id is on disk: its journal, or a
    capsule file of the previous format, which {!recover} refuses. *)

val applied : t -> int
(** Events journalled so far. *)

val append : t -> Event.t list -> int
(** Append one record; returns the new {!applied} index.
    @raise Unix.Unix_error on write failure (the caller sheds the
    session rather than lying about durability). *)

val record_verdict :
  t -> Tm_checker.Monitor.outcome -> int option -> unit
(** Append a sticky-verdict record ([2:u8], outcome, violation index):
    the monitor's live outcome at the moment it flipped.  Replay alone
    cannot be trusted to re-derive it — a violation the backtracking search
    found under the pre-crash node budget degrades to [`Budget] when the
    restarted server replays under a smaller one — so {!recover} adopts
    the last journalled verdict whenever replay disagrees.
    @raise Unix.Unix_error on write failure. *)

val fsync : t -> unit
(** [fsync(2)] the journal: every record appended so far survives a power
    cut.  A durable checkpoint is this, after a certify. *)

val snapshot : t -> Tm_checker.Monitor.persisted -> unit
(** Journal the capsule's sticky verdict ({!record_verdict}) and
    {!fsync}.  The capsule's events are already in the journal, so
    nothing else is written. *)

val recover :
  ?sync:bool ->
  ?max_nodes:int ->
  dir:string ->
  session:int ->
  unit ->
  (Tm_checker.Monitor.t * int * t, string) result
(** Rebuild the session: parse the journal, truncate any torn tail,
    ingest its events into a fresh monitor under [max_nodes], adopt the
    last journalled sticky verdict into that same monitor when it records
    a failure the monitor does not show
    ({!Tm_checker.Monitor.adopt_verdict}: one replay, not two), certify,
    and reopen the journal for appending.  Returns the monitor, the
    applied index, and the journal handle.  Because the rebuilt stream is
    certified before returning, the caller's [Resumed] status is never a
    provisional [`Ok] over an uncertified suffix.

    The replay runs under the restarting server's [max_nodes], not the
    pre-crash budget (no budget is journalled).  Only a verdict that
    flipped away from [`Ok] is journalled, so a session certified [`Ok]
    before the crash comes back [`Budget] if the new budget is too small
    for its searches.

    [Error _] on an unreadable or headerless journal, and on the previous
    format: a [TMJ1] journal or a leftover [s<id>.snap] capsule file, whose
    prefix may live only in the capsule, is refused rather than replayed
    short.  Never an exception on torn or truncated journal bytes. *)

val recover_sharded :
  ?sync:bool ->
  ?max_nodes:int ->
  dir:string ->
  session:int ->
  unit ->
  (Tm_checker.Monitor.t * int * t, string) result
(** {!recover} under its former name, kept because the frozen perfbench
    harness calls it. *)

val close : t -> unit
(** Close the journal fd; the file stays on disk (the session remains
    recoverable).  Idempotent. *)

val delete : dir:string -> session:int -> unit
(** Remove the session's files (expiry, or explicit close of a durable
    session), a previous-format capsule included.  Best-effort. *)
