(** The [tm serve] server: a streaming du-opacity checking service.

    One listening socket (Unix or TCP), many concurrent connections, many
    sessions per connection.  Each session owns one
    {!Tm_checker.Session_monitor} — an incremental conflict graph that
    hands the stream to a {!Tm_checker.Monitor} when it cannot certify it
    — and is pinned to one domain of a fixed worker pool; connection
    reader threads decode frames and hand the per-session work to that
    worker's bounded mailbox ({!Mailbox}), whose bound is the backpressure
    that stalls over-eager clients instead of buffering without limit.

    {2 Robustness invariants} (exercised by the loopback and chaos tests):
    - a malformed frame body is answered with an [Error] frame and the
      connection keeps serving — other sessions never notice;
    - an unparseable length prefix (desync) closes only that connection;
    - a client that disconnects mid-stream has its sessions reaped through
      the regular work queues — a dead client never wedges a domain.

    {2 Durable sessions} ([journal_dir]): every applied event is journalled
    ({!Journal}) before it reaches the monitor, checkpoints persist monitor
    snapshots, and the session-id namespace becomes global.  A session then
    survives its connection (orphaned, resumable via [Resume] until
    [session_timeout] expires it) and the server process itself: a new
    server on the same directory rebuilds the session from snapshot-load +
    journal-replay, verdict-identical to an uninterrupted run.  [Resume]
    answers with the durably-applied index; [Events_at] re-sends are
    deduplicated in the session's worker domain — the only writer of its
    applied counter — so duplicated or re-sent frames never double-apply,
    and a frame that would open a gap is refused with a zero-delay
    [Throttle].

    {2 Overload}: admission control refuses connections over [max_conns]
    and sessions over [max_sessions] with [Error overloaded].  A v2
    session whose worker's mailbox is at the high-watermark walks the
    degradation ladder — throttle (frame discarded, [Throttle] reply),
    sampling (alternate frames admitted) after [throttle_sample]
    consecutive throttles, shed (sticky; later events discarded, verdicts
    carry [mode = shed] and the covered prefix) after [throttle_shed] —
    instead of blocking; v1 connections keep the legacy blocking
    backpressure.  Reads and writes both carry [session_timeout]-second
    socket deadlines (slow-loris: a silent or never-draining peer is cut
    loose, its durable sessions orphaned-resumable); idle clients
    heartbeat to stay attached, and the server echoes [Heartbeat]. *)

type config = {
  addr : Wire.addr;
  domains : int;  (** session worker pool size (OCaml domains) *)
  max_nodes : int option;  (** per-response search budget, per monitor *)
  queue_capacity : int;  (** mailbox bound per worker (work items) *)
  journal_dir : string option;
      (** durable sessions under this directory; [None] = in-memory only *)
  journal_sync : bool;  (** fsync every journal append (power-cut grade) *)
  session_timeout : float;
      (** socket read/write deadline, and how long an orphaned durable
          session stays resumable *)
  heartbeat : float;  (** advertised idle-client heartbeat interval *)
  max_conns : int;  (** admission: concurrent connections *)
  max_sessions : int;  (** admission: live sessions *)
  hwm : int;  (** mailbox high-watermark that starts throttling (v2) *)
  throttle_sample : int;  (** consecutive throttles before sampling *)
  throttle_shed : int;  (** consecutive throttles before shedding *)
  retry_after_ms : int;  (** backoff hint carried in [Throttle] frames *)
  snapshot_every : int;
      (** auto-checkpoint a durable session every N journalled events —
          bounds crash-recovery replay *)
  log : string -> unit;  (** server-side event log (malformed frames, ...) *)
}

val config :
  ?domains:int ->
  ?max_nodes:int ->
  ?queue_capacity:int ->
  ?journal_dir:string ->
  ?journal_sync:bool ->
  ?session_timeout:float ->
  ?heartbeat:float ->
  ?max_conns:int ->
  ?max_sessions:int ->
  ?hwm:int ->
  ?throttle_sample:int ->
  ?throttle_shed:int ->
  ?retry_after_ms:int ->
  ?snapshot_every:int ->
  ?log:(string -> unit) ->
  Wire.addr ->
  config
(** Defaults: 4 domains, no search budget, 64-item queues, not durable, no
    fsync, {!Protocol.default_session_timeout} /
    {!Protocol.default_heartbeat}, 1024 connections, 8192 sessions,
    [hwm = queue_capacity / 2], sampling after 4 and shedding after 16
    consecutive throttles, 50 ms retry hint, snapshot every 50k events,
    silent log. *)

type t

val start : config -> t
(** Binds, spawns the worker pool, the accept thread and (durable mode) the
    orphan sweeper, returns.  Ignores [SIGPIPE] process-wide (a dead
    client must surface as a write error, not a signal). *)

val stop : ?drain:bool -> t -> unit
(** Graceful: stops accepting, wakes and joins every connection, drains
    and joins the worker pool, closes surviving journal fds (files stay on
    disk — durable sessions remain recoverable), unlinks a Unix-socket
    path.  [~drain:false] discards queued work instead of applying it.
    Idempotent. *)

val crash : t -> unit
(** [stop ~drain:false] — the crash-recovery test hook: everything not yet
    journalled is lost, exactly as in a process kill, and a new {!start}
    on the same journal directory must rebuild sessions from disk. *)

val bound_addr : t -> Wire.addr
(** The bound address — with the actual port when [`Tcp (_, 0)] asked the
    kernel to choose. *)

val stats : t -> Protocol.domain_stats list
(** Same counters a [Stats_req] frame returns. *)
