(** The [tm serve] server: a streaming du-opacity checking service.

    One listening socket (Unix or TCP), many concurrent connections, many
    sessions per connection.  Each session owns one {!Tm_checker.Monitor}
    — the online engine: an incremental conflict graph, with the search
    behind it for what the graph cannot decide — which ingests every
    admitted event and certifies at durable batches, checkpoints, close
    and resume.  A session is pinned to one worker of a fixed pool;
    connection reader threads decode frames and hand the per-session work
    to that worker's bounded mailbox ({!Mailbox}), whose bound is the
    backpressure that stalls over-eager clients instead of buffering
    without limit.

    {2 Worker layout}: each worker runs on an OCaml domain of its own,
    unless the process may use a single CPU
    ([Domain.recommended_domain_count () = 1], which follows the CPU
    affinity, e.g. under [taskset -c 1]).  There the workers run as
    threads of the main domain, beside the accept loop and the readers:
    a second domain could never run in parallel with the first, and would
    only add the stop-the-world handshake of every minor collection.  The
    layout is chosen at {!start} and reported by {!threaded}; everything
    else — mailboxes, pinning, verdicts — is the same in both.

    {2 Robustness invariants} (exercised by the loopback and chaos tests):
    - a malformed frame body is answered with an [Error] frame and the
      connection keeps serving — other sessions never notice;
    - an unparseable length prefix (desync) closes only that connection;
    - a client that disconnects mid-stream has its sessions reaped through
      the regular work queues — a dead client never wedges a worker.

    {2 Durable sessions} ([journal_dir]): every applied event is journalled
    ({!Journal}) before it reaches the monitor, checkpoints [fsync] the
    journal, and the session-id namespace becomes global.  A session then
    survives its connection (orphaned, resumable via [Resume] until
    [session_timeout] expires it) and the server process itself: a new
    server on the same directory rebuilds the session by replaying its
    journal, verdict-identical to an uninterrupted run.  [Resume]
    answers with the durably-applied index; [Events_at] re-sends are
    deduplicated in the session's worker — the only writer of its
    applied counter — so duplicated or re-sent frames never double-apply,
    and a frame that would open a gap is refused with [Throttle].

    {2 Overload}: admission control refuses connections over [max_conns]
    and sessions over [max_sessions] with [Error overloaded].  A frame
    for a session whose worker's mailbox is at the high-watermark is
    throttled (discarded, [Throttle] reply) instead of blocking the
    connection's reader; the [throttle_shed]-th consecutive throttle
    sheds the session instead (sticky; a [Shed] reply, later events
    discarded, verdicts carry [mode = shed] and the covered prefix).
    Reads and writes both carry [session_timeout]-second socket deadlines
    (slow-loris: a silent or never-draining peer is cut loose, its
    durable sessions orphaned-resumable); idle clients heartbeat to stay
    attached, and the server echoes [Heartbeat]. *)

type config = {
  addr : Wire.addr;
  domains : int;
      (** session worker pool size: one domain per worker, or that many
          threads of the main domain on one CPU (see {e Worker layout}) *)
  max_nodes : int option;  (** per-response search budget, per monitor *)
  queue_capacity : int;  (** mailbox bound per worker (work items) *)
  journal_dir : string option;
      (** durable sessions under this directory; [None] = in-memory only *)
  journal_sync : bool;  (** fsync every journal append (power-cut grade) *)
  session_timeout : float;
      (** socket read/write deadline, and how long an orphaned durable
          session stays resumable *)
  max_conns : int;  (** admission: concurrent connections *)
  max_sessions : int;  (** admission: live sessions *)
  hwm : int;  (** mailbox high-watermark that starts throttling *)
  throttle_shed : int;  (** consecutive throttles before shedding *)
  log : string -> unit;  (** server-side event log (malformed frames, ...) *)
}

val config :
  ?domains:int ->
  ?max_nodes:int ->
  ?queue_capacity:int ->
  ?journal_dir:string ->
  ?journal_sync:bool ->
  ?session_timeout:float ->
  ?max_conns:int ->
  ?max_sessions:int ->
  ?hwm:int ->
  ?throttle_shed:int ->
  ?log:(string -> unit) ->
  Wire.addr ->
  config
(** Defaults: 4 workers, no search budget, 64-item queues, not durable, no
    fsync, {!Protocol.default_session_timeout}, 1024 connections, 8192
    sessions, [hwm = queue_capacity / 2], shedding at the 16th
    consecutive throttle, silent log. *)

type t

val start : config -> t
(** Binds, starts the worker pool (domains, or threads on one CPU), the
    accept thread and (durable mode) the orphan sweeper, returns.  Ignores [SIGPIPE] process-wide (a dead
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

val threaded : t -> bool
(** Whether the workers run as threads of the main domain, because the
    process may use one CPU, rather than on a domain each. *)

val bound_addr : t -> Wire.addr
(** The bound address — with the actual port when [`Tcp (_, 0)] asked the
    kernel to choose. *)

val stats : t -> Protocol.domain_stats list
(** Same counters a [Stats_req] frame returns. *)
