(** Client side of the {!Protocol} conversation, used by [tm submit] and
    the load generator ([bench service]).

    One value of type {!t} is one connection; it is not thread-safe —
    concurrent load comes from many connections (see [bench/main.ml]).
    Calls that expect a reply ([checkpoint], [close_session], [stats],
    [resume], [ping]) block until it arrives; asynchronous [Throttle] and
    [Shed] frames arriving in between are absorbed into the connection's
    {!throttled}/{!shed} counters rather than raised.

    {!submit_durable} is the fault-tolerant path: it resumes a durable
    session across disconnects and server restarts, re-sends unacknowledged
    events idempotently ([Events_at]), and backs off (bounded exponential
    with deterministic jitter) when the server throttles — the client half
    of the recovery and overload story in [protocol.mli]. *)

exception Server_error of string
(** An [Error] frame, an unexpected frame, or a malformed server frame. *)

exception Refused of string
(** The server answered [Hello] with [unsupported-version]: it speaks a
    different {!Protocol.version}.  Permanent, so nothing here retries it. *)

type t

(** {1 Retry policy} *)

type backoff = {
  attempts : int;  (** give up after this many consecutive failures *)
  base_ms : int;
  max_ms : int;
  jitter : float;  (** randomised fraction of each delay, [0,1] *)
}

val default_backoff : backoff
(** 8 attempts, 25 ms doubling to a 2 s cap, 50% jitter. *)

val backoff_delay_ms : backoff -> seed:int -> attempt:int -> int
(** The (deterministic, seed-jittered) delay before retry [attempt]. *)

(** {1 Connections} *)

val connect : Wire.addr -> t
(** Connect and run the [Hello] handshake with {!Protocol.version}; the
    server must answer with the same version.
    @raise Refused if the server speaks another protocol version.
    @raise Server_error on any other refusal.
    @raise Unix.Unix_error if the endpoint is unreachable. *)

val connect_retry : ?backoff:backoff -> ?seed:int -> Wire.addr -> t
(** {!connect} with bounded backoff on connection failure — rides out a
    server restart.  Re-raises the last failure when the budget runs dry. *)

val open_session : t -> int -> unit
(** Session identifiers are client-chosen, scoped to this connection — or
    global on a durable server; reuse of a live identifier is answered
    with a [duplicate-session] error on the next reply-expecting call. *)

val resume : t -> int ->
  (int * Protocol.mode * Protocol.status,
   Protocol.error_code * string) result
(** Attach to a durable session: [Ok (applied, mode, status)] is the
    server's durably-applied index — re-send from there with
    {!send_events_at}.  [Error (code, msg)] is the server's refusal
    ([unknown-session]: nothing to resume; [bad-frame]: the server is not
    durable; open fresh in either case). *)

val send_events : ?chunk:int -> t -> int -> Event.t list -> unit
(** Stream events into a session, [chunk] (default 512) per [Events]
    frame.  Fire-and-forget: verdicts are pulled by {!checkpoint} and
    {!close_session}. *)

val send_events_at : ?chunk:int -> t -> int -> from:int -> Event.t list -> unit
(** Like {!send_events} but idempotent: each frame carries the stream
    index of its first event, so re-sent or duplicated frames are
    deduplicated server-side and can never double-apply. *)

val checkpoint : t -> int -> Protocol.verdict
(** Round-trip: ask for the session's current verdict.  The verdict covers
    every event acknowledged so far — status [S_ok] means every prefix of
    the stream is du-opaque; [v.applied] is the re-send point (the events
    the server applied). *)

val close_session : t -> int -> Protocol.verdict
(** Final verdict; the server forgets the session (a durable session's
    journal is deleted — closing means done). *)

val ping : t -> unit
(** [Heartbeat] round-trip — keeps an idle connection inside the server's
    read deadline. *)

val throttled : t -> int
(** [Throttle] frames seen on this connection so far. *)

val shed : t -> string option
(** The first [Shed] reason received, if the server shed a session. *)

val submit : ?session:int -> ?chunk:int -> t -> History.t -> Protocol.verdict
(** [open_session], stream the whole history, [close_session]. *)

type durable_report = {
  verdict : Protocol.verdict;
  reconnects : int;  (** connections re-established mid-stream *)
  retries : int;  (** rounds re-sent after being throttled away *)
  shed_reason : string option;  (** the stream ended shed, covering a prefix *)
}

val submit_durable :
  ?session:int ->
  ?chunk:int ->
  ?checkpoint_every:int ->
  ?backoff:backoff ->
  ?seed:int ->
  connect:(unit -> t) ->
  Event.t list ->
  durable_report
(** Fault-tolerant submission: streams [events] in checkpoint windows of
    [chunk * checkpoint_every] events, adopting the server's applied index
    after every checkpoint.  On disconnect, desync, or connection refusal
    it backs off and calls [connect] again (the thunk may reach a restarted
    server or a recovering proxy), resumes the session — every connection
    tries [Resume] first and opens a fresh session when the server answers
    [unknown-session] or [bad-frame] (not durable) — and re-sends from
    the acknowledged index — idempotently, so duplicates on the wire are
    harmless.  Throttled windows are re-sent after backoff; a shed session
    stops sending and returns the prefix verdict with [shed_reason] set.
    @raise Refused at once, without retrying, if [connect] raises it.
    @raise Server_error when the retry budget is exhausted or the server
    answers with a non-retryable error. *)

val stats : t -> Protocol.domain_stats list

val close : t -> unit
(** Send [Goodbye] (best-effort) and close the socket.  Idempotent. *)

val fd : t -> Unix.file_descr
(** The raw descriptor — the fault-injection tests close it abruptly to
    simulate a client dying mid-stream. *)
