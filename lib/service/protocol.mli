(** The [tm serve] wire protocol: framed, versioned, binary.

    {1 Wire grammar}

    Every message on the socket is a {e frame}:

    {v
frame   := length:u32be body
body    := tag:u8 payload            (* |body| = length, 1 <= length <= max_frame *)

payload by tag:
  1  Hello          "TMSV" version:uv
  2  Open_session   session:uv
  3  Events         session:uv count:uv event*
  4  Checkpoint     session:uv token:uv
  5  Close_session  session:uv
  6  Verdict        session:uv token:uv events:uv status tail?
  7  Stats_req      (empty)
  8  Stats          ndomains:uv domain*
  9  Error          code:uv message:str
  10 Goodbye        (empty)
  11 Resume         session:uv from:uv                 (since v2)
  12 Resumed        session:uv applied:uv mode:u8 status
  13 Throttle       session:uv retry_after_ms:uv       (since v2)
  14 Heartbeat      (empty)                            (since v2)
  15 Events_at      session:uv from:uv count:uv event* (since v2)
  16 Shed           session:uv reason:str              (since v2)
  17 Shards_req     session:uv                         (since v3)
  18 Shards         session:uv shards:uv certifies:uv
                    incremental:uv full:uv esc         (since v3)

esc     := 0                         (* never escalated                 *)
         | 1 why:str                 (* handed to the sequential
                                        monitor; why is the conflict
                                        graph's reason                  *)

event   := 0 tx:uv var:uv            (* read invocation  R_tx(var)      *)
         | 1 tx:uv var:uv value:sv   (* write invocation W_tx(var,v)    *)
         | 2 tx:uv                   (* tryCommit invocation            *)
         | 3 tx:uv                   (* tryAbort invocation             *)
         | 4 tx:uv value:sv          (* read response -> value          *)
         | 5 tx:uv                   (* write response -> ok            *)
         | 6 tx:uv                   (* tryCommit response -> C         *)
         | 7 tx:uv                   (* any response -> A               *)

status  := 0                         (* every prefix du-opaque          *)
         | 1 why:str                 (* violation, sticky               *)
         | 2 why:str                 (* search budget exhausted, sticky *)

tail    := mode:u8 applied:uv        (* present iff mode <> 0 or
                                        applied <> events; absent tail
                                        means full checking, applied =
                                        events — a v1 frame             *)

mode    := 0                         (* full checking                   *)
         | 1                         (* sampling (see ladder below)     *)
         | 2                         (* shed: events past [applied]
                                        were discarded                  *)

domain  := live:uv closed:uv events:uv responses:uv hits:uv
           searches:uv nodes:uv

uv      := unsigned LEB128 varint (63-bit)
sv      := zigzag-coded signed varint
str     := len:uv byte*
    v}

    {1 Conversation}

    The client speaks first: [Hello] (magic + highest supported version);
    the server answers [Hello] with the negotiated version — the minimum
    of the two.  After the handshake the client opens any number of
    sessions (its own identifier namespace, per connection), streams
    [Events] frames into them, and collects [Verdict] frames: a
    [Checkpoint] is answered with the current verdict carrying the
    checkpoint's token, a [Close_session] with the final verdict (token
    [0]).  [Stats_req] is answered with per-domain counters.
    Protocol-level problems come back as [Error] frames: an undecodable
    body ([bad-frame]) or a semantic error ([unknown-session],
    [duplicate-session], ...) is reported and the connection keeps serving
    its other sessions; only a desynchronised stream (unparseable length
    prefix) closes the connection.

    Verdicts are the online monitor's outcomes, so a [Verdict] with status
    [0] certifies that {e every prefix} of the session's stream so far is
    du-opaque — the same judgement [tm monitor] makes offline.

    {1 Durable sessions and resume (v2)}

    A server started with a journal directory makes sessions {e durable}:
    every applied event is appended to a per-session journal before it
    reaches the monitor, and checkpoints additionally persist a
    serialized monitor snapshot, so a session survives both its
    connection and the server process.  On a durable server the session
    identifier namespace is {e global} (shared by every connection), not
    per-connection.

    [Resume session from] attaches the connection to durable session
    [session]: to a live orphaned session (its previous connection died)
    in memory, or — after a server crash — to one rebuilt from
    snapshot-load + journal-replay.  The server answers [Resumed] with
    [applied], the number of events it has {e durably applied}; the
    client re-sends everything from that index.  Re-sending is idempotent
    through [Events_at]: a frame whose [from] lies at or before [applied]
    has its first [applied - from] events dropped, and a frame that would
    open a gap ([from > applied]) is answered with a zero-delay
    [Throttle] and not applied — so duplicated, re-sent, or reordered
    frames can never double-apply or skip events, and the session's
    applied stream is always a contiguous prefix of what the client sent.

    {1 Overload: the degradation ladder (v2)}

    A server under pressure degrades {e predictably} instead of queueing
    without bound or wedging:

    - {e full}: normal operation; every event is checked.
    - {e throttle}: a session whose worker's mailbox is over its
      high-watermark gets its [Events]/[Events_at] frame {e discarded}
      and answered with [Throttle retry_after_ms]; the client backs off
      and re-sends from its last acknowledged index.
    - {e sampling}: after repeated throttles the session admits only
      every other frame (the rest are throttled proactively), giving the
      worker room to drain; nothing is lost — throttled frames are
      re-sent.
    - {e shed}: a session that stays overloaded is shed: the server
      answers [Shed], discards every later event for that session, and
      all subsequent verdicts carry [mode = 2] with [applied] marking the
      contiguous prefix the verdict actually covers.  A shed verdict is
      still sound — for the prefix — and never silently masquerades as a
      full one.

    The current rung travels in the verdict [tail]; its absence means
    full checking.  Open/accept admission is controlled separately:
    beyond [max_sessions] live sessions (or [max_conns] connections) the
    server answers [Error overloaded] rather than accepting work it
    cannot serve.

    {1 Heartbeats and deadlines (v2)}

    Either peer may send [Heartbeat]; the server echoes it.  A server
    enforces a read deadline of {!default_session_timeout} seconds
    (configurable via [tm serve --session-timeout]): a connection that
    stays completely silent longer than that is presumed dead and
    reaped — durable sessions become orphaned-resumable, and an orphan
    older than the same timeout is expired for good.  Clients that idle
    should heartbeat every {!default_heartbeat} seconds (configurable via
    [tm serve --heartbeat], exported to clients for symmetric use) so a
    slow but live peer is never mistaken for a dead one; conversely a
    slow-loris peer cannot hold a connection (or its reader thread)
    hostage for longer than the session timeout. *)

val version : int
(** Current protocol version: 3.  Version 1 and 2 peers are fully
    supported: every later frame is new-tagged or backward-compatibly
    extended, and the server only relies on v2 behaviour (resume,
    throttling) or v3 behaviour (certify introspection) on connections
    that negotiated it.

    {1 Session counters (v3)}

    Every session is checked by a {!Tm_checker.Session_monitor}: one
    incremental conflict graph, certified at every durable batch and at
    checkpoint, close and resume boundaries, which hands the stream to the
    sequential monitor (same verdicts) when it cannot certify it.
    [Shards_req] asks for a session's certify counters and is answered
    with [Shards].  The frame keeps the layout it had when sessions could
    be split by variable across several graphs: [shards] is always [1],
    [certifies] counts the certifications run, [incremental] equals
    [certifies] and [full] is [0], and [esc] says why the session
    escalated, if it did. *)

val hello_magic : string

val max_frame : int
(** Upper bound on [length]; larger prefixes mean a desynchronised or
    hostile peer. *)

val default_session_timeout : float
(** Seconds of complete silence after which a peer is presumed dead, and
    seconds an orphaned durable session stays resumable: 30.0. *)

val default_heartbeat : float
(** Suggested heartbeat interval for idle clients: 5.0 seconds — well
    under {!default_session_timeout}. *)

type error_code =
  | Bad_frame  (** body did not decode; stream still framed *)
  | Bad_magic  (** first frame was not a well-formed [Hello] *)
  | Unsupported_version
  | Unknown_session  (** frame targets a session never opened (or closed) *)
  | Duplicate_session  (** [Open_session] with a live identifier *)
  | Server_error
  | Overloaded
      (** admission refused: session or connection limit reached (v2) *)

val pp_error_code : Format.formatter -> error_code -> unit

type status =
  | S_ok
  | S_violation of string
  | S_budget of string  (** mirrors {!Tm_checker.Monitor.outcome} *)

type mode =
  | M_full  (** every event checked *)
  | M_sampling  (** overloaded: frames admitted alternately, none lost *)
  | M_shed  (** events past [applied] discarded; verdict covers the prefix *)

val mode_to_int : mode -> int
val mode_of_int : int -> mode option
val pp_mode : Format.formatter -> mode -> unit

type verdict = {
  session : int;
  token : int;  (** checkpoint token; [0] for the final verdict *)
  events : int;  (** events the monitor accepted so far *)
  status : status;
  mode : mode;  (** degradation rung; [M_full] when the tail is absent *)
  applied : int;
      (** events durably applied (journalled and fed to the monitor,
          counting post-violation events the sticky monitor ignores);
          equals [events] when the tail is absent *)
}

type domain_stats = {
  live_sessions : int;
  closed_sessions : int;
  events : int;
  responses : int;
  fastpath_hits : int;  (** monitor fast-path hits across the domain *)
  searches : int;
  nodes : int;
}

type shard_stats = {
  shards : int;  (** always [1]: one conflict graph per session *)
  certifies : int;  (** certifications run so far *)
  incremental : int;  (** equals [certifies] *)
  full : int;  (** always [0] *)
  escalated : string option;
      (** why the session was handed to the sequential monitor, if it was *)
}

type frame =
  | Hello of { version : int }
  | Open_session of { session : int }
  | Events of { session : int; events : Event.t list }
  | Checkpoint of { session : int; token : int }
  | Close_session of { session : int }
  | Verdict of verdict
  | Stats_req
  | Stats of domain_stats list
  | Err of { code : error_code; message : string }  (** the [Error] frame *)
  | Goodbye
  | Resume of { session : int; from : int }
      (** attach to a durable session; [from] is the index the client can
          re-send from (v2) *)
  | Resumed of { session : int; applied : int; mode : mode; status : status }
      (** reply: [applied] events are durable; re-send from there (v2) *)
  | Throttle of { session : int; retry_after_ms : int }
      (** the last [Events]/[Events_at] frame was discarded, not applied;
          back off and re-send (v2) *)
  | Heartbeat  (** liveness probe; the server echoes it (v2) *)
  | Events_at of { session : int; from : int; events : Event.t list }
      (** idempotent events: the first event carries index [from] (v2) *)
  | Shed of { session : int; reason : string }
      (** the session was shed; later events are discarded (v2) *)
  | Shards_req of { session : int }
      (** ask for the session's certify counters (v3) *)
  | Shards of { session : int; stats : shard_stats }
      (** reply: the session monitor's certify counters (v3) *)

val verdict :
  ?mode:mode -> ?applied:int -> session:int -> token:int -> events:int ->
  status -> frame
(** Build a [Verdict]; [mode] defaults to [M_full] and [applied] to
    [events]. *)

val encode : Buffer.t -> frame -> unit
(** Body only; the length prefix belongs to {!Wire}. *)

val to_string : frame -> string

val decode : string -> (frame, string) result
(** Total: adversarial bodies yield [Error _], never an exception. *)

val pp_status : Format.formatter -> status -> unit
val pp_frame : Format.formatter -> frame -> unit
