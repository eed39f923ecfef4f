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
  11 Resume         session:uv
  12 Resumed        session:uv applied:uv mode:u8 status
  13 Throttle       session:uv
  14 Heartbeat      (empty)
  15 Events_at      session:uv from:uv count:uv event*
  16 Shed           session:uv reason:str

(tags 17 and 18 are unassigned; a body carrying either fails to decode)

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
                                        events                          *)

mode    := 0                         (* full checking                   *)
         | 2                         (* shed: events past [applied]
                                        were discarded                  *)

(any other mode byte, 1 among them, fails to decode; so does a Resume or
 Throttle body with anything after its session)

domain  := live:uv closed:uv events:uv responses:uv hits:uv
           searches:uv nodes:uv

uv      := unsigned LEB128 varint (63-bit)
sv      := zigzag-coded signed varint
str     := len:uv byte*
    v}

    {1 Conversation}

    The client speaks first: [Hello] (magic + its {!version}).  The
    versions must match: the server answers [Hello] with the same version,
    or answers [Error unsupported-version] and closes the connection.
    There is no negotiation — both peers are built from this module.
    After the handshake the client opens any number of
    sessions (its own identifier namespace, per connection), streams
    [Events] frames into them, and collects [Verdict] frames: a
    [Checkpoint] is answered with the current verdict carrying the
    checkpoint's token, a [Close_session] with the final verdict (token
    [0]).  [Stats_req] is answered with per-worker counters.
    Protocol-level problems come back as [Error] frames: an undecodable
    body ([bad-frame]) or a semantic error ([unknown-session],
    [duplicate-session], ...) is reported and the connection keeps serving
    its other sessions; only a desynchronised stream (unparseable length
    prefix) closes the connection.

    Verdicts are the online monitor's outcomes, so a [Verdict] with status
    [0] certifies that {e every prefix} of the session's stream so far is
    du-opaque — the same judgement [tm monitor] makes offline.

    {1 Durable sessions and resume}

    A server started with a journal directory makes sessions {e durable}:
    every applied event is appended to a per-session journal before it
    reaches the monitor, and a checkpoint [fsync]s that journal, so a
    session survives both its connection and the server process.  The
    journal is the session's only durable state.  On a durable server the
    session identifier namespace is {e global} (shared by every
    connection), not per-connection.

    [Resume session] attaches the connection to durable session
    [session]: to a live orphaned session (its previous connection died)
    in memory, or — after a server crash — to one rebuilt by replaying its
    journal under the restarted server's node budget (a session journalled
    in the earlier snapshotting format is refused with an [Error] frame,
    and its files are kept).  The server answers [Resumed] with
    [applied], the number of events it has {e durably applied}; the
    client re-sends everything from that index.  Re-sending is idempotent
    through [Events_at]: a frame whose [from] lies at or before [applied]
    has its first [applied - from] events dropped, and a frame that would
    open a gap ([from > applied]) is answered with [Throttle] and not
    applied — so duplicated, re-sent, or reordered frames can never
    double-apply or skip events, and the session's applied stream is
    always a contiguous prefix of what the client sent.

    {1 Overload: throttle, then shed}

    A server under pressure degrades {e predictably} instead of queueing
    without bound or wedging.  du-opacity is a safety property, so a
    verdict stays honest as long as it says which prefix it covers; two
    moves suffice:

    - {e throttle}: a session whose worker's mailbox is over its
      high-watermark gets its [Events]/[Events_at] frame {e discarded}
      and answered with [Throttle]; the client backs off on its own
      schedule and re-sends from its last acknowledged index.  A
      [Throttle] always means the frame was not applied.
    - {e shed}: a session throttled too many times in a row is shed: the
      server answers [Shed], discards every later event for that
      session, and all subsequent verdicts carry [mode = 2] with
      [applied] marking the contiguous prefix the verdict actually
      covers.  A shed verdict is still sound — for the prefix — and never
      silently masquerades as a full one.

    The mode travels in the verdict [tail]; its absence means full
    checking.  Open/accept admission is controlled separately:
    beyond [max_sessions] live sessions (or [max_conns] connections) the
    server answers [Error overloaded] rather than accepting work it
    cannot serve.

    {1 Heartbeats and deadlines}

    Either peer may send [Heartbeat]; the server echoes it.  A server
    enforces a read deadline of {!default_session_timeout} seconds
    (configurable via [tm serve --session-timeout]): a connection that
    stays completely silent longer than that is presumed dead and
    reaped — durable sessions become orphaned-resumable, and an orphan
    older than the same timeout is expired for good.  Clients that idle
    should heartbeat every {!default_heartbeat} seconds so a slow but
    live peer is never mistaken for a dead one; conversely a
    slow-loris peer cannot hold a connection (or its reader thread)
    hostage for longer than the session timeout. *)

val version : int
(** The protocol version: 5.  A peer must send exactly this version in
    its [Hello]; any other is refused.  Version 4 also carried a sampling
    mode, a retry hint in [Throttle] and a resume index in [Resume]; no
    peer acted on any of them, and version 5 carries none. *)

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
      (** admission refused: session or connection limit reached *)

val pp_error_code : Format.formatter -> error_code -> unit

type status =
  | S_ok
  | S_violation of string
  | S_budget of string  (** mirrors {!Tm_checker.Monitor.outcome} *)

type mode =
  | M_full  (** every event checked *)
  | M_shed  (** events past [applied] discarded; verdict covers the prefix *)

val mode_to_int : mode -> int
val mode_of_int : int -> mode option
val pp_mode : Format.formatter -> mode -> unit

type verdict = {
  session : int;
  token : int;  (** checkpoint token; [0] for the final verdict *)
  events : int;  (** events the monitor accepted so far *)
  status : status;
  mode : mode;  (** [M_full] when the tail is absent *)
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
  fastpath_hits : int;  (** monitor fast-path hits across the worker *)
  searches : int;
  nodes : int;
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
  | Resume of { session : int }  (** attach to a durable session *)
  | Resumed of { session : int; applied : int; mode : mode; status : status }
      (** reply: [applied] events are durable; re-send from there *)
  | Throttle of { session : int }
      (** the last [Events]/[Events_at] frame was discarded, not applied;
          back off and re-send *)
  | Heartbeat  (** liveness probe; the server echoes it *)
  | Events_at of { session : int; from : int; events : Event.t list }
      (** idempotent events: the first event carries index [from] *)
  | Shed of { session : int; reason : string }
      (** the session was shed; later events are discarded *)

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

val events_header : string -> (int * int option) option
(** [Some (session, from)] for an [Events] ([from = None]) or [Events_at]
    body whose header decodes, without decoding its events. *)

val pp_status : Format.formatter -> status -> unit
val pp_frame : Format.formatter -> frame -> unit
