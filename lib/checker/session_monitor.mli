(** The streaming service's per-session du-opacity monitor: one
    incremental conflict graph ({!Conflict_graph.Inc}) with a {!Monitor}
    fallback.

    Events stream in one at a time.  {!push} checks well-formedness
    (appending to a {!History.Builder}) and feeds the graph; verdicts are computed at
    {!certify}, from the graph's verdict on everything pushed so far:

    - [Sat], tainted or not, certifies the stream: [`Ok] — provided the
      certificate also covers every prefix
      ({!Conflict_graph.Inc.prefix_closed});
    - anything else {e escalates}: the accepted history is replayed
      through a fresh {!Monitor} with the same [max_nodes] budget, and
      that monitor owns the stream for good.

    {!push} escalates at once when the event is ill-formed, or when the
    graph records a poison or a violation
    ({!Conflict_graph.Inc.certifiable}), since no later certify could
    answer [`Ok] then; the monitor replays the shortest prefix that way.

    {b Soundness.}  The session monitor never declares a violation itself,
    and it declares [`Ok] only on a [Sat] certificate, which the graph has
    replay-validated against Definition 3 for the current prefix.  That
    covers every earlier prefix too when no writer of another value sits
    between a read's local source and the read: the certificate then
    restricts to any prefix ({!Conflict_graph.Inc.prefix_closed}).
    Du-opacity can lose prefix closure only when two transactions write
    the same value to the same variable (Corollary 2;
    {!Tm_figures.Findings.corollary2_gap}), where a later writer of the
    value read can serve it globally past such a writer; that
    certificate escalates.  With unique writes no writer of another value
    is ever left there, so the condition always holds.  After escalation every
    observable — outcome, violation index, counters — is the monitor's
    own, so the session monitor agrees with {!Monitor} on every stream by
    construction.

    Between certifies {!status} is the {e provisional} [`Ok].  The
    streaming service certifies after every durable batch and at
    checkpoint, close and resume points, and {!persist} certifies before
    capturing a capsule, so a recorded [`Ok] is always a certified one. *)

type t

type outcome = Monitor.outcome

val create : ?max_nodes:int -> unit -> t
(** [max_nodes] is the search budget of the escalation monitor (as in
    {!Monitor.create}). *)

val push : t -> Event.t -> outcome
(** Ingest one event.  [`Ok] means {e accepted}, not certified: verdicts
    are computed by {!certify}.  Once escalated this is the monitor's
    outcome ({!Monitor.push}), sticky failures included. *)

val push_all : t -> Event.t list -> outcome

val certify : t -> outcome
(** The stream's outcome: [`Ok] iff the graph certifies everything pushed
    so far (then every prefix is du-opaque), otherwise the escalation
    monitor's sticky verdict.  A certify with nothing pushed since the
    last [`Ok] reuses it. *)

val status : t -> outcome
(** Current outcome without doing any work: the provisional [`Ok] while
    un-escalated, the monitor's sticky outcome after. *)

val certificate : t -> Serialization.t option
(** The graph's certificate behind the last [`Ok] {!certify}; [None]
    before the first one and after escalation. *)

val history : t -> History.t
val violation_index : t -> int option
val events_seen : t -> int
val responses_seen : t -> int
val pending_txns : t -> int

val escalated : t -> bool
(** Has the stream been handed to a {!Monitor}?  Escalation is permanent
    but not a verdict: a stream whose graph verdict follows a heuristic
    choice into a contradiction escalates, and the monitor may well
    still answer [`Ok] on it. *)

val escalation : t -> string option
(** The graph's reason for escalating ("ill-formed event" for a stream
    the {!History.Builder} rejected); [None] while un-escalated. *)

val certifies : t -> int
(** {!certify} calls answered by the graph. *)

val snapshot : t -> Monitor.snapshot
(** The monitor's counter vocabulary, so the streaming service accounts
    every session the same way.  While un-escalated: every response counts
    as a fast-path hit (no backtracking search ever runs), [searches]
    counts {!certify} calls and [nodes] is [0]. *)

val persist : t -> Monitor.persisted
(** Certifies, then captures a {!Monitor.persisted} capsule: the two
    monitors share the in-memory checkpoint format, so a capsule restores
    into either whichever one wrote it. *)

val of_persisted : Monitor.persisted -> (t, string) result
(** Rebuild from a capsule: replay the recorded events and certify.  A
    recorded failure is adopted exactly as {!Monitor.of_persisted} adopts
    it (the rebuilt stream starts escalated); [Error _] when the capsule
    records [`Ok] but the replay refutes it. *)
