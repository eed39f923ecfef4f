(** Online du-opacity verification: the one streaming engine, used event
    by event ({!push}) and by the streaming service in batches
    ({!ingest}, then {!certify}).

    The monitor decides "is {e every prefix} of the stream so far
    du-opaque?" — the safety closure of du-opacity, which is what
    Corollary 9 turns into a runtime verifier: under the paper's
    unique-writes assumption du-opacity is prefix-closed (Corollary 2) and
    the closure coincides with du-opacity of the current history; with
    duplicate written values it is strictly stronger, because an extension
    can resurrect a dead prefix ({!Tm_figures.Findings.corollary2_gap}).
    The closure is the right online property either way: a client that
    observed a non-du-opaque prefix acted on an inconsistent snapshot at
    that moment, and nothing committed later can retract it.  Violations
    are therefore {e sticky} — the monitor reports the first violating
    prefix length and stops.

    The engine is one {!History.Builder} (well-formedness), one
    {!Conflict_graph.Inc} fed every accepted event, and a {!Search.ictx}
    created and synced only before a search.  {!ingest} costs a builder append and a
    graph push.  {!certify} asks the graph for the verdict of everything
    ingested so far ({!Conflict_graph.Inc.decide}, which costs what
    changed since the previous certify):

    - [Sat] certifies the stream when it covers every prefix since the
      last [`Ok]: when one response arrived since then, as the last event
      (the invocations before it keep the certified prefix du-opaque), or
      when the certificate restricts to every prefix longer than the last
      [`Ok]'s ({!Conflict_graph.Inc.closed_after});
    - [Unsat] after one response, as the last event, is the violation, at
      the current length;
    - [Ambiguous] — a contradiction after a heuristic choice — rebuilds
      the graph from the stream, since the choice that broke may date from
      an earlier certify, but only once the stream is more than twice as
      long as at the last rebuild.  A graph still [Ambiguous] is not asked
      again until the next rebuild: until then the backtracking search
      decides each response, hinted by the last certificate.

    Otherwise — several responses, or invocations after the response,
    which with repeated values can make a prefix that is not du-opaque
    du-opaque again (Finding 3) — any other verdict replays the stream through
    a fresh monitor that certifies after each of them, and adopts its
    state, so the first violating prefix is the one {!push} would report.

    {!push} is {!ingest} plus {!certify} after each response.

    The monitor accepts {e incomplete} input: transactions left live or
    commit-pending (crashed threads, stalled [tryC]s, truncated traces)
    are tracked for as long as the stream lives, and with a [max_nodes]
    budget every certify terminates with an outcome rather than hanging on
    an adversarial pending-set explosion. *)

type t

val create : ?max_nodes:int -> unit -> t
(** [max_nodes] bounds each search; exceeding it yields a [`Budget]
    outcome rather than a false verdict. *)

type outcome =
  [ `Ok  (** every certified prefix is du-opaque *)
  | `Violation of string  (** first failure; sticky from now on *)
  | `Budget of string  (** a search exceeded [max_nodes]; sticky *) ]

val ingest : t -> Event.t -> outcome
(** Accept one event without certifying: [`Ok] means accepted.  An
    ill-formed event is a sticky violation, after a certify of what was
    accepted before it (whose own violation, if any, comes first). *)

val certify : t -> outcome
(** The stream's outcome: [`Ok] iff every prefix ingested so far is
    du-opaque.  Nothing to do when no response arrived since the last
    [`Ok]. *)

val push : t -> Event.t -> outcome
(** {!ingest}, then {!certify} when the event is a response. *)

val push_all : t -> Event.t list -> outcome

val status : t -> outcome
(** The outcome so far, without work: [`Ok] until a certify (or an
    ill-formed event) fails, then the sticky failure. *)

val history : t -> History.t

val certificate : t -> Serialization.t option
(** A du-opaque serialization of the history ingested so far, without
    work; [None] once the stream failed, or when a response arrived since
    the last [`Ok] ({!certify} first). *)

val violation_index : t -> int option
(** Length of the first violating prefix, if a violation occurred. *)

val adopt_verdict : t -> outcome -> int option -> unit
(** Make a failure recorded elsewhere (a journal's sticky verdict) this
    monitor's own, with its violation index; [`Ok] changes nothing. *)

val pending_txns : t -> int
(** Transactions in the accepted stream that are not yet t-complete, O(1):
    the graph's transactions less the commit and abort responses seen —
    including permanently-pending ones (crashed threads, stalled [tryC]s),
    which the monitor tracks indefinitely. *)

(** {1 Statistics} *)

val events_seen : t -> int

val responses_seen : t -> int
(** Well-formed response events accepted so far. *)

val certifies : t -> int
(** {!certify} calls, including those {!push} makes. *)

val rebuilds : t -> int
(** Graphs rebuilt from the stream after an [Ambiguous] verdict. *)

val replays : t -> int
(** Batch certifies that replayed their window response by response. *)

val fastpath_hits : t -> int
(** Responses certified by the graph as it stood, without a rebuild or a
    search.  [fastpath_hits / responses_seen] is the hit rate reported by
    [tm monitor] and [tm chaos]. *)

val graph_hits : t -> int
(** Responses certified by a graph rebuilt from the stream after its
    heuristic choices met a contradiction. *)

val searches_run : t -> int
(** Backtracking searches.  With {!push}, every certified response is
    accounted to exactly one of {!fastpath_hits}, {!graph_hits} and this. *)

val nodes_total : t -> int

val fallback : t -> string option
(** The graph's reason the first time a certify needed more than the
    graph's incremental verdict over one response — a search, or a
    per-response replay; [None] while the graph has decided everything. *)

type snapshot = {
  events : int;  (** {!events_seen} *)
  responses : int;  (** {!responses_seen} *)
  fastpath_hits : int;
  searches : int;
  nodes : int;
  pending : int;  (** {!pending_txns} at snapshot time *)
}
(** One coherent view of the counters above, cheap enough to take per
    batch of events.  The streaming service diffs successive snapshots to
    account monitor work to its per-domain counters. *)

val snapshot : t -> snapshot

(** {1 Checkpoints}

    A {!persisted} value captures what rebuilds a monitor that is
    {e behaviourally identical} to the original: the accepted history,
    the sticky outcome and the statistics counters.  Capsules live in
    memory only: the streaming service's durable sessions keep just their
    event journal (see [Tm_service.Journal]) and recover a crashed session
    by ingesting it. *)

type persisted = {
  p_max_nodes : int option;
  p_events : Event.t list;  (** the accepted history, in stream order *)
  p_status : outcome;
  p_violation_index : int option;
  p_counters : snapshot;
}

val persist : t -> persisted
(** Certifies, then captures. *)

val of_persisted : persisted -> (t, string) result
(** Ingests [p_events] into a fresh monitor, certifies once, and adopts
    the recorded sticky outcome and counters.  [Error _] when the capsule
    is corrupt: it records [`Ok] but the replay finds a violation.  (The
    converse — a recorded failure over a clean-replaying history — is
    legitimate: the event that tripped the monitor may have been rejected
    as ill-formed before ever entering the history.) *)
