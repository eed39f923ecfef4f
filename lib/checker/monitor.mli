(** Online du-opacity verification, one event at a time.

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
    are therefore {e sticky} by definition — the monitor reports the first
    violating prefix length and stops searching.

    Event ingestion is cheap by default.  Invocations extend the running
    certificate in O(1): the new pending operation aborts in a completion
    and constrains nothing.  Responses go through a {e certificate
    revalidation} fast path before any search: the running certificate,
    extended with the completion choice the response implies (commit a
    pending [tryC] in place or at the end of the order, keep everything
    else), is checked against the clauses of Definition 3 that the new
    event could violate — via the independent {!Serialization} validator
    where a full recheck is needed — and only when no such extension is
    valid does the monitor fall back to the backtracking search, seeded
    with the previous order as a hint and run over a persistent
    {!Search.ictx} so the per-transaction tables are never rebuilt.  On
    well-behaved streams (e.g. recorded from TL2 or NOrec) nearly all
    responses are absorbed by revalidation; see {!fastpath_hits}.

    The monitor accepts {e incomplete} input gracefully: histories whose
    final event leaves transactions live or commit-pending (crashed
    threads, stalled [tryC]s, truncated traces) are first-class — pending
    transactions are tracked for as long as the stream lives, and with a
    [max_nodes] budget every push terminates with an outcome rather than
    hanging on an adversarial pending-set explosion. *)

type t

val create : ?max_nodes:int -> unit -> t
(** [max_nodes] bounds each per-response search; exceeding it yields a
    [`Budget] outcome rather than a false verdict. *)

type outcome =
  [ `Ok  (** the prefix so far is du-opaque *)
  | `Violation of string  (** first failure; sticky from now on *)
  | `Budget of string  (** a search exceeded [max_nodes]; sticky *) ]

val push : t -> Event.t -> outcome
val push_all : t -> Event.t list -> outcome

val history : t -> History.t
val certificate : t -> Serialization.t option
(** Certificate of the last verified prefix, when still [`Ok]. *)

val violation_index : t -> int option
(** Length of the first violating prefix, if a violation occurred. *)

val pending_txns : t -> int
(** Transactions in the accepted stream that are not yet t-complete, as an
    O(1) gauge maintained by {!push} (the streaming service snapshots every
    batch, so a recount per call would be quadratic over a stream) —
    including permanently-pending ones (crashed threads, stalled [tryC]s),
    which the monitor tracks indefinitely without corrupting its state:
    they sit in the certificate order and are resolved afresh, per search,
    through the completion choices. *)

(** {1 Statistics (for the monitoring benchmark)} *)

val events_seen : t -> int

val responses_seen : t -> int
(** Response events accepted or rejected so far; every one was handled
    either by the revalidation fast path or by a search. *)

val fastpath_hits : t -> int
(** Responses absorbed by certificate revalidation — no backtracking
    search ran.  [fastpath_hits / responses_seen] is the fast-path hit
    rate reported by [tm monitor] and [tm chaos]. *)

val searches_run : t -> int
val nodes_total : t -> int

val graph_hits : t -> int
(** Fallback situations the incremental conflict-graph backend decided —
    a validated [Sat] certificate adopted, or a sound [Unsat] — so no
    backtracking search ran.  Counted inside {!searches_run}'s trigger
    sites but not in {!searches_run} itself: a response is accounted to
    exactly one of revalidation ({!fastpath_hits}), the graph, or the
    search. *)

type snapshot = {
  events : int;  (** {!events_seen} *)
  responses : int;  (** {!responses_seen} *)
  fastpath_hits : int;
  searches : int;
  nodes : int;
  pending : int;  (** {!pending_txns} at snapshot time *)
}
(** One coherent view of the counters above, cheap enough to take per batch
    of pushed events.  The streaming service diffs successive snapshots to
    account monitor work to its per-domain counters. *)

val snapshot : t -> snapshot

val status : t -> outcome
(** The outcome the next {!push} would return before ingesting anything:
    [`Ok] while every accepted prefix is du-opaque, otherwise the sticky
    [`Violation]/[`Budget] already reported. *)

(** {1 Serializable checkpoints}

    A {!persisted} value captures everything needed to rebuild a monitor
    that is {e behaviourally identical} to the original: the accepted
    history, the sticky outcome, and the statistics counters.  Restoring
    replays the history through a fresh monitor — event ingestion is
    deterministic, so the certificate, the incremental search context, and
    every future verdict come out exactly as if the stream had never been
    interrupted — and then adopts the recorded counters, so fast-path hit
    rates are checkpoint-transparent too.  The streaming service's durable
    sessions serialize these capsules to disk (see [Tm_service.Journal])
    and recover crashed sessions by snapshot-load + journal-replay. *)

type persisted = {
  p_max_nodes : int option;
  p_events : Event.t list;  (** the accepted history, in stream order *)
  p_status : outcome;
  p_violation_index : int option;
  p_counters : snapshot;
}

val persist : t -> persisted

val of_persisted : persisted -> (t, string) result
(** Replays [p_events] through a fresh monitor and adopts the recorded
    sticky outcome and counters.  [Error _] when the capsule is corrupt:
    it records [`Ok] but the replay finds a violation.  (The converse — a
    recorded failure over a clean-replaying history — is legitimate: the
    event that tripped the monitor may have been rejected as ill-formed
    before ever entering the history.) *)
