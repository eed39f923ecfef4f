(** Direct-serialization-graph backend for du-opacity (EXPERIMENTS §16).

    Where {!Search} decides Definition 3 by backtracking over transaction
    orders, this module builds the {e direct serialization graph} the
    definition induces — real-time edges, reads-from edges, and
    anti-dependency ("the other committed writer of [X] is not between the
    writer and the reader") constraints — and decides du-opacity by keeping
    that graph acyclic.  Acyclicity is maintained {e incrementally} with a
    Pearce–Kelly topological-order algorithm: inserting an edge costs
    nothing when it already respects the maintained order (the overwhelming
    case on event streams, where edges point forward in time) and a bounded
    reorder of the affected region otherwise, instead of a re-search or an
    O(n²) transitive-closure matrix.  Transactions and variables
    are interned to dense ids, each written or read (variable, value) pair
    has one mutable slot, a transaction's deferred writes are a short
    list, and the adjacency lists live in arena-allocated (index-linked)
    edge pools, so no event hashes a tuple and checking a million-event
    history allocates little beyond a handful of flat arrays.

    Reads-from is bound by deferred update.  Definition 3(3) judges a
    read in its local serialization, which keeps only the transactions
    that invoked [tryC] before the read's response; so a read of [(X, v)]
    has as candidate sources the writers of [(X, v)] that had invoked
    [tryC] by then (plus the initial transaction when [v] is the initial
    value).  A candidate is pruned when a committed writer of [X] follows
    it and precedes the reader in real time.  One survivor is a forced
    reads-from edge; two or more are a tie, bound by a fixed rule as a
    heuristic.  Anti-dependencies apply against writers of a different
    value only, and one the read's local serialization does not retain
    may stay inside the interval when a committable same-value writer
    follows it there ({!Tm_figures.Findings.corollary2_gap}: the global
    and local sources differ), so such a constraint is resolved as a
    heuristic repair, never forced.

    The backend is {e sound but deliberately partial}: on states it cannot
    decide cheaply it answers {!Ambiguous} and the caller falls back to the
    exact search.  Fallback triggers exactly when:

    - an ordering contradiction is reached {e after} a heuristic choice —
      a tie bound among same-value writers, a stand-in placed or an
      anti-dependency resolved without being forced, or a write pair
      ordered by commit order — since the contradiction may be an
      artifact of the choice, only the search may call the history
      non-du-opaque (a reason naming a choice among same-value writers
      says that repeated values forfeit prefix closure);
    - a transaction a heuristic choice committed (a tie's source or a
      stand-in) aborts;
    - defensively, when the internal linear-replay validation of a
      candidate certificate fails, or an event is ill-formed.

    On every other state the verdict is definitive: [Sat] carries a
    certificate that passed an independent linear replay of Definition 3's
    clauses (and is additionally re-checked by {!Serialization.validate}
    wherever the oracle adopts it), and [Unsat] is only ever derived from
    forced edges, so it is sound for the checked prefix.  Edges forced at
    one verdict of a stream stay sound for later ones: a candidate set
    only shrinks as writers abort, and a forced repair that assumed no
    other writer of the read's value could commit taints the state once
    one invokes [tryC].  With repeated values a later prefix can be
    du-opaque again (Finding 3), so a streaming consumer that reads
    [Unsat] as "some prefix so far is not du-opaque" keeps that answer
    itself ({!Monitor} is sticky); {!Inc.closed_after} tells which earlier
    prefixes a [Sat] certificate also covers. *)

type result =
  | Sat of Serialization.t
  | Unsat of string
  | Ambiguous of string  (** undecided: fall back to the exact search *)

type stats = {
  nodes : int;  (** interned transactions *)
  edges : int;  (** arena-allocated graph edges *)
  reorders : int;  (** Pearce–Kelly affected-region reorders *)
  repairs : int;  (** anti-dependency edges added at verdict time *)
  tainted : bool;  (** some repair was heuristic, not forced *)
}

val check : History.t -> result
(** Offline check of a complete history: one pass over the events, then
    anti-dependency resolution and a linear certificate replay.  Intended
    for million-event histories; see [bench check]. *)

val check_stats : History.t -> result * stats

val check_or_fallback : ?max_nodes:int -> History.t -> Verdict.t
(** {!check}, with {!Ambiguous} resolved by {!Du_opacity.check} — same
    verdicts as the exact search on every input. *)

val counterexample_cycle : History.t -> Event.tx list option
(** The first counterexample cycle the graph closed while judging [h]:
    transactions [T_a -> T_b -> ... ] (implicitly closing back to [T_a]),
    recovered from the edge arena at refusal time.  [None] when no edge
    insertion ever closed a cycle — in particular on every accepted
    history, but also on histories refuted by a value clause alone.
    Feeds the cycle highlighting of {!Dot.of_history} via
    [tm check --dot]. *)

(** Incremental (online) interface: feed events as they arrive, ask for a
    verdict of the stream seen so far when needed.  {!Monitor}, the one
    online engine, pushes every accepted event here and certifies from
    {!Inc.decide}.

    A verdict costs what changed since the previous one.  Pushes and
    repairs record the lowest position of the maintained order they
    touched: a new transaction, a commit or abort, a new read, a
    Pearce–Kelly reorder (which only permutes the positions of its own
    region).  Below that position nothing moved, so the reads whose
    reader sits there keep the clean intervals the previous verdict left
    them, and the linear replay's state there still holds.  A verdict
    rescans only the reads at or above it — the reads new since the last
    verdict and those whose interval a new committed writer, a reorder or
    a status change can have reached — rewinds the replay to it through an
    undo log and replays the rest.  The certificate is built only when
    asked for.

    Heuristic choices (a tie bound among same-value writers, an
    unconstrained write pair ordered by commit order, a stand-in placed)
    stay in the graph while they hold; a contradiction they may have
    caused answers [Ambiguous], and the caller may rebuild the graph
    from the stream, so no heuristic choice made on a shorter prefix
    outlives the verdict it breaks.  A verdict's own
    conclusions are not recorded: only what a push proves (a read no
    writer can serve, a cycle of edges that are forced at that prefix, an
    abort of a transaction a read forced to commit) answers every later
    verdict without work. *)
module Inc : sig
  type t

  val create : unit -> t

  val push : t -> Event.t -> unit
  (** Ingest one event.  O(1) amortised for responses that do not change
      the edge set; edge insertions cost a Pearce–Kelly update.  Events
      must be pushed in stream order and be well-formed (the monitor's
      {!History.Builder} has already validated them). *)

  val decide : t -> [ `Sat | `Unsat of string | `Ambiguous of string ]
  (** The verdict for the pushed prefix, without building the certificate:
      a recorded poison or violation answers at once; otherwise the
      anti-dependency intervals of the reads at or above the lowest
      touched position are repaired to a fixpoint (forced repairs first,
      then heuristic ones; a contradiction after a heuristic choice
      answers [Ambiguous]) and the order is replayed from there.  [`Sat]
      means the maintained order, with the transactions' decisions, passed
      the replay; {!certificate} renders it. *)

  val verdict : t -> result
  (** {!decide}, with a [Sat]'s certificate built. *)

  val certificate : t -> Serialization.t
  (** The maintained order and commit decisions.  After a [`Sat]
      {!decide} with nothing pushed since, a du-opaque serialization of the
      pushed prefix; after further invocations only, still one (a new
      transaction sits last and aborts).  Otherwise a topological order of
      the graph, good as a search hint. *)

  val closed_after : t -> int
  (** A stream index [l] such that the last [Sat]'s certificate also
      certifies every prefix of the judged stream longer than [l]; [-1]
      when it certifies every prefix.  Restrict the certificate to a
      prefix, committing what committed and can still commit there: the
      writers a read's local serialization retains all stay committed, so
      its local source is unchanged.  Its global source changes only if a
      committed writer between the local source and the read — one that
      invoked [tryC] after the read's response — drops out, because the
      prefix ends before that [tryC].  That matters only where one of
      those newer writers writes another value than the one read; [l] is
      the latest [tryC] index among the newer writers of such reads, so a
      prefix longer than it keeps them all, and every read its source.  A
      certificate with such a read, possible only with repeated written
      values, may cover a shorter prefix that is not du-opaque
      ({!Tm_figures.Findings.corollary2_gap}). *)

  val stats : t -> stats

  val cycle : t -> Event.tx list option
  (** As {!counterexample_cycle}, for the pushed prefix: set at the first
      refused edge insertion, [None] before. *)
end
