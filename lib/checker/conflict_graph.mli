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
    forced edges, so it is sound for the checked prefix.  A streaming
    consumer reads it as "some prefix so far is not du-opaque", which no
    extension retracts.  Edges forced at one verdict stay sound for later
    ones: a candidate set only shrinks as writers abort, and a forced
    repair that assumed no other writer of the read's value could commit
    taints the state once one invokes [tryC].  With repeated values a
    later prefix can be du-opaque again (Finding 3);
    {!Inc.prefix_closed} tells whether a [Sat] certificate also covers
    every earlier prefix. *)

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
    verdict of the stream seen so far only when needed.  {!Monitor} pushes
    every accepted event here and consults {!Inc.verdict} before running a
    backtracking search; {!Session_monitor} runs on it alone until it
    escalates. *)
module Inc : sig
  type t

  val create : unit -> t

  val push : t -> Event.t -> unit
  (** Ingest one event.  O(1) amortised for responses that do not change
      the edge set; edge insertions cost a Pearce–Kelly update.  Events
      must be pushed in stream order and be well-formed (the session
      monitor's and the monitor's {!History.Builder}s have already
      validated them). *)

  val verdict : t -> result
  (** Verdict for the pushed prefix.  One path: a recorded poison or
      violation answers at once; otherwise anti-dependency repair edges
      are added (they stay for every later verdict, and a contradiction
      through a heuristic one answers [Ambiguous]), and the repaired
      topological order is the certificate once it passes the linear
      replay validation. *)

  val certifiable : t -> bool
  (** [false] once a poison or a forced violation is recorded: from then
      on {!verdict} answers [Unsat] or [Ambiguous], without work, for the
      pushed prefix and every extension of it. *)

  val prefix_closed : t -> bool
  (** Whether the last [Sat] from {!verdict} also certifies every prefix
      of the stream it judged: in its certificate every committed writer
      between a read's local source and the read writes the value read.
      Restrict the certificate to a prefix, committing what committed and
      can still commit there: the writers a read's local serialization
      retains all stay committed, so its local source is unchanged, and
      its global source is that source or a writer after it — of the
      value read.  So the prefix is du-opaque too.  A [Sat] without it,
      possible only with repeated written values, may cover a prefix
      that is not du-opaque ({!Tm_figures.Findings.corollary2_gap}). *)

  val events : t -> int

  val stats : t -> stats

  val cycle : t -> Event.tx list option
  (** As {!counterexample_cycle}, for the pushed prefix: set at the first
      refused edge insertion, [None] before. *)
end
