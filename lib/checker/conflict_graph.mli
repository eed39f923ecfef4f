(** Direct-serialization-graph backend for du-opacity (ROADMAP item 2).

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
    are interned to dense ids, per-transaction read/write sets are bitsets,
    and the adjacency lists live in arena-allocated (index-linked) edge
    pools, so checking a million-event history allocates a handful of flat
    arrays.

    The backend is {e sound but deliberately partial}: on states it cannot
    decide cheaply it answers {!Ambiguous} and the caller falls back to the
    exact search.  Fallback triggers exactly when:

    - two distinct transactions write the same value to the same variable
      (the paper's unique-writes assumption fails, so reads-from is not
      determined — e.g. {!Tm_figures.Findings.corollary2_gap});
    - a transaction overwrites a variable after another transaction's read
      was already attributed to the overwritten value, or writes a value
      that an earlier read returned without being attributable to this
      writer (the incremental reads-from binding would have to be
      retracted);
    - a transaction writes the initial value that another transaction
      read (the read could be of the initial state or of that writer);
    - an ordering contradiction is reached {e after} some anti-dependency
      was resolved heuristically rather than forced (the contradiction may
      be an artifact of the heuristic choice, so only the search may call
      the history non-du-opaque);
    - defensively, when the internal linear-replay validation of a
      candidate certificate fails.

    On every other state the verdict is definitive: [Sat] carries a
    certificate that passed an independent linear replay of Definition 3's
    clauses (and is additionally re-checked by {!Serialization.validate}
    wherever the {!Monitor} or the oracle adopts it), and [Unsat] is only
    ever derived from forced edges, so it is sound for the checked prefix
    and — because every verdict-affecting future rebinding is poisoned into
    {!Ambiguous} — stays sound under extension. *)

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
    backtracking search. *)
module Inc : sig
  type t

  val create : unit -> t

  val push : t -> Event.t -> unit
  (** Ingest one event.  O(1) amortised for responses that do not change
      the edge set; edge insertions cost a Pearce–Kelly update.  Events
      must be pushed in stream order and be well-formed (the monitor's
      {!History.extend} has already validated them). *)

  val verdict : t -> result
  (** Verdict for the pushed prefix.  May add forced anti-dependency edges
      (monotone: they remain valid for every later verdict) and runs the
      linear replay validation on success. *)

  val certifiable : t -> bool
  (** [false] once a poison or a forced violation is recorded: from then
      on {!verdict} answers [Unsat] or [Ambiguous], without work, for the
      pushed prefix and every extension of it. *)

  val events : t -> int

  val stats : t -> stats

  val cycle : t -> Event.tx list option
  (** As {!counterexample_cycle}, for the pushed prefix: set at the first
      refused edge insertion, [None] before. *)
end
