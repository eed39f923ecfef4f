(** Serialization search: the engine behind every exact checker.

    Given a history [H], the engine looks for a transaction order and a
    commit decision per transaction (together: a {!Serialization.t}) such
    that the denoted t-complete t-sequential history is legal, equivalent to
    a completion of [H], and respects the real-time order — i.e. a
    final-state serialization (Definition 4).  Two refinements are
    selectable:

    - {!mode} [Du] additionally enforces Definition 3(3): every
      value-returning read must be legal in its {e local serialization},
      computed incrementally from the per-variable stacks of committed
      writes and the positions of [tryC] invocations in [H].
    - {!mode} [Last_use] relaxes legality for non-committed readers per
      Siek–Wojciechowski's last-use opacity (our per-location rendering):
      a reader the serialization commits must still see the latest
      committed preceding write, but a reader it aborts may additionally
      read from a preceding {e non-committed} writer whose {e closing
      write} on the variable (its last write to it in [H], see
      {!Txn.closing_writes}) responded before the read did — the value an
      early-release TM publishes.  Closed-writer visibility is optional
      per read (the witness may skip a candidate), which makes every
      final-state/du witness a last-use witness and containment a theorem.
    - [extra_edges] adds must-precede constraints between transactions,
      which is how the TMS2 and read-commit-order checkers are obtained.

    Deciding existence is NP-hard in general (it subsumes view
    serializability), so the engine is a backtracking search over placement
    orders with:
    - a linear-time necessary-condition prefilter that dispatches most
      negative instances, with each read looking only at the writers of
      its value;
    - placement candidates ordered by first event in [H] (recorded
      histories are nearly serial, so this hint usually hits on the first
      descent);
    - real-time edges reduced to each transaction's immediate
      predecessors, which have the same closure;
    - failure memoisation on the placed set with its decisions and the
      visible write state.  The state carries a hash updated on every
      placement and stack push or pop, and a hash match is confirmed
      against a snapshot of the full state, so the memo is exact;
    - a symmetry reduction built lazily on first backtrack, which tests
      interchangeability only among transactions of equal signature;
    - an optional node budget that turns the verdict into [Unknown]
      instead of running unbounded.

    Apart from the memo's copy and comparison of the placement row, a
    search node costs no work proportional to the number of transactions,
    so the cost of a search follows its node count. *)

type mode = Plain | Du | Last_use

type options = {
  mode : mode;
  extra_edges : (Event.tx * Event.tx) list;
      (** [(a, b)]: [T_a] must precede [T_b] in the serialization *)
  commit_edges : (Event.tx * Event.tx) list;
      (** [(a, b)]: [T_a] must precede [T_b] {e if the serialization commits
          [T_b]} — needed by constraints that quantify over transactions
          committed in the completion rather than in the history (the
          read-commit-order definition) *)
  respect_rt : bool;  (** enforce clause (2); [false] for serializability *)
  max_nodes : int option;  (** search-node budget; [None] = exact, unbounded *)
  hint : Event.tx list option;
      (** try this transaction order first (online monitoring reuses the
          previous prefix's certificate) *)
}

val default : options
(** [Plain] mode, no extra edges, real time respected, no budget, no hint. *)

val du : options
(** [default] with [mode = Du]. *)

val lu : options
(** [default] with [mode = Last_use]. *)

type stats = {
  nodes : int;  (** search nodes expanded *)
  memo_hits : int;
  prefiltered : bool;  (** the prefilter decided without search *)
}

val search : options -> History.t -> Verdict.t * stats

val serialize : options -> History.t -> Verdict.t
(** [search] without the statistics. *)

(** {1 Incremental searching}

    An online monitor extends one history forever and searches it
    occasionally.  Rebuilding the per-transaction tables for every search
    would make each one Ω(events); an {!ictx} instead accumulates them
    across calls — its own {!Txn.draft} per transaction, dense arrays grown
    amortised, interning kept alive, real-time edges derived once at each
    transaction's birth — so a search over an extension pays only for the
    new events and the rows they changed (plus the search proper). *)

type ictx
(** A persistent search context.  Mutable; not thread-safe. *)

val ictx : options -> ictx
(** Fresh context capturing [mode], [respect_rt] and the edge constraints
    from [options] ([max_nodes] and [hint] are per-search, see
    {!search_ictx}). *)

val sync : ictx -> History.t -> unit
(** Consume the events of [h] not yet seen, O(1) amortised each.  Calls on
    one context pass successive extensions of one history, e.g. the
    snapshots of one {!History.Builder}. *)

val txn : ictx -> Event.tx -> Txn.t
(** {!History.info} of the synced history, cached until [T_k]'s next
    event.  @raise Not_found if [T_k] has no synced event. *)

val search_ictx :
  ?max_nodes:int -> ?hint:Event.tx list -> ictx -> History.t -> Verdict.t * stats
(** [sync c h], then search, recomputing the rows whose summary changed.
    [search opts h] is [search_ictx (ictx opts) h]. *)
