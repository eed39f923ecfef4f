(** Du-opacity (Definition 3) — the paper's contribution.

    A history [H] is du-opaque if some legal t-complete t-sequential history
    [S] is equivalent to a completion of [H], respects [H]'s real-time
    order, and every value-returning [read_k(X)] is legal in its local
    serialization [S^{k,X}_H]: the prefix of [S] up to the read, with every
    transaction that had not invoked [tryC] in [H] before the read's
    response filtered out.  The filter is what makes the deferred-update
    semantics explicit — no read can depend on a transaction that has not
    started committing.

    Positive verdicts carry a certificate checked by
    {!Serialization.validate}.  Under the paper's unique-writes assumption
    du-opacity is prefix-closed (Corollary 2), making a positive verdict
    for [H] sound for every prefix too; with duplicate written values that
    inference fails ({!Tm_figures.Findings.corollary2_gap}) — prefixes must
    be judged on their own. *)

val check : ?max_nodes:int -> ?hint:Event.tx list -> History.t -> Verdict.t

val check_stats :
  ?max_nodes:int -> ?hint:Event.tx list -> History.t -> Verdict.t * Search.stats

(** {1 Incremental checking}

    For a caller that checks an ever-growing history repeatedly — the
    online monitor — a persistent {!Search.ictx} amortises the
    per-transaction table construction across calls.  Same verdicts as
    {!check} on every input. *)

type inc = Search.ictx

val incremental : unit -> inc
(** A fresh du-mode incremental context. *)

val check_inc :
  ?max_nodes:int -> ?hint:Event.tx list -> inc -> History.t -> Verdict.t * Search.stats
(** [check_inc inc h] — like {!check_stats}, but successive calls must pass
    successive extensions of the same history and pay only for the events
    appended since the previous call. *)
