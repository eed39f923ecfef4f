(** Per-transaction summaries extracted from a history.

    For each transaction [T_k] participating in a history [H], this module
    captures [H|k] in a digested form: its t-operations in program order, its
    span within [H], its completion status, and the reads/writes that matter
    for legality checking.  Every summary is built by a {!draft}: a
    history builds all of its own at once on first use ({!History.info}),
    an incremental search context feeds one per transaction as events
    arrive. *)

type status =
  | Committed       (** [H|k] ends with [C_k] *)
  | Aborted         (** [H|k] ends with [A_k] *)
  | Commit_pending  (** [tryC_k] invoked, response pending *)
  | Abort_pending   (** [tryA_k] invoked, response pending *)
  | Live            (** none of the above: running or between operations *)

type t = {
  id : Event.tx;
  ops : Op.t array;       (** program order; only the last may be incomplete *)
  first_index : int;      (** position in the history of the first event *)
  last_index : int;       (** position in the history of the last event *)
  status : status;
}

type draft
(** A summary whose events are still arriving; mutable, one owner. *)

val draft : int -> Event.t -> draft
(** [draft i ev]: the transaction's first event, at history position [i]. *)

val add : draft -> int -> Event.t -> unit
(** The next event, at position [i], admitted by [History.wf_rule] after
    the last one.  O(1) amortised. *)

val freeze : draft -> t
(** The summary so far, cached until the next {!add}. *)

val is_t_complete : t -> bool
(** [H|k] ends with [C_k] or [A_k]. *)

val is_complete : t -> bool
(** Every invoked t-operation has a response (the paper's "complete
    transaction"); a t-complete transaction is complete. *)

val tryc_inv_index : t -> int option
(** Position in the history of the invocation of [tryC_k], if invoked. *)

(** {1 Data used by legality checking} *)

(** A completed read that returned a value (not [A_k]). *)
type read = {
  var : Event.tvar;
  value : Event.value;
  res_index : int;  (** position in the history of the read's response *)
  kind : [ `Internal of Event.value | `External ];
      (** [`Internal v]: the transaction wrote [v] to [var] before this read
          (legality then requires [value = v], independently of any
          serialization).  [`External]: no preceding own write; the read must
          return the latest committed value at the transaction's place in a
          serialization. *)
}

val reads : t -> read list
(** Completed value-returning reads, in program order. *)

val writes : t -> (Event.tvar * Event.value) list
(** Successful writes in program order (a variable may repeat). *)

val final_writes : t -> (Event.tvar * Event.value) list
(** Latest successful write per variable — the update the transaction
    installs if it commits.  Sorted by variable. *)

val closing_writes : t -> (Event.tvar * int) list
(** Response index (position in the history) of the {e closing write} per
    variable: the transaction's last successful write to that variable in
    this history.  This is the per-location last-use decoration of
    Siek–Wojciechowski's last-use opacity — once the closing write on [x]
    has responded, the transaction will never change [x] again, so an
    early-release TM may publish it.  Sorted by variable. *)

val read_set : t -> Event.tvar list
(** Variables read by completed value-returning reads (sorted, deduplicated):
    the paper's [Rset]. *)

val write_set : t -> Event.tvar list
(** Variables successfully written (sorted, deduplicated): the paper's
    [Wset]. *)

val commit_choices : t -> bool list
(** The commit decisions available to a completion of the history
    (Definition 2): a committed transaction must commit, a transaction with a
    pending [tryC] may commit or abort, every other non-committed transaction
    aborts. *)

val pp : Format.formatter -> t -> unit
val pp_status : Format.formatter -> status -> unit
