(** Transactional-memory histories (the paper's Section 2).

    A history is a finite sequence of invocation and response events of
    t-operations.  All histories handled by this library are {e well-formed}:
    for every transaction [T_k], [H|k] is sequential (each invocation is
    followed by its matching response before the next invocation, except
    possibly the last) and has no events after [C_k] or [A_k].

    Values of type {!t} are immutable.  Prefixes share the underlying event
    storage, so [prefix] is O(1) and iterating over all prefixes of a
    history is cheap — the checkers rely on this when deciding opacity
    (Definition 5).  A history grows one way: through a {!Builder}, whose
    snapshots share its storage too; that is how the online monitors
    stream. *)

type t

(** {1 Construction} *)

type error = {
  index : int;           (** position of the offending event *)
  event : Event.t;
  reason : string;
}

val pp_error : Format.formatter -> error -> unit

val wf_rule : Event.t option -> Event.t -> string option
(** [wf_rule prev ev] is [None] when [ev] may follow [prev], the previous
    event of its transaction ([None]: it has none), and otherwise the
    reason the history is ill-formed at [ev]:  transaction identifiers are
    positive; per transaction, events alternate invocation/response with
    matching kinds; no event follows [C_k] or [A_k].  Every constructor
    below validates with this rule alone. *)

val of_events : Event.t list -> (t, error) result
(** Validates well-formedness with {!wf_rule}, one table lookup per event.
    The summaries ({!info}, {!txns}, {!infos}) are built in one more pass
    when first asked for; a caller that only reads events never pays. *)

val of_event_array : Event.t array -> (t, error) result
(** {!of_events} on an array, validated in place: the history keeps the
    array as its storage, so the caller must not modify it afterwards.
    A decoder that knows the event count builds its history this way,
    without a list. *)

val of_events_exn : Event.t list -> t
(** @raise Invalid_argument on ill-formed input. *)

val of_events_prefix : Event.t list -> t * Event.t list
(** [of_events_prefix events] is the longest well-formed prefix of [events]
    together with the dropped tail (empty when the whole input is
    well-formed).  Recovery entry point for event streams whose recording
    was cut mid-operation — a crashed domain that died between appending an
    invocation and its response can leave a torn tail that would make
    {!of_events} fail outright. *)

val empty : t

(** {1 Accessors} *)

val length : t -> int
val get : t -> int -> Event.t
val to_list : t -> Event.t list

val txns : t -> Event.tx list
(** Transactions participating in the history, ordered by first event. *)

val info : t -> Event.tx -> Txn.t
(** Summary of [H|k].
    @raise Not_found if the transaction does not participate. *)

val infos : t -> Txn.t list
(** Summaries of all participating transactions, ordered by first event. *)

val committed : t -> Event.tx list
val aborted : t -> Event.tx list
val commit_pending : t -> Event.tx list

val unique_writes : t -> bool
(** The paper's unique-writes assumption: no two transactions perform
    successful writes of the same value to the same variable.  Under it
    reads-from is determined and du-opacity is prefix-closed
    (Corollary 2). *)

val is_complete : t -> bool
(** Every transaction is complete (all invoked operations have responses). *)

val is_t_complete : t -> bool
(** Every transaction ends with [C_k] or [A_k]. *)

val is_t_sequential : t -> bool
(** No two transactions overlap. *)

val is_sequential : t -> bool
(** Every invocation is immediately followed by its matching response (or is
    the last event). *)

(** {1 Orders} *)

val rt_precedes : t -> Event.tx -> Event.tx -> bool
(** [rt_precedes h k m] — the paper's [T_k ≺RT T_m]: [T_k] is t-complete and
    its last event precedes the first event of [T_m]. *)

val overlap : t -> Event.tx -> Event.tx -> bool
(** Neither transaction really-time-precedes the other. *)

val live_set : t -> Event.tx -> Event.tx list
(** [Lset_H(T)] — transactions (including [T]) whose event span intersects
    [T]'s: neither one's last event precedes the other's first event. *)

val ls_precedes : t -> Event.tx -> Event.tx -> bool
(** [T ≺LS T'] — every transaction in [Lset_H(T)] is complete and takes its
    last event before the first event of [T']. *)

(** {1 Derived histories} *)

val prefix : t -> int -> t
(** [prefix h i] is the history made of the first [i] events (the paper's
    [H^i]).  O(1); shares storage with [h]. *)

val is_prefix : t -> of_:t -> bool
(** [is_prefix h ~of_:g] — the events of [h] are the first [length h]
    events of [g].  O(1) when the two share storage (one was produced from
    the other by {!prefix}, or both are snapshots of one {!Builder}); a
    single traversal of [h] otherwise. *)

val project : t -> keep:(Event.tx -> bool) -> t
(** Subsequence of events of the kept transactions (used e.g. to restrict a
    history to its committed transactions for serializability checking). *)

val equivalent : t -> t -> bool
(** The paper's equivalence: same participating transactions and identical
    [H|k] for each. *)

val response_indices : t -> int list
(** Indices [i] such that event [i-1] is a response — together with [0] and
    [length], the prefix lengths at which final-state opacity of prefixes
    needs checking (extending a history by a lone invocation preserves
    final-state opacity). *)

val boundaries : t -> int list
(** Ascending prefix lengths at which a verdict can change: one per
    response, plus the full length when the history ends mid-operation
    (a trailing invocation still extends the history).  O(n);
    opacity's prefix check and the lockstep oracle walk it per history,
    and the test suite timing-guards it at ≥2000 responses. *)

val pp : Format.formatter -> t -> unit
(** One event per line, prefixed by its index. *)

val pp_inline : Format.formatter -> t -> unit
(** All events on one line. *)

(** {1 Streaming construction} *)

(** The one way to grow a history: {!add} costs one {!wf_rule} check, one
    table lookup (an insertion only for a transaction's first event) and
    one slot write, and keeps no summary.  A builder
    writes only into storage it allocated, past every snapshot it handed
    out, so no slot has two writers.  It must stay on one domain; its
    snapshots may be shared. *)
module Builder : sig
  type history := t
  type t

  val create : unit -> t

  val add : t -> Event.t -> (unit, error) result
  (** Append the event, or say why it is ill-formed ([index] = {!length}). *)

  val length : t -> int
  val to_list : t -> Event.t list

  val history : t -> history
  (** The events added so far.  O(1); shares the builder's storage. *)
end
