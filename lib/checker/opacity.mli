(** Opacity (Definition 5, Guerraoui & Kapalka): every finite prefix is
    final-state opaque.

    Only prefixes ending at a response event need checking: extending a
    history by a lone invocation adds at most a pending operation, which
    every completion aborts without constraining legality or real-time
    order (this is property-tested).  By the paper's Theorem 10,
    [Du_opacity.check h = Sat _] implies [check h = Sat _], but not
    conversely (Figure 4). *)

val check : ?max_nodes:int -> History.t -> Verdict.t
(** [Sat] carries the final-state serialization of the full history; [Unsat]
    names the length of the shortest prefix that is not final-state
    opaque. *)

val first_bad_prefix : ?max_nodes:int -> History.t -> int option
(** Length of the shortest prefix that is not final-state opaque, if any.
    @raise Failure if the budget runs out on some prefix. *)
