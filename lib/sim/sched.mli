(** Deterministic cooperative scheduler over OCaml 5 effects.

    Fibers yield at every simulated memory access ({!Sim_mem}), so the
    scheduler's choice sequence fully determines the interleaving: a seeded
    random chooser gives reproducible stress runs, an explicit chooser
    supports systematic schedule enumeration ({!Explore}).  Everything runs
    on one domain — data races in simulated code are impossible by
    construction, which is what makes recorded histories exact.

    Every yield carries an {e annotation} describing what the fiber will do
    when next resumed: the shared-memory access it is parked in front of
    ({!Sim_mem} yields {e before} each access), or [Pause] for a pure
    spin-wait / backoff hint.  Annotations are what make dependency-aware
    exploration (DPOR) possible: the explorer can tell whether two runnable
    fibers' next steps commute without executing them.  The annotations are
    invisible to the index-based choosers, so seeded schedules are
    bit-for-bit identical to the unannotated scheduler's. *)

type annot =
  | Start  (** fiber not started yet; its first slice performs no access *)
  | Pause  (** spin-wait or backoff hint ({!Mem_intf.MEM.pause}) *)
  | Access of { loc : int; kind : Tm_stm.Trace.kind }
      (** parked immediately before this shared-memory access *)

val yield : unit -> unit
(** Cooperative scheduling point, annotated [Pause].  Must be called from
    inside {!run}.
    @raise Failure when no scheduler is running. *)

val yield_access : loc:int -> Tm_stm.Trace.kind -> unit
(** Scheduling point announcing the access the caller performs next. *)

val yield_annot : annot -> unit

val note : loc:int -> Tm_stm.Trace.kind -> unit
(** The running slice also accesses this pseudo-location (an event order
    its observers tell apart, see {!Runner}).  Not a scheduling point. *)

val current_fiber : unit -> int option
(** The fiber whose slice is currently executing (its index in the list
    passed to {!run}), or [None] outside a scheduler. *)

type fiber_info = { id : int; annot : annot }
(** A runnable fiber: its identity (index in the original fiber list,
    stable across yields) and pending annotation. *)

val run : choose:(int -> int) -> (unit -> unit) list -> unit
(** [run ~choose fibers] runs the fibers to completion.  At every scheduling
    point, [choose n] must return an index in [0 .. n-1] selecting which of
    the [n] currently runnable fibers advances.  Runs until every fiber has
    returned. *)

val run_info :
  ?on_note:(loc:int -> Tm_stm.Trace.kind -> unit) ->
  choose:(fiber_info array -> int) ->
  (unit -> unit) list ->
  unit
(** Like {!run}, but the chooser sees each runnable fiber's identity and
    pending annotation (in the same queue order {!run} indexes).  The
    return value is still an {e index} into the array.  [on_note] hears
    each {!note} of the running slice as it is made (default: ignored). *)

val run_seeded : seed:int -> (unit -> unit) list -> unit
(** [run] with a uniformly random chooser. *)

val run_random : Random.State.t -> (unit -> unit) list -> unit
