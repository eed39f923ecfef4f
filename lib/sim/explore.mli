(** Systematic schedule enumeration (stateless model checking).

    Re-executes a deterministic program once per explored schedule.  Two
    enumeration strategies share one transition system — the annotated
    scheduler with {e pause parking} (a fiber spinning through
    {!Tm_stm.Mem_intf.MEM.pause} leaves the choice set until the next
    shared write, which collapses pure spin stuttering and keeps the space
    finite even for unbounded spin locks):

    - {!run} — dynamic partial-order reduction (Flanagan–Godefroid
      persistent sets with sleep sets and vector clocks): one execution
      per Mazurkiewicz trace, up to orders of magnitude fewer runs on
      workloads whose transactions touch disjoint or read-shared data.
      A transition's footprint is its memory access plus the
      pseudo-location notes its slice makes ({!Sched.note}); {!Runner}
      notes the history event orders du-opacity reads, so two schedules
      that order such events differently are never merged as one trace.
    - {!run_naive} — branch-everywhere DFS, every schedule exactly once.
      The ground truth DPOR is differentially tested against, and the
      baseline its reduction factor is measured from.

    This is how the small-configuration STM theorems are checked: {e every}
    interleaving of a small TL2 workload yields a du-opaque history — not
    just the sampled ones. *)

type outcome = {
  runs : int;  (** schedules executed to completion *)
  exhaustive : bool;
      (** false if [max_runs] or [max_steps] cut the enumeration short *)
  schedules_pruned : int;
      (** schedule classes DPOR proved redundant without executing them
          (sleep-set hits and unexplored alternatives at popped states);
          0 for the naive DFS *)
  reduction_factor : float;
      (** [(runs + schedules_pruned) / runs] — a {e lower bound} on the
          reduction over the naive enumeration, whose true run count can
          only be measured by running it ([tm verify] does, when
          feasible); 1.0 for the naive DFS *)
}

type algo = [ `Dpor | `Naive ]

val dependent : Sched.annot -> Sched.annot -> bool
(** Two pending transitions do not commute: both access the same location
    and at least one writes ([Cas] counts as a write even when it would
    fail).  [Start] and [Pause] transitions are independent of
    everything. *)

val run :
  ?max_runs:int ->
  ?max_steps:int ->
  make:(unit -> (unit -> unit) list * (unit -> 'a)) ->
  on_result:('a -> unit) ->
  unit ->
  outcome
(** DPOR enumeration.  [make] must return a {e fresh} program (fibers
    sharing fresh state) plus a result extractor; [on_result] is called
    once per completed schedule.  [max_runs] (default 10_000) bounds
    completed executions, [max_steps] (default 200_000) bounds the length
    of any single execution (a schedule livelocked by an injected crash is
    abandoned and the outcome marked non-exhaustive).
    @raise Invalid_argument if re-execution diverges (the program is not
    deterministic), naming the first step whose enabled set changed. *)

val run_naive :
  ?max_runs:int ->
  ?max_steps:int ->
  make:(unit -> (unit -> unit) list * (unit -> 'a)) ->
  on_result:('a -> unit) ->
  unit ->
  outcome
(** Branch-everywhere DFS over the same transition system.
    @raise Invalid_argument if a schedule prefix chooses an out-of-range
    fiber, naming the offending step and how many fibers were enabled. *)

val explore_stm :
  ?algo:algo ->
  ?max_runs:int ->
  ?max_steps:int ->
  ?max_retries:int ->
  ?retry:Tm_stm.Faults.retry ->
  ?faults:Tm_stm.Faults.spec ->
  stm:string ->
  params:Tm_stm.Workload.params ->
  seed:int ->
  on_history:(History.t -> unit) ->
  unit ->
  outcome
(** Enumerate schedules of a simulated STM workload ({!Runner.setup});
    [algo] defaults to [`Dpor].  With a [faults] plan, enumerates every
    schedule of the {e faulted} program — the injector is re-created per
    schedule, so per-thread fault points fire identically in each. *)

val explore_stm_results :
  ?algo:algo ->
  ?max_runs:int ->
  ?max_steps:int ->
  ?max_retries:int ->
  ?retry:Tm_stm.Faults.retry ->
  ?faults:Tm_stm.Faults.spec ->
  ?trace:bool ->
  stm:string ->
  params:Tm_stm.Workload.params ->
  seed:int ->
  on_result:(Runner.result -> unit) ->
  unit ->
  outcome
(** Like {!explore_stm} but delivers the full {!Runner.result} — with
    [~trace:true], each completed schedule carries its shared-memory
    access trace, which is what [tm verify] feeds the race analyzer. *)
