(** Run STM workloads under the deterministic scheduler and record the
    resulting history.

    Each simulated thread is a fiber driving its share of the workload
    through the chosen algorithm ({!Tm_stm.Registry}) instantiated over
    {!Sim_mem}; the scheduler interleaves them at memory-access granularity.
    Same [seed] (and same chooser) — same history, byte for byte: the
    safety experiments and their failures are replayable.  The same holds
    with a fault plan: same [seed] and same [faults] — same (possibly
    incomplete) history. *)

type result = {
  history : History.t;
  stats : Tm_stm.Harness.stats;
  trace : Tm_stm.Trace.t option;
      (** the recorded shared-memory access trace, when [setup] was given
          [~trace:true] *)
}

val setup :
  ?max_retries:int ->
  ?retry:Tm_stm.Faults.retry ->
  ?faults:Tm_stm.Faults.spec ->
  ?trace:bool ->
  ?notes:bool ->
  stm:string ->
  params:Tm_stm.Workload.params ->
  seed:int ->
  unit ->
  (unit -> unit) list * (unit -> result)
(** Fresh shared state, fibers, and a result extractor — the building block
    {!Explore} re-invokes once per schedule.  [retry] overrides
    [max_retries] (which is kept as the historical shorthand for
    [Faults.retry_fixed], default 50 attempts); [faults] defaults to
    {!Tm_stm.Faults.none}.  [trace] (default false) installs a
    {!Tm_stm.Trace} recorder for the run: every shared-memory access and
    transaction-attempt boundary lands in [result.trace].  [notes]
    (default false) makes every recorded event note the history orders
    du-opacity reads ({!Sched.note}), for the DPOR explorer.  Neither adds
    a scheduling point, so the schedule is identical either way. *)

val run :
  ?max_retries:int ->
  ?retry:Tm_stm.Faults.retry ->
  ?faults:Tm_stm.Faults.spec ->
  ?trace:bool ->
  stm:string ->
  params:Tm_stm.Workload.params ->
  seed:int ->
  unit ->
  result
(** [setup] + {!Sched.run_seeded} (schedule seed derived from [seed]). *)
