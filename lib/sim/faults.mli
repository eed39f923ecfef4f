(** Fault campaigns: seeded fault plans driven through the deterministic
    simulator, with every produced history — and all of its prefixes —
    checked for du-opacity.

    This is the chaos-engineering face of {!Tm_stm.Faults} (whose plan
    types and injector are re-exported here): a campaign runs one seeded
    simulation per seed, each under a plan sampled from that same seed, so
    a reported failure replays from its seed alone.  Crash and stall plans
    produce {e genuinely incomplete} histories — invocations pending
    forever, commit-pending zombies — which is the input class the paper's
    completion machinery (Definition 2) and closure theorems are about and
    which a fault-free runner never emits. *)

include module type of struct
  include Tm_stm.Faults
end

type outcome = [ `Ok | `Violation of string | `Budget of string ]
(** {!Tm_checker.Monitor} outcome over the full event stream: [`Ok] means
    the history and every prefix is du-opaque; [`Budget] means a search
    exhausted [max_nodes] (never a hang, never a false verdict). *)

type monitor_stats = {
  responses : int;  (** response events the monitor handled *)
  fastpath_hits : int;
      (** responses the graph certified as it stood: no rebuild, no
          search *)
  searches : int;  (** backtracking searches run *)
  nodes : int;  (** total search nodes across the stream *)
}
(** How the online monitor spent its time over one recorded history —
    [fastpath_hits / responses] is the fast-path hit rate reported by
    [tm chaos]. *)

type report = {
  seed : int;
  spec : Tm_stm.Faults.spec;  (** the plan that was injected *)
  history : History.t;  (** the recorded (possibly incomplete) history *)
  stats : Tm_stm.Harness.stats;
  outcome : outcome option;  (** [None] when checking was disabled *)
  monitor : monitor_stats option;  (** [None] when checking was disabled *)
  commit_pending : int;  (** transactions left with a pending [tryC] *)
  incomplete : int;  (** transactions that never became t-complete *)
}

val horizon : Tm_stm.Workload.params -> int
(** Per-thread boundary budget implied by a workload shape —
    [txns_per_thread * (ops_per_txn + 1)] — the right [~horizon] for
    {!sample}. *)

val run_one :
  ?max_nodes:int ->
  ?check:bool ->
  ?retry:Tm_stm.Faults.retry ->
  stm:string ->
  params:Tm_stm.Workload.params ->
  spec:Tm_stm.Faults.spec ->
  seed:int ->
  unit ->
  report
(** One simulator run under [spec].  With [check] (default [true]) the
    recorded history is streamed through the online monitor under a
    [max_nodes] budget (default 2M nodes per response).  Deterministic:
    same [stm], [params], [spec], [seed] — same report. *)

val campaign :
  ?max_nodes:int ->
  ?check:bool ->
  ?retry:Tm_stm.Faults.retry ->
  ?kinds:Tm_stm.Faults.kind list ->
  stm:string ->
  params:Tm_stm.Workload.params ->
  seeds:int list ->
  unit ->
  report list
(** One {!run_one} per seed, each under [sample ?kinds ~seed]. *)
