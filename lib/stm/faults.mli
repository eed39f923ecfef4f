(** Deterministic fault plans for the STM runners.

    The paper's safety notions are stated over {e incomplete} histories —
    pending [tryCommit]s, transactions that never respond, truncated traces
    are exactly what Definition 2 (completions) and the prefix/limit-closure
    theorems quantify over — yet a fault-free runner only ever emits
    complete, well-matched histories.  A {!spec} makes failure a scheduled,
    seed-reproducible part of a run: the harness consults the plan at every
    t-operation boundary (via {!decide}) and the recorder applies
    {!truncate} at extraction.

    Boundaries are numbered per thread, starting at 0, one per t-operation
    the thread is about to invoke (including retried attempts), so a
    {!point} addresses "the [step]-th operation thread [thread] attempts" —
    a coordinate that is stable under any scheduler interleaving.

    Fault kinds:
    - {e crash}: the thread dies between invoking the operation and
      executing it.  The invocation is recorded and never answered; the
      thread executes nothing further.
    - {e stall}: the next [tryCommit] at or after the chosen point is
      invoked and {e executed} — its effects may be visible to other
      transactions — but the response is withheld forever
      (a commit-pending zombie).
    - {e spurious abort}: the operation at the chosen point is answered
      [A_k] by the TM instead of being executed.
    - {e omission}: the recorder drops every event past a chosen index,
      modelling a truncated trace. *)

type point = { thread : int; step : int }
(** A t-operation boundary: the [step]-th boundary of thread [thread]. *)

type kind = [ `Crash | `Stall | `Spurious | `Omission ]

val all_kinds : kind list
val kind_to_string : kind -> string

type spec = {
  crash : point option;  (** kill the thread at this boundary *)
  stall : point option;
      (** withhold the response of the first [tryC] at or after this
          boundary *)
  spurious : point list;  (** force [A_k] at these boundaries *)
  omission : int option;  (** record only the first [k] events *)
}

val none : spec
(** The empty plan: no fault ever fires; behaviour is identical to a
    fault-free run. *)

val is_none : spec -> bool
val pp_spec : Format.formatter -> spec -> unit

val sample :
  ?kinds:kind list -> n_threads:int -> horizon:int -> seed:int -> unit -> spec
(** A random plan, deterministic in [seed].  [horizon] bounds the per-thread
    boundary index targeted (use roughly [txns_per_thread * (ops_per_txn +
    1)]); [kinds] restricts which fault kinds may appear (default: crash,
    stall, spurious — omission opt-in).  A given seed draws the same
    underlying plan regardless of [kinds]; disabled kinds are masked out. *)

val truncate : spec -> 'a list -> 'a list
(** Apply the plan's omission (if any) to a recorded event list. *)

(** {1 Injection} *)

type action = Proceed | Crash | Stall | Spurious

type t
(** A stateful injector: per-thread boundary counters over a {!spec}.
    Create one per run; threads may consult it concurrently as long as each
    thread passes its own index. *)

val injector : n_threads:int -> spec -> t

val decide : t -> thread:int -> tryc:bool -> action
(** Consult the plan at the calling thread's next boundary (the counter
    advances on every call).  [tryc] says the boundary is a [tryCommit]
    invocation — the only place a stall can fire.  Never returns [Stall]
    when [tryc] is false. *)

(** {1 Retry policies}

    Replaces the fixed retry counter: a failed attempt is retried at most
    [max_attempts] times in total, and before the [n]-th re-attempt the
    runner pauses [backoff n] scheduler yields (simulator) or spin pauses
    (domains) — deterministic under the simulator, and a pressure valve
    against retry storms under contention. *)

type retry = { max_attempts : int; backoff : int -> int }

val retry_fixed : int -> retry
(** [max_attempts] attempts, no backoff — the historical behaviour. *)

val retry_backoff : ?base:int -> ?cap:int -> int -> retry
(** Exponential backoff: before re-attempt [n], pause
    [min cap (base * 2{^ n-1})] units (defaults [base = 1], [cap = 64]). *)
