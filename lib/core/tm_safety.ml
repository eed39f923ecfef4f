(** Umbrella module: the library's public API in one namespace.

    {[
      open Tm_safety

      let h = Parse.of_string_exn "W1(X,1)->ok C1 R2(X)->1 ret1:C" in
      match Du_opacity.check h with
      | Verdict.Sat s -> Fmt.pr "du-opaque via %a@." Serialization.pp s
      | Verdict.Unsat why -> Fmt.pr "not du-opaque: %s@." why
      | Verdict.Unknown _ -> assert false
    ]}

    See the [examples/] directory for larger tours: the paper's figures,
    STM monitoring, and the zombie-transaction demonstration. *)

(** {1 Histories (the paper's Section 2)} *)

module Event = Tm_history.Event
module Op = Tm_history.Op
module Txn = Tm_history.Txn
module History = Tm_history.History
module Dsl = Tm_history.Dsl
module Parse = Tm_history.Parse
module Pretty = Tm_history.Pretty
module Gen = Tm_history.Gen
module Stats = Tm_history.Stats

(** {1 Consistency checkers (Sections 3-4)} *)

module Verdict = Tm_checker.Verdict
module Serialization = Tm_checker.Serialization
module Semantics = Tm_checker.Semantics
module Completion = Tm_checker.Completion
module Search = Tm_checker.Search
module Du_opacity = Tm_checker.Du_opacity
module Last_use_opacity = Tm_checker.Last_use_opacity
module Opacity = Tm_checker.Opacity
module Final_state = Tm_checker.Final_state
module Tms2 = Tm_checker.Tms2
module Rco = Tm_checker.Rco
module Serializable = Tm_checker.Serializable
module Snapshot_isolation = Tm_checker.Snapshot_isolation
module Conflict_graph = Tm_checker.Conflict_graph
module Lemmas = Tm_checker.Lemmas
module Limit = Tm_checker.Limit
module Shrink = Tm_checker.Shrink
module Dot = Tm_checker.Dot
module Monitor = Tm_checker.Monitor
module Session_monitor = Tm_checker.Session_monitor

(** The one-shard API of the deleted location-sharded monitor, over
    {!Session_monitor}.  Kept only because the frozen perfbench harness
    still calls it. *)
module Sharded_monitor = struct
  include Session_monitor

  let create ?max_nodes ?(nshards = 1) () =
    if nshards <> 1 then
      invalid_arg "Sharded_monitor.create: sessions have exactly one shard";
    create ?max_nodes ()

  type stitch_stats = {
    certifies : int;
    incremental : int;
    full : int;
    escalated : string option;
  }

  let stitch_stats t =
    let n = certifies t in
    { certifies = n; incremental = n; full = 0; escalated = escalation t }
end
module Topo = Tm_checker.Topo

(** {1 The paper's example histories} *)

module Figures = Tm_figures.Figures

(** {1 STM algorithms and runners (Section 5's subjects)} *)

module Stm = struct
  module Intf = Tm_stm.Tm_intf
  module Mem = Tm_stm.Mem_intf
  module Atomic_mem = Tm_stm.Atomic_mem
  module Tl2 = Tm_stm.Tl2
  module Norec = Tm_stm.Norec
  module Mvcc = Tm_stm.Mvcc
  module Tml = Tm_stm.Tml
  module Twopl = Tm_stm.Twopl
  module Global_lock = Tm_stm.Global_lock
  module Pessimistic = Tm_stm.Pessimistic
  module Dirty = Tm_stm.Dirty
  module Eager = Tm_stm.Eager
  module Registry = Tm_stm.Registry
  module Workload = Tm_stm.Workload
  module Harness = Tm_stm.Harness
  module Parallel = Tm_stm.Parallel
  module Faults = Tm_stm.Faults
  module Clock = Tm_stm.Clock
end

module Sim = struct
  module Sched = Tm_sim.Sched
  module Mem = Tm_sim.Sim_mem
  module Runner = Tm_sim.Runner
  module Explore = Tm_sim.Explore

  module Faults = Tm_sim.Faults
  (** Fault plans and campaigns (re-exports {!Tm_stm.Faults} plus the
      campaign layer). *)
end

(** {1 Trace analysis and exhaustive verification ([tm verify], [tm lint])} *)

module Analysis = struct
  module Vclock = Tm_analysis.Vclock
  module Race = Tm_analysis.Race
  module Lint = Tm_analysis.Lint
  module Verify = Tm_analysis.Verify
end

(** {1 The differential soak oracle ([tm soak])} *)

module Oracle = Tm_oracle.Oracle

(** {1 Service chaos campaigns ([tm chaos --service])} *)

module Service_chaos = Tm_oracle.Service_chaos

(** {1 The streaming checking service ([tm serve])} *)

module Service = struct
  module Codec = Tm_service.Codec
  module Protocol = Tm_service.Protocol
  module Wire = Tm_service.Wire
  module Mailbox = Tm_service.Mailbox
  module Journal = Tm_service.Journal
  module Server = Tm_service.Server
  module Client = Tm_service.Client
  module Proxy = Tm_service.Proxy
end
