(** Pearce–Kelly dynamic topological order over a growable DAG.

    The acyclicity engine of the conflict-graph backend
    ({!Conflict_graph.Inc}).  Nodes are dense ids handed out by
    {!add_node}; edges are arena-allocated and deduplicated, and
    {!add_edge} maintains a topological order incrementally — an edge that
    already respects the order is O(1), anything else pays a bounded
    affected-region reorder, and an edge that would close a cycle is
    refused with the graph left exactly as it was. *)

(** Growable array with push/get/set — shared with the conflict-graph
    backend's per-node state vectors. *)
module Pvec : sig
  type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

  val create : 'a -> 'a t
  val push : 'a t -> 'a -> unit
  val get : 'a t -> int -> 'a
  val set : 'a t -> int -> 'a -> unit
  val pop : 'a t -> unit
end

type t

val create : unit -> t

val add_node : t -> int
(** Next dense node id, appended at the end of the maintained order (so
    edges from existing nodes never trigger a reorder). *)

val edge_count : t -> int

val reorders : t -> int
(** Affected-region reorders performed so far. *)

val ord : t -> int -> int
(** The node's current topological index.  Total over nodes; any two
    nodes compare consistently with every inserted edge. *)

val add_edge : t -> int -> int -> [ `Ok | `Cycle ]
(** Insert edge [u -> v], maintaining the order.  [`Cycle] refuses the
    insertion and leaves the graph untouched; duplicates are [`Ok]
    no-ops. *)

val reach : t -> int -> int -> bool
(** Is there a path [a ~> b]?  DFS bounded by [b]'s order index. *)

val find_path : t -> int -> int -> int list option
(** [find_path t v u] is a path [v ... u] when one exists — used to
    recover a counterexample cycle after [add_edge t u v] was refused. *)

val succ_iter : t -> int -> (int -> unit) -> unit
(** Iterate the direct successors of a node. *)
