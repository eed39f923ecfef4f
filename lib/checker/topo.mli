(** Pearce–Kelly dynamic topological order over a growable DAG.

    The acyclicity engine of the conflict-graph backend
    ({!Conflict_graph.Inc}).  Nodes are dense ids handed out by
    {!add_node}; edges are arena-allocated, and {!add_edge} maintains a
    topological order incrementally — an edge that already respects the
    order is O(1), anything else pays a bounded affected-region reorder,
    and an edge that would close a cycle is refused with the graph left
    exactly as it was.

    Edges are not deduplicated: {!add_edge} stores every edge it accepts,
    and {!mem_edge} is how a caller that may repeat one avoids it.  In the
    conflict graph only a reads-from edge can repeat (a reader reads
    several variables from one writer, or from its real-time
    predecessor).  A real-time edge runs from a distinct frontier member
    to a node created just now, which has no edges yet; a repair edge
    [u -> v] is only inserted when [ord u > ord v], and an existing edge
    [u -> v] would have forced [ord u < ord v]. *)

(** Growable [int array] with push/get/set.  The element type is visible
    to the compiler, so [get] tests no float-array tag and [set]/[push]
    store without the write barrier ([caml_modify]).  Every int vector of
    this module and of the conflict-graph backend ({!Conflict_graph.Inc})
    is one: the order and its inverse, the edge arenas, marks, DFS stacks,
    per-node and per-read state. *)
module Ivec : sig
  type t = { mutable a : int array; mutable n : int; dummy : int }

  val create : int -> t
  (** An empty vector; [dummy] fills the storage past [n]. *)

  val push : t -> int -> unit
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val pop : t -> unit

  val last : t -> int
  (** The element at [n - 1]. *)
end

(** Growable array of boxed contents (reads, lists, tables, nested
    vectors), with the same operations as {!Ivec}.  Holding ints, it would
    pay a float-array tag test per [get] and the write barrier per
    [set]; use {!Ivec} for those. *)
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

val reorder_low : t -> int -> int
(** [reorder_low t i] is the lowest order index the [i]-th reorder
    reassigned (from 0).  A reorder permutes the indices of its region
    among themselves, so every index below the lowest of the reorders
    since some moment still holds the node it held then. *)

val at : t -> int -> int
(** The node at an order index: the inverse of {!ord}. *)

val ord : t -> int -> int
(** The node's current topological index.  Over the [n] nodes the
    indices are a permutation of [0 .. n-1] (a new node takes [n], and a
    reorder reassigns the affected nodes' own indices), and any two nodes
    compare consistently with every inserted edge. *)

val add_edge : t -> int -> int -> [ `Ok | `Cycle ]
(** Insert edge [u -> v], maintaining the order.  [`Cycle] refuses the
    insertion and leaves the graph untouched.  The edge must not be
    present already: a duplicate is stored twice and counted twice by
    {!edge_count}. *)

val mem_edge : t -> int -> int -> bool
(** Is [u -> v] an edge?  Walks [v]'s in-list, so costs [v]'s in-degree. *)

val reach : t -> int -> int -> bool
(** Is there a path [a ~> b]?  DFS bounded by [b]'s order index. *)

val find_path : t -> int -> int -> int list option
(** [find_path t v u] is a path [v ... u] when one exists — used to
    recover a counterexample cycle after [add_edge t u v] was refused. *)
