(** Bounded blocking queue (mutex + condition variables), the work-queue
    between connection reader threads and session workers.

    The bound is the server's backpressure: a reader that cannot enqueue
    blocks, stops draining its socket, and the kernel's flow control
    propagates the stall to the client — no unbounded buffering anywhere
    on the path.  Safe across OCaml 5 domains. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument unless [capacity > 0]. *)

val put : 'a t -> 'a -> unit
(** Blocks while the queue holds [capacity] items. *)

val try_put : 'a t -> 'a -> bool
(** Non-blocking [put]: [false] when the queue is full — the caller's cue
    to throttle instead of queueing without bound (the server's overload
    path). *)

val take : 'a t -> 'a
(** Blocks while the queue is empty. *)

val length : 'a t -> int
