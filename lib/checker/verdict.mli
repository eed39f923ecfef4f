(** Checker outcomes.

    A positive verdict carries the serialization certificate found; a
    negative one carries a human-readable explanation.  [Unknown] only arises
    when an explicit search budget was exhausted — checkers are exact by
    default. *)

type t =
  | Sat of Serialization.t
  | Unsat of string
  | Unknown of string

val is_sat : t -> bool
val is_unsat : t -> bool

val certificate : t -> Serialization.t option

val pp : Format.formatter -> t -> unit
