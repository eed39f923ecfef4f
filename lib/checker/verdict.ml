type t =
  | Sat of Serialization.t
  | Unsat of string
  | Unknown of string

let is_sat = function Sat _ -> true | Unsat _ | Unknown _ -> false
let is_unsat = function Unsat _ -> true | Sat _ | Unknown _ -> false

let certificate = function
  | Sat s -> Some s
  | Unsat _ | Unknown _ -> None

let pp ppf = function
  | Sat s -> Fmt.pf ppf "sat: %a" Serialization.pp s
  | Unsat why -> Fmt.pf ppf "unsat: %s" why
  | Unknown why -> Fmt.pf ppf "unknown: %s" why
