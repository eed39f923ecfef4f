let check ?max_nodes h =
  (* Check short prefixes first so [Unsat] reports the shortest violating
     prefix, matching how the paper's Figure 3 is analysed. *)
  let rec go last = function
    | [] -> last
    | i :: rest -> (
        match Final_state.check ?max_nodes (History.prefix h i) with
        | Verdict.Sat _ as v -> go v rest
        | Verdict.Unsat why ->
            Verdict.Unsat
              (Fmt.str "prefix of length %d is not final-state opaque: %s" i
                 why)
        | Verdict.Unknown _ as v -> v)
  in
  go
    (Verdict.Sat (Serialization.make ~order:[] ~committed:[]))
    (History.boundaries h)

let first_bad_prefix ?max_nodes h =
  let rec go = function
    | [] -> None
    | i :: rest -> (
        match Final_state.check ?max_nodes (History.prefix h i) with
        | Verdict.Sat _ -> go rest
        | Verdict.Unsat _ -> Some i
        | Verdict.Unknown why ->
            failwith ("Opacity.first_bad_prefix: " ^ why))
  in
  go (History.boundaries h)
