let truncate_to_first_bad bad h =
  match
    List.find_opt (fun i -> bad (History.prefix h i)) (History.boundaries h)
  with
  | Some i -> History.prefix h i
  | None -> h

let drop_transactions bad h =
  (* Rebuilding [History.txns] and scanning it per candidate is O(n²) in
     transaction count on the large repro histories this shrinker exists
     for; a removed-set keeps the same skip semantics in O(1). *)
  let gone = Hashtbl.create 16 in
  List.fold_left
    (fun h k ->
      if Hashtbl.mem gone k then h
      else
        let candidate = History.project h ~keep:(fun k' -> k' <> k) in
        if bad candidate then begin
          Hashtbl.replace gone k ();
          candidate
        end
        else h)
    h (History.txns h)

(* Candidate operation removals: the event-index pairs of each complete
   operation.  Removing a complete operation keeps per-transaction
   sequences alternating, hence well-formed. *)
let op_spans h =
  List.concat_map
    (fun (txn : Txn.t) ->
      Array.to_list txn.Txn.ops
      |> List.filter_map (fun (op : Op.t) ->
             match op.Op.res_index with
             | Some r -> Some (op.Op.inv_index, r)
             | None -> Some (op.Op.inv_index, op.Op.inv_index)))
    (History.infos h)

let remove_span h (a, b) =
  let events =
    List.filteri (fun i _ -> i <> a && i <> b) (History.to_list h)
  in
  match History.of_events events with Ok h' -> Some h' | Error _ -> None

let drop_operations bad h =
  (* One pass; spans are recomputed after each successful removal since
     indices shift. *)
  let rec go h =
    let improved =
      List.find_map
        (fun span ->
          match remove_span h span with
          | Some candidate when bad candidate -> Some candidate
          | Some _ | None -> None)
        (op_spans h)
    in
    match improved with Some h' -> go h' | None -> h
  in
  go h

let minimal ~bad h =
  if not (bad h) then None
  else
    let h = truncate_to_first_bad bad h in
    let rec fixpoint h =
      let h' = drop_operations bad (drop_transactions bad h) in
      if History.length h' < History.length h then fixpoint h' else h'
    in
    Some (fixpoint h)

let minimal_violation ?max_nodes ?check h =
  let check =
    match check with
    | Some f -> f
    | None -> fun h -> Conflict_graph.check_or_fallback ?max_nodes h
  in
  minimal ~bad:(fun h -> Verdict.is_unsat (check h)) h
