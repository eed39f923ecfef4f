type report = {
  depths : int list;
  never_complete : Event.tx list;
  chain : (int * Event.tx list) list;
  stabilised : bool;
  all_du_opaque : bool;
}

let rec list_is_prefix eq a b =
  match a, b with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys -> eq x y && list_is_prefix eq xs ys

let analyze ?max_nodes ~family ~depths () =
  let depths = List.sort_uniq Int.compare depths in
  let members = List.map (fun d -> (d, family d)) depths in
  (* Monotonicity: each member a prefix of the next.  [History.is_prefix]
     is O(1) for members sharing storage and a single traversal otherwise —
     never the two full list conversions per pair this used to cost. *)
  let rec check_monotone = function
    | (d1, h1) :: ((d2, h2) :: _ as rest) ->
        if not (History.is_prefix h1 ~of_:h2) then
          Fmt.invalid_arg
            "Limit.analyze: member at depth %d is not a prefix of depth %d" d1
            d2;
        check_monotone rest
    | [ _ ] | [] -> ()
  in
  check_monotone members;
  let deepest = match List.rev members with (_, h) :: _ -> h | [] -> History.empty in
  (* Transactions that are complete in some member: one complete-id table
     per member, built in a single pass, instead of scanning each member's
     whole transaction list per queried id. *)
  let complete_sets =
    List.map
      (fun (_, h) ->
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun (t : Txn.t) ->
            if Txn.is_complete t then Hashtbl.replace tbl t.Txn.id ())
          (History.infos h);
        tbl)
      members
  in
  let completes_somewhere k =
    List.exists (fun tbl -> Hashtbl.mem tbl k) complete_sets
  in
  let never_complete =
    List.filter (fun k -> not (completes_somewhere k)) (History.txns deepest)
  in
  (* Serialization chain: one online monitor consumes the family member by
     member — each member's events beyond the previous one are pushed and
     its certificate read off at the boundary.  This is the König path
     construction run through the monitor's incremental graph: searches
     only happen where the graph cannot decide, and each is hinted by the
     last certificate. *)
  let all_du = ref true in
  let monitor = Monitor.create ?max_nodes () in
  let consumed = ref 0 in
  let chain =
    List.map
      (fun (d, h) ->
        let len = History.length h in
        for i = !consumed to len - 1 do
          ignore (Monitor.push monitor (History.get h i))
        done;
        consumed := len;
        match Monitor.certificate monitor with
        | Some s ->
            let cseq =
              List.filter
                (fun k -> Txn.is_complete (History.info h k))
                s.Serialization.order
            in
            (d, cseq)
        | None ->
            all_du := false;
            (d, []))
      members
  in
  let rec stable = function
    | (_, a) :: ((_, b) :: _ as rest) ->
        list_is_prefix Int.equal a b && stable rest
    | [ _ ] | [] -> true
  in
  {
    depths;
    never_complete;
    chain;
    stabilised = !all_du && stable chain;
    all_du_opaque = !all_du;
  }
