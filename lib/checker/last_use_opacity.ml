let decoration h =
  List.map
    (fun (t : Txn.t) -> (t.Txn.id, Txn.closing_writes t))
    (History.infos h)

let check_stats ?max_nodes ?hint h =
  Search.search { Search.lu with max_nodes; hint } h

let check ?max_nodes ?hint h = fst (check_stats ?max_nodes ?hint h)

let check_fast ?max_nodes h =
  (* A du-opacity certificate is verbatim a last-use one: closed-writer
     visibility is optional, so a witness that never uses it still
     witnesses the weaker criterion.  A du refutation proves nothing here
     (du-Unsat does not imply last-use-Unsat), so only [Sat] short-cuts. *)
  match Conflict_graph.check h with
  | Conflict_graph.Sat s -> Verdict.Sat s
  | Conflict_graph.Unsat _ | Conflict_graph.Ambiguous _ -> check ?max_nodes h

type inc = Search.ictx

let incremental () = Search.ictx Search.lu

let check_inc ?max_nodes ?hint inc h =
  Search.search_ictx ?max_nodes ?hint inc h
