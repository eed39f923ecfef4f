(* The exhaustive small-scope corpus: every well-formed history within a
   bound, canonical up to renaming of transactions and variables, judged
   by every du-opacity decider.

   Histories are enumerated depth-first, one event step at a time, so
   every node of the tree is a history and its parent is its prefix by
   one step.  A step is one of:
   - an operation of a live transaction: a read of a variable returning
     0 or 1, or a write of 0 or 1 (invocation and response adjacent);
   - a transaction's first operation, under the next transaction id;
   - the tryC invocation of a live transaction with at least one
     operation;
   - the commit or abort response to a pending tryC.
   Transaction ids and variables are numbered in order of first
   appearance, which picks exactly one history out of each class of
   renamings.  Value 0 is the initial value, so duplicate writes, writes
   of the initial value and reads of it are the common case, not a
   corner.

   Each history is checked by [Conflict_graph.check] against
   [Du_opacity.check] (any decided disagreement fails; every graph [Sat]
   certificate must pass [Serialization.validate]), and one way against
   last-use opacity (du-opaque implies last-use opaque).  At each leaf of
   the tree [Monitor] streams the history, certified after every response
   and, as the service drives it, after every event or only at the end;
   each is compared with the prefix closure the monitor decides
   (as in [Oracle.lockstep]): a prefix is accepted iff the search accepts
   every response-boundary prefix of it. *)

open Tm_safety

type bound = { txns : int; vars : int; ops : int }

type tally = {
  mutable histories : int;
  mutable leaves : int;
  mutable graph_decided : int;
  mutable du_sat : int;
  mutable failures : string list;
}

let max_nodes = 100_000

let fail t fmt =
  Fmt.kstr
    (fun s ->
      if List.length t.failures < 10 then t.failures <- s :: t.failures)
    fmt

let show h = Fmt.str "%a" History.pp_inline h

(* The batch deciders on one history; returns the search's verdict. *)
let judge t h =
  t.histories <- t.histories + 1;
  let du = Du_opacity.check ~max_nodes h in
  (match du with Verdict.Sat _ -> t.du_sat <- t.du_sat + 1 | _ -> ());
  (match (Conflict_graph.check h, du) with
  | Conflict_graph.Sat c, Verdict.Sat _ -> (
      t.graph_decided <- t.graph_decided + 1;
      match Serialization.validate ~claim:Serialization.Du_opaque h c with
      | Ok () -> ()
      | Error why -> fail t "%s: graph certificate rejected: %s" (show h) why)
  | Conflict_graph.Unsat _, Verdict.Unsat _ ->
      t.graph_decided <- t.graph_decided + 1
  | Conflict_graph.Sat _, Verdict.Unsat why ->
      fail t "%s: graph Sat, search Unsat (%s)" (show h) why
  | Conflict_graph.Unsat why, Verdict.Sat _ ->
      fail t "%s: graph Unsat (%s), search Sat" (show h) why
  | Conflict_graph.Ambiguous _, _ | _, Verdict.Unknown _ -> ());
  (match du with
  | Verdict.Sat _ -> (
      match Last_use_opacity.check ~max_nodes h with
      | Verdict.Unsat why ->
          fail t "%s: du-opaque but not last-use opaque (%s)" (show h) why
      | Verdict.Sat _ | Verdict.Unknown _ -> ())
  | Verdict.Unsat _ | Verdict.Unknown _ -> ());
  du

(* The monitors on a leaf.  [expected.(i)] is the prefix-closed verdict
   of the prefix of length [i + 1]: [Some true] accepted, [Some false]
   refuted, [None] undecided. *)
let stream t events expected =
  t.leaves <- t.leaves + 1;
  let h = History.of_events_exn events in
  let first_bad =
    let rec go i = function
      | [] -> None
      | Some false :: _ -> Some (i + 1)
      | _ :: rest -> go (i + 1) rest
    in
    go 0 (Array.to_list expected)
  in
  let m = Monitor.create ~max_nodes () in
  List.iteri
    (fun i ev ->
      match (Monitor.push m ev, expected.(i)) with
      | `Ok, Some false ->
          fail t "%s: monitor accepts refuted prefix %d" (show h) (i + 1)
      | `Violation why, Some true ->
          fail t "%s: monitor refutes accepted prefix %d (%s)" (show h)
            (i + 1) why
      | _ -> ())
    events;
  (match Monitor.status m with
  | `Ok -> (
      match Monitor.certificate m with
      | Some c -> (
          match Serialization.validate ~claim:Serialization.Du_opaque h c with
          | Ok () -> ()
          | Error why ->
              fail t "%s: monitor certificate rejected: %s" (show h) why)
      | None -> fail t "%s: monitor Ok without a certificate" (show h))
  | `Violation _ | `Budget _ -> ());
  (* certified once at the end, and after every event *)
  List.iter
    (fun every ->
      let s = Monitor.create ~max_nodes () in
      List.iter
        (fun ev ->
          ignore (Monitor.ingest s ev);
          if every then ignore (Monitor.certify s))
        events;
      let outcome = Monitor.certify s in
      let mode = if every then "every event" else "at the end" in
      match (outcome, first_bad) with
      | `Ok, Some b ->
          fail t "%s: batch-certified monitor (%s) accepts, prefix %d \
                  refuted" (show h) mode b
      | `Violation _, None
        when Array.for_all (fun v -> v = Some true) expected ->
          fail t "%s: batch-certified monitor (%s) refutes an accepted \
                  history" (show h) mode
      | `Violation _, Some b when Monitor.violation_index s <> Some b
        ->
          fail t "%s: batch-certified monitor (%s) blames prefix %a, not \
                  %d" (show h) mode
            Fmt.(option ~none:(any "none") int)
            (Monitor.violation_index s)
            b
      | _ -> ())
    [ false; true ]

(* Depth-first over step sequences.  [ops.(k)] counts transaction [k+1]'s
   operations; [phase.(k)] is 0 live, 1 tryC pending, 2 complete.
   [verdicts] holds the prefix-closed verdict per event of the parent,
   newest first; an invocation leaves it as it was (appending an
   invocation preserves du-opacity), a response adds the node's own. *)
let enumerate b t =
  let ops = Array.make b.txns 0 and phase = Array.make b.txns 0 in
  let rec node rev nt nv verdicts =
    let events = List.rev rev in
    let before = match verdicts with v :: _ -> v | [] -> Some true in
    let du =
      if rev = [] then None else Some (judge t (History.of_events_exn events))
    in
    let verdicts =
      match (rev, du) with
      | Event.Res _ :: rest, Some du ->
          let closed =
            match (before, du) with
            | Some false, _ | _, Verdict.Unsat _ -> Some false
            | Some true, Verdict.Sat _ -> Some true
            | _ -> None
          in
          (* an operation step pushed its invocation too *)
          let verdicts =
            match rest with
            | Event.Inv (_, (Event.Read _ | Event.Write _)) :: _ ->
                before :: verdicts
            | _ -> verdicts
          in
          closed :: verdicts
      | Event.Inv _ :: _, _ -> before :: verdicts
      | _ -> verdicts
    in
    let moved = ref false in
    let step rev' nt' nv' =
      moved := true;
      node rev' nt' nv' verdicts
    in
    (* an operation of transaction [k] (0-based) *)
    let op k =
      let tx = k + 1 in
      for x = 0 to min nv (b.vars - 1) do
        let nv' = if x = nv then nv + 1 else nv in
        ops.(k) <- ops.(k) + 1;
        List.iter
          (fun v ->
            step
              (Event.Res (tx, Event.Read_ok v) :: Event.Inv (tx, Event.Read x)
             :: rev)
              (max nt (k + 1)) nv';
            step
              (Event.Res (tx, Event.Write_ok)
              :: Event.Inv (tx, Event.Write (x, v))
              :: rev)
              (max nt (k + 1)) nv')
          [ 0; 1 ];
        ops.(k) <- ops.(k) - 1
      done
    in
    for k = 0 to nt - 1 do
      let tx = k + 1 in
      match phase.(k) with
      | 0 ->
          if ops.(k) < b.ops then op k;
          if ops.(k) >= 1 then begin
            phase.(k) <- 1;
            step (Event.Inv (tx, Event.Try_commit) :: rev) nt nv;
            phase.(k) <- 0
          end
      | 1 ->
          phase.(k) <- 2;
          step (Event.Res (tx, Event.Committed) :: rev) nt nv;
          step (Event.Res (tx, Event.Aborted) :: rev) nt nv;
          phase.(k) <- 1
      | _ -> ()
    done;
    if nt < b.txns then op nt;
    if not !moved then stream t events (Array.of_list (List.rev verdicts))
  in
  node [] 0 0 []

let run_bound (b, histories, leaves) () =
  let t =
    { histories = 0; leaves = 0; graph_decided = 0; du_sat = 0; failures = [] }
  in
  enumerate b t;
  Fmt.pr "%d histories (%d du-opaque), %d decided by the graph; %d leaves@."
    t.histories t.du_sat t.graph_decided t.leaves;
  (match t.failures with
  | [] -> ()
  | fs -> Alcotest.failf "%s" (String.concat "\n" (List.rev fs)));
  Alcotest.(check int) "histories judged" histories t.histories;
  Alcotest.(check int) "leaves streamed" leaves t.leaves

(* The bounds and their counts (the empty history is not judged).  The
   two run here take about 30 s on a 2-vCPU VM; the next one up,
   { txns = 3; vars = 2; ops = 1 } with 1,033,328 histories and 573,440
   leaves, takes about 25 s more and is run by adding it here. *)
let bounds =
  [
    ({ txns = 3; vars = 1; ops = 1 }, 258_944, 143_360);
    ({ txns = 2; vars = 2; ops = 2 }, 608_496, 323_840);
  ]

let suite =
  [
    ( "small-scope corpus",
      List.map
        (fun ((b, _, _) as row) ->
          Helpers.slow
            (Fmt.str "every history of <= %d transactions, <= %d variables, \
                      <= %d operations each"
               b.txns b.vars b.ops)
            (run_bound row))
        bounds );
  ]
