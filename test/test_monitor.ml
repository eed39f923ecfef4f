open Tm_safety
open Helpers

let feed events =
  let m = Monitor.create () in
  let outcome = Monitor.push_all m events in
  (m, outcome)

let test_ok_stream () =
  let m, outcome = feed (History.to_list Figures.fig1) in
  (match outcome with
  | `Ok -> ()
  | `Violation why -> Alcotest.failf "unexpected violation: %s" why
  | `Budget why -> Alcotest.failf "unexpected budget: %s" why);
  Alcotest.(check int) "events seen" (History.length Figures.fig1)
    (Monitor.events_seen m);
  Alcotest.(check bool) "has certificate" true
    (Monitor.certificate m <> None);
  Alcotest.(check (option int)) "no violation" None (Monitor.violation_index m)

let test_violation_detected_at_first_bad_prefix () =
  (* fig3: the prefix of length 4 (read_2(X) -> 1 from the non-committing
     T1) is the first non-du-opaque prefix. *)
  let events = History.to_list Figures.fig3 in
  let m = Monitor.create () in
  let outcomes = List.map (Monitor.push m) events in
  let first_violation =
    List.mapi (fun i o -> (i, o)) outcomes
    |> List.find_map (fun (i, o) ->
           match o with `Violation _ -> Some i | `Ok | `Budget _ -> None)
  in
  Alcotest.(check (option int)) "violation at event index 3 (prefix 4)"
    (Some 3) first_violation;
  Alcotest.(check (option int)) "violation index" (Some 4)
    (Monitor.violation_index m)

let test_sticky () =
  let events = History.to_list Figures.fig3 in
  let m = Monitor.create () in
  let _ = Monitor.push_all m events in
  (* Still violated, and pushing more keeps reporting it. *)
  (match Monitor.push m (Event.Inv (9, Event.Read 0)) with
  | `Violation _ -> ()
  | `Ok | `Budget _ -> Alcotest.fail "violation must be sticky");
  Alcotest.(check (option int)) "index unchanged" (Some 4)
    (Monitor.violation_index m)

let test_ill_formed_stream () =
  let m = Monitor.create () in
  match Monitor.push m (Event.Res (1, Event.Read_ok 0)) with
  | `Violation _ -> ()
  | `Ok | `Budget _ -> Alcotest.fail "ill-formed event must be a violation"

let test_matches_offline () =
  (* The monitor's final verdict must agree with the offline checker on
     every prefix family we care about. *)
  let agree name h =
    let _, outcome = feed (History.to_list h) in
    let offline = Verdict.is_sat (Du_opacity.check h) in
    match outcome, offline with
    | `Ok, true -> ()
    | `Violation _, false -> ()
    | `Ok, false -> Alcotest.failf "%s: monitor Ok, offline Unsat" name
    | `Violation why, true ->
        Alcotest.failf "%s: monitor violation (%s), offline Sat" name why
    | `Budget why, _ -> Alcotest.failf "%s: budget: %s" name why
  in
  List.iter
    (fun (e : Figures.expectation) -> agree e.Figures.name e.Figures.history)
    Figures.catalog

let test_budget () =
  (* The graph decides everything but a contradiction after a heuristic
     choice, so the budget needs a response that reaches the backtracking
     search: T3's read of [X=1] ties between the commit-pending T1 and
     T2, the graph binds it to T1, and T1's abort then makes the graph
     decline as Ambiguous.  Rebuilt from the stream, it binds T1 again —
     the candidates are fixed at the read's response — so the 1-node
     search budget trips. *)
  let h =
    Dsl.(
      history
        [ w 1 x 1; c_inv 1; w 2 x 1; c_inv 2; r 3 x 1; aborted 1 ])
  in
  let m = Monitor.create ~max_nodes:1 () in
  match Monitor.push_all m (History.to_list h) with
  | `Budget _ -> ()
  | `Ok -> Alcotest.fail "expected budget exhaustion"
  | `Violation why -> Alcotest.failf "budget must not report violation: %s" why

(* The pattern of [test_budget] keeps every graph of the stream
   Ambiguous, rebuilt or not, so every later response needs the search.
   Rebuilds stay logarithmic in the stream length: a graph that cannot
   decide is rebuilt only once the stream has doubled since the last
   rebuild. *)
let test_ambiguous_stream_rebuilds () =
  let stuck =
    Dsl.(history [ w 1 x 1; c_inv 1; w 2 x 1; c_inv 2; r 3 x 1; aborted 1 ])
  in
  let events =
    relabel ~tx_base:1_000_000 ~var_base:1_000 (History.to_list stuck)
    @ History.to_list
        (Sim.Runner.run ~stm:"tl2"
           ~params:
             { Stm.Workload.default with n_threads = 3; txns_per_thread = 20;
               ops_per_txn = 3; n_vars = 6 }
           ~seed:5 ())
          .Sim.Runner.history
  in
  let n = List.length events in
  let m = Monitor.create () in
  (match Monitor.push_all m events with
  | `Ok -> ()
  | `Violation why -> Alcotest.failf "violation: %s" why
  | `Budget why -> Alcotest.failf "budget: %s" why);
  let log2 = int_of_float (Float.log2 (float_of_int n)) in
  Alcotest.(check bool)
    (Fmt.str "%d rebuilds over %d events" (Monitor.rebuilds m) n)
    true
    (Monitor.rebuilds m <= log2 + 1);
  (* the graph decides the three responses before [aborted 1] *)
  Alcotest.(check int) "every later response searched"
    (Monitor.responses_seen m - 3)
    (Monitor.searches_run m)

let test_commit_pending_stream () =
  (* A stream that ends with a permanently pending tryC — a stalled commit
     or crashed thread — must be accepted as-is: Ok verdict, certificate
     intact, and the pending transaction tracked without corrupting state. *)
  let events = History.to_list Dsl.(history [ w 1 x 1; c_inv 1 ]) in
  let m, outcome = feed events in
  (match outcome with
  | `Ok -> ()
  | `Violation why -> Alcotest.failf "unexpected violation: %s" why
  | `Budget why -> Alcotest.failf "unexpected budget: %s" why);
  Alcotest.(check bool) "certificate survives" true
    (Monitor.certificate m <> None);
  Alcotest.(check int) "one transaction pending" 1 (Monitor.pending_txns m);
  (* The stream lives on: later transactions push fine around the zombie. *)
  (match
     Monitor.push_all m
       (History.to_list Dsl.(history [ r 2 y 0; c 2 ]) )
   with
  | `Ok -> ()
  | `Violation why -> Alcotest.failf "push after zombie: %s" why
  | `Budget why -> Alcotest.failf "budget after zombie: %s" why);
  Alcotest.(check int) "zombie still pending" 1 (Monitor.pending_txns m)

let test_incremental_efficiency () =
  (* With certificate reuse, a long du-opaque stream should cost roughly a
     constant number of nodes per response: each search succeeds straight
     down the hinted order.  Generous bound to stay robust. *)
  let h = Figures.fig2 ~readers:12 in
  let m = Monitor.create () in
  (match Monitor.push_all m (History.to_list h) with
  | `Ok -> ()
  | `Violation why -> Alcotest.failf "violation: %s" why
  | `Budget why -> Alcotest.failf "budget: %s" why);
  let searches = Monitor.searches_run m in
  let nodes = Monitor.nodes_total m in
  let txns = List.length (History.txns h) in
  Alcotest.(check bool)
    (Fmt.str "nodes per search bounded (%d nodes / %d searches, %d txns)"
       nodes searches txns)
    true
    (nodes <= searches * (txns + 2))

let test_long_stream_fastpath () =
  (* On a recorded TL2 stream of >= 2000 events the graph as it stands
     must certify at least 90% of response events, keeping total
     search work and wall time bounded (the pre-fast-path monitor ran one
     full search per response — Θ(events) searches, unbounded here). *)
  let params =
    {
      Stm.Workload.default with
      n_threads = 3;
      txns_per_thread = 90;
      ops_per_txn = 3;
      n_vars = 6;
    }
  in
  let h = (Sim.Runner.run ~stm:"tl2" ~params ~seed:42 ()).Sim.Runner.history in
  let events = History.to_list h in
  let n = List.length events in
  Alcotest.(check bool)
    (Fmt.str "stream long enough (%d events)" n)
    true (n >= 2000);
  let t0 = Stm.Clock.now () in
  let m = Monitor.create () in
  (match Monitor.push_all m events with
  | `Ok -> ()
  | `Violation why -> Alcotest.failf "violation: %s" why
  | `Budget why -> Alcotest.failf "budget: %s" why);
  let elapsed = Stm.Clock.now () -. t0 in
  let responses = Monitor.responses_seen m in
  let hits = Monitor.fastpath_hits m in
  let rate = float_of_int hits /. float_of_int (max 1 responses) in
  Alcotest.(check bool)
    (Fmt.str "fast-path hit rate >= 0.9 (%d/%d = %.3f)" hits responses rate)
    true (rate >= 0.9);
  Alcotest.(check bool)
    (Fmt.str "nodes bounded (%d nodes over %d events)" (Monitor.nodes_total m)
       n)
    true
    (Monitor.nodes_total m <= 50 * n);
  Alcotest.(check bool)
    (Fmt.str "wall time bounded (%.3fs)" elapsed)
    true (elapsed < 10.)

let test_repeated_values_fast () =
  (* [bench check]'s 33,470-event repeated-values recording.  Written
     values repeat; a monitor that revalidated the whole certificate on a
     fallback paid O(T^2) per fallback and took ~17 s on a 2-vCPU VM.
     Every response must be accounted to exactly one of the three
     deciders: the graph as it stands, a rebuilt graph, the search. *)
  let params =
    {
      Stm.Workload.default with
      n_threads = 4;
      txns_per_thread = 750;
      ops_per_txn = 4;
      n_vars = 64;
      values = `Range 100;
    }
  in
  let h =
    (Sim.Runner.run ~stm:"tl2" ~params ~seed:30_042 ()).Sim.Runner.history
  in
  let events = History.to_list h in
  let n = List.length events in
  Alcotest.(check int) "recording length" 33_470 n;
  let t0 = Stm.Clock.now () in
  let m = Monitor.create () in
  (match Monitor.push_all m events with
  | `Ok -> ()
  | `Violation why -> Alcotest.failf "violation: %s" why
  | `Budget why -> Alcotest.failf "budget: %s" why);
  let elapsed = Stm.Clock.now () -. t0 in
  Alcotest.(check int) "every response decided exactly once"
    (Monitor.responses_seen m)
    (Monitor.fastpath_hits m + Monitor.graph_hits m + Monitor.searches_run m);
  Alcotest.(check bool)
    (Fmt.str "nodes bounded (%d nodes over %d events)" (Monitor.nodes_total m)
       n)
    true
    (Monitor.nodes_total m <= 50 * n);
  Alcotest.(check bool)
    (Fmt.str "wall time bounded (%.3fs)" elapsed)
    true (elapsed < 8.)

(* --- serializable checkpoints (persist / of_persisted) ------------------- *)

(* The durable-session contract: persisting a monitor mid-stream and
   resuming from the capsule is invisible — the resumed monitor reaches
   the same verdict, at the same index, with the same counters (so even
   fast-path hit rates are checkpoint-transparent), on every stream
   source we have, fault-injected STM recordings included. *)
let test_persist_roundtrip () =
  let sources =
    [ `Gen; `Stm "tl2"; `Stm "norec"; `Faults "tl2"; `Faults "mvcc" ]
  in
  List.iter
    (fun source ->
      List.iter
        (fun seed ->
          let name =
            Fmt.str "%s seed %d" (Oracle.source_tag source) seed
          in
          let events = History.to_list (Oracle.produce source ~seed) in
          let n = List.length events in
          let cut = n / 2 in
          let prefix = List.filteri (fun i _ -> i < cut) events in
          let rest = List.filteri (fun i _ -> i >= cut) events in
          let straight = Monitor.create () in
          let resumed =
            let m = Monitor.create () in
            ignore (Monitor.push_all m prefix);
            match Monitor.of_persisted (Monitor.persist m) with
            | Ok m' -> m'
            | Error why -> Alcotest.failf "%s: of_persisted: %s" name why
          in
          ignore (Monitor.push_all straight events);
          ignore (Monitor.push_all resumed rest);
          let o = Alcotest.of_pp (fun ppf (o : Monitor.outcome) ->
              match o with
              | `Ok -> Fmt.string ppf "ok"
              | `Violation w -> Fmt.pf ppf "violation(%s)" w
              | `Budget w -> Fmt.pf ppf "budget(%s)" w)
          in
          Alcotest.check o (name ^ ": verdict") (Monitor.status straight)
            (Monitor.status resumed);
          Alcotest.(check (option int))
            (name ^ ": violation index")
            (Monitor.violation_index straight)
            (Monitor.violation_index resumed);
          let s1 = Monitor.snapshot straight
          and s2 = Monitor.snapshot resumed in
          Alcotest.(check int) (name ^ ": events") s1.Monitor.events
            s2.Monitor.events;
          Alcotest.(check int) (name ^ ": responses") s1.Monitor.responses
            s2.Monitor.responses;
          Alcotest.(check int)
            (name ^ ": fast-path hits (hit rate identical)")
            s1.Monitor.fastpath_hits s2.Monitor.fastpath_hits;
          Alcotest.(check int) (name ^ ": searches") s1.Monitor.searches
            s2.Monitor.searches)
        [ 1; 2; 3 ])
    sources

let test_persist_rejects_corrupt () =
  (* A capsule claiming `Ok over a violating history must be refused. *)
  let m = Monitor.create () in
  ignore (Monitor.push_all m (History.to_list Figures.fig1));
  let p = Monitor.persist m in
  let bad =
    { p with Monitor.p_events = History.to_list Figures.fig3 }
  in
  match Monitor.of_persisted bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt capsule (ok-over-violation) accepted"

let suite =
  [
    ( "monitor",
      [
        test "accepts a du-opaque stream" test_ok_stream;
        test "detects first bad prefix" test_violation_detected_at_first_bad_prefix;
        test "violations are sticky" test_sticky;
        test "rejects ill-formed events" test_ill_formed_stream;
        test "agrees with offline checker" test_matches_offline;
        test "budget surfaces as Budget" test_budget;
        test "a stream the graph cannot decide rebuilds logarithmically"
          test_ambiguous_stream_rebuilds;
        test "accepts a permanently commit-pending stream"
          test_commit_pending_stream;
        test "incremental efficiency" test_incremental_efficiency;
        test "long TL2 stream rides the fast path" test_long_stream_fastpath;
        test "repeated-values stream stays fast" test_repeated_values_fast;
        slow "persist/resume is verdict- and hit-rate-transparent"
          test_persist_roundtrip;
        test "corrupt capsules rejected" test_persist_rejects_corrupt;
      ] );
  ]
