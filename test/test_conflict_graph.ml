(* The conflict-graph du-opacity backend against the search: agreement on
   every soak source (including fault-injected streams), figure-catalog
   parity, repeated written values (Finding 3 decided, ties, the
   real-time prune), incremental prefix verdicts, and the monitor's graph
   fast path. *)

open Tm_safety
open Helpers

let max_nodes = 500_000

(* --- QCheck equivalence over the soak sources ---------------------------- *)

let soak_sources : Oracle.source list =
  [
    `Gen; `Stm "tl2"; `Stm "norec"; `Stm "pessimistic"; `Faults "tl2";
    `Faults "norec";
  ]

let gen_soak_history =
  QCheck2.Gen.map
    (fun (i, seed) ->
      Oracle.produce (List.nth soak_sources (i mod List.length soak_sources))
        ~seed)
    QCheck2.Gen.(pair (int_range 0 5) (int_range 0 100_000))

let validated name h = function
  | Conflict_graph.Sat c -> (
      match Serialization.validate ~claim:Serialization.Du_opaque h c with
      | Ok () -> true
      | Error why ->
          QCheck2.Test.fail_reportf "%s: certificate rejected: %s" name why)
  | Conflict_graph.Unsat _ | Conflict_graph.Ambiguous _ -> true

(* The raw backend must agree with the search whenever it decides, and the
   fallback-complete entry point must agree whenever both decide. *)
let prop_graph_agrees =
  qtest ~count:1000 "Conflict_graph ≡ Du_opacity over soak sources"
    gen_soak_history
    (fun h ->
      let raw = Conflict_graph.check h in
      let v = Du_opacity.check ~max_nodes h in
      ignore (validated "raw" h raw);
      let raw_ok =
        match raw, v with
        | Conflict_graph.Sat _, Verdict.Sat _
        | Conflict_graph.Unsat _, Verdict.Unsat _
        | Conflict_graph.Ambiguous _, _
        | _, Verdict.Unknown _ ->
            true
        | _ -> false
      in
      let fb_ok =
        match Conflict_graph.check_or_fallback ~max_nodes h, v with
        | Verdict.Sat _, Verdict.Sat _ | Verdict.Unsat _, Verdict.Unsat _ ->
            true
        | Verdict.Unknown _, _ | _, Verdict.Unknown _ -> true
        | _ -> false
      in
      raw_ok && fb_ok)

(* --- figure-catalog parity ------------------------------------------------ *)

let test_catalog () =
  List.iter
    (fun (e : Figures.expectation) ->
      (match Conflict_graph.check e.Figures.history with
      | Conflict_graph.Sat _ when not e.Figures.du_opaque ->
          Alcotest.failf "%s: graph says Sat, paper says not du-opaque"
            e.Figures.name
      | Conflict_graph.Unsat why when e.Figures.du_opaque ->
          Alcotest.failf "%s: graph says Unsat (%s), paper says du-opaque"
            e.Figures.name why
      | _ -> ());
      check_verdict
        (e.Figures.name ^ " (graph+fallback)")
        e.Figures.du_opaque
        (Conflict_graph.check_or_fallback ~max_nodes e.Figures.history))
    Figures.catalog

(* --- hand-built histories: raw graph verdicts ------------------------------- *)

(* Raw [Conflict_graph.check] verdicts on small hand-built histories, one
   test case per history; every [Sat] certificate must also pass the
   definitional validator. *)
let show_graph = function
  | Conflict_graph.Sat _ -> "Sat"
  | Conflict_graph.Unsat why -> "Unsat: " ^ why
  | Conflict_graph.Ambiguous why -> "Ambiguous: " ^ why

let graph_sat ?(commits = []) name h = function
  | Conflict_graph.Sat s ->
      check_certified ~claim:Serialization.Du_opaque name h (Verdict.Sat s);
      List.iter
        (fun k ->
          if not (Serialization.commits s k) then
            Alcotest.failf "%s: T%d not committed in the certificate" name k)
        commits
  | r -> Alcotest.failf "%s: expected Sat, got %s" name (show_graph r)

let graph_unsat name _ = function
  | Conflict_graph.Unsat _ -> ()
  | r -> Alcotest.failf "%s: expected Unsat, got %s" name (show_graph r)

let graph_ambiguous name h = function
  | Conflict_graph.Ambiguous _ ->
      check_sat (name ^ " (fallback)")
        (Conflict_graph.check_or_fallback ~max_nodes h)
  | r -> Alcotest.failf "%s: expected Ambiguous, got %s" name (show_graph r)

let fig4_unique =
  Dsl.(history [ w 1 x 1; c_inv 1; r 2 x 2; w 3 x 2; c 3; aborted 1 ])

let hand_built_cases =
  let open Dsl in
  [
    ( "unique writes",
      history [ w 1 x 1; c 1; r 2 x 1; w 3 x 2; c 3; r 2 y 0 ],
      graph_sat ~commits:[ 1 ] );
    ( "read from a live writer",
      history [ w_inv 1 x 1; w_ok 1; r 2 x 1; c 2 ],
      graph_unsat );
    ( "unique-writes write skew",
      history
        [ r_inv 1 x; ret 1 0; r_inv 2 y; ret 2 0; w 1 y 1; w 2 x 2; c_inv 1;
          c_inv 2; committed 1; committed 2 ],
      graph_unsat );
    ( "read from a commit-pending writer",
      history [ w 1 x 1; c_inv 1; r 2 x 1; c 2 ],
      graph_sat ~commits:[ 1 ] );
    ( "unique-writes fig4 variant",
      fig4_unique,
      fun name h r ->
        graph_unsat name h r;
        (* Theorem 11: under unique writes du-opacity and opacity coincide. *)
        check_unsat (name ^ " is not opaque either") (Opacity.check h) );
    ( "initial-value writer",
      history [ w 1 x 0; c 1; r 2 x 0; c 2 ],
      graph_sat ~commits:[ 1 ] );
    (* T1 and T2 overlap and both write X=1: a tie, bound heuristically *)
    ( "tied sources",
      history [ w 1 x 1; w 2 x 1; c 1; c 2; r 3 x 1; c 3 ],
      graph_sat ~commits:[ 1; 2; 3 ] );
    (* T2's X=2 sits between T1 and the reader in real time: T3 is the
       only source left *)
    ( "real-time prune",
      history [ w 1 x 1; c 1; w 2 x 2; c 2; w 3 x 1; c 3; r 4 x 1; c 4 ],
      graph_sat ~commits:[ 3 ] );
    ( "every source pruned",
      history [ w 1 x 1; c 1; w 2 x 1; c 2; w 3 x 2; c 3; r 4 x 1; c 4 ],
      fun name h r ->
        graph_unsat name h r;
        check_unsat (name ^ " (search)") (Du_opacity.check h) );
    (* the tie is bound to T1, which then aborts: only the search may say
       that T2 serves the read *)
    ( "tie bound to a writer that aborts",
      history
        [ w 1 x 1; c_inv 1; w 2 x 1; c_inv 2; r 3 x 1; aborted 1;
          committed 2 ],
      graph_ambiguous );
  ]

let hand_built_tests =
  List.map
    (fun (name, h, expect) ->
      test ("hand-built: " ^ name) (fun () ->
          expect name h (Conflict_graph.check h)))
    hand_built_cases

(* --- unique-writes histories the graph leaves undecided --------------------- *)

(* Recorded unique-writes histories on which the raw graph answers
   [Ambiguous] (an ordering contradiction after a heuristic choice): the
   fallback must reach the search's verdict. One test case per history. *)
let undecided_unique_writes =
  [
    (`Faults "tl2", 159, true);
    (`Faults "norec", 159, true);
    (`Faults "early-release", 159, true);
    (`Stm "pessimistic", 68, true);
    (`Stm "pessimistic", 95, false);
    (`Stm "pessimistic", 153, false);
    (`Stm "pessimistic", 205, true);
  ]

let undecided_unique_writes_tests =
  List.map
    (fun (source, seed, du_opaque) ->
      let name = Fmt.str "%s/%d" (Oracle.source_tag source) seed in
      test ("undecided unique writes: " ^ name) (fun () ->
          let h = Oracle.produce source ~seed in
          Alcotest.(check bool) (name ^ " has unique writes") true
            (History.unique_writes h);
          check_verdict (name ^ " search") du_opaque
            (Du_opacity.check ~max_nodes h);
          check_verdict (name ^ " graph+fallback") du_opaque
            (Conflict_graph.check_or_fallback ~max_nodes h)))
    undecided_unique_writes

(* --- Finding 3: repeated written values decided by the graph ------------ *)

(* T5's read of Y=1 has one candidate source, T2: T7 writes Y=1 only after
   the read's response.  In the full history T7's pending tryC lets it
   commit between T4 and T5 and serve the read globally, so the graph
   answers Sat; in the prefix T7 has not invoked tryC, nothing can follow
   T4 inside (T2, T5), and the graph answers Unsat from forced edges alone
   — as the search does on both. *)
let test_corollary2_gap_decided () =
  let h, prefix_len = Tm_figures.Findings.corollary2_gap in
  let hp = History.prefix h prefix_len in
  graph_sat ~commits:[ 2; 4; 7; 5 ] "full corollary2_gap history" h
    (Conflict_graph.check h);
  check_sat "full corollary2_gap history (search)" (Du_opacity.check h);
  graph_unsat "corollary2_gap prefix" hp (Conflict_graph.check hp);
  check_unsat "corollary2_gap prefix (search)" (Du_opacity.check hp)

(* Streamed, the same shape shows why a forced repair can stop being
   forced.  When T4 commits, T5's read of Y=1 has T2 as its only source
   and no other writer of Y=1 exists, so T4 (Y=2) is forced out of
   (T2, T5) behind T5.  T7 then writes Y=1 and invokes tryC: it could
   follow T4 there and serve the read globally, so that edge no longer
   binds.  T9's read of X=3 then needs T4 before T5 — every prefix is
   du-opaque, and the graph, which took the edge when it was forced,
   must not answer Unsat. *)
let test_unforced_by_a_stand_in () =
  let h =
    Dsl.(
      history
        [ r 2 x 0; w 2 y 1; c 2; w 4 y 2; w 5 x 3; r 5 y 1; w 4 x 1; c 4;
          c_inv 5; w 7 y 1; c_inv 7; r 9 x 3 ])
  in
  let g = Conflict_graph.Inc.create () in
  List.iteri
    (fun i ev ->
      Conflict_graph.Inc.push g ev;
      if Event.is_res ev then begin
        let hp = History.prefix h (i + 1) in
        check_sat (Fmt.str "prefix %d (search)" (i + 1)) (Du_opacity.check hp);
        match Conflict_graph.Inc.verdict g with
        | Conflict_graph.Unsat why ->
            Alcotest.failf "prefix %d: graph Unsat (%s)" (i + 1) why
        | Conflict_graph.Sat c ->
            check_certified ~claim:Serialization.Du_opaque
              (Fmt.str "prefix %d" (i + 1))
              hp (Verdict.Sat c)
        | Conflict_graph.Ambiguous _ -> ()
      end)
    (History.to_list h);
  graph_sat ~commits:[ 7 ] "offline" h (Conflict_graph.check h)

(* --- incremental prefix verdicts ------------------------------------------ *)

let test_inc_prefix_verdicts () =
  let params =
    {
      Stm.Workload.default with
      n_threads = 3;
      txns_per_thread = 4;
      ops_per_txn = 3;
      n_vars = 4;
      values = `Unique;
    }
  in
  let h = (Sim.Runner.run ~stm:"tl2" ~params ~seed:11 ()).Sim.Runner.history in
  let g = Conflict_graph.Inc.create () in
  let decided = ref 0 in
  List.iteri
    (fun i ev ->
      Conflict_graph.Inc.push g ev;
      if Event.is_res ev then begin
        let hp = History.prefix h (i + 1) in
        match Conflict_graph.Inc.verdict g, Du_opacity.check ~max_nodes hp with
        | Conflict_graph.Sat _, Verdict.Sat _
        | Conflict_graph.Unsat _, Verdict.Unsat _ ->
            incr decided
        | Conflict_graph.Ambiguous _, _ | _, Verdict.Unknown _ -> ()
        | Conflict_graph.Sat _, Verdict.Unsat _ ->
            Alcotest.failf "prefix %d: graph Sat, search Unsat" (i + 1)
        | Conflict_graph.Unsat _, Verdict.Sat _ ->
            Alcotest.failf "prefix %d: graph Unsat, search Sat" (i + 1)
      end)
    (History.to_list h);
  if !decided = 0 then
    Alcotest.fail "graph decided no prefix of a recorded TL2 stream"

(* --- incremental against batch -------------------------------------------- *)

(* [Inc.decide] after every event and after every seventh event, against
   [Conflict_graph.check] of the same prefix, on every soak source at
   seeds 1-200, and on short pessimistic recordings whose written values
   repeat within three (seeds 1-100), where repairs reorder far below the
   newest transactions.  Both are sound, so neither may answer Sat where
   the other answers Unsat, and the incremental replay must never reject
   the order its resolution repaired (a read a verdict failed to rescan
   shows there first); an incremental Sat's certificate must also pass
   the validator on the short prefixes, where validating is cheap. *)
let test_incremental_matches_batch () =
  let soak =
    List.concat_map
      (fun source ->
        List.init 200 (fun i ->
            ( Fmt.str "%s/%d" (Oracle.source_tag source) (i + 1),
              Oracle.produce source ~seed:(i + 1) )))
      (List.sort_uniq compare Oracle.default_sources)
  in
  let repeated =
    List.init 100 (fun i ->
        let params =
          {
            Stm.Workload.default with
            n_threads = 3;
            txns_per_thread = 20;
            ops_per_txn = 3;
            n_vars = 3;
            values = `Range 3;
          }
        in
        ( Fmt.str "pessimistic, values 0-2/%d" (i + 1),
          (Sim.Runner.run ~stm:"pessimistic" ~params ~seed:(i + 1) ())
            .Sim.Runner.history ))
  in
  let show = function
    | `Sat -> "Sat"
    | `Unsat why -> "Unsat: " ^ why
    | `Ambiguous why -> "Ambiguous: " ^ why
  in
  List.iter
    (fun (name, h) ->
      let batch = Array.make (History.length h + 1) None in
      let batch_at n =
        match batch.(n) with
        | Some r -> r
        | None ->
            let r =
              match Conflict_graph.check (History.prefix h n) with
              | Conflict_graph.Sat _ -> `Sat
              | Conflict_graph.Unsat _ -> `Unsat
              | Conflict_graph.Ambiguous _ -> `Ambiguous
            in
            batch.(n) <- Some r;
            r
      in
      List.iter
        (fun period ->
          let g = Conflict_graph.Inc.create () in
          List.iteri
            (fun i ev ->
              Conflict_graph.Inc.push g ev;
              let n = i + 1 in
              if n mod period = 0 || n = History.length h then begin
                let inc = Conflict_graph.Inc.decide g in
                (match (inc, batch_at n) with
                | `Sat, `Unsat | `Unsat _, `Sat ->
                    Alcotest.failf
                      "%s, every %d events, prefix %d: incremental %s, \
                       batch disagrees"
                      name period n (show inc)
                | `Ambiguous why, _ when contains why "internal" ->
                    Alcotest.failf
                      "%s, every %d events, prefix %d: the replay rejected \
                       the repaired order: %s"
                      name period n why
                | _ -> ());
                if inc = `Sat && n <= 160 then
                  match
                    Serialization.validate ~claim:Serialization.Du_opaque
                      (History.prefix h n)
                      (Conflict_graph.Inc.certificate g)
                  with
                  | Ok () -> ()
                  | Error why ->
                      Alcotest.failf
                        "%s, every %d events, prefix %d: certificate \
                         rejected: %s"
                        name period n why
              end)
            (History.to_list h))
        [ 1; 7 ])
    (soak @ repeated)

(* --- monitor graph fast path ---------------------------------------------- *)

let test_monitor_graph_hits () =
  (* A recorded unique-writes TL2 stream: every response must be decided
     by the graph — a backtracking search running here is the fast-path
     regression this test guards. *)
  let params =
    {
      Stm.Workload.default with
      n_threads = 3;
      txns_per_thread = 6;
      ops_per_txn = 3;
      n_vars = 4;
      values = `Unique;
    }
  in
  let h = (Sim.Runner.run ~stm:"tl2" ~params ~seed:5 ()).Sim.Runner.history in
  let m = Monitor.create ~max_nodes () in
  List.iter (fun ev -> ignore (Monitor.push m ev)) (History.to_list h);
  (match Monitor.status m with
  | `Ok -> ()
  | `Violation why | `Budget why ->
      Alcotest.failf "recorded TL2 stream rejected: %s" why);
  Alcotest.(check int) "every response accounted to exactly one path"
    (Monitor.responses_seen m)
    (Monitor.fastpath_hits m + Monitor.graph_hits m + Monitor.searches_run m);
  Alcotest.(check int) "no backtracking search ran" 0 (Monitor.searches_run m)

let test_monitor_graph_unsat () =
  (* A read served before the writer is even commit-pending: the graph
     decides Unsat without a search, and the monitor reports the sticky
     violation at the right prefix. *)
  let h = Parse.of_string_exn "W1(X,1)->ok R2(X)->1 C2->C C1->C" in
  check_unsat "search agrees the stream violates" (Du_opacity.check h);
  (match Conflict_graph.check h with
  | Conflict_graph.Unsat _ -> ()
  | Conflict_graph.Sat _ -> Alcotest.fail "graph accepted a du violation"
  | Conflict_graph.Ambiguous why ->
      Alcotest.failf "graph must decide this unique-writes stream: %s" why);
  let m = Monitor.create ~max_nodes () in
  let outcome = Monitor.push_all m (History.to_list h) in
  (match outcome with
  | `Violation _ -> ()
  | `Ok -> Alcotest.fail "monitor accepted a du violation"
  | `Budget why -> Alcotest.failf "budget on a 8-event history: %s" why);
  Alcotest.(check int) "violating prefix" 4
    (Option.value ~default:(-1) (Monitor.violation_index m));
  Alcotest.(check int) "the graph decided it" 0 (Monitor.searches_run m)

(* --- offline check smoke at a non-toy size -------------------------------- *)

(* A ~10k-event unique-writes TL2 recording whose verdict needs repairs. *)
let offline_medium_history () =
  let params =
    {
      Stm.Workload.default with
      n_threads = 4;
      txns_per_thread = 250;
      ops_per_txn = 4;
      n_vars = 16;
      values = `Unique;
    }
  in
  (Sim.Runner.run ~stm:"tl2" ~params ~seed:3 ()).Sim.Runner.history

let test_offline_medium () =
  let h = offline_medium_history () in
  let r, stats = Conflict_graph.check_stats h in
  (match r with
  | Conflict_graph.Sat c -> (
      match Serialization.validate ~claim:Serialization.Du_opaque h c with
      | Ok () -> ()
      | Error why -> Alcotest.failf "certificate rejected: %s" why)
  | Conflict_graph.Unsat why -> Alcotest.failf "recorded TL2 unsat: %s" why
  | Conflict_graph.Ambiguous why ->
      Alcotest.failf "unique-writes stream ambiguous: %s" why);
  if stats.Conflict_graph.nodes < 500 then
    Alcotest.failf "expected a non-toy run, interned %d nodes"
      stats.Conflict_graph.nodes

(* [Inc.verdict], then [Inc.stats], on a graph fed all of [h]. *)
let verdict_then_stats h =
  let g = Conflict_graph.Inc.create () in
  List.iter (Conflict_graph.Inc.push g) (History.to_list h);
  let r = Conflict_graph.Inc.verdict g in
  (r, Conflict_graph.Inc.stats g)

(* [check_stats] must report the stats after the verdict ran: its
   resolution adds the repair edges and reorders them. *)
let test_check_stats_after_verdict () =
  let h = offline_medium_history () in
  let _, stats = Conflict_graph.check_stats h in
  if stats <> snd (verdict_then_stats h) then
    Alcotest.fail "check_stats differs from Inc.stats after Inc.verdict";
  if stats.Conflict_graph.repairs = 0 then
    Alcotest.fail "the verdict on this recording needs repairs"

(* --- edge deduplication ------------------------------------------------ *)

(* Only a reads-from edge can repeat an edge already in the graph: here
   T2 reads X and Y from T1, which is also its real-time predecessor, so
   both reads land on the frontier edge T1 -> T2.  In the second history
   T2 also reads Z from the concurrent T3, a committed writer of X that
   then cannot leave the interval (T1, T2): Unsat, and the counterexample
   cycle runs through the reads-from edge T3 -> T2. *)
let test_edge_dedup () =
  let open Dsl in
  let sat_h = history [ w 1 x 1; w 1 y 2; c 1; r 2 x 1; r 2 y 2; c 2 ] in
  (match verdict_then_stats sat_h with
  | Conflict_graph.Sat _, s ->
      Alcotest.(check int) "one edge T1 -> T2" 1 s.Conflict_graph.edges
  | r, _ -> Alcotest.failf "expected Sat, got %s" (show_graph r));
  let cyc_h =
    history
      [ w 1 x 1; w 1 y 2; c 1; r 2 x 1; r 2 y 2; w 3 x 3; w 3 z 4; c 3;
        r 2 z 4; c 2 ]
  in
  (match verdict_then_stats cyc_h with
  | Conflict_graph.Unsat why, s ->
      Alcotest.(check string) "reason"
        "committed writer T3 cannot leave the interval between T1 and its \
         reader T2"
        why;
      Alcotest.(check int) "edges T1 -> T2, T1 -> T3, T3 -> T2" 3
        s.Conflict_graph.edges
  | r, _ -> Alcotest.failf "expected Unsat, got %s" (show_graph r));
  Alcotest.(check (option (list int))) "counterexample cycle" (Some [ 2; 3 ])
    (Conflict_graph.counterexample_cycle cyc_h);
  check_unsat "the search agrees" (Du_opacity.check cyc_h)

(* --- sparse ids ------------------------------------------------------- *)

(* Transaction and variable ids are interned by first sight, through a
   direct-indexed array while they are small and a table otherwise, and
   written values are hashed.  None of that may show in a verdict: a
   history with sparse ids (transactions 1, 2^40 + 1 and max_int, huge and
   negative variables, values that are multiples of 2^20) must be judged
   exactly as its dense original.  The renaming is one-to-one on the
   transaction ids it accepts, and fails on any other, so two transactions
   of a case can never be merged. *)
let sparse_tx = function
  | 1 -> 1
  | 2 -> (1 lsl 40) + 1
  | 3 -> max_int
  | k when k >= 4 && k < 1 lsl 22 -> (k lsl 40) + 1
  | k -> Alcotest.failf "no sparse renaming for transaction %d" k

let sparse_var x = if x mod 2 = 0 then max_int - x else min_int + x
let sparse_value v = v lsl 20

let sparse_event = function
  | Event.Inv (k, Event.Read x) ->
      Event.Inv (sparse_tx k, Event.Read (sparse_var x))
  | Event.Inv (k, Event.Write (x, v)) ->
      Event.Inv (sparse_tx k, Event.Write (sparse_var x, sparse_value v))
  | Event.Inv (k, i) -> Event.Inv (sparse_tx k, i)
  | Event.Res (k, Event.Read_ok v) ->
      Event.Res (sparse_tx k, Event.Read_ok (sparse_value v))
  | Event.Res (k, r) -> Event.Res (sparse_tx k, r)

(* The text of a dense history's verdict as the sparse one must print it:
   every word naming one of [h]'s transactions, variables or values is
   renamed. *)
let sparse_text h text =
  let names = Hashtbl.create 64 in
  let name a b = Hashtbl.replace names a b in
  List.iter
    (fun ev ->
      let k = Event.tx_of ev in
      name (Fmt.str "T%d" k) (Fmt.str "T%d" (sparse_tx k));
      let var x =
        name (Fmt.str "%a" Event.pp_tvar x)
          (Fmt.str "%a" Event.pp_tvar (sparse_var x))
      in
      let value v =
        if v <> 0 then name (string_of_int v) (string_of_int (sparse_value v))
      in
      match ev with
      | Event.Inv (_, Event.Read x) -> var x
      | Event.Inv (_, Event.Write (x, v)) ->
          var x;
          value v
      | Event.Res (_, Event.Read_ok v) -> value v
      | _ -> ())
    (History.to_list h);
  let word = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' -> true
    | _ -> false
  in
  let b = Buffer.create (String.length text) and n = String.length text in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j < n && word text.[!j] do
      incr j
    done;
    if !j = !i then begin
      Buffer.add_char b text.[!i];
      incr i
    end
    else begin
      let w = String.sub text !i (!j - !i) in
      Buffer.add_string b (Option.value ~default:w (Hashtbl.find_opt names w));
      i := !j
    end
  done;
  Buffer.contents b

(* Verdict text (a [Sat]'s certificate included), counterexample cycle and
   stats, with [text] and [tx] applied to the names. *)
let judged ~text ~tx h =
  let r, s = verdict_then_stats h in
  let v =
    match r with
    | Conflict_graph.Sat c -> Fmt.str "Sat %a" Serialization.pp c
    | Conflict_graph.Unsat why -> "Unsat " ^ why
    | Conflict_graph.Ambiguous why -> "Ambiguous " ^ why
  in
  ( text v,
    Option.map (List.map tx) (Conflict_graph.counterexample_cycle h),
    Conflict_graph.
      (Fmt.str "%d nodes, %d edges, %d reorders, %d repairs, tainted %b"
         s.nodes s.edges s.reorders s.repairs s.tainted) )

let test_sparse_ids () =
  let open Dsl in
  let cases =
    ("edge dedup cycle",
     history
       [ w 1 x 1; w 1 y 2; c 1; r 2 x 1; r 2 y 2; w 3 x 3; w 3 z 4; c 3;
         r 2 z 4; c 2 ])
    :: ("offline medium", offline_medium_history ())
    :: List.map (fun (name, h, _) -> (name, h)) hand_built_cases
  in
  List.iter
    (fun (name, h) ->
      let sparse =
        History.of_events_exn (List.map sparse_event (History.to_list h))
      in
      Alcotest.(check (triple string (option (list int)) string))
        name
        (judged ~text:(sparse_text h) ~tx:sparse_tx h)
        (judged ~text:Fun.id ~tx:Fun.id sparse))
    cases

(* A transaction id of 2^40 must not size anything by its value. *)
let test_sparse_tx_heap () =
  let m = Monitor.create () in
  let k = 1 lsl 40 in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.heap_words in
  let outcome =
    Monitor.push_all m
      [ Event.Inv (k, Event.Write (0, 1)); Event.Res (k, Event.Write_ok);
        Event.Inv (k, Event.Try_commit); Event.Res (k, Event.Committed) ]
  in
  Gc.full_major ();
  let grown =
    ((Gc.quick_stat ()).Gc.heap_words - before) * (Sys.word_size / 8)
  in
  Alcotest.(check bool) "du-opaque" true (outcome = `Ok);
  Alcotest.(check int) "responses" 2 (Monitor.responses_seen m);
  if grown >= 1 lsl 20 then
    Alcotest.failf "the heap grew by %d bytes for one 2^40 transaction" grown

(* --- parity pin ------------------------------------------------------- *)

(* The graph's stats and a digest of its verdict text (for [Sat], the
   certificate's order with its commit marks), taken after [Inc.verdict].
   The order of edges, reorders and repairs is observable through the
   certificate, so a change to the graph's internals that keeps every
   decision path reproduces the rows exactly.  A row moves only when a
   decision path changes, and CHANGES.md then lists each moved row and
   why.  With [~validate] a [Sat] row's certificate is also checked
   against Definition 3, so a moved pin cannot hide a bad certificate. *)
let pin_row ~validate h =
  let r, s = verdict_then_stats h in
  let text =
    match r with
    | Conflict_graph.Sat c ->
        (if validate then
           match Serialization.validate ~claim:Serialization.Du_opaque h c with
           | Ok () -> ()
           | Error why -> Alcotest.failf "pinned certificate rejected: %s" why);
        Fmt.str "Sat %a" Serialization.pp c
    | Conflict_graph.Unsat why -> "Unsat " ^ why
    | Conflict_graph.Ambiguous why -> "Ambiguous " ^ why
  in
  Conflict_graph.
    ( s.nodes, s.edges, s.reorders, s.repairs, s.tainted,
      Digest.to_hex (Digest.string text) )

(* Sixteen short sessions shaped like the service's open-loop traffic
   (3 threads, 66 transactions of 3 operations over 16 variables, unique
   values), alternating TL2 and NOrec. *)
let short_session i =
  let params =
    {
      Stm.Workload.default with
      n_threads = 3;
      txns_per_thread = 22;
      ops_per_txn = 3;
      n_vars = 16;
      values = `Unique;
    }
  in
  let stm = if i mod 2 = 0 then "tl2" else "norec" in
  ( Fmt.str "%s/%d" stm (i + 1),
    (Sim.Runner.run ~stm ~params ~seed:(i + 1) ()).Sim.Runner.history )

let pinned_rows =
  [
    ("offline medium", (1832, 7966, 175, 175, true, "1515da9a3e88932bb2300a1adafd9475"));
    ("tl2/1", (80, 280, 5, 5, false, "b29aa9af0f07696a3dbd8d39e44e13b1"));
    ("norec/2", (71, 240, 7, 6, true, "cf6ddabbedf9f95a4664f19df81ac047"));
    ("tl2/3", (78, 262, 2, 2, false, "73f584030d9ed7e37c7114227a6a7df6"));
    ("norec/4", (71, 221, 6, 2, false, "82a7a29a73f12e3c07c46821c7a8a2d6"));
    ("tl2/5", (79, 253, 5, 5, true, "5878d1566c1c18d1828ffacc16d2c84e"));
    ("norec/6", (73, 225, 4, 3, false, "2538e733d2e6713d3404eb279951cf12"));
    ("tl2/7", (84, 288, 9, 9, true, "ebf797347b23631f3579d01a14d48f66"));
    ("norec/8", (71, 223, 8, 5, false, "8f722654712cd3caa44561d5e9012193"));
    ("tl2/9", (85, 278, 5, 5, false, "3e84767a2e0fc22628331243b94b1c50"));
    ("norec/10", (69, 227, 8, 5, false, "b7cc59c12bcfa8a58c4c679ee85f2c45"));
    ("tl2/11", (81, 273, 5, 5, false, "9af24758fd3e6a18565c6041c47893b8"));
    ("norec/12", (68, 193, 7, 5, false, "f65508a778d1d51a05c6814bd62b1714"));
    ("tl2/13", (88, 282, 5, 5, false, "7cb016c2a4a4927dc77d4a556b9804d2"));
    ("norec/14", (71, 214, 7, 4, false, "2d6d2b0d7693cb09c246e06d0454aefb"));
    ("tl2/15", (86, 300, 3, 3, false, "18e8aa0dac6fc6d5b797c5e458b2ca9e"));
    ("norec/16", (70, 211, 13, 6, false, "1fb0acf01f25c8fac8de9fd9a378997d"));
  ]

(* Every session's certificate is validated here; the offline row's takes
   about a second to validate, and [test_offline_medium] already validates
   the same certificate. *)
let test_parity_pin () =
  let show (name, (n, e, ro, rp, t, d)) =
    Fmt.str "(%S, (%d, %d, %d, %d, %b, %S));" name n e ro rp t d
  in
  let actual =
    ("offline medium", pin_row ~validate:false (offline_medium_history ()))
    :: List.map
         (fun (name, h) -> (name, pin_row ~validate:true h))
         (List.init 16 short_session)
  in
  if actual <> pinned_rows then
    Alcotest.failf "graph parity pin moved; now:@.%s"
      (String.concat "\n" (List.map show actual))

let suite =
  [
    ( "conflict graph",
      [
        test "figure catalog parity" test_catalog;
        test "Finding 3 decided by the graph" test_corollary2_gap_decided;
        test "a same-value writer's tryC unforces a repair"
          test_unforced_by_a_stand_in;
        test "incremental prefix verdicts" test_inc_prefix_verdicts;
        test "incremental verdicts match batch over soak sources"
          test_incremental_matches_batch;
        test "monitor graph fast path" test_monitor_graph_hits;
        test "monitor graph Unsat path" test_monitor_graph_unsat;
        slow "offline check, ~10k events" test_offline_medium;
        test "stats and verdicts pinned" test_parity_pin;
        test "check_stats counts the verdict's repairs"
          test_check_stats_after_verdict;
        test "a repeated reads-from edge is stored once" test_edge_dedup;
        test "sparse ids judged as their dense renaming" test_sparse_ids;
        test "a 2^40 transaction id does not size the heap"
          test_sparse_tx_heap;
        prop_graph_agrees;
      ]
      @ hand_built_tests @ undecided_unique_writes_tests );
  ]
