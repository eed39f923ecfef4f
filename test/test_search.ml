open Tm_safety
open Helpers

let test_empty () =
  check_sat "empty history" (Search.serialize Search.default History.empty)

let test_budget_unknown () =
  (* A hard instance with a 1-node budget must answer Unknown, never a
     false negative. *)
  let h = Figures.fig1 in
  match Search.serialize { Search.du with max_nodes = Some 1 } h with
  | Verdict.Unknown _ -> ()
  | Verdict.Sat _ -> Alcotest.fail "cannot finish in one node"
  | Verdict.Unsat _ -> Alcotest.fail "budget must not fabricate Unsat"

let test_budget_generous () =
  match Search.serialize { Search.du with max_nodes = Some 1_000_000 } Figures.fig1 with
  | Verdict.Sat _ -> ()
  | v -> Alcotest.failf "expected Sat, got %a" Verdict.pp v

let test_hint_used () =
  (* With a correct hint the search should take the minimum number of nodes:
     one per placement plus the root. *)
  let h = Figures.fig5 in
  let _, no_hint = Search.search Search.du h in
  let v, hinted =
    Search.search { Search.du with hint = Some [ 1; 3; 2 ] } h
  in
  check_sat "hinted still sat" v;
  Alcotest.(check bool)
    (Fmt.str "hint helps or equal (%d <= %d)" hinted.Search.nodes
       no_hint.Search.nodes)
    true
    (hinted.Search.nodes <= no_hint.Search.nodes);
  Alcotest.(check int) "minimal descent" 4 hinted.Search.nodes

let test_bad_hint_harmless () =
  let v =
    Search.serialize { Search.du with hint = Some [ 2; 1; 99 ] } Figures.fig5
  in
  check_sat "bad hint still finds" v

let test_extra_edges_force_order () =
  (* fig6: forcing T1 before T2 makes it unsatisfiable (that is the TMS2
     argument). *)
  check_unsat "forced edge"
    (Search.serialize { Search.default with extra_edges = [ (1, 2) ] } Figures.fig6);
  check_sat "other direction fine"
    (Search.serialize { Search.default with extra_edges = [ (2, 1) ] } Figures.fig6)

let test_extra_edges_unknown_tx () =
  match
    Search.serialize { Search.default with extra_edges = [ (1, 99) ] } Figures.fig6
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_respect_rt_off () =
  (* future-read from the corpus: Unsat with real time, Sat without. *)
  let h = Parse.of_string_exn "R2(X)->1 C2->C W3(X,1)->ok C3->C" in
  check_unsat "with rt" (Search.serialize Search.default h);
  check_sat "without rt"
    (Search.serialize { Search.default with respect_rt = false } h)

let test_prefilter_stats () =
  (* fig3' dies in the prefilter: no search nodes. *)
  let v, stats = Search.search Search.du Figures.fig3_prefix in
  check_unsat "fig3'" v;
  Alcotest.(check bool) "prefiltered" true stats.Search.prefiltered;
  Alcotest.(check int) "no nodes" 0 stats.Search.nodes

let test_du_stricter_than_plain () =
  (* Plain mode accepts fig4; Du rejects. Same engine, same input. *)
  check_sat "plain" (Search.serialize Search.default Figures.fig4);
  check_unsat "du" (Search.serialize Search.du Figures.fig4)

(* The engine must explore commit AND abort decisions for pending tryC:
   here serialization requires aborting T1 (its write would break T2's
   read) even though committing is the first choice tried. *)
let test_decision_backtracking () =
  let h =
    Dsl.(
      history
        [ w 1 x 1; c_inv 1; r 2 x 0; w 2 x 2; c 2 ])
  in
  match Du_opacity.check h with
  | Verdict.Sat s ->
      Alcotest.(check bool) "T1 aborted in certificate" false
        (Serialization.commits s 1)
  | v -> Alcotest.failf "expected Sat, got %a" Verdict.pp v

(* --- Exploration pins ---

   [(nodes, memo hits)] of [Search.search] in five modes, recorded before
   the memo became an incremental hash, symmetry moved to signature
   buckets, real-time edges were reduced to the immediate predecessors,
   nodes iterated a ready set and the prefilter indexed writers by value.
   Each of those rewrites must explore exactly as before: the same nodes
   in the same order with the same memo hits.  Rows: every catalog
   figure; the Figure 2
   forced-edge family; per history source, the sums over seeds 1-50; three
   ~3.3k-event TL2 recordings with values drawn from 0-99. *)

let pin_modes h =
  [
    ("du", Search.du);
    ("lu", Search.lu);
    ("default", Search.default);
    ("tms2", { Search.default with extra_edges = Tms2.edges h });
    ("rco", { Search.default with commit_edges = Rco.edges h });
  ]

let explore opts h =
  let _, s = Search.search opts h in
  (s.Search.nodes, s.Search.memo_hits)

let per_mode name h =
  List.map (fun (m, o) -> (name ^ "/" ^ m, explore o h)) (pin_modes h)

let catalog_rows () =
  List.concat_map
    (fun (e : Figures.expectation) -> per_mode e.Figures.name e.Figures.history)
    Figures.catalog

let forced_rows () =
  List.concat_map
    (fun readers ->
      let h = Figures.fig2 ~readers in
      List.concat_map
        (fun reader ->
          List.map
            (fun (m, (o : Search.options)) ->
              ( Fmt.str "fig2(%d) T1<T%d/%s" readers reader m,
                explore
                  {
                    o with
                    Search.extra_edges = (1, reader) :: o.Search.extra_edges;
                  }
                  h ))
            (pin_modes h))
        (List.init (readers - 2) (fun k -> k + 3)))
    [ 3; 4; 5; 6; 8 ]

let source_rows () =
  let tags = ref [] in
  List.concat_map
    (fun src ->
      let tag = Oracle.source_tag src in
      if List.mem tag !tags then []
      else begin
        tags := tag :: !tags;
        let sums = Array.make 5 (0, 0) in
        for seed = 1 to 50 do
          let h = Oracle.produce src ~seed in
          List.iteri
            (fun k (_, o) ->
              let n, m = explore o h and sn, sm = sums.(k) in
              sums.(k) <- (sn + n, sm + m))
            (pin_modes h)
        done;
        List.mapi
          (fun k (m, _) -> (Fmt.str "%s seeds 1-50/%s" tag m, sums.(k)))
          (pin_modes History.empty)
      end)
    Oracle.default_sources

let recording_rows () =
  List.concat_map
    (fun seed ->
      per_mode (Fmt.str "tl2 Range 100 seed %d" seed) (recording seed))
    [ 1; 2; 3 ]

let pinned =
  [
    ("fig1/du", 7, 0);
    ("fig1/lu", 7, 0);
    ("fig1/default", 7, 0);
    ("fig1/tms2", 7, 0);
    ("fig1/rco", 4, 0);
    ("fig2(5)/du", 6, 0);
    ("fig2(5)/lu", 8, 0);
    ("fig2(5)/default", 6, 0);
    ("fig2(5)/tms2", 6, 0);
    ("fig2(5)/rco", 6, 0);
    ("fig3/du", 0, 0);
    ("fig3/lu", 3, 0);
    ("fig3/default", 3, 0);
    ("fig3/tms2", 3, 0);
    ("fig3/rco", 1, 0);
    ("fig3'/du", 0, 0);
    ("fig3'/lu", 3, 0);
    ("fig3'/default", 0, 0);
    ("fig3'/tms2", 0, 0);
    ("fig3'/rco", 0, 0);
    ("fig4/du", 0, 0);
    ("fig4/lu", 4, 0);
    ("fig4/default", 4, 0);
    ("fig4/tms2", 4, 0);
    ("fig4/rco", 2, 0);
    ("fig5/du", 4, 0);
    ("fig5/lu", 4, 0);
    ("fig5/default", 4, 0);
    ("fig5/tms2", 4, 0);
    ("fig5/rco", 2, 0);
    ("fig6/du", 3, 0);
    ("fig6/lu", 4, 0);
    ("fig6/default", 3, 0);
    ("fig6/tms2", 1, 0);
    ("fig6/rco", 3, 0);
    ("fig2(3) T1<T3/du", 1, 0);
    ("fig2(3) T1<T3/lu", 6, 0);
    ("fig2(3) T1<T3/default", 1, 0);
    ("fig2(3) T1<T3/tms2", 1, 0);
    ("fig2(3) T1<T3/rco", 1, 0);
    ("fig2(4) T1<T3/du", 2, 0);
    ("fig2(4) T1<T3/lu", 7, 0);
    ("fig2(4) T1<T3/default", 2, 0);
    ("fig2(4) T1<T3/tms2", 2, 0);
    ("fig2(4) T1<T3/rco", 2, 0);
    ("fig2(4) T1<T4/du", 2, 0);
    ("fig2(4) T1<T4/lu", 7, 0);
    ("fig2(4) T1<T4/default", 2, 0);
    ("fig2(4) T1<T4/tms2", 2, 0);
    ("fig2(4) T1<T4/rco", 2, 0);
    ("fig2(5) T1<T3/du", 3, 0);
    ("fig2(5) T1<T3/lu", 8, 0);
    ("fig2(5) T1<T3/default", 3, 0);
    ("fig2(5) T1<T3/tms2", 3, 0);
    ("fig2(5) T1<T3/rco", 3, 0);
    ("fig2(5) T1<T4/du", 3, 0);
    ("fig2(5) T1<T4/lu", 8, 0);
    ("fig2(5) T1<T4/default", 3, 0);
    ("fig2(5) T1<T4/tms2", 3, 0);
    ("fig2(5) T1<T4/rco", 3, 0);
    ("fig2(5) T1<T5/du", 3, 0);
    ("fig2(5) T1<T5/lu", 8, 0);
    ("fig2(5) T1<T5/default", 3, 0);
    ("fig2(5) T1<T5/tms2", 3, 0);
    ("fig2(5) T1<T5/rco", 3, 0);
    ("fig2(6) T1<T3/du", 4, 0);
    ("fig2(6) T1<T3/lu", 9, 0);
    ("fig2(6) T1<T3/default", 4, 0);
    ("fig2(6) T1<T3/tms2", 4, 0);
    ("fig2(6) T1<T3/rco", 4, 0);
    ("fig2(6) T1<T4/du", 4, 0);
    ("fig2(6) T1<T4/lu", 9, 0);
    ("fig2(6) T1<T4/default", 4, 0);
    ("fig2(6) T1<T4/tms2", 4, 0);
    ("fig2(6) T1<T4/rco", 4, 0);
    ("fig2(6) T1<T5/du", 4, 0);
    ("fig2(6) T1<T5/lu", 9, 0);
    ("fig2(6) T1<T5/default", 4, 0);
    ("fig2(6) T1<T5/tms2", 4, 0);
    ("fig2(6) T1<T5/rco", 4, 0);
    ("fig2(6) T1<T6/du", 4, 0);
    ("fig2(6) T1<T6/lu", 9, 0);
    ("fig2(6) T1<T6/default", 4, 0);
    ("fig2(6) T1<T6/tms2", 4, 0);
    ("fig2(6) T1<T6/rco", 4, 0);
    ("fig2(8) T1<T3/du", 6, 0);
    ("fig2(8) T1<T3/lu", 11, 0);
    ("fig2(8) T1<T3/default", 6, 0);
    ("fig2(8) T1<T3/tms2", 6, 0);
    ("fig2(8) T1<T3/rco", 6, 0);
    ("fig2(8) T1<T4/du", 6, 0);
    ("fig2(8) T1<T4/lu", 11, 0);
    ("fig2(8) T1<T4/default", 6, 0);
    ("fig2(8) T1<T4/tms2", 6, 0);
    ("fig2(8) T1<T4/rco", 6, 0);
    ("fig2(8) T1<T5/du", 6, 0);
    ("fig2(8) T1<T5/lu", 11, 0);
    ("fig2(8) T1<T5/default", 6, 0);
    ("fig2(8) T1<T5/tms2", 6, 0);
    ("fig2(8) T1<T5/rco", 6, 0);
    ("fig2(8) T1<T6/du", 6, 0);
    ("fig2(8) T1<T6/lu", 11, 0);
    ("fig2(8) T1<T6/default", 6, 0);
    ("fig2(8) T1<T6/tms2", 6, 0);
    ("fig2(8) T1<T6/rco", 6, 0);
    ("fig2(8) T1<T7/du", 6, 0);
    ("fig2(8) T1<T7/lu", 11, 0);
    ("fig2(8) T1<T7/default", 6, 0);
    ("fig2(8) T1<T7/tms2", 6, 0);
    ("fig2(8) T1<T7/rco", 6, 0);
    ("fig2(8) T1<T8/du", 6, 0);
    ("fig2(8) T1<T8/lu", 11, 0);
    ("fig2(8) T1<T8/default", 6, 0);
    ("fig2(8) T1<T8/tms2", 6, 0);
    ("fig2(8) T1<T8/rco", 6, 0);
    ("gen seeds 1-50/du", 383, 31);
    ("gen seeds 1-50/lu", 880, 183);
    ("gen seeds 1-50/default", 383, 31);
    ("gen seeds 1-50/tms2", 694, 249);
    ("gen seeds 1-50/rco", 365, 30);
    ("tl2 seeds 1-50/du", 1254, 80);
    ("tl2 seeds 1-50/lu", 1375, 99);
    ("tl2 seeds 1-50/default", 1254, 80);
    ("tl2 seeds 1-50/tms2", 1424, 199);
    ("tl2 seeds 1-50/rco", 1119, 79);
    ("norec seeds 1-50/du", 754, 13);
    ("norec seeds 1-50/lu", 834, 23);
    ("norec seeds 1-50/default", 740, 11);
    ("norec seeds 1-50/tms2", 734, 11);
    ("norec seeds 1-50/rco", 632, 15);
    ("faults-tl2 seeds 1-50/du", 898, 69);
    ("faults-tl2 seeds 1-50/lu", 1078, 116);
    ("faults-tl2 seeds 1-50/default", 871, 60);
    ("faults-tl2 seeds 1-50/tms2", 1066, 164);
    ("faults-tl2 seeds 1-50/rco", 794, 48);
    ("pessimistic seeds 1-50/du", 243, 7);
    ("pessimistic seeds 1-50/lu", 773, 67);
    ("pessimistic seeds 1-50/default", 446, 43);
    ("pessimistic seeds 1-50/tms2", 366, 39);
    ("pessimistic seeds 1-50/rco", 259, 33);
    ("faults-norec seeds 1-50/du", 568, 10);
    ("faults-norec seeds 1-50/lu", 673, 29);
    ("faults-norec seeds 1-50/default", 568, 10);
    ("faults-norec seeds 1-50/tms2", 567, 10);
    ("faults-norec seeds 1-50/rco", 507, 12);
    ("early-release seeds 1-50/du", 454, 14);
    ("early-release seeds 1-50/lu", 877, 15);
    ("early-release seeds 1-50/default", 825, 27);
    ("early-release seeds 1-50/tms2", 783, 27);
    ("early-release seeds 1-50/rco", 571, 57);
    ("partial-abort seeds 1-50/du", 781, 18);
    ("partial-abort seeds 1-50/lu", 877, 30);
    ("partial-abort seeds 1-50/default", 777, 18);
    ("partial-abort seeds 1-50/tms2", 770, 18);
    ("partial-abort seeds 1-50/rco", 636, 8);
    ("faults-early-release seeds 1-50/du", 342, 3);
    ("faults-early-release seeds 1-50/lu", 654, 12);
    ("faults-early-release seeds 1-50/default", 601, 12);
    ("faults-early-release seeds 1-50/tms2", 586, 28);
    ("faults-early-release seeds 1-50/rco", 755, 210);
    ("tl2 Range 100 seed 1/du", 569, 80);
    ("tl2 Range 100 seed 1/lu", 637, 109);
    ("tl2 Range 100 seed 1/default", 569, 80);
    ("tl2 Range 100 seed 1/tms2", 1421, 755);
    ("tl2 Range 100 seed 1/rco", 446, 35);
    ("tl2 Range 100 seed 2/du", 1723, 691);
    ("tl2 Range 100 seed 2/lu", 1729, 690);
    ("tl2 Range 100 seed 2/default", 1723, 691);
    ("tl2 Range 100 seed 2/tms2", 2848, 1562);
    ("tl2 Range 100 seed 2/rco", 1333, 509);
    ("tl2 Range 100 seed 3/du", 921, 292);
    ("tl2 Range 100 seed 3/lu", 927, 294);
    ("tl2 Range 100 seed 3/default", 921, 292);
    ("tl2 Range 100 seed 3/tms2", 10549, 5837);
    ("tl2 Range 100 seed 3/rco", 423, 20);
  ]

let test_exploration_pinned () =
  let row = Alcotest.(pair string (pair int int)) in
  Alcotest.(check (list row))
    "nodes and memo hits"
    (List.map (fun (name, nodes, hits) -> (name, (nodes, hits))) pinned)
    (catalog_rows () @ forced_rows () @ source_rows () @ recording_rows ())

(* Two runs of the same search expand the same nodes, hit the memo as often
   and return the same certificate: the memo's hash constants are a fixed
   function of their index, never seeded per run.  The catalog plus one
   recording whose search backtracks and hits the memo. *)
let test_determinism () =
  let run h =
    let v, s = Search.search Search.du h in
    (Fmt.str "%a" Verdict.pp v, (s.Search.nodes, s.Search.memo_hits),
     s.Search.prefiltered)
  in
  let outcome = Alcotest.(triple string (pair int int) bool) in
  List.iter
    (fun (name, h) ->
      Alcotest.check outcome (name ^ " deterministic") (run h) (run h))
    (("tl2 Range 100 seed 2", recording 2)
    :: List.map
         (fun (e : Figures.expectation) -> (e.Figures.name, e.Figures.history))
         Figures.catalog)

let suite =
  [
    ( "search engine",
      [
        test "empty history" test_empty;
        test "budget yields Unknown" test_budget_unknown;
        test "budget large enough" test_budget_generous;
        test "hint shortens the search" test_hint_used;
        test "bad hint harmless" test_bad_hint_harmless;
        test "extra edges force order" test_extra_edges_force_order;
        test "extra edges validate tx ids" test_extra_edges_unknown_tx;
        test "respect_rt:false" test_respect_rt_off;
        test "prefilter short-circuits" test_prefilter_stats;
        test "du stricter than plain" test_du_stricter_than_plain;
        test "decision backtracking" test_decision_backtracking;
        test "determinism" test_determinism;
        test "exploration pinned" test_exploration_pinned;
      ] );
  ]
