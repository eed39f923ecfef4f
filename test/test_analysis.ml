(* The exhaustive-verification layer: DPOR schedule exploration against the
   naive branch-everywhere DFS, the happens-before race analyzer, the
   poly-comparison lint, and the [tm verify] campaign engine. *)

open Tm_safety
open Helpers

(* --- Explore: micro-programs with known schedule counts ------------------- *)

let explore_counts algo ~make =
  match algo with
  | `Naive ->
      Sim.Explore.run_naive ~max_runs:1_000_000 ~make ~on_result:ignore ()
  | `Dpor -> Sim.Explore.run ~max_runs:1_000_000 ~make ~on_result:ignore ()

let check_outcome name ~runs ~exhaustive (o : Sim.Explore.outcome) =
  Alcotest.(check bool) (name ^ " exhaustive") exhaustive o.exhaustive;
  Alcotest.(check int) (name ^ " runs") runs o.runs

(* n independent single-step fibers: the naive DFS pays the full n!
   while DPOR collapses the commuting schedules to a single run. *)
let test_noop_factorial () =
  let make () = (List.init 3 (fun _ -> fun () -> ()), fun () -> ()) in
  check_outcome "noop3 naive" ~runs:6 ~exhaustive:true
    (explore_counts `Naive ~make);
  let dpor = explore_counts `Dpor ~make in
  check_outcome "noop3 dpor" ~runs:1 ~exhaustive:true dpor;
  Alcotest.(check bool)
    "pruning reported" true
    (dpor.schedules_pruned > 0 && dpor.reduction_factor > 1.0)

(* Three fibers each writing a private cell: still one equivalence class,
   though every fiber now has two transitions (start + the write). *)
let test_disjoint_writes () =
  let make () =
    let cells = List.init 3 (fun _ -> Sim.Mem.make 0) in
    ( List.mapi (fun i c -> fun () -> Sim.Mem.set c i) cells,
      fun () -> () )
  in
  check_outcome "indep3 naive" ~runs:90 ~exhaustive:true
    (explore_counts `Naive ~make);
  check_outcome "indep3 dpor" ~runs:1 ~exhaustive:true
    (explore_counts `Dpor ~make)

(* Three writers to the same cell: all 3! = 6 write orders are
   inequivalent and DPOR must visit exactly those. *)
let test_conflicting_writes () =
  let make () =
    let c = Sim.Mem.make 0 in
    (List.init 3 (fun i -> fun () -> Sim.Mem.set c i), fun () -> ())
  in
  check_outcome "samecell3 naive" ~runs:90 ~exhaustive:true
    (explore_counts `Naive ~make);
  check_outcome "samecell3 dpor" ~runs:6 ~exhaustive:true
    (explore_counts `Dpor ~make)

(* A program whose fiber set changes between executions is not replayable;
   both explorers must refuse loudly instead of silently mis-scheduling. *)
let test_nondeterministic_rejected () =
  let ndmake () =
    let calls = ref 0 in
    fun () ->
      incr calls;
      let c = Sim.Mem.make 0 in
      let n = if !calls = 1 then 2 else 1 in
      (List.init n (fun i -> fun () -> Sim.Mem.set c i), fun () -> ())
  in
  let expect_invalid name f =
    match f () with
    | (_ : Sim.Explore.outcome) ->
        Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "naive" (fun () ->
      Sim.Explore.run_naive ~max_runs:1000 ~make:(ndmake ())
        ~on_result:ignore ());
  expect_invalid "dpor" (fun () ->
      Sim.Explore.run ~max_runs:1000 ~make:(ndmake ()) ~on_result:ignore ())

(* --- Explore: STM workloads, DPOR vs naive -------------------------------- *)

let sparse_params =
  {
    Stm.Workload.default with
    n_threads = 2;
    txns_per_thread = 2;
    ops_per_txn = 2;
    n_vars = 2;
    read_ratio = 0.5;
  }

(* Both enumerations finish on eager's workload; the naive one needs three
   orders of magnitude more runs for the same four transactions. *)
let test_eager_reduction () =
  let explore algo =
    Sim.Explore.explore_stm ~algo ~max_runs:200_000 ~stm:"eager"
      ~params:sparse_params ~seed:1 ~on_history:ignore ()
  in
  let dpor = explore `Dpor and naive = explore `Naive in
  Alcotest.(check bool) "dpor exhaustive" true dpor.exhaustive;
  Alcotest.(check bool) "naive exhaustive" true naive.exhaustive;
  Alcotest.(check bool)
    (Fmt.str "dpor (%d) at least 100x under naive (%d)" dpor.runs naive.runs)
    true
    (dpor.runs * 100 <= naive.runs)

(* --- Verify: campaign engine ---------------------------------------------- *)

let verify_cfg ?(seed = 1) ?(naive = 0) () =
  {
    Analysis.Verify.stms = [];
    params = sparse_params;
    seed;
    max_runs = 200_000;
    naive_max_runs = naive;
    max_retries = 4;
    max_nodes = 1_000_000;
  }

(* global-lock: naive finishes (about 103k schedules), so this is a true
   verdict-set equality check, plus the full safe-STM expectations. *)
let test_verify_global_lock_equal () =
  let r =
    Analysis.Verify.run_stm (verify_cfg ~naive:200_000 ()) "global-lock"
  in
  Alcotest.(check bool) "dpor exhaustive" true r.r_dpor.exhaustive;
  (match r.r_naive with
  | Some n -> Alcotest.(check bool) "naive exhaustive" true n.exhaustive
  | None -> Alcotest.fail "baseline requested");
  Alcotest.(check (option bool)) "verdict sets equal" (Some true) r.r_match;
  Alcotest.(check int) "no unsat" 0 r.r_verdicts.unsat;
  Alcotest.(check bool) "race-free" false (Analysis.Race.racy r.r_races);
  Alcotest.(check bool) "ok" true (Analysis.Verify.ok r)

(* eager under contention: naive still finishes, verdict sets agree, and —
   the point of exhaustive checking — non-du-opaque histories exist and
   are found. *)
let test_verify_eager_contended () =
  let r =
    Analysis.Verify.run_stm (verify_cfg ~seed:5 ~naive:200_000 ()) "eager"
  in
  Alcotest.(check bool) "dpor exhaustive" true r.r_dpor.exhaustive;
  Alcotest.(check (option bool)) "verdict sets equal" (Some true) r.r_match;
  Alcotest.(check bool) "violations found" true (r.r_verdicts.unsat > 0);
  Alcotest.(check bool) "racy" true (Analysis.Race.racy r.r_races)

(* QCheck: on every small random workload where both enumerations run, the
   DPOR verdict set must agree with the naive one (equality when the naive
   DFS finishes, inclusion when it is cut off). *)
let test_verdict_agreement =
  let stms = List.map fst Stm.Registry.algorithms in
  let gen =
    QCheck2.Gen.pair
      (QCheck2.Gen.oneofl stms)
      (QCheck2.Gen.int_range 1 500)
  in
  qtest ~count:12 "DPOR/naive verdict sets agree (random stm+seed)" gen
    (fun (stm, seed) ->
      let cfg =
        {
          Analysis.Verify.stms = [];
          params = { sparse_params with txns_per_thread = 1 };
          seed;
          max_runs = 50_000;
          naive_max_runs = 5_000;
          max_retries = 4;
          max_nodes = 200_000;
        }
      in
      let r = Analysis.Verify.run_stm cfg stm in
      r.Analysis.Verify.r_match <> Some false
      && r.Analysis.Verify.r_verdicts.unknown = 0)

(* eager at the property's parameters, on the seeds where DPOR once ran 2
   schedules and called itself exhaustive: its [commit] touches no memory,
   so only the recorded history tells a tryC invocation and another
   transaction's read response apart in time.  DPOR must find the same
   verdict classes as the naive enumeration, violations included. *)
let test_eager_history_orders () =
  List.iter
    (fun seed ->
      let cfg =
        {
          Analysis.Verify.stms = [];
          params = { sparse_params with txns_per_thread = 1 };
          seed;
          max_runs = 50_000;
          naive_max_runs = 5_000;
          max_retries = 4;
          max_nodes = 200_000;
        }
      in
      let r = Analysis.Verify.run_stm cfg "eager" in
      (match r.r_naive with
      | Some n ->
          Alcotest.(check bool)
            (Fmt.str "seed %d: naive exhaustive" seed) true n.exhaustive
      | None -> Alcotest.fail "baseline requested");
      Alcotest.(check bool)
        (Fmt.str "seed %d: dpor exhaustive" seed) true r.r_dpor.exhaustive;
      Alcotest.(check (option bool))
        (Fmt.str "seed %d: verdict sets equal" seed) (Some true) r.r_match;
      Alcotest.(check bool)
        (Fmt.str "seed %d: violations found" seed) true
        (r.r_verdicts.unsat > 0))
    [ 38; 83; 138; 251; 377; 393 ]

(* --- Race analyzer: positive and negative fixtures ------------------------ *)

let races_of ?(seed = 5) stm =
  let report = ref Analysis.Race.{ accesses = 0; locations = 0; sync_locations = 0; races = [] } in
  let (_ : Sim.Explore.outcome) =
    Sim.Explore.explore_stm_results ~max_runs:200_000 ~trace:true ~stm
      ~params:sparse_params ~seed
      ~on_result:(fun r ->
        match r.Sim.Runner.trace with
        | Some t -> report := Analysis.Race.merge !report (Analysis.Race.analyze t)
        | None -> Alcotest.fail "tracing requested")
      ()
  in
  !report

let test_race_negative stm () =
  (* tl2's retry amplification blows up the contended schedule space, so it
     keeps the sparse seed; the others get real conflicts. *)
  let seed = if stm = "tl2" then 1 else 5 in
  let r = races_of ~seed stm in
  Alcotest.(check bool)
    (Fmt.str "%s clean (%d accesses)" stm r.accesses)
    false
    (Analysis.Race.racy r)

let test_race_dirty_read () =
  let r = races_of "dirty-read" in
  Alcotest.(check bool) "flagged" true (Analysis.Race.racy r);
  Alcotest.(check bool) "a dirty read, specifically" true
    (List.exists
       (fun (x : Analysis.Race.race) -> x.rkind = Analysis.Race.Dirty_read)
       r.races)

let test_race_eager () =
  let r = races_of "eager" in
  Alcotest.(check bool) "flagged" true (Analysis.Race.racy r);
  Alcotest.(check bool) "an unsynchronized write-write pair" true
    (List.exists
       (fun (x : Analysis.Race.race) -> x.rkind = Analysis.Race.Write_write)
       r.races)

(* Hand-built traces exercise the analyzer's rules in isolation. *)
let test_race_rules () =
  let open Tm_stm.Trace in
  let dirty =
    [|
      Mark { fiber = 0; txn = 1; mark = Began };
      Access { fiber = 0; loc = 10; kind = Write };
      Mark { fiber = 1; txn = 2; mark = Began };
      Access { fiber = 1; loc = 10; kind = Read };
      Mark { fiber = 1; txn = 2; mark = Committed };
    |]
  in
  Alcotest.(check bool) "unordered committed read flagged" true
    (Analysis.Race.racy (Analysis.Race.analyze dirty));
  let aborted =
    Array.copy dirty
  in
  aborted.(4) <- Mark { fiber = 1; txn = 2; mark = Aborted };
  Alcotest.(check bool) "aborting clears the suspect read" false
    (Analysis.Race.racy (Analysis.Race.analyze aborted));
  let fenced =
    [|
      Mark { fiber = 0; txn = 1; mark = Began };
      Access { fiber = 0; loc = 10; kind = Write };
      Access { fiber = 0; loc = 99; kind = Cas };
      Mark { fiber = 1; txn = 2; mark = Began };
      Access { fiber = 1; loc = 99; kind = Cas };
      Access { fiber = 1; loc = 10; kind = Read };
      Mark { fiber = 1; txn = 2; mark = Committed };
    |]
  in
  Alcotest.(check bool) "acquire-release ordering clears it" false
    (Analysis.Race.racy (Analysis.Race.analyze fenced));
  let ww =
    [|
      Access { fiber = 0; loc = 10; kind = Write };
      Access { fiber = 1; loc = 10; kind = Write };
    |]
  in
  let r = Analysis.Race.analyze ww in
  Alcotest.(check bool) "bare write-write flagged" true
    (List.exists
       (fun (x : Analysis.Race.race) -> x.rkind = Analysis.Race.Write_write)
       r.races)

(* --- Lint ------------------------------------------------------------------ *)

let test_lint_positives () =
  let src =
    String.concat "\n"
      [
        "let bad1 h = Hashtbl.hash h";
        "let bad2 a b = Stdlib.compare a b";
        "let bad3 xs = List.sort compare xs";
        "let bad4 e = e = Event.Inv (1, op)";
        "let bad5 h = h <> History.empty";
      ]
  in
  let fs = Analysis.Lint.scan_source ~file:"bad.ml" src in
  Alcotest.(check (list string))
    "one finding per line, right rules"
    [ "poly-hash"; "poly-compare"; "poly-compare"; "poly-eq"; "poly-eq" ]
    (List.map (fun (f : Analysis.Lint.finding) -> f.rule) fs);
  Alcotest.(check (list int))
    "line numbers" [ 1; 2; 3; 4; 5 ]
    (List.map (fun (f : Analysis.Lint.finding) -> f.line) fs)

let test_lint_negatives () =
  let src =
    String.concat "\n"
      [
        "let ok1 a b = Event.compare a b";
        "let ok2 = { history = History.empty; n = 0 }";
        "let ok3 t = t.status = Txn.Committed";
        "let ok4 v = v = Event.init_value";
        "(* in a comment: Hashtbl.hash, compare, x = Event.Inv *)";
        {|let ok5 = "in a string: Stdlib.compare h = History.empty"|};
        "let compare a b = Int.compare a b";
        "let h, torn = History.of_events_prefix events";
        "List.sort (fun a b -> Int.compare a.time b.time) accesses";
      ]
  in
  match Analysis.Lint.scan_source ~file:"ok.ml" src with
  | [] -> ()
  | fs ->
      Alcotest.failf "false positives:@.%a"
        Fmt.(list ~sep:(any "@.") Analysis.Lint.pp_finding)
        fs

let test_lint_whitelist () =
  let dir = Filename.get_temp_dir_name () in
  let path = Filename.concat dir "event.ml" in
  let oc = open_out path in
  output_string oc "let compare : t -> t -> int = Stdlib.compare\n";
  close_out oc;
  Alcotest.(check int)
    "whitelisted basename skipped" 0
    (List.length (Analysis.Lint.scan_files [ path ]));
  Alcotest.(check bool)
    "same file flagged without the whitelist" true
    (Analysis.Lint.scan_files ~whitelist:[] [ path ] <> []);
  Sys.remove path

(* Every registered rule must catch its embedded positive fixture and
   stay quiet on its near-miss negative — the same check CI runs as
   [tm lint --self-test]. *)
let test_lint_self_test () =
  List.iter
    (fun (name, ok) -> Alcotest.(check bool) name true ok)
    (Analysis.Lint.self_test ())

let test_lint_pragma () =
  let clean src =
    match Analysis.Lint.scan_source ~file:"p.ml" src with
    | [] -> ()
    | fs ->
        Alcotest.failf "expected full suppression:@.%a"
          Fmt.(list ~sep:(any "@.") Analysis.Lint.pp_finding)
          fs
  in
  (* a used pragma suppresses the finding and reports nothing itself *)
  clean "(* lint: allow poly-hash — fixture *)\nlet f h = Hashtbl.hash h\n";
  (* the justification may span lines: coverage runs through the line
     after the comment closes *)
  clean
    "(* lint: allow poly-hash — a justification\n\
    \   spanning two lines *)\n\
     let f h = Hashtbl.hash h\n"

let test_lint_unused_pragma () =
  let rules src =
    List.map
      (fun (f : Analysis.Lint.finding) -> (f.line, f.rule))
      (Analysis.Lint.scan_source ~file:"p.ml" src)
  in
  Alcotest.(check (list (pair int string)))
    "stale pragma reported"
    [ (1, "unused-suppression") ]
    (rules "(* lint: allow poly-hash *)\nlet x = 1\n");
  Alcotest.(check (list (pair int string)))
    "unknown rule name reported, finding kept"
    [ (1, "unused-suppression"); (2, "poly-hash") ]
    (rules "(* lint: allow no-such-rule *)\nlet f h = Hashtbl.hash h\n")

let test_lint_rule_selection () =
  let src = "let f g h = try g h with _ -> Hashtbl.hash h\n" in
  let with_rules rs =
    List.map
      (fun (f : Analysis.Lint.finding) -> f.rule)
      (Analysis.Lint.scan_source ~rules_enabled:rs ~file:"s.ml" src)
  in
  Alcotest.(check (list string))
    "both rules fire unrestricted"
    [ "poly-hash"; "swallowed-exception" ]
    (with_rules [ "poly-hash"; "swallowed-exception" ]);
  Alcotest.(check (list string))
    "selection drops the other rule" [ "swallowed-exception" ]
    (with_rules [ "swallowed-exception" ]);
  Alcotest.(check (list string))
    "unknown names select nothing" []
    (Analysis.Lint.unknown_rules [ "poly-hash"; "swallowed-exception" ]);
  Alcotest.(check (list string))
    "unknown_rules flags typos" [ "poly-hsah" ]
    (Analysis.Lint.unknown_rules [ "poly-hsah"; "poly-eq" ])

let test_lint_loop_scope () =
  let rules src =
    List.map
      (fun (f : Analysis.Lint.finding) -> f.rule)
      (Analysis.Lint.scan_source ~rules_enabled:[ "quadratic-hot-path" ]
         ~file:"s.ml" src)
  in
  (* a multi-line combinator body is a loop region even when the
     combinator's own line closes its parens *)
  Alcotest.(check (list string))
    "scan inside a spread-out iter body flagged" [ "quadratic-hot-path" ]
    (rules
       "let f xs ys =\n\
       \  List.iter\n\
       \    (fun x ->\n\
       \      if List.mem x ys then ())\n\
       \    xs\n");
  Alcotest.(check (list string))
    "while body flagged" [ "quadratic-hot-path" ]
    (rules
       "let f q ys =\n\
       \  while not (Queue.is_empty q) do\n\
       \    ignore (List.nth ys (Queue.pop q))\n\
       \  done\n");
  (* ... and the region closes: the same scan after the loop is quiet *)
  Alcotest.(check (list string))
    "scan after the loop ends is quiet" []
    (rules
       "let f xs ys =\n\
       \  List.iter ignore xs;\n\
       \  ignore ys\n\n\
        let g x ys = List.mem x ys\n")

let test_lint_json () =
  let src = "let f h = Hashtbl.hash h\nlet g a b = Stdlib.compare a b\n" in
  let findings = Analysis.Lint.scan_source ~file:"j.ml" src in
  let json = Analysis.Lint.report_json findings in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Fmt.str "contains %s" needle) true
        (let rec has i =
           i + String.length needle <= String.length json
           && (String.sub json i (String.length needle) = needle || has (i + 1))
         in
         has 0))
    [
      {|"count": 2|};
      {|"rules": |};
      {|"file": "j.ml"|};
      {|"rule": "poly-hash"|};
      {|"rule": "poly-compare"|};
      {|"line": 2|};
    ];
  Alcotest.(check bool) "empty report still well-formed" true
    (Analysis.Lint.report_json [] <> "")

(* The domain-safety verdict must not contradict the dynamic race
   analyzer: the concurrency-heavy trees scan statically clean, and the
   dynamic analyzer agrees there is no known race on a safe STM's real
   interleavings (it still catches the unsafe designs — see the race
   fixtures above).  A statically-clean ∧ dynamically-racy pair would
   mean the static rule is looking at the wrong discipline. *)
let test_lint_domain_safety_reconciled () =
  let roots =
    List.filter Sys.file_exists
      [ "../lib/service"; "../lib/stm"; "lib/service"; "lib/stm" ]
  in
  if roots = [] then Alcotest.fail "source trees not found";
  (match
     Analysis.Lint.scan_roots ~rules_enabled:[ "domain-safety" ] roots
   with
  | [] -> ()
  | fs ->
      Alcotest.failf "domain-safety findings in service/stm:@.%a"
        Fmt.(list ~sep:(any "@.") Analysis.Lint.pp_finding)
        fs);
  let r = races_of ~seed:1 "tl2" in
  Alcotest.(check bool)
    (Fmt.str "tl2 dynamically clean too (%d accesses)" r.accesses)
    false
    (Analysis.Race.racy r)

(* The lint gate itself: the shipped sources must scan clean.  [dune
   runtest] runs from [_build/default/test]; the source trees are declared
   as test deps. *)
let test_lint_repo_clean () =
  let roots =
    List.filter Sys.file_exists [ "../lib"; "../bin"; "lib"; "bin" ]
  in
  if roots = [] then Alcotest.fail "source trees not found";
  match Analysis.Lint.scan_roots roots with
  | [] -> ()
  | fs ->
      Alcotest.failf
        "lint findings in shipped sources:@.%a@.(fix the code, or for a \
         reviewed false positive add a '(* lint: allow <rule> — why *)' \
         pragma or a per-rule whitelist entry)"
        Fmt.(list ~sep:(any "@.") Analysis.Lint.pp_finding)
        fs

let suite =
  [
    ( "analysis: explore (DPOR vs naive)",
      [
        test "3 no-op fibers: naive n!, dpor 1" test_noop_factorial;
        test "3 disjoint writers: naive 90, dpor 1" test_disjoint_writes;
        test "3 same-cell writers: naive 90, dpor 3!" test_conflicting_writes;
        test "non-deterministic program rejected" test_nondeterministic_rejected;
        slow "eager: both finish, ≥100x reduction" test_eager_reduction;
      ] );
    ( "analysis: verify campaigns",
      [
        slow "global-lock: verdict sets equal, clean" test_verify_global_lock_equal;
        slow "eager contended: violations + races found" test_verify_eager_contended;
        test_verdict_agreement;
        test "eager: DPOR sees the history orders du-opacity reads"
          test_eager_history_orders;
      ] );
    ( "analysis: races",
      [
        test "analyzer rules on hand-built traces" test_race_rules;
        slow "dirty-read flagged" test_race_dirty_read;
        slow "eager flagged" test_race_eager;
        slow "tl2 clean" (test_race_negative "tl2");
        slow "norec clean" (test_race_negative "norec");
        slow "global-lock clean" (test_race_negative "global-lock");
      ] );
    ( "analysis: lint",
      [
        test "positives" test_lint_positives;
        test "negatives" test_lint_negatives;
        test "whitelist" test_lint_whitelist;
        test "every rule's fixtures pass (self-test)" test_lint_self_test;
        test "pragmas suppress and count as used" test_lint_pragma;
        test "stale/unknown pragmas reported" test_lint_unused_pragma;
        test "rule selection and unknown names" test_lint_rule_selection;
        test "loop regions open and close" test_lint_loop_scope;
        test "json report shape" test_lint_json;
        slow "domain-safety agrees with the race analyzer"
          test_lint_domain_safety_reconciled;
        test "shipped sources clean" test_lint_repo_clean;
      ] );
  ]
