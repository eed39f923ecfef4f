open Tm_safety
open Helpers

(* Fault injection: crash/stall/omission plans produce genuinely incomplete
   histories, deterministically, and the checkers terminate on all of them. *)

let params =
  {
    Stm.Workload.default with
    n_threads = 3;
    txns_per_thread = 5;
    ops_per_txn = 3;
    n_vars = 4;
    read_ratio = 0.5;
  }

let run_faulted ?(stm = "tl2") ~spec ~seed () =
  Sim.Runner.run ~faults:spec ~stm ~params ~seed ()

let well_formed h =
  match History.of_events (History.to_list h) with
  | Ok _ -> true
  | Error _ -> false

(* --- crash --------------------------------------------------------------- *)

let test_crash_pending_forever () =
  let spec =
    { Stm.Faults.none with Stm.Faults.crash = Some { thread = 0; step = 2 } }
  in
  let r = run_faulted ~spec ~seed:1 () in
  let h = r.Sim.Runner.history in
  Alcotest.(check int) "one crash" 1 r.Sim.Runner.stats.Stm.Harness.crashes;
  Alcotest.(check bool) "well-formed" true (well_formed h);
  let incomplete =
    List.filter (fun t -> not (Txn.is_t_complete t)) (History.infos h)
  in
  Alcotest.(check bool) "crashed txn left incomplete" true
    (List.length incomplete >= 1)

(* --- stall --------------------------------------------------------------- *)

let test_stall_commit_pending () =
  let spec =
    { Stm.Faults.none with Stm.Faults.stall = Some { thread = 1; step = 0 } }
  in
  let r = run_faulted ~spec ~seed:2 () in
  let h = r.Sim.Runner.history in
  Alcotest.(check int) "one stall" 1 r.Sim.Runner.stats.Stm.Harness.stalls;
  Alcotest.(check bool) "a tryC is permanently pending" true
    (List.length (History.commit_pending h) >= 1);
  (* The zombie's effects are published, but reading from it is du-legal:
     its tryC was invoked.  The monitor must accept history + prefixes. *)
  let m = Monitor.create ~max_nodes:2_000_000 () in
  match Monitor.push_all m (History.to_list h) with
  | `Ok -> ()
  | `Violation why -> Alcotest.failf "stalled history not du-opaque: %s" why
  | `Budget why -> Alcotest.failf "budget: %s" why

(* --- spurious abort ------------------------------------------------------ *)

let test_spurious_counted () =
  let spec =
    {
      Stm.Faults.none with
      Stm.Faults.spurious = [ { Stm.Faults.thread = 0; step = 1 } ];
    }
  in
  let r = run_faulted ~spec ~seed:3 () in
  Alcotest.(check int) "one spurious abort" 1
    r.Sim.Runner.stats.Stm.Harness.spurious_aborts;
  Alcotest.(check bool) "history still well-formed" true
    (well_formed r.Sim.Runner.history)

(* --- omission ------------------------------------------------------------ *)

let test_omission_is_prefix () =
  let clean = Sim.Runner.run ~stm:"tl2" ~params ~seed:4 () in
  let spec = { Stm.Faults.none with Stm.Faults.omission = Some 17 } in
  let faulted = run_faulted ~spec ~seed:4 () in
  let ce = History.to_list clean.Sim.Runner.history in
  let fe = History.to_list faulted.Sim.Runner.history in
  Alcotest.(check int) "17 events survive" (min 17 (List.length ce))
    (List.length fe);
  Alcotest.(check (list event)) "recorder dropped exactly the tail"
    (List.filteri (fun i _ -> i < 17) ce)
    fe

(* --- determinism --------------------------------------------------------- *)

let test_deterministic_replay () =
  let spec =
    {
      Stm.Faults.crash = Some { Stm.Faults.thread = 2; step = 7 };
      stall = Some { Stm.Faults.thread = 0; step = 3 };
      spurious = [ { Stm.Faults.thread = 1; step = 3 } ];
      omission = None;
    }
  in
  let r1 = run_faulted ~spec ~seed:11 () in
  let r2 = run_faulted ~spec ~seed:11 () in
  Alcotest.(check (list event)) "same seed+spec, same history"
    (History.to_list r1.Sim.Runner.history)
    (History.to_list r2.Sim.Runner.history)

let test_sample_deterministic () =
  let s nth = Stm.Faults.sample ~n_threads:3 ~horizon:20 ~seed:nth () in
  Alcotest.(check string) "sampled plan replays from its seed"
    (Fmt.str "%a" Stm.Faults.pp_spec (s 42))
    (Fmt.str "%a" Stm.Faults.pp_spec (s 42))

(* --- retry policies ------------------------------------------------------ *)

let test_retry_backoff () =
  let r = Stm.Faults.retry_backoff ~base:2 ~cap:32 10 in
  Alcotest.(check int) "attempts" 10 r.Stm.Faults.max_attempts;
  Alcotest.(check int) "first failure" 2 (r.Stm.Faults.backoff 1);
  Alcotest.(check int) "doubles" 4 (r.Stm.Faults.backoff 2);
  Alcotest.(check int) "caps" 32 (r.Stm.Faults.backoff 20);
  let fixed = Stm.Faults.retry_fixed 5 in
  Alcotest.(check int) "fixed never pauses" 0 (fixed.Stm.Faults.backoff 3)

(* --- campaign ------------------------------------------------------------ *)

let test_campaign () =
  let seeds = List.init 15 (fun i -> i + 1) in
  let reports =
    Sim.Faults.campaign ~max_nodes:2_000_000
      ~kinds:[ `Crash; `Stall; `Spurious ] ~stm:"tl2" ~params ~seeds ()
  in
  Alcotest.(check int) "one report per seed" (List.length seeds)
    (List.length reports);
  let pending_seen = ref 0 in
  List.iter
    (fun (r : Sim.Faults.report) ->
      let h = r.Sim.Faults.history in
      if r.Sim.Faults.commit_pending > 0 then incr pending_seen;
      Alcotest.(check bool)
        (Fmt.str "seed %d well-formed" r.Sim.Faults.seed)
        true (well_formed h);
      (match r.Sim.Faults.outcome with
      | Some `Ok -> ()
      | Some (`Violation why) ->
          Alcotest.failf "seed %d: tl2 under faults not du-opaque: %s@.%s"
            r.Sim.Faults.seed why (Pretty.timeline h)
      | Some (`Budget why) ->
          Alcotest.failf "seed %d: budget: %s" r.Sim.Faults.seed why
      | None -> Alcotest.failf "seed %d: checking was on" r.Sim.Faults.seed);
      (* Definition 2 literally: every enumerated completion is one, and the
         faulted history is an event-prefix of its canonical completion. *)
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Fmt.str "seed %d completion" r.Sim.Faults.seed)
            true
            (Completion.is_completion c ~of_:h))
        (Completion.enumerate ~limit:4 h))
    reports;
  Alcotest.(check bool)
    (Fmt.str "some campaign run left a tryC pending (%d did)" !pending_seen)
    true (!pending_seen >= 1)

(* An early-release STM is judged prefix by prefix under last-use
   opacity, its own criterion.  Some of its histories are not du-opaque,
   so an [`Ok] on those shows the last-use branch decided them. *)
let test_campaign_early_release () =
  let seeds = List.init 10 (fun i -> i + 1) in
  let reports =
    Sim.Faults.campaign ~max_nodes:2_000_000
      ~kinds:[ `Crash; `Stall; `Spurious ] ~stm:"early-release" ~params ~seeds
      ()
  in
  Alcotest.(check int) "one report per seed" (List.length seeds)
    (List.length reports);
  let not_du = ref 0 in
  List.iter
    (fun (r : Sim.Faults.report) ->
      let h = r.Sim.Faults.history in
      (match r.Sim.Faults.outcome with
      | Some `Ok -> ()
      | Some (`Violation why) ->
          Alcotest.failf "seed %d: early-release not last-use-opaque: %s@.%s"
            r.Sim.Faults.seed why (Pretty.timeline h)
      | Some (`Budget why) ->
          Alcotest.failf "seed %d: budget: %s" r.Sim.Faults.seed why
      | None -> Alcotest.failf "seed %d: checking was on" r.Sim.Faults.seed);
      match Conflict_graph.check_or_fallback ~max_nodes:2_000_000 h with
      | Verdict.Unsat _ -> incr not_du
      | Verdict.Sat _ | Verdict.Unknown _ -> ())
    reports;
  Alcotest.(check bool)
    (Fmt.str "some campaign history is not du-opaque (%d are)" !not_du)
    true (!not_du >= 1)

(* --- properties (QCheck over seeds) -------------------------------------- *)

let arb_faulted_run =
  QCheck2.Gen.map
    (fun seed ->
      let seed = 1 + (abs seed mod 1000) in
      let spec =
        Stm.Faults.sample
          ~kinds:[ `Crash; `Stall; `Spurious; `Omission ]
          ~n_threads:params.Stm.Workload.n_threads
          ~horizon:(Sim.Faults.horizon params) ~seed ()
      in
      (seed, spec, run_faulted ~spec ~seed ()))
    QCheck2.Gen.int

let prop_well_formed =
  qtest ~count:30 "faulted histories are well-formed" arb_faulted_run
    (fun (_, _, r) -> well_formed r.Sim.Runner.history)

let prop_prefix_of_own_completion =
  qtest ~count:30 "history is a prefix of its canonical completion"
    arb_faulted_run (fun (_, _, r) ->
      let h = r.Sim.Runner.history in
      let c = Completion.canonical ~decide:(fun _ -> true) h in
      let he = History.to_list h and ce = History.to_list c in
      List.length he <= List.length ce
      && List.for_all2
           (fun a b -> Event.equal a b)
           he
           (List.filteri (fun i _ -> i < List.length he) ce))

let prop_du_opacity_antitone =
  (* Prefix-closure (Theorem 5 direction used by the monitor): if the
     faulted history is du-opaque, so is every truncation of it. *)
  qtest ~count:15 "du-opacity survives truncation" arb_faulted_run
    (fun (seed, _, r) ->
      let h = r.Sim.Runner.history in
      let check h = Conflict_graph.check_or_fallback ~max_nodes:1_000_000 h in
      match check h with
      | Verdict.Sat _ ->
          List.for_all
            (fun k ->
              match check (History.prefix h k) with
              | Verdict.Sat _ -> true
              | Verdict.Unsat _ | Verdict.Unknown _ -> false)
            [
              History.length h / 3;
              History.length h / 2;
              2 * History.length h / 3;
            ]
      | Verdict.Unsat why ->
          QCheck2.Test.fail_reportf "seed %d: tl2 not du-opaque: %s" seed why
      | Verdict.Unknown _ -> true)

let suite =
  [
    ( "faults: injection",
      [
        test "crash leaves an invocation pending forever"
          test_crash_pending_forever;
        test "stall leaves a commit-pending zombie" test_stall_commit_pending;
        test "spurious aborts are counted" test_spurious_counted;
        test "omission drops exactly the log tail" test_omission_is_prefix;
        test "same seed and plan replay the same history"
          test_deterministic_replay;
        test "plan sampling is seed-deterministic" test_sample_deterministic;
        test "retry policies" test_retry_backoff;
      ] );
    ( "faults: campaign",
      [
        slow "tl2 stays du-opaque under a 15-seed campaign" test_campaign;
        test "early-release stays last-use-opaque under a 10-seed campaign"
          test_campaign_early_release;
        prop_well_formed;
        prop_prefix_of_own_completion;
        prop_du_opacity_antitone;
      ] );
  ]
