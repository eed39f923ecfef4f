open Tm_safety
open Helpers

(* The paper's theorems as property campaigns over randomly generated
   histories.  Budgets make pathological instances Unknown rather than
   slow; Unknowns are discarded (QCheck2.assume) so they can never mask a
   counterexample. *)

let budget = Some 300_000

let sat _name v =
  match v with
  | Verdict.Sat _ -> true
  | Verdict.Unsat _ -> false
  | Verdict.Unknown _ -> QCheck2.assume_fail ()

let du h = Du_opacity.check ?max_nodes:budget h
let opaque h = Opacity.check ?max_nodes:budget h
let final_state h = Final_state.check ?max_nodes:budget h

(* Generator flavours *)
let small = { Gen.default with n_txns = 6; n_threads = 3; max_ops = 3 }

let t_complete_params =
  { small with pending_ratio = 0.0 (* every transaction reaches tryC/tryA *) }

let unique_params = { small with unique_writes = true }

let mixed =
  (* A blend of snapshot-valued (mostly correct) and random-valued (mostly
     broken) histories, so properties see both verdicts. *)
  QCheck2.Gen.bind QCheck2.Gen.bool (fun snapshot ->
      arb_history
        ~params:
          (if snapshot then small
           else { small with mode = `Random_values; value_range = 2 })
        ())

(* --- Theorem 10: DU-Opacity ⊆ Opacity ⊆ Final-state opacity --- *)

let prop_du_implies_opaque =
  qtest ~count:300 "du-opaque => opaque" mixed (fun h ->
      (not (sat "du" (du h))) || sat "opaque" (opaque h))

let prop_opaque_implies_fs =
  qtest ~count:300 "opaque => final-state opaque" mixed (fun h ->
      (not (sat "op" (opaque h))) || sat "fs" (final_state h))

(* --- Corollary 2: prefix closure --- *)

let prop_du_prefix_closed =
  qtest ~count:150 "du-opacity is prefix-closed" mixed (fun h ->
      (not (sat "du" (du h)))
      || List.for_all
           (fun i -> sat "prefix" (du (History.prefix h i)))
           (History.response_indices h))

let prop_opacity_prefix_closed =
  qtest ~count:60 "opacity is prefix-closed" mixed (fun h ->
      (not (sat "op" (opaque h)))
      || List.for_all
           (fun i -> sat "prefix" (opaque (History.prefix h i)))
           (History.response_indices h))

(* Extending by a lone invocation cannot lose final-state opacity (this
   justifies checking response-prefixes only in the opacity checker) and
   cannot change the du verdict at all: Sat is preserved by monotonicity,
   and Unsat by prefix-closure.  Final-state opacity CAN flip Unsat -> Sat
   (a lone tryC invocation unlocks a commit decision), so only the
   monotone direction is claimed for it. *)
let prop_invocation_extension =
  qtest ~count:150 "invocation extension: du stable, fs monotone" mixed
    (fun h ->
      let invocation_prefixes =
        List.init (History.length h) (fun i -> i + 1)
        |> List.filter (fun i -> Event.is_inv (History.get h (i - 1)))
      in
      List.for_all
        (fun i ->
          let before = History.prefix h (i - 1) in
          let after = History.prefix h i in
          sat "du before" (du before) = sat "du after" (du after)
          && ((not (sat "fs before" (final_state before)))
             || sat "fs after" (final_state after)))
        invocation_prefixes)

(* --- Inclusion chain on t-complete histories --- *)

let prop_chain_t_complete =
  qtest ~count:300 "du => opaque => fs => strict-ser => ser (t-complete)"
    (QCheck2.Gen.bind QCheck2.Gen.bool (fun snapshot ->
         arb_history
           ~params:
             (if snapshot then t_complete_params
              else
                { t_complete_params with mode = `Random_values; value_range = 2 })
           ()))
    (fun h ->
      QCheck2.assume (History.is_t_complete h);
      let imp a b = (not a) || b in
      let v_du = sat "du" (du h) in
      let v_op = sat "op" (opaque h) in
      let v_fs = sat "fs" (final_state h) in
      let v_ss = sat "ss" (Serializable.check_strict ?max_nodes:budget h) in
      let v_s = sat "s" (Serializable.check ?max_nodes:budget h) in
      imp v_du v_op && imp v_op v_fs && imp v_fs v_ss && imp v_ss v_s)

(* --- Theorem 11: unique writes ⇒ du-opacity = opacity --- *)

let prop_unique_writes_equiv =
  qtest ~count:300 "unique writes: du-opaque <=> opaque"
    (arb_history ~params:unique_params ())
    (fun h ->
      QCheck2.assume (History.unique_writes h);
      sat "du" (du h) = sat "op" (opaque h))

(* --- The graph with its search fallback decides exactly --- *)

let prop_check_or_fallback_agrees =
  qtest ~count:200 "check_or_fallback = check" mixed (fun h ->
      sat "graph" (Conflict_graph.check_or_fallback ?max_nodes:budget h)
      = sat "du" (du h))

(* --- GHS'08 (read-commit order) is stronger than du-opacity --- *)

let prop_rco_implies_du =
  qtest ~count:300 "rco-opaque => du-opaque" mixed (fun h ->
      (not (sat "rco" (Rco.check ?max_nodes:budget h))) || sat "du" (du h))

(* --- Certificates always validate --- *)

(* Every mode of the search: du, final-state, last-use, TMS2 and
   read-commit-order edges, and real time dropped (serializability). *)
let prop_certificates_validate =
  qtest ~count:300 "search certificates pass the definitional validator"
    mixed (fun h ->
      let valid ?respect_rt claim = function
        | Verdict.Sat s -> Serialization.validate ~claim ?respect_rt h s = Ok ()
        | Verdict.Unsat _ -> true
        | Verdict.Unknown _ -> QCheck2.assume_fail ()
      in
      let search opts =
        Search.serialize { opts with Search.max_nodes = budget } h
      in
      valid Serialization.Du_opaque (du h)
      && valid Serialization.Final_state (final_state h)
      && valid Serialization.Last_use (search Search.lu)
      && valid Serialization.Final_state
           (search { Search.default with extra_edges = Tms2.edges h })
      && valid Serialization.Final_state
           (search { Search.default with commit_edges = Rco.edges h })
      && valid ~respect_rt:false Serialization.Final_state
           (search { Search.default with respect_rt = false }))

(* A long recording's certificate, placed under the reduced real-time
   edges.  The hint proposes the transactions latest first, so only the
   real-time edges keep the search from placing a transaction before one
   that completed before it started: a constraint the search failed to
   enforce shows up as a clause (2) rejection here, or as a search that
   wanders past the budget (906 nodes suffice). *)
let test_recording_certificate () =
  let h = recording 1 in
  let hint = List.rev_map (fun (t : Txn.t) -> t.Txn.id) (History.infos h) in
  let v =
    Search.serialize
      { Search.du with hint = Some hint; max_nodes = Some 100_000 }
      h
  in
  check_sat "tl2 Range 100 seed 1" v;
  check_certified ~claim:Serialization.Du_opaque "tl2 Range 100 seed 1" h v

(* --- Lemma 1: certificates project to prefixes ---

   Only claimed under unique writes: with duplicate writes the paper's
   construction (and indeed the lemma's statement) fails — see
   Tm_figures.Findings.lemma1_gap and the "findings" test suite. *)

let prop_lemma1_unique_writes =
  qtest ~count:150 "Lemma 1 projection (unique writes)"
    (arb_history ~params:unique_params ())
    (fun h ->
      match du h with
      | Verdict.Sat s ->
          List.for_all
            (fun i ->
              let si = Lemmas.project_prefix h s i in
              Serialization.validate ~claim:Serialization.Du_opaque
                (History.prefix h i) si
              = Ok ())
            (History.response_indices h)
      | Verdict.Unsat _ -> true
      | Verdict.Unknown _ -> QCheck2.assume_fail ())

(* Corollary 2's *statement*, independent of the broken construction: the
   prefix always has SOME serialization (already prop_du_prefix_closed);
   moreover when the paper's projection does fail, a full re-search still
   succeeds. *)
let prop_lemma1_fallback =
  qtest ~count:150 "Lemma 1 fallback: failed projections re-search fine" mixed
    (fun h ->
      match du h with
      | Verdict.Sat s ->
          List.for_all
            (fun i ->
              let si = Lemmas.project_prefix h s i in
              let p = History.prefix h i in
              match
                Serialization.validate ~claim:Serialization.Du_opaque p si
              with
              | Ok () -> true
              | Error _ -> sat "prefix re-search" (du p))
            (History.response_indices h)
      | Verdict.Unsat _ -> true
      | Verdict.Unknown _ -> QCheck2.assume_fail ())

(* --- Lemma 4: live-set normalisation --- *)

let prop_lemma4 =
  qtest ~count:150 "Lemma 4: live-set-respecting serialization"
    QCheck2.Gen.(oneof [ mixed; arb_history ~params:unique_params () ])
    (fun h ->
      match du h with
      | Verdict.Sat s ->
          let s' = Lemmas.normalize_live_sets h s in
          Lemmas.respects_live_sets h s'
          && Serialization.validate ~claim:Serialization.Du_opaque h s' = Ok ()
      | Verdict.Unsat _ -> true
      | Verdict.Unknown _ -> QCheck2.assume_fail ())

(* --- Completions --- *)

let prop_completions =
  qtest ~count:150 "enumerated completions are completions" mixed (fun h ->
      let completions = Completion.enumerate ~limit:8 h in
      List.for_all
        (fun c ->
          History.is_t_complete c && Completion.is_completion c ~of_:h)
        completions)

(* --- Monitor agrees with the offline checker --- *)

let prop_monitor_offline =
  qtest ~count:100 "monitor = offline prefix scan" mixed (fun h ->
      let m = Monitor.create () in
      let outcome = Monitor.push_all m (History.to_list h) in
      let offline_first_bad =
        let lens = History.response_indices h in
        List.find_opt
          (fun i -> not (sat "p" (du (History.prefix h i))))
          lens
      in
      match outcome, offline_first_bad with
      | `Ok, None -> true
      | `Violation _, Some i -> Monitor.violation_index m = Some i
      | `Ok, Some _ | `Violation _, None -> false
      | `Budget _, _ -> QCheck2.assume_fail ())

(* The same agreement, hammered harder: 1000 iterations over a blend of
   random histories and fault-injected simulator runs (crashes, stalls,
   spurious aborts, omission), so the monitor's incremental graph is
   exercised
   against genuinely incomplete streams — commit-pending zombies and
   invocations pending forever — not just generator output. *)

let prop_monitor_equiv_offline =
  let fault_params =
    {
      Stm.Workload.default with
      n_threads = 3;
      txns_per_thread = 3;
      ops_per_txn = 2;
      n_vars = 3;
    }
  in
  let faulted =
    QCheck2.Gen.map
      (fun seed ->
        let spec =
          Sim.Faults.sample
            ~n_threads:fault_params.Stm.Workload.n_threads
            ~horizon:(Sim.Faults.horizon fault_params)
            ~seed ()
        in
        (Sim.Faults.run_one ~check:false ~stm:"tl2" ~params:fault_params
           ~spec ~seed ())
          .Sim.Faults.history)
      QCheck2.Gen.(0 -- 1_000_000)
  in
  qtest ~count:1000 "monitor = offline (random + fault-injected, 1000x)"
    (QCheck2.Gen.bind QCheck2.Gen.bool (fun use_faults ->
         if use_faults then faulted else mixed))
    (fun h ->
      let m = Monitor.create ?max_nodes:budget () in
      let outcome = Monitor.push_all m (History.to_list h) in
      let offline_first_bad =
        List.find_opt
          (fun i -> not (sat "p" (du (History.prefix h i))))
          (History.response_indices h)
      in
      match (outcome, offline_first_bad) with
      | `Ok, None -> true
      | `Violation _, Some i -> Monitor.violation_index m = Some i
      | `Ok, Some _ | `Violation _, None -> false
      | `Budget _, _ -> QCheck2.assume_fail ())

(* --- Structural properties of the generator and the text format --- *)

let prop_roundtrip =
  qtest ~count:1000 "text roundtrip is exact (1000x)" mixed (fun h ->
      match Parse.of_string (Parse.to_text h) with
      | Ok h' -> History.to_list h = History.to_list h'
      | Error _ -> false)

let prop_unique_writes_generator =
  qtest ~count:300 "generator honours unique_writes"
    (arb_history ~params:unique_params ())
    History.unique_writes

let prop_prefix_structure =
  qtest ~count:200 "prefixes compose" mixed (fun h ->
      let n = History.length h in
      let i = n / 2 and j = n / 3 in
      History.to_list (History.prefix (History.prefix h i) j)
      = History.to_list (History.prefix h j))

let prop_single_threaded_du_opaque =
  (* With one thread the snapshot-valued generator produces t-sequential
     read-committed executions: always du-opaque.  (With concurrency it is
     read-committed, which famously admits write skew — NOT serializable in
     general, so no such claim is made there.) *)
  qtest ~count:200 "single-threaded snapshot histories are du-opaque"
    (arb_history ~params:{ small with n_threads = 1 } ())
    (fun h -> sat "du" (du h))

let suite =
  [
    ( "properties",
      [
        prop_du_implies_opaque;
        prop_opaque_implies_fs;
        prop_du_prefix_closed;
        prop_opacity_prefix_closed;
        prop_invocation_extension;
        prop_chain_t_complete;
        prop_unique_writes_equiv;
        prop_check_or_fallback_agrees;
        prop_rco_implies_du;
        prop_certificates_validate;
        test "certificate of a 3.3k-event recording validates"
          test_recording_certificate;
        prop_lemma1_unique_writes;
        prop_lemma1_fallback;
        prop_lemma4;
        prop_completions;
        prop_monitor_offline;
        prop_monitor_equiv_offline;
        prop_roundtrip;
        prop_unique_writes_generator;
        prop_prefix_structure;
        prop_single_threaded_du_opaque;
      ] );
  ]
