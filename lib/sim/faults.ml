include Tm_stm.Faults

type outcome = [ `Ok | `Violation of string | `Budget of string ]

type monitor_stats = {
  responses : int;
  fastpath_hits : int;
  searches : int;
  nodes : int;
}

type report = {
  seed : int;
  spec : Tm_stm.Faults.spec;
  history : History.t;
  stats : Tm_stm.Harness.stats;
  outcome : outcome option;
  monitor : monitor_stats option;
  commit_pending : int;
  incomplete : int;
}

let horizon (params : Tm_stm.Workload.params) =
  params.Tm_stm.Workload.txns_per_thread
  * (params.Tm_stm.Workload.ops_per_txn + 1)

let run_one ?(max_nodes = 2_000_000) ?(check = true) ?retry ~stm ~params ~spec
    ~seed () =
  let r = Runner.run ?retry ~faults:spec ~stm ~params ~seed () in
  let h = r.Runner.history in
  let outcome, monitor =
    if not check then (None, None)
    else if List.mem stm Tm_stm.Registry.lastuse_safe then begin
      (* An early-release STM is judged by its own criterion: every prefix
         must be last-use-opaque.  The criterion is not prefix-closed in
         general, but each prefix of a recorded history is itself a
         history the STM could have produced, so per-prefix [Sat] is the
         campaign invariant — judged standalone by the incremental
         checker rather than a sticky monitor. *)
      let ctx = Tm_checker.Last_use_opacity.incremental () in
      let n = History.length h in
      let rec judge i =
        if i > n then `Ok
        else
          let p = History.prefix h i in
          match Tm_checker.Last_use_opacity.check_inc ~max_nodes ctx p with
          | Tm_checker.Verdict.Sat _, _ -> judge (i + 1)
          | Tm_checker.Verdict.Unsat why, _ ->
              `Violation (Fmt.str "prefix %d: %s (last-use)" i why)
          | Tm_checker.Verdict.Unknown why, _ -> `Budget why
      in
      (Some (judge 0), None)
    end
    else
      (* The monitor replays the history event by event, so an [`Ok] is a
         du-opacity verdict for the history AND every one of its prefixes —
         exactly the prefix-closure obligation (Corollary 2) restated as a
         campaign invariant. *)
      let m = Tm_checker.Monitor.create ~max_nodes () in
      let o = Tm_checker.Monitor.push_all m (History.to_list h) in
      ( Some o,
        Some
          {
            responses = Tm_checker.Monitor.responses_seen m;
            fastpath_hits = Tm_checker.Monitor.fastpath_hits m;
            searches = Tm_checker.Monitor.searches_run m;
            nodes = Tm_checker.Monitor.nodes_total m;
          } )
  in
  let infos = History.infos h in
  {
    seed;
    spec;
    history = h;
    stats = r.Runner.stats;
    outcome;
    monitor;
    commit_pending = List.length (History.commit_pending h);
    incomplete =
      List.length (List.filter (fun t -> not (Txn.is_t_complete t)) infos);
  }

let campaign ?max_nodes ?check ?retry ?kinds ~stm ~params ~seeds () =
  List.map
    (fun seed ->
      let spec =
        sample ?kinds
          ~n_threads:params.Tm_stm.Workload.n_threads
          ~horizon:(horizon params) ~seed ()
      in
      run_one ?max_nodes ?check ?retry ~stm ~params ~spec ~seed ())
    seeds
