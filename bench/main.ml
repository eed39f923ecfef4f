(* Benchmark and experiment harness: regenerates the measured tables
   catalogued in DESIGN.md (per-experiment index) and EXPERIMENTS.md.

     dune exec bench/main.exe             # everything
     dune exec bench/main.exe -- monitor check   # selected sections

   Timing tables are Bechamel estimates (ns per run, OLS on the monotonic
   clock).  The paper's verdict claims (figures, limit, inclusion, lemmas)
   are asserted by the test suite, not re-derived here. *)

open Tm_safety
open Bechamel

let section_header name =
  Fmt.pr "@.============================================================@.";
  Fmt.pr "== %s@." name;
  Fmt.pr "============================================================@."

(* --- Bechamel helpers ------------------------------------------------- *)

let ols =
  Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]

let run_bechamel ?(quota = 0.3) tests =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ()
  in
  let grouped = Test.make_grouped ~name:"" ~fmt:"%s%s" tests in
  let raw =
    Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped
  in
  Analyze.all ols Toolkit.Instance.monotonic_clock raw

let print_timings results =
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> t
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "      n/a"
        else if ns > 1e9 then Fmt.str "%8.2f s " (ns /. 1e9)
        else if ns > 1e6 then Fmt.str "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Fmt.str "%8.2f µs" (ns /. 1e3)
        else Fmt.str "%8.0f ns" ns
      in
      Fmt.pr "  %-42s %s/run@." name pretty)
    rows

(* --- Section: stm-safety ------------------------------------------------ *)

let bench_stm_safety () =
  section_header
    "stm-safety — Section 5: histories exported by each STM (simulator, \
     30 seeds)";
  let params =
    {
      Stm.Workload.default with
      n_threads = 3;
      txns_per_thread = 5;
      ops_per_txn = 3;
      n_vars = 4;
    }
  in
  Fmt.pr "%-12s %-9s %10s %10s %10s %12s@." "stm" "class" "du-opaque"
    "violations" "commits" "aborts";
  List.iter
    (fun stm ->
      let du_ok = ref 0 and bad = ref 0 in
      let commits = ref 0 and aborts = ref 0 in
      for seed = 1 to 30 do
        let r = Sim.Runner.run ~stm ~params ~seed () in
        commits := !commits + r.Sim.Runner.stats.Stm.Harness.commits;
        aborts :=
          !aborts
          + r.Sim.Runner.stats.Stm.Harness.op_aborts
          + r.Sim.Runner.stats.Stm.Harness.commit_aborts;
        match
          Conflict_graph.check_or_fallback ~max_nodes:1_000_000
            r.Sim.Runner.history
        with
        | Verdict.Sat _ -> incr du_ok
        | Verdict.Unsat _ -> incr bad
        | Verdict.Unknown _ -> ()
      done;
      let cls = if List.mem stm Stm.Registry.safe then "safe" else "control" in
      Fmt.pr "%-12s %-9s %7d/30 %10d %10d %12d@." stm cls !du_ok !bad !commits
        !aborts)
    (Stm.Registry.safe @ Stm.Registry.controls);
  Fmt.pr
    "  => expected shape: safe rows 30/30 du-opaque; every control row has \
     violations.@."

(* --- Section: checker-scaling ------------------------------------------ *)

let stm_history ~stm ~txns ~seed =
  let params =
    {
      Stm.Workload.default with
      n_threads = 3;
      txns_per_thread = (txns + 2) / 3;
      ops_per_txn = 3;
      n_vars = 6;
    }
  in
  (Sim.Runner.run ~stm ~params ~seed ()).Sim.Runner.history

let tl2_history ~txns ~seed = stm_history ~stm:"tl2" ~txns ~seed

(* [bench check]'s TL2 recording of about [target] events: 4 threads, 4 ops
   per transaction, 64 variables, seed [42 + target]. *)
let check_recording ~values ~target =
  let threads = 4 and ops = 4 in
  (* ~10 events per transaction attempt: 2 per op plus the tryC pair. *)
  let txns = max 4 (target / 10) in
  let params =
    {
      Stm.Workload.default with
      n_threads = threads;
      txns_per_thread = (txns + threads - 1) / threads;
      ops_per_txn = ops;
      n_vars = 64;
      values;
    }
  in
  (Sim.Runner.run ~stm:"tl2" ~params ~seed:(42 + target) ()).Sim.Runner.history

let bench_checker_scaling () =
  section_header
    "checker-scaling — checker cost vs history size (TL2-recorded, du-opaque \
     inputs)";
  let sizes = [ 6; 12; 24; 48 ] in
  let tests =
    List.concat_map
      (fun txns ->
        let h = tl2_history ~txns ~seed:(1000 + txns) in
        let events = History.length h in
        let name crit = Fmt.str "%s txns=%02d events=%03d" crit txns events in
        [
          Test.make ~name:(name "du-search   ")
            (Staged.stage (fun () -> ignore (Du_opacity.check h)));
          Test.make ~name:(name "final-state ")
            (Staged.stage (fun () -> ignore (Final_state.check h)));
          Test.make ~name:(name "opacity     ")
            (Staged.stage (fun () -> ignore (Opacity.check h)));
        ])
      sizes
  in
  print_timings (run_bechamel tests);
  let h = tl2_history ~txns:12 ~seed:1 in
  let tests =
    [
      Test.make ~name:"tms2         txns=12"
        (Staged.stage (fun () -> ignore (Tms2.check h)));
      Test.make ~name:"rco          txns=12"
        (Staged.stage (fun () -> ignore (Rco.check h)));
      Test.make ~name:"serializable txns=12"
        (Staged.stage (fun () -> ignore (Serializable.check h)));
      Test.make ~name:"strict-ser   txns=12"
        (Staged.stage (fun () -> ignore (Serializable.check_strict h)));
    ]
  in
  print_timings (run_bechamel tests);
  Fmt.pr
    "  => expected shape: opacity ≈ (responses × final-state); all grow \
     super-linearly in the worst case (the decision problem is NP-hard).@."

(* --- Section: stm-throughput ------------------------------------------- *)

let bench_stm_throughput () =
  section_header
    "stm-throughput — commits/s on real domains (Atomic memory, unrecorded)";
  Fmt.pr
    "  (host has %d core(s); with 1 core the serial baseline wins and \
     scalable STMs pay their bookkeeping — the multicore shape is who \
     *degrades least* under added domains)@."
    (Domain.recommended_domain_count ());
  let run stm domains ~contended =
    let params =
      {
        Stm.Workload.default with
        n_threads = domains;
        txns_per_thread = 4000 / domains;
        ops_per_txn = 4;
        n_vars = (if contended then 2 else 64);
        read_ratio = 0.5;
        zipf_theta = (if contended then 0.9 else 0.0);
      }
    in
    let r =
      Stm.Parallel.run ~algorithm:(Stm.Registry.find_exn stm) ~params ~seed:3 ()
    in
    ( Stm.Parallel.throughput r,
      r.Stm.Parallel.stats.Stm.Harness.op_aborts
      + r.Stm.Parallel.stats.Stm.Harness.commit_aborts )
  in
  List.iter
    (fun contended ->
      Fmt.pr "@.  %s contention:@."
        (if contended then "HIGH (2 vars, zipf 0.9)" else "LOW (64 vars)");
      Fmt.pr "  %-12s %18s %18s %18s@." "stm" "1 domain" "2 domains"
        "4 domains";
      List.iter
        (fun stm ->
          let cells =
            List.map
              (fun d ->
                let tput, aborts = run stm d ~contended in
                Fmt.str "%9.0f/s %5d†" tput aborts)
              [ 1; 2; 4 ]
          in
          Fmt.pr "  %-12s %18s %18s %18s@." stm (List.nth cells 0)
            (List.nth cells 1) (List.nth cells 2))
        [ "tl2"; "norec"; "tml"; "2pl"; "global-lock" ])
    [ false; true ];
  Fmt.pr "  († = aborts)@."

(* --- Section: abort-rate ------------------------------------------------ *)

let bench_abort_rate () =
  section_header
    "abort-rate — abort ratio vs contention (simulator, deterministic \
     interleaving)";
  Fmt.pr "  %-12s %10s %10s %10s %10s %10s@." "stm" "64 vars" "16 vars"
    "4 vars" "2 vars" "1 var";
  List.iter
    (fun stm ->
      let cells =
        List.map
          (fun n_vars ->
            let commits = ref 0 and aborts = ref 0 in
            for seed = 1 to 10 do
              let params =
                {
                  Stm.Workload.default with
                  n_threads = 4;
                  txns_per_thread = 15;
                  ops_per_txn = 3;
                  n_vars;
                }
              in
              let r = Sim.Runner.run ~stm ~params ~seed () in
              commits := !commits + r.Sim.Runner.stats.Stm.Harness.commits;
              aborts :=
                !aborts
                + r.Sim.Runner.stats.Stm.Harness.op_aborts
                + r.Sim.Runner.stats.Stm.Harness.commit_aborts
            done;
            let total = !commits + !aborts in
            if total = 0 then "-"
            else
              Fmt.str "%5.1f%%"
                (100. *. float_of_int !aborts /. float_of_int total))
          [ 64; 16; 4; 2; 1 ]
      in
      Fmt.pr "  %-12s %10s %10s %10s %10s %10s@." stm (List.nth cells 0)
        (List.nth cells 1) (List.nth cells 2) (List.nth cells 3)
        (List.nth cells 4))
    [ "tl2"; "norec"; "tml"; "2pl"; "global-lock"; "pessimistic" ];
  Fmt.pr
    "  => expected shape: abort rate rises as variables shrink; global-lock \
     and pessimistic never abort; TML/2PL abort aggressively under \
     contention.@."

(* --- Section: monitor --------------------------------------------------- *)

(* Perf T5: the monitor, certifying after every response, vs the design
   before it on long recorded streams.  The baseline re-creates what
   Monitor.push once did per response: one full certificate-hinted search
   over the whole prefix. *)

type monitor_row = {
  row_stm : string;
  row_events : int;
  row_responses : int;
  row_hits : int;
  row_searches : int;
  row_nodes : int;
  row_inc_s : float;
  row_full_s : float;
}

(* A row's time is the median of [monitor_runs] runs in process CPU time.
   The counters come from a deterministic replay, so runs that disagree on
   them are a bug, not noise: the section fails. *)
let monitor_runs = 5

let run_monitor ~stm h =
  let events = History.to_list h in
  let once () =
    let t0 = Sys.time () in
    let m = Monitor.create () in
    ignore (Monitor.push_all m events);
    let seconds = Sys.time () -. t0 in
    {
      row_stm = stm;
      row_events = List.length events;
      row_responses = Monitor.responses_seen m;
      row_hits = Monitor.fastpath_hits m;
      row_searches = Monitor.searches_run m;
      row_nodes = Monitor.nodes_total m;
      row_inc_s = seconds;
      row_full_s = 0.;
    }
  in
  let runs = List.init monitor_runs (fun _ -> once ()) in
  let first = List.hd runs in
  let counters r = (r.row_hits, r.row_searches, r.row_nodes) in
  if List.exists (fun r -> counters r <> counters first) runs then begin
    Fmt.epr
      "bench monitor: %s stream of %d events: fastpath_hits/searches/nodes \
       differ between runs@."
      stm first.row_events;
    exit 1
  end;
  let times = List.sort compare (List.map (fun r -> r.row_inc_s) runs) in
  { first with row_inc_s = List.nth times (monitor_runs / 2) }

let measure_monitor_stream ~stm ~txns ~seed =
  let h = stm_history ~stm ~txns ~seed in
  let row = run_monitor ~stm h in
  let t0 = Sys.time () in
  let hint = ref None in
  List.iter
    (fun i ->
      match Du_opacity.check ?hint:!hint (History.prefix h i) with
      | Verdict.Sat s -> hint := Some s.Serialization.order
      | Verdict.Unsat _ | Verdict.Unknown _ -> ())
    (History.response_indices h);
  { row with row_full_s = Sys.time () -. t0 }

let monitor_rows () =
  (* >= 2000 events per stream (3 threads x 84 txns x 4 boundaries x 2). *)
  List.map
    (fun (stm, seed) -> measure_monitor_stream ~stm ~txns:252 ~seed)
    [ ("tl2", 4000); ("norec", 5000) ]

(* [bench check]'s repeated-values recordings (11,352, 33,470 and 111,946
   events).  Written values repeat; the graph decides them.  No full
   baseline: re-searching every prefix is quadratic at these sizes. *)
let repeated_monitor_rows () =
  List.map
    (fun target ->
      run_monitor ~stm:"tl2" (check_recording ~values:(`Range 100) ~target))
    [ 10_000; 30_000; 100_000 ]

let us_per_event row =
  if row.row_events = 0 then 0.
  else row.row_inc_s *. 1e6 /. float_of_int row.row_events

let events_per_s row seconds =
  if seconds <= 0. then 0. else float_of_int row.row_events /. seconds

let hit_rate row =
  if row.row_responses = 0 then 0.
  else float_of_int row.row_hits /. float_of_int row.row_responses

let json_mode = ref false

let monitor_json rows repeated =
  (* Hand-rolled JSON: stable keys, no dependency. *)
  let row_json r =
    Fmt.str
      {|    {"stm": %S, "events": %d, "responses": %d,
     "incremental": {"seconds": %.6f, "events_per_s": %.1f,
                     "fastpath_hits": %d, "hit_rate": %.4f,
                     "searches": %d, "nodes": %d},
     "full_baseline": {"seconds": %.6f, "events_per_s": %.1f},
     "speedup": %.2f}|}
      r.row_stm r.row_events r.row_responses r.row_inc_s
      (events_per_s r r.row_inc_s)
      r.row_hits (hit_rate r) r.row_searches r.row_nodes r.row_full_s
      (events_per_s r r.row_full_s)
      (if r.row_inc_s <= 0. then 0. else r.row_full_s /. r.row_inc_s)
  in
  let repeated_json r =
    Fmt.str
      {|    {"stm": %S, "values": "repeated", "events": %d, "responses": %d,
     "us_per_event": %.2f, "fastpath_hits": %d, "searches": %d, "nodes": %d}|}
      r.row_stm r.row_events r.row_responses (us_per_event r) r.row_hits
      r.row_searches r.row_nodes
  in
  Fmt.pr
    {|{"benchmark": "monitor", "unit": "events_per_s",
 "timing": "median of %d runs, process CPU time", "streams": [@.%s@.],
 "repeated_values": [@.%s@.]}@.|}
    monitor_runs
    (String.concat ",\n" (List.map row_json rows))
    (String.concat ",\n" (List.map repeated_json repeated))

let bench_monitor () =
  if !json_mode then monitor_json (monitor_rows ()) (repeated_monitor_rows ())
  else begin
    section_header "monitor — online verification cost";
    let tests =
      List.concat_map
        (fun txns ->
          let events =
            History.to_list (tl2_history ~txns ~seed:(3000 + txns))
          in
          let n = List.length events in
          [
            Test.make
              ~name:(Fmt.str "monitor stream   txns=%02d events=%03d" txns n)
              (Staged.stage (fun () ->
                   let m = Monitor.create () in
                   ignore (Monitor.push_all m events)));
            Test.make
              ~name:(Fmt.str "offline rechecks txns=%02d events=%03d" txns n)
              (Staged.stage (fun () ->
                   let h = History.of_events_exn events in
                   List.iter
                     (fun i -> ignore (Du_opacity.check (History.prefix h i)))
                     (History.response_indices h)));
          ])
        [ 6; 12; 24 ]
    in
    print_timings (run_bechamel tests);
    Fmt.pr
      "  => expected shape: the monitor (certificate-hinted) beats re-running \
       the checker per prefix, and the gap grows with length.@.";
    Fmt.pr "@.  Perf T5 — incremental vs full re-search on long streams:@.";
    Fmt.pr "  %-7s %7s %10s %9s %9s %12s %12s %8s@." "stm" "events"
      "responses" "hit-rate" "searches" "inc ev/s" "full ev/s" "speedup";
    List.iter
      (fun r ->
        Fmt.pr "  %-7s %7d %10d %8.1f%% %9d %12.0f %12.0f %7.1fx@." r.row_stm
          r.row_events r.row_responses
          (100. *. hit_rate r)
          r.row_searches
          (events_per_s r r.row_inc_s)
          (events_per_s r r.row_full_s)
          (if r.row_inc_s <= 0. then 0. else r.row_full_s /. r.row_inc_s))
      (monitor_rows ());
    Fmt.pr
      "  => expected shape: >= 90%% of responses certified by the graph as \
       it stands; speedup grows with stream length.@.";
    Fmt.pr "@.  bench check's repeated-values recordings (no full baseline):@.";
    Fmt.pr "  %-7s %7s %10s %8s %9s %9s@." "stm" "events" "responses"
      "us/event" "searches" "nodes";
    List.iter
      (fun r ->
        Fmt.pr "  %-7s %7d %10d %8.1f %9d %9d@." r.row_stm r.row_events
          r.row_responses (us_per_event r) r.row_searches r.row_nodes)
      (repeated_monitor_rows ());
    Fmt.pr
      "  => expected shape: a few us/event, flat in the stream's length \
       (each certify costs what changed since the last one); no search.@."
  end

(* --- Section: service --------------------------------------------------- *)

(* Load generator for [tm serve]: N client threads replaying recorded
   TL2/NOrec/fault-injected streams against a server (in-process unless
   --socket points at an external one), reporting aggregate events/s,
   checkpoint round-trip percentiles, and per-domain monitor fast-path
   hit rates.  Every close_session verdict is compared against the
   offline monitor's outcome on the same stream. *)

let opt_service_duration = ref 3.0
let opt_service_sessions = ref 4
let opt_service_domains = ref 4
let opt_service_socket : string option ref = ref None

type service_stream = {
  ss_name : string;
  ss_events : Event.t list;
  ss_len : int;
  ss_expected : Service.Protocol.status;  (* offline monitor ground truth *)
}

let service_stream name events =
  let m = Monitor.create () in
  let expected =
    match Monitor.push_all m events with
    | `Ok -> Service.Protocol.S_ok
    | `Violation why -> Service.Protocol.S_violation why
    | `Budget why -> Service.Protocol.S_budget why
  in
  { ss_name = name; ss_events = events; ss_len = List.length events;
    ss_expected = expected }

let service_streams () =
  let recorded stm seed =
    service_stream
      (Fmt.str "%s/seed%d" stm seed)
      (History.to_list (stm_history ~stm ~txns:60 ~seed))
  in
  let faulted stm seed =
    let params =
      {
        Stm.Workload.default with
        n_threads = 3;
        txns_per_thread = 20;
        ops_per_txn = 3;
        n_vars = 4;
      }
    in
    let spec =
      Sim.Faults.sample ~n_threads:params.Stm.Workload.n_threads
        ~horizon:(Sim.Faults.horizon params) ~seed ()
    in
    let r = Sim.Faults.run_one ~check:false ~stm ~params ~spec ~seed () in
    service_stream
      (Fmt.str "%s-fault/seed%d" stm seed)
      (History.to_list r.Sim.Faults.history)
  in
  [ recorded "tl2" 11; recorded "norec" 12; recorded "tl2" 13;
    faulted "norec" 7 ]

type service_worker = {
  sw_stream : service_stream;
  mutable sw_events : int;  (* events sent *)
  mutable sw_replays : int;
  mutable sw_mismatches : int;
  mutable sw_latencies : float list;  (* checkpoint round-trips, seconds *)
  mutable sw_error : string option;
}

let service_worker_run addr deadline w =
  let c = Service.Client.connect addr in
  let sid = ref 0 in
  (try
     while Stm.Clock.now () < deadline do
       incr sid;
       Service.Client.open_session c !sid;
       Service.Client.send_events c !sid w.sw_stream.ss_events;
       let t0 = Stm.Clock.now () in
       ignore (Service.Client.checkpoint c !sid);
       w.sw_latencies <- (Stm.Clock.now () -. t0) :: w.sw_latencies;
       let fin = Service.Client.close_session c !sid in
       if fin.Service.Protocol.status <> w.sw_stream.ss_expected then
         w.sw_mismatches <- w.sw_mismatches + 1;
       w.sw_events <- w.sw_events + w.sw_stream.ss_len;
       w.sw_replays <- w.sw_replays + 1
     done
   with e -> w.sw_error <- Some (Printexc.to_string e));
  try Service.Client.close c with _ -> ()

let percentile sorted p =
  match Array.length sorted with
  | 0 -> nan
  | n ->
      let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) rank))

let domain_hit_rate (d : Service.Protocol.domain_stats) =
  if d.responses = 0 then 0.
  else float_of_int d.fastpath_hits /. float_of_int d.responses

(* --- overload phase: percentiles while the server throttles --------------- *)

(* A deliberately tiny worker queue (hwm 2) and slow drain pressure from
   many concurrent sessions: most Events_at frames bounce off the
   high-watermark, so checkpoint round-trips are measured while the
   server is actively throttling — the p50/p99-under-overload columns
   BENCH_service.json tracks.  Every worker still finishes its stream
   (throttled frames are re-sent from the acked index), so verdict parity
   is asserted under overload too. *)

type overload_result = {
  ov_events : int;
  ov_wall : float;
  ov_throttles : int;
  ov_sheds : int;
  ov_mismatches : int;
  ov_latencies : float array;  (* sorted checkpoint RTTs, seconds *)
}

let bench_service_overload () =
  let srv =
    Service.Server.start
      (Service.Server.config ~domains:2 ~queue_capacity:4 ~hwm:2
         ~throttle_shed:1_000_000 (`Tcp ("127.0.0.1", 0)))
  in
  let addr = Service.Server.bound_addr srv in
  let stream = List.hd (service_streams ()) in
  let n = stream.ss_len in
  let throttles = Atomic.make 0 in
  let sheds = Atomic.make 0 in
  let mismatches = Atomic.make 0 in
  let events = Atomic.make 0 in
  let lat_mutex = Mutex.create () in
  let latencies = ref [] in
  let worker _i =
    let c = Service.Client.connect addr in
    Service.Client.open_session c 1;
    let arr = Array.of_list stream.ss_events in
    let rec drive cursor guard =
      if cursor >= n || guard > 200 * n then cursor
      else begin
        let k = min 8 (n - cursor) in
        Service.Client.send_events_at c 1 ~from:cursor
          (Array.to_list (Array.sub arr cursor k));
        let t0 = Stm.Clock.now () in
        let v = Service.Client.checkpoint c 1 in
        let rtt = Stm.Clock.now () -. t0 in
        Mutex.lock lat_mutex;
        latencies := rtt :: !latencies;
        Mutex.unlock lat_mutex;
        drive (max cursor v.Service.Protocol.applied) (guard + 1)
      end
    in
    let final = drive 0 0 in
    let v = Service.Client.close_session c 1 in
    if final = n && v.Service.Protocol.status <> stream.ss_expected then
      Atomic.incr mismatches;
    Atomic.set events (Atomic.get events + final);
    Atomic.set throttles (Atomic.get throttles + Service.Client.throttled c);
    if Service.Client.shed c <> None then Atomic.incr sheds;
    Service.Client.close c
  in
  let t0 = Stm.Clock.now () in
  let threads = List.init 8 (fun i -> Thread.create worker i) in
  List.iter Thread.join threads;
  let wall = Stm.Clock.now () -. t0 in
  Service.Server.stop srv;
  {
    ov_events = Atomic.get events;
    ov_wall = wall;
    ov_throttles = Atomic.get throttles;
    ov_sheds = Atomic.get sheds;
    ov_mismatches = Atomic.get mismatches;
    ov_latencies = List.sort compare !latencies |> Array.of_list;
  }

(* --- recovery phase: crash, restart, resume -------------------------------- *)

(* How long a client is actually locked out when the server process dies:
   from the moment the replacement starts until Resume answers with the
   durably-applied index — i.e. session registry lookup + journal replay
   for the sizes below. *)

type recovery_result = {
  rc_events : int;
  rc_replayed : int;  (* journalled events replayed on resume *)
  rc_recovery_ms : float;
  rc_parity : bool;  (* resumed session finished with the offline verdict *)
}

let bench_service_recovery () =
  let scratch =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "tm-bench-recovery-%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter
          (fun nm -> rm_rf (Filename.concat path nm))
          (try Sys.readdir path with Sys_error _ -> [||]);
        (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  (* Checkpoint before the crash, so the whole stream is journalled and
     recovery replays all of it; the resumed client re-sends from the
     acked index and the final verdict is checked against the offline
     monitor. *)
  let one ~txns ~seed =
    rm_rf scratch;
    Unix.mkdir scratch 0o755;
    let events = History.to_list (tl2_history ~txns ~seed) in
    let arr = Array.of_list events in
    let n = List.length events in
    let expected =
      let m = Monitor.create () in
      match Monitor.push_all m events with
      | `Ok -> Service.Protocol.S_ok
      | `Violation why -> Service.Protocol.S_violation why
      | `Budget why -> Service.Protocol.S_budget why
    in
    let addr = `Unix (Filename.concat scratch "sock") in
    let cfg =
      Service.Server.config ~domains:2
        ~journal_dir:(Filename.concat scratch "journal")
        addr
    in
    let srv = Service.Server.start cfg in
    let c = Service.Client.connect addr in
    Service.Client.open_session c 1;
    Service.Client.send_events_at c 1 ~from:0 events;
    ignore (Service.Client.checkpoint c 1);
    Service.Server.crash srv;
    (try Unix.close (Service.Client.fd c) with Unix.Unix_error _ -> ());
    let t0 = Stm.Clock.now () in
    let srv2 = Service.Server.start cfg in
    let c2 = Service.Client.connect addr in
    let applied =
      match Service.Client.resume c2 1 with
      | Ok (applied, _, _) -> applied
      | Error (code, msg) ->
          Fmt.failwith "bench recovery: resume: %a: %s"
            Service.Protocol.pp_error_code code msg
    in
    let recovery_ms = (Stm.Clock.now () -. t0) *. 1e3 in
    if applied < n then
      Service.Client.send_events_at c2 1 ~from:applied
        (Array.to_list (Array.sub arr applied (n - applied)));
    let v = Service.Client.close_session c2 1 in
    let parity =
      v.Service.Protocol.applied = n && v.Service.Protocol.status = expected
    in
    Service.Client.close c2;
    Service.Server.stop srv2;
    rm_rf scratch;
    {
      rc_events = n;
      rc_replayed = applied;
      rc_recovery_ms = recovery_ms;
      rc_parity = parity;
    }
  in
  (* Evaluate in this order deliberately: OCaml list literals evaluate
     right-to-left, so bind each round explicitly. *)
  let r1 = one ~txns:120 ~seed:31 in
  let r2 = one ~txns:480 ~seed:32 in
  [ r1; r2 ]

let service_json ~endpoint ~wall ~sessions workers stats ~overload ~recovery =
  let events = List.fold_left (fun a w -> a + w.sw_events) 0 workers in
  let replays = List.fold_left (fun a w -> a + w.sw_replays) 0 workers in
  let mismatches =
    List.fold_left (fun a w -> a + w.sw_mismatches) 0 workers
  in
  let lat =
    List.concat_map (fun w -> w.sw_latencies) workers
    |> List.sort compare |> Array.of_list
  in
  let domain_json (d : Service.Protocol.domain_stats) =
    Fmt.str
      {|    {"live": %d, "closed": %d, "events": %d, "responses": %d,
     "fastpath_hits": %d, "hit_rate": %.4f, "searches": %d, "nodes": %d}|}
      d.live_sessions d.closed_sessions d.events d.responses d.fastpath_hits
      (domain_hit_rate d) d.searches d.nodes
  in
  let overload_json o =
    Fmt.str
      {|{"events": %d, "duration_s": %.3f, "events_per_s": %.1f,
   "throttles": %d, "sheds": %d, "verdict_mismatches": %d,
   "checkpoint_latency_ms": {"p50": %.3f, "p99": %.3f, "samples": %d}}|}
      o.ov_events o.ov_wall
      (if o.ov_wall <= 0. then 0.
       else float_of_int o.ov_events /. o.ov_wall)
      o.ov_throttles o.ov_sheds o.ov_mismatches
      (percentile o.ov_latencies 50. *. 1e3)
      (percentile o.ov_latencies 99. *. 1e3)
      (Array.length o.ov_latencies)
  in
  let recovery_json r =
    Fmt.str
      {|   {"events": %d, "journal_replay_events": %d, "recovery_ms": %.3f, "verdict_parity": %b}|}
      r.rc_events r.rc_replayed r.rc_recovery_ms r.rc_parity
  in
  Fmt.pr
    {|{"benchmark": "service", "unit": "events_per_s",
 "endpoint": %S, "duration_s": %.3f, "sessions": %d, "domains": %d,
 "events_sent": %d, "replays": %d, "events_per_s": %.1f,
 "checkpoint_latency_ms": {"p50": %.3f, "p99": %.3f, "samples": %d},
 "verdict_mismatches": %d,
 "per_domain": [
%s
 ],
 "overload": %s,
 "recovery": [
%s
 ]}@.|}
    endpoint wall sessions (List.length stats) events replays
    (if wall <= 0. then 0. else float_of_int events /. wall)
    (percentile lat 50. *. 1e3)
    (percentile lat 99. *. 1e3)
    (Array.length lat) mismatches
    (String.concat ",\n" (List.map domain_json stats))
    (overload_json overload)
    (String.concat ",\n" (List.map recovery_json recovery))

let bench_service () =
  let external_server = !opt_service_socket <> None in
  let server, addr =
    match !opt_service_socket with
    | Some path -> (None, `Unix path)
    | None ->
        let cfg =
          Service.Server.config ~domains:!opt_service_domains
            (`Tcp ("127.0.0.1", 0))
        in
        let srv = Service.Server.start cfg in
        (Some srv, Service.Server.bound_addr srv)
  in
  let endpoint = Fmt.str "%a" Service.Wire.pp_addr addr in
  let streams = service_streams () in
  let n_streams = List.length streams in
  let sessions = max 1 !opt_service_sessions in
  let workers =
    List.init sessions (fun i ->
        {
          sw_stream = List.nth streams (i mod n_streams);
          sw_events = 0;
          sw_replays = 0;
          sw_mismatches = 0;
          sw_latencies = [];
          sw_error = None;
        })
  in
  let t0 = Stm.Clock.now () in
  let deadline = t0 +. !opt_service_duration in
  let threads =
    List.map (fun w -> Thread.create (service_worker_run addr deadline) w)
      workers
  in
  List.iter Thread.join threads;
  let wall = Stm.Clock.now () -. t0 in
  let stats =
    let c = Service.Client.connect addr in
    let s = Service.Client.stats c in
    Service.Client.close c;
    s
  in
  Option.iter (fun s -> Service.Server.stop s) server;
  List.iter
    (fun w ->
      match w.sw_error with
      | Some e ->
          Fmt.epr "service worker (%s): %s@." w.sw_stream.ss_name e
      | None -> ())
    workers;
  let overload = bench_service_overload () in
  let recovery = bench_service_recovery () in
  if !json_mode then
    service_json ~endpoint ~wall ~sessions workers stats ~overload ~recovery
  else begin
    section_header
      (Fmt.str
         "service — [tm serve] under load (%s%s, %d sessions, %.1fs)"
         endpoint
         (if external_server then ", external" else "")
         sessions !opt_service_duration);
    let events = List.fold_left (fun a w -> a + w.sw_events) 0 workers in
    let replays = List.fold_left (fun a w -> a + w.sw_replays) 0 workers in
    let mismatches =
      List.fold_left (fun a w -> a + w.sw_mismatches) 0 workers
    in
    Fmt.pr "  %-22s %8s %8s %10s@." "stream" "replays" "events"
      "mismatches";
    List.iter
      (fun w ->
        Fmt.pr "  %-22s %8d %8d %10d@." w.sw_stream.ss_name w.sw_replays
          w.sw_events w.sw_mismatches)
      workers;
    let lat =
      List.concat_map (fun w -> w.sw_latencies) workers
      |> List.sort compare |> Array.of_list
    in
    Fmt.pr
      "  aggregate: %d events in %.2fs = %.0f events/s; checkpoint RTT \
       p50 %.3fms p99 %.3fms (%d samples)@."
      events wall
      (if wall <= 0. then 0. else float_of_int events /. wall)
      (percentile lat 50. *. 1e3)
      (percentile lat 99. *. 1e3)
      (Array.length lat);
    Fmt.pr "  per-domain counters:@.";
    List.iteri
      (fun i (d : Service.Protocol.domain_stats) ->
        Fmt.pr
          "    domain %d: %d live / %d closed sessions, %d events, \
           hit-rate %.1f%% (%d searches, %d nodes)@."
          i d.live_sessions d.closed_sessions d.events
          (100. *. domain_hit_rate d)
          d.searches d.nodes)
      stats;
    Fmt.pr "  => %s@."
      (if mismatches = 0 then
         "every close_session verdict matches the offline monitor"
       else Fmt.str "%d VERDICT MISMATCHES — investigate" mismatches);
    Fmt.pr "  (%d replays across %d sessions; server verdicts are the \
            online monitor's, so status ok certifies every prefix \
            du-opaque.)@."
      replays sessions;
    Fmt.pr
      "  under overload (hwm 2): %d events in %.2fs, %d throttles, %d \
       sheds, %d mismatches; checkpoint RTT p50 %.3fms p99 %.3fms@."
      overload.ov_events overload.ov_wall overload.ov_throttles
      overload.ov_sheds overload.ov_mismatches
      (percentile overload.ov_latencies 50. *. 1e3)
      (percentile overload.ov_latencies 99. *. 1e3);
    Fmt.pr "  crash recovery (restart + resume round-trip):@.";
    List.iter
      (fun r ->
        Fmt.pr
          "    %6d events (%6d replayed from journal): %7.3fms  %s@."
          r.rc_events r.rc_replayed r.rc_recovery_ms
          (if r.rc_parity then "verdict parity" else "PARITY LOST"))
      recovery
  end

(* --- main ---------------------------------------------------------------- *)

(* --- verify: exhaustive DPOR verification (Perf T6) ----------------------- *)

let bench_verify () =
  let module V = Analysis.Verify in
  (* Two campaigns over the same 4-transaction scope: a sparse workload
     (few cross-fiber conflicts — every STM's schedule space collapses
     under DPOR while the naive DFS blows through its budget) and a
     contended one (real conflicts — the race analyzer must flag the
     dirty-read/eager controls and the du-opacity checker catches eager
     red-handed).  tl2 and 2pl sit out the contended round: their retry
     loops push even the reduced schedule space past the budget. *)
  let sparse = { V.default with naive_max_runs = 50_000 } in
  let contended =
    {
      sparse with
      V.seed = 5;
      stms =
        [
          "norec"; "mvcc"; "tml"; "global-lock"; "pessimistic"; "dirty-read";
          "eager";
        ];
    }
  in
  let campaign label cfg =
    let t0 = Stm.Clock.now () in
    let results = V.run cfg in
    let wall = Stm.Clock.now () -. t0 in
    if not !json_mode then begin
      section_header (Fmt.str "tm verify — %s workload" label);
      Fmt.pr "# %a, seed %d@." Stm.Workload.pp_params cfg.V.params cfg.V.seed;
      Fmt.pr "%a" V.pp_table results;
      List.iter
        (fun (r : V.stm_result) ->
          if Analysis.Race.racy r.r_races then
            Fmt.pr "@.%a@." V.pp_result r)
        results
    end;
    (label, cfg, wall, results)
  in
  let campaigns = [ campaign "sparse" sparse; campaign "contended" contended ] in
  (* A DPOR run cut at its budget explored only part of the schedule
     space: its [ok] holds for the schedules it saw, not for the STM. *)
  let cut =
    List.concat_map
      (fun (label, _, _, results) ->
        List.filter_map
          (fun (r : V.stm_result) ->
            if r.V.r_dpor.Sim.Explore.exhaustive then None
            else Some (label ^ "/" ^ r.V.r_stm))
          results)
      campaigns
  in
  if !json_mode then
    Fmt.pr {|{"bench": "verify", "dpor_cut": [%s], "campaigns": [%s]}@.|}
      (String.concat ", " (List.map (Fmt.str "%S") cut))
      (String.concat ", "
         (List.map
            (fun (label, cfg, wall, results) ->
              Fmt.str {|{"label": %S, "report": %s}|} label
                (V.to_json cfg ~wall results))
            campaigns))
  else
    Fmt.pr "@.DPOR cut at its run budget (not exhaustive): %s@."
      (if cut = [] then "none" else String.concat ", " cut);
  (* Any result that is not ok — a backend disagreement, a DPOR/naive
     mismatch, a safe STM's violation or race — fails the section. *)
  let failed =
    List.concat_map
      (fun (label, _, _, results) ->
        List.filter_map
          (fun (r : V.stm_result) ->
            if V.ok r then None else Some (label ^ "/" ^ r.V.r_stm))
          results)
      campaigns
  in
  if failed <> [] then begin
    Fmt.epr "bench verify: results not ok: %s@." (String.concat ", " failed);
    exit 1
  end

(* --- Section: check ------------------------------------------------------ *)

let opt_check_sizes = ref [ 10_000; 100_000; 1_000_000 ]
let opt_check_criterion = ref "du"

(* Containment sweep for [bench check --criterion both]: every du-opaque
   history from every soak source must be last-use-opaque (theorem of the
   optional-visibility rendering), and the early-release source should
   populate the separation class.  CI gates on r_lastuse_containment = 0. *)
let check_containment () =
  let sources = Oracle.default_sources in
  let seeds = 24 in
  let histories = ref 0
  and du_sat = ref 0
  and lu_sat = ref 0
  and separated = ref 0
  and containment = ref 0
  and undecided = ref 0 in
  List.iteri
    (fun i source ->
      for s = 1 to seeds do
        let h = Oracle.produce source ~seed:(1000 + (i * seeds) + s) in
        incr histories;
        let du = Conflict_graph.check_or_fallback ~max_nodes:2_000_000 h in
        let lu = Last_use_opacity.check_fast ~max_nodes:2_000_000 h in
        match (du, lu) with
        | Verdict.Sat _, Verdict.Sat _ ->
            incr du_sat;
            incr lu_sat
        | Verdict.Sat _, Verdict.Unsat _ ->
            incr du_sat;
            incr containment
        | Verdict.Unsat _, Verdict.Sat _ ->
            incr lu_sat;
            incr separated
        | Verdict.Unsat _, Verdict.Unsat _ -> ()
        | Verdict.Unknown _, _ | _, Verdict.Unknown _ -> incr undecided
      done)
    sources;
  if not !json_mode then begin
    Fmt.pr "@.# containment sweep: %d sources x %d seeds@."
      (List.length sources) seeds;
    Fmt.pr
      "  histories %d  du-sat %d  lu-sat %d  separated %d  undecided %d  \
       containment-violations %d@."
      !histories !du_sat !lu_sat !separated !undecided !containment;
    if !containment = 0 then
      Fmt.pr "  => du-opaque implies last-use-opaque on every history@."
    else Fmt.pr "  => CONTAINMENT THEOREM VIOLATED — checker bug@."
  end;
  Fmt.str
    {|"containment": {"histories": %d, "du_sat": %d, "lu_sat": %d, "r_separated": %d, "undecided": %d, "r_lastuse_containment": %d}|}
    !histories !du_sat !lu_sat !separated !undecided !containment

let bench_check () =
  let criterion = !opt_check_criterion in
  let du_on = criterion = "du" || criterion = "both" in
  let lu_on = criterion = "last-use" || criterion = "both" in
  if not ((du_on || lu_on) && criterion <> "")
     || not (List.mem criterion [ "du"; "last-use"; "both" ])
  then begin
    Fmt.epr "bench: --criterion must be du, last-use or both (got %S)@."
      criterion;
    exit 1
  end;
  if not !json_mode then
    section_header
      (Fmt.str
         "check — %s backends vs history size (TL2-recorded, unique and \
          repeated values)"
         (match criterion with
         | "du" -> "du-opacity"
         | "last-use" -> "last-use-opacity"
         | _ -> "du- and last-use-opacity"));
  (* Each size is recorded twice from one seed: with unique written values
     and with values drawn from 0-99.  The graph decides both: a repeated
     value's reads are bound to their deferred-update source, and only a
     contradiction after a heuristic choice would leave a history to the
     search. *)
  (* The searches keep a cap, to bound the step's time; the graph backend
     runs at every size.  The [session] row streams the recording through
     one monitor as the service does: every event ingested, a certify
     every 256 events and at the end. *)
  let search_cap = 120_000 in
  let verdict_of = function
    | Verdict.Sat _ -> "sat"
    | Verdict.Unsat _ -> "unsat"
    | Verdict.Unknown _ -> "unknown"
  in
  let rows = ref [] in
  let time (events, values) backend f verdict =
    let t0 = Stm.Clock.now () in
    let v = f () in
    let s = Stm.Clock.now () -. t0 in
    rows := ((events, values), backend, s, verdict v) :: !rows;
    if not !json_mode then
      Fmt.pr "  %-8s %9d events  %10.3f s  %12.0f events/s  %s@." backend
        events s
        (float_of_int events /. Float.max s 1e-9)
        (verdict v)
  in
  List.iter
    (fun (target, (values, label)) ->
      let h = check_recording ~values ~target in
      let events = History.length h in
      let key = (events, label) in
      if not !json_mode then
        Fmt.pr "@.# target %d, %s values -> %d recorded events@." target label
          events;
      if du_on then begin
        time key "graph"
          (fun () -> Conflict_graph.check h)
          (function
            | Conflict_graph.Sat _ -> "sat"
            | Conflict_graph.Unsat _ -> "unsat"
            | Conflict_graph.Ambiguous _ -> "ambiguous");
        if events <= search_cap then
          time key "search" (fun () -> Du_opacity.check h) verdict_of;
        time key "session"
          (fun () ->
            let m = Monitor.create () in
            List.iteri
              (fun i ev ->
                ignore (Monitor.ingest m ev);
                if (i + 1) mod 256 = 0 then ignore (Monitor.certify m))
              (History.to_list h);
            Monitor.certify m)
          (function
            | `Ok -> "sat" | `Violation _ -> "unsat" | `Budget _ -> "unknown")
      end;
      if lu_on then begin
        (* [lu-fast] adopts a graph certificate before searching; it keeps
           the search's cap because a graph refusal falls through to the
           decorated search. *)
        if events <= search_cap then
          time key "lu-fast"
            (fun () -> Last_use_opacity.check_fast h)
            verdict_of;
        if events <= search_cap then
          time key "lu-search" (fun () -> Last_use_opacity.check h) verdict_of
      end;
      (* what `tm check` pays before any backend runs: decoding the
         recording's binary encoding, validation included *)
      let bin = Service.Codec.history_to_string h in
      time key "decode"
        (fun () -> Service.Codec.history_of_string bin)
        (function Ok _ -> "ok" | Error _ -> "error"))
    (List.concat_map
       (fun target ->
         [ (target, (`Unique, "unique")); (target, (`Range 100, "repeated")) ])
       !opt_check_sizes);
  let rows = List.rev !rows in
  (* Speedups at every recording where the graph and a capped checker both
     ran (decoding is not one). *)
  let speedups =
    List.filter_map
      (fun (n, b, s, _) ->
        if b = "graph" || b = "decode" then None
        else
          List.find_map
            (fun (n', b', s', _) ->
              if n' = n && b' = "graph" then Some (n, b, s /. Float.max s' 1e-9)
              else None)
            rows)
      rows
  in
  let containment_json =
    if criterion = "both" then Some (check_containment ()) else None
  in
  if !json_mode then
    Fmt.pr
      {|{"bench": "check", "criterion": %S, "rows": [%s], "speedup_over_graph": [%s]%s}@.|}
      criterion
      (String.concat ", "
         (List.map
            (fun ((n, values), b, s, v) ->
              Fmt.str
                {|{"events": %d, "values": "%s", "backend": "%s", "seconds": %.4f, "events_per_s": %.0f, "verdict": "%s"}|}
                n values b s
                (float_of_int n /. Float.max s 1e-9)
                v)
            rows))
      (String.concat ", "
         (List.map
            (fun ((n, values), b, x) ->
              Fmt.str
                {|{"events": %d, "values": "%s", "backend": "%s", "factor": %.1f}|}
                n values b x)
            speedups))
      (match containment_json with Some j -> ", " ^ j | None -> "")
  else begin
    List.iter
      (fun ((n, values), b, x) ->
        Fmt.pr "  graph is %.1fx faster than %s at %d events (%s values)@." x
          b n values)
      speedups;
    Fmt.pr
      "  => expected shape: graph linear (repair pass and replay) through 1M \
       events and Sat on both unique and repeated values, faster than the \
       search; the session stream within a small factor of the graph at \
       every size; the searches are capped at %d events to bound the run.@."
      search_cap
  end

let sections =
  [
    ("stm-safety", bench_stm_safety);
    ("checker-scaling", bench_checker_scaling);
    ("stm-throughput", bench_stm_throughput);
    ("abort-rate", bench_abort_rate);
    ("monitor", bench_monitor);
    ("check", bench_check);
    ("verify", bench_verify);
    ("service", bench_service);
  ]

let () =
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  let opt_value flag conv store rest =
    match rest with
    | v :: rest -> (
        (try store (conv v)
         with _ ->
           Fmt.epr "bench: bad value %S for %s@." v flag;
           exit 1);
        rest)
    | [] ->
        Fmt.epr "bench: %s needs a value@." flag;
        exit 1
  in
  let rec parse = function
    | [] -> []
    | "--json" :: rest ->
        json_mode := true;
        parse rest
    | "--duration" :: rest ->
        parse (opt_value "--duration" float_of_string
                 (fun v -> opt_service_duration := v) rest)
    | "--sessions" :: rest ->
        parse (opt_value "--sessions" int_of_string
                 (fun v -> opt_service_sessions := v) rest)
    | "--domains" :: rest ->
        parse (opt_value "--domains" int_of_string
                 (fun v -> opt_service_domains := v) rest)
    | "--socket" :: rest ->
        parse (opt_value "--socket" (fun s -> s)
                 (fun v -> opt_service_socket := Some v) rest)
    | "--criterion" :: rest ->
        parse
          (opt_value "--criterion" (fun s -> s)
             (fun v -> opt_check_criterion := v)
             rest)
    | "--sizes" :: rest ->
        parse
          (opt_value "--sizes"
             (fun s ->
               List.map int_of_string (String.split_on_char ',' s))
             (fun v -> opt_check_sizes := v)
             rest)
    | a :: rest -> a :: parse rest
  in
  let requested =
    match parse args with
    | _ :: _ as names -> names
    | [] ->
        (* "service" needs a live socket budget; run it only on request. *)
        List.filter (fun n -> n <> "service") (List.map fst sections)
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Fmt.epr "unknown section %S; available: %s@." name
            (String.concat ", " (List.map fst sections));
          exit 1)
    requested;
  if not !json_mode then Fmt.pr "@.done.@."
