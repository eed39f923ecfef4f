(* The monitor as the service drives it — events ingested, certified in
   batches — against the same monitor certified after every response:
   verdict and first-violating-prefix parity over every soak source,
   validated certificates at every certify point, the Finding-3 prefix
   trap (certifying the current history must not resurrect a dead
   prefix), checkpoint capsules, ill-formed streams, and the recordings
   that used to escalate the location-sharded monitor. *)

open Tm_safety
open Helpers

let max_nodes = 500_000

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

(* Ingest [events], certifying every [period] events and once at the end
   (settling the verdict).  [on_ok] sees the monitor and the number of
   events ingested after every [`Ok] certify. *)
let drive ?(on_ok = fun _ _ -> ()) ~period events =
  let s = Monitor.create ~max_nodes () in
  let certify n =
    let st = Monitor.certify s in
    if st = `Ok then on_ok s n;
    st
  in
  List.iteri
    (fun i ev ->
      ignore (Monitor.ingest s ev);
      if (i + 1) mod period = 0 then ignore (certify (i + 1)))
    events;
  let st = certify (List.length events) in
  (s, st)

(* Exact-parity oracle: a batch certify the graph cannot settle replays
   its window response by response, so any outcome difference is a bug —
   except "the per-response pattern ran out of budget, the batch graph
   certified without ever searching", which is the graph working as
   designed. *)
let agrees name (mstat, midx) (sstat, sidx) =
  match mstat, sstat with
  | `Ok, `Ok | `Budget _, (`Budget _ | `Ok) -> true
  | `Violation _, `Violation _ ->
      midx = sidx
      || QCheck2.Test.fail_reportf
           "%s: first violating prefix differs: per-response=%a batch=%a"
           name
           Fmt.(option ~none:(any "-") int)
           midx
           Fmt.(option ~none:(any "-") int)
           sidx
  | _ ->
      let show = function
        | `Ok -> "ok"
        | `Violation w -> "violation (" ^ w ^ ")"
        | `Budget w -> "budget (" ^ w ^ ")"
      in
      QCheck2.Test.fail_reportf "%s: per-response=%s batch=%s" name (show mstat)
        (show sstat)

let monitor_outcome events =
  let m = Monitor.create ~max_nodes () in
  ignore (Monitor.push_all m events);
  (Monitor.status m, Monitor.violation_index m)

(* The certificate behind an [`Ok] certify must pass the independent
   validator on the prefix it certified. *)
let validate_on_prefix h s n =
  match Monitor.certificate s with
  | None -> Error (Fmt.str "`Ok at %d events without a certificate" n)
  | Some c -> (
      match
        Serialization.validate ~claim:Serialization.Du_opaque
          (History.prefix h n) c
      with
      | Ok () -> Ok ()
      | Error why -> Error (Fmt.str "prefix %d: %s" n why))

(* --- parity with the sequential monitor ---------------------------------- *)

let prop_monitor_parity =
  qtest ~count:250 "batch certify ≡ per-response certify at every period"
    QCheck2.Gen.(pair gen_soak_history (int_range 1 8))
    (fun (h, stride) ->
      let events = History.to_list h in
      let s, st = drive ~period:(stride * 5) events in
      agrees
        (Fmt.str "certify period %d" (stride * 5))
        (monitor_outcome events)
        (st, Monitor.violation_index s))

let prop_certificates_validate =
  qtest ~count:100 "every `Ok certify carries a validated certificate"
    gen_soak_history
    (fun h ->
      let bad = ref None in
      let on_ok s n =
        if !bad = None then
          match validate_on_prefix h s n with
          | Ok () -> ()
          | Error why -> bad := Some why
      in
      ignore (drive ~on_ok ~period:7 (History.to_list h));
      match !bad with
      | None -> true
      | Some why -> QCheck2.Test.fail_reportf "%s" why)

(* --- Finding 3: a certified present must not absolve a dead prefix ------- *)

let test_corollary2_gap () =
  let h, vidx = Tm_figures.Findings.corollary2_gap in
  let events = History.to_list h in
  let mstat, midx = monitor_outcome events in
  Alcotest.(check (option int)) "monitor blames the gap prefix" (Some vidx)
    midx;
  (match mstat with
  | `Violation _ -> ()
  | _ -> Alcotest.fail "expected a sticky violation per response");
  (* The graph decides the gap prefix from forced edges alone, as the
     batch check of that prefix does: no heuristic choice kept from an
     earlier certify survives into the verdict that refutes it, and no
     search runs.  Certified only at the end, the graph certifies the full
     history with [T7] serving [T5]'s read, a certificate that does not
     cover the prefix where [T7] cannot commit yet; the replay of that
     window response by response finds the gap prefix. *)
  let batch_reason =
    match Conflict_graph.check (History.prefix h vidx) with
    | Conflict_graph.Unsat why -> why
    | _ -> Alcotest.fail "the batch check of the gap prefix must be Unsat"
  in
  let closure_gap =
    "the certificate serves a read from a writer that invoked tryC after \
     the read's response, past one of another value, so it need not cover \
     earlier prefixes (repeated values forfeit prefix closure, Corollary 2)"
  in
  List.iter
    (fun (period, reason, fallback) ->
      let s, st = drive ~period events in
      (match st with
      | `Violation why ->
          Alcotest.(check string)
            (Fmt.str "period %d: the graph's reason" period)
            (Fmt.str "prefix of length %d is not du-opaque: %s" vidx reason)
            why
      | _ -> Alcotest.failf "period %d: expected a sticky violation" period);
      Alcotest.(check (option int))
        (Fmt.str "period %d: first violating prefix" period)
        (Some vidx)
        (Monitor.violation_index s);
      Alcotest.(check int)
        (Fmt.str "period %d: searches" period)
        0 (Monitor.searches_run s);
      Alcotest.(check (option string))
        (Fmt.str "period %d: fallback" period)
        fallback (Monitor.fallback s))
    [
      (1, batch_reason, None);
      ( 4,
        "committed writer T4 cannot leave the interval between T2 and its \
         reader T5",
        Some closure_gap );
      ( List.length events,
        "committed writer T4 cannot leave the interval between T2 and its \
         reader T5",
        Some closure_gap );
    ]

(* A certificate that does not restrict to every prefix, early in a long
   stream.  [T5]'s read of [Y=1] is served locally by [T2] and globally by
   [T7]; [T4] (Y=2) sits between them, and both invoke tryC after the
   read.  Unlike {!Tm_figures.Findings.corollary2_gap}, [T7] invokes tryC
   before [T4] commits, so every prefix is du-opaque.  Only a window that
   ends before [T7]'s tryC needs checking response by response: certified
   every 256 events, the first window replays and no later one does. *)
let test_closure_gap_long_stream () =
  let gap =
    Dsl.(
      history
        [
          r 2 x 0; w 2 y 1; w 4 y 2; c 2; w_inv 5 x 3; w_inv 4 x 1; w_ok 5;
          r 5 y 1; w_ok 4; w 7 y 1; c_inv 4; c_inv 7; c_inv 5; committed 4;
          committed 7; committed 5; r 9 x 3; c 9;
        ])
  in
  let g = Conflict_graph.Inc.create () in
  List.iter (Conflict_graph.Inc.push g) (History.to_list gap);
  (match Conflict_graph.Inc.decide g with
  | `Sat -> ()
  | _ -> Alcotest.fail "the graph must certify the pattern");
  Alcotest.(check bool) "the certificate is not prefix-closed" true
    (Conflict_graph.Inc.closed_after g >= 0);
  let params =
    {
      Stm.Workload.default with
      n_threads = 4;
      txns_per_thread = 250;
      ops_per_txn = 4;
      n_vars = 64;
      values = `Range 100;
    }
  in
  let rec_h =
    (Sim.Runner.run ~stm:"tl2" ~params ~seed:7 ()).Sim.Runner.history
  in
  let events =
    relabel ~tx_base:1_000_000 ~var_base:1_000 (History.to_list gap)
    @ History.to_list rec_h
  in
  let h = History.of_events_exn events in
  let mstat, _ = monitor_outcome events in
  Alcotest.(check bool) "every prefix is du-opaque" true (mstat = `Ok);
  let failure = ref None in
  let on_ok s n =
    if !failure = None then
      match validate_on_prefix h s n with
      | Ok () -> ()
      | Error why -> failure := Some why
  in
  let s, st = drive ~on_ok ~period:256 events in
  Alcotest.(check bool) "certified" true (st = `Ok);
  Option.iter (Alcotest.failf "certificate rejected: %s") !failure;
  Alcotest.(check int)
    (Fmt.str "window replays over %d certifies" (Monitor.certifies s))
    1 (Monitor.replays s)

(* --- checkpoint capsules -------------------------------------------------- *)

let test_persist_roundtrip () =
  (* A clean stream: the capsule records a certified `Ok and rebuilds. *)
  let h = Oracle.produce (`Stm "tl2") ~seed:42 in
  let s, st = drive ~period:50 (History.to_list h) in
  (match st with `Ok -> () | _ -> Alcotest.fail "expected a certified `Ok");
  let p = Monitor.persist s in
  (match Monitor.of_persisted p with
  | Ok s' ->
      Alcotest.(check bool) "rebuilt stream is `Ok" true
        (Monitor.status s' = `Ok);
      Alcotest.(check int) "history survives" (History.length h)
        (History.length (Monitor.history s'))
  | Error why -> Alcotest.failf "clean capsule rejected: %s" why);
  (* A violating stream: the recorded failure is adopted, index intact. *)
  let hbad, vidx = Tm_figures.Findings.corollary2_gap in
  let sbad, _ = drive ~period:4 (History.to_list hbad) in
  let pbad = Monitor.persist sbad in
  match Monitor.of_persisted pbad with
  | Ok s' ->
      (match Monitor.status s' with
      | `Violation _ -> ()
      | _ -> Alcotest.fail "recorded violation not adopted");
      Alcotest.(check (option int)) "violation index adopted" (Some vidx)
        (Monitor.violation_index s')
  | Error why -> Alcotest.failf "failure capsule rejected: %s" why

(* --- ill-formed streams ---------------------------------------------------- *)

let test_ill_formed_parity () =
  (* A response with no pending invocation is rejected by the monitor's
     History.Builder; both call patterns turn that into a sticky
     violation, at the same index and for the same reason. *)
  let events =
    [
      Event.Inv (1, Event.Write (0, 1));
      Event.Res (1, Event.Write_ok);
      Event.Res (2, Event.Committed);
      Event.Inv (1, Event.Try_commit);
    ]
  in
  let mstat, midx = monitor_outcome events in
  let s = Monitor.create ~max_nodes () in
  List.iter (fun ev -> ignore (Monitor.ingest s ev)) events;
  ignore (Monitor.certify s);
  (match mstat, Monitor.status s with
  | `Violation a, `Violation b ->
      Alcotest.(check string) "same reason" a b
  | _ -> Alcotest.fail "expected sticky violations on both paths");
  Alcotest.(check (option int)) "same violation index" midx
    (Monitor.violation_index s);
  Alcotest.(check (option string)) "the graph needed no fallback" None
    (Monitor.fallback s)

(* --- recordings that escalated the location-sharded monitor --------------- *)

(* A unique-writes recording, as the benchmark's witness list and its
   open-short workload describe them. *)
let record ~stm ~threads ~txns ~ops ~vars ~zipf_theta seed =
  let params =
    {
      Stm.Workload.default with
      n_threads = threads;
      txns_per_thread = (txns + threads - 1) / threads;
      ops_per_txn = ops;
      n_vars = vars;
      zipf_theta;
      values = `Unique;
    }
  in
  (Sim.Runner.run ~stm ~params ~seed ()).Sim.Runner.history

(* Certify every 512 events, as the service's frames do, and at the end:
   the graph must certify every point without a fallback, and each
   certificate must pass the independent validator on its prefix. *)
let certifies_throughout name h =
  let failure = ref None in
  let on_ok s n =
    if !failure = None then
      match validate_on_prefix h s n with
      | Ok () -> ()
      | Error why -> failure := Some why
  in
  let s, st = drive ~on_ok ~period:512 (History.to_list h) in
  (match st, Monitor.fallback s with
  | `Ok, None -> ()
  | _, Some why -> Alcotest.failf "%s fell back: %s" name why
  | (`Violation why | `Budget why), None ->
      Alcotest.failf "%s: %s without a fallback" name why);
  match !failure with
  | None -> ()
  | Some why -> Alcotest.failf "%s: certificate rejected: %s" name why

let zipf_tl2 ~txns ~vars seed =
  record ~stm:"tl2" ~threads:4 ~txns ~ops:3 ~vars ~zipf_theta:0.9 seed

let test_cross_shard_cycle_720 () =
  certifies_throughout "cross-shard-cycle-720" (zipf_tl2 ~txns:720 ~vars:16 77)

let test_per_frame_certify () =
  List.iter
    (fun s ->
      let seed = (s * 1_000_003) + 17 in
      certifies_throughout
        (Fmt.str "per-frame-certify-escalation seed %d" seed)
        (zipf_tl2 ~txns:1200 ~vars:64 seed))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* The benchmark's open-short sessions: sixteen ~600-event TL2 and NOrec
   recordings per workload seed. *)
let test_open_short_sessions () =
  let derive seed k = ((seed * 1_000_003) + (k * 7_919) + 17) land 0x3FFF_FFFF in
  List.iter
    (fun seed ->
      for i = 0 to 15 do
        let stm = if i mod 2 = 0 then "tl2" else "norec" in
        certifies_throughout
          (Fmt.str "open-short seed %d session %d (%s)" seed i stm)
          (record ~stm ~threads:3 ~txns:66 ~ops:3 ~vars:16 ~zipf_theta:0.0
             (derive seed i))
      done)
    [ 1; 2; 3; 4; 5 ]

(* --- two domains at once ----------------------------------------------- *)

(* Monitors on different domains share no state: each owns its builder,
   graph and search context.  Two domains run the same streams at once,
   in opposite orders, in both call patterns, and every stream's outcome,
   violation index and capsule must equal its run alone.  The streams mix
   the soak sources with TL2 and eager recordings whose written values
   repeat within a handful, so that some batch certifies fall back (to a
   search or a per-response replay) and some of those find a
   violation. *)
let test_two_domains () =
  let repeated stm seed =
    let params =
      { Stm.Workload.default with n_threads = 3; txns_per_thread = 20;
        ops_per_txn = 3; n_vars = 3; values = `Range 3 }
    in
    (Sim.Runner.run ~stm ~params ~seed ()).Sim.Runner.history
  in
  let streams =
    Array.init 120 (fun i ->
        let seed = 1 + i in
        History.to_list
          (match i mod 4 with
          | 0 -> repeated "tl2" seed
          | 1 -> repeated "eager" seed
          | _ -> Oracle.produce (List.nth soak_sources (i mod 6)) ~seed))
  in
  let session events =
    let s = Monitor.create ~max_nodes () in
    List.iter (fun ev -> ignore (Monitor.ingest s ev)) events;
    let st = Monitor.certify s in
    (st, Monitor.violation_index s, Monitor.persist s,
     Monitor.fallback s <> None)
  in
  let monitor events =
    let m = Monitor.create ~max_nodes () in
    let st = Monitor.push_all m events in
    (st, Monitor.violation_index m, Monitor.persist m)
  in
  let alone_s = Array.map session streams and alone_m = Array.map monitor streams in
  let count p = Array.fold_left (fun n r -> if p r then n + 1 else n) 0 alone_s in
  Alcotest.(check bool) "some sessions fall back" true
    (count (fun (_, _, _, fell_back) -> fell_back) > 0);
  Alcotest.(check bool) "some sessions that fall back find a violation" true
    (count (function `Violation _, _, _, true -> true | _ -> false) > 0);
  let n = Array.length streams in
  let run order () =
    let wrong = ref [] in
    for j = 0 to n - 1 do
      let i = order j in
      if session streams.(i) <> alone_s.(i) then wrong := (i, "session") :: !wrong;
      if monitor streams.(i) <> alone_m.(i) then wrong := (i, "monitor") :: !wrong
    done;
    !wrong
  in
  let other = Domain.spawn (run (fun j -> n - 1 - j)) in
  let mine = run Fun.id () in
  let theirs = Domain.join other in
  match mine @ theirs with
  | [] -> ()
  | (i, what) :: _ ->
      Alcotest.failf "stream %d: the %s differs from its run alone" i what

let suite =
  [
    ( "session monitor",
      [
        prop_monitor_parity;
        prop_certificates_validate;
        test "Finding 3: the gap prefix stays blamed at every certify period"
          test_corollary2_gap;
        test "a closure gap early in a long stream replays one window"
          test_closure_gap_long_stream;
        test "persist/of_persisted round-trips both outcomes"
          test_persist_roundtrip;
        test "ill-formed events: parity of the two call patterns"
          test_ill_formed_parity;
        test "witness cross-shard-cycle-720 certifies without a fallback"
          test_cross_shard_cycle_720;
        slow "witness per-frame-certify-escalation: 8 recordings certify"
          test_per_frame_certify;
        test "80 open-short sessions certify at every frame"
          test_open_short_sessions;
        test "sessions and monitors on two domains match their runs alone"
          test_two_domains;
      ] );
  ]
