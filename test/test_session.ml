(* The service's session monitor against the sequential monitor: verdict
   and first-violating-prefix parity over every soak source, validated
   certificates at every certify point, the Finding-3 prefix trap
   (certifying the current history must not resurrect a dead prefix),
   checkpoint capsules, escalation transparency on ill-formed streams, and
   the recordings that used to escalate the location-sharded monitor. *)

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

(* Feed [events] through a session monitor, certifying every [period]
   events and once at the end (settling the verdict).  [on_ok] sees the
   monitor and the number of events pushed after every [`Ok] certify. *)
let drive ?(on_ok = fun _ _ -> ()) ~period events =
  let s = Session_monitor.create ~max_nodes () in
  let certify n =
    let st = Session_monitor.certify s in
    if st = `Ok then on_ok s n;
    st
  in
  List.iteri
    (fun i ev ->
      ignore (Session_monitor.push s ev);
      if (i + 1) mod period = 0 then ignore (certify (i + 1)))
    events;
  let st = certify (List.length events) in
  (s, st)

(* Exact-parity oracle: after escalation the session monitor {e is} a
   monitor replaying the same accepted events, so any outcome difference
   is a bug — except "monitor ran out of budget, the graph certified
   without ever searching", which is the graph working as designed. *)
let agrees name (mstat, midx) (sstat, sidx) =
  match mstat, sstat with
  | `Ok, `Ok | `Budget _, (`Budget _ | `Ok) -> true
  | `Violation _, `Violation _ ->
      midx = sidx
      || QCheck2.Test.fail_reportf
           "%s: first violating prefix differs: monitor=%a session=%a" name
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
      QCheck2.Test.fail_reportf "%s: monitor=%s session=%s" name (show mstat)
        (show sstat)

let monitor_outcome events =
  let m = Monitor.create ~max_nodes () in
  ignore (Monitor.push_all m events);
  (Monitor.status m, Monitor.violation_index m)

(* The certificate behind an [`Ok] certify must pass the independent
   validator on the prefix it certified. *)
let validate_on_prefix h s n =
  match Session_monitor.certificate s with
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
  qtest ~count:250 "Session_monitor ≡ Monitor at every certify period"
    QCheck2.Gen.(pair gen_soak_history (int_range 1 8))
    (fun (h, stride) ->
      let events = History.to_list h in
      let s, st = drive ~period:(stride * 5) events in
      agrees
        (Fmt.str "certify period %d" (stride * 5))
        (monitor_outcome events)
        (st, Session_monitor.violation_index s))

let prop_certificates_validate =
  qtest ~count:100 "every `Ok certify carries a validated certificate"
    gen_soak_history
    (fun h ->
      let bad = ref None in
      let on_ok s n =
        if !bad = None && not (Session_monitor.escalated s) then
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
  List.iter
    (fun period ->
      let s, st = drive ~period events in
      (match mstat, st with
      | `Violation _, `Violation _ -> ()
      | _ -> Alcotest.failf "period %d: expected a sticky violation" period);
      Alcotest.(check (option int))
        (Fmt.str "period %d: first violating prefix" period)
        (Some vidx)
        (Session_monitor.violation_index s);
      (* the graph's own reason, which classifies as a duplicate write *)
      Alcotest.(check (option string))
        (Fmt.str "period %d: escalation reason" period)
        (Some
           "T2 and T7 both write 1 to Y, which forfeits prefix closure \
            (Corollary 2)")
        (Session_monitor.escalation s))
    [ 1; 4; List.length events ]

(* --- checkpoint capsules -------------------------------------------------- *)

let test_persist_roundtrip () =
  (* A clean stream: the capsule records a certified `Ok and rebuilds. *)
  let h = Oracle.produce (`Stm "tl2") ~seed:42 in
  let s, st = drive ~period:50 (History.to_list h) in
  (match st with `Ok -> () | _ -> Alcotest.fail "expected a certified `Ok");
  let p = Session_monitor.persist s in
  (match Session_monitor.of_persisted p with
  | Ok s' ->
      Alcotest.(check bool) "rebuilt stream is `Ok" true
        (Session_monitor.status s' = `Ok);
      Alcotest.(check int) "history survives" (History.length h)
        (History.length (Session_monitor.history s'))
  | Error why -> Alcotest.failf "clean capsule rejected: %s" why);
  (* A violating stream: the recorded failure is adopted, index intact. *)
  let hbad, vidx = Tm_figures.Findings.corollary2_gap in
  let sbad, _ = drive ~period:4 (History.to_list hbad) in
  let pbad = Session_monitor.persist sbad in
  match Session_monitor.of_persisted pbad with
  | Ok s' ->
      (match Session_monitor.status s' with
      | `Violation _ -> ()
      | _ -> Alcotest.fail "recorded violation not adopted");
      Alcotest.(check (option int)) "violation index adopted" (Some vidx)
        (Session_monitor.violation_index s')
  | Error why -> Alcotest.failf "failure capsule rejected: %s" why

(* --- escalation transparency on ill-formed streams ------------------------ *)

let test_ill_formed_parity () =
  (* A response with no pending invocation is rejected by History.extend;
     the monitor turns that into a sticky violation and so, via
     escalation, must the session monitor — at the same index. *)
  let events =
    [
      Event.Inv (1, Event.Write (0, 1));
      Event.Res (1, Event.Write_ok);
      Event.Res (2, Event.Committed);
      Event.Inv (1, Event.Try_commit);
    ]
  in
  let mstat, midx = monitor_outcome events in
  let s = Session_monitor.create ~max_nodes () in
  ignore (Session_monitor.push_all s events);
  ignore (Session_monitor.certify s);
  (match mstat, Session_monitor.status s with
  | `Violation _, `Violation _ -> ()
  | _ -> Alcotest.fail "expected sticky violations on both paths");
  Alcotest.(check (option int)) "same violation index" midx
    (Session_monitor.violation_index s);
  Alcotest.(check (option string)) "escalated as ill-formed"
    (Some "ill-formed event") (Session_monitor.escalation s)

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
   the graph must certify every point without escalating, and each
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
  (match st, Session_monitor.escalation s with
  | `Ok, None -> ()
  | _, Some why -> Alcotest.failf "%s escalated: %s" name why
  | (`Violation why | `Budget why), None ->
      Alcotest.failf "%s: %s without escalation" name why);
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

let suite =
  [
    ( "session monitor",
      [
        prop_monitor_parity;
        prop_certificates_validate;
        test "Finding 3: the gap prefix stays blamed at every certify period"
          test_corollary2_gap;
        test "persist/of_persisted round-trips both outcomes"
          test_persist_roundtrip;
        test "ill-formed events escalate to monitor parity"
          test_ill_formed_parity;
        test "witness cross-shard-cycle-720 certifies without escalating"
          test_cross_shard_cycle_720;
        slow "witness per-frame-certify-escalation: 8 recordings certify"
          test_per_frame_certify;
        test "80 open-short sessions certify at every frame"
          test_open_short_sessions;
      ] );
  ]
