(* Fault tolerance of the [tm serve] service: durable session journals,
   crash recovery by snapshot-load + journal-replay, client resume with
   idempotent re-send, the overload degradation ladder, heartbeats and
   session expiry — and, at the end, a small network-chaos campaign
   through the fault-injecting proxy.

   The governing invariant everywhere: a recovered (or resumed, or
   degraded) session must reach exactly the verdict an uninterrupted
   monitor reaches on the same stream — or fail with a clean, documented
   error.  Never a wrong verdict, never a hang. *)

open Tm_safety
open Helpers
module Protocol = Service.Protocol
module Wire = Service.Wire
module Server = Service.Server
module Client = Service.Client
module Journal = Service.Journal

let status = Alcotest.testable Protocol.pp_status ( = )

let guard fd = Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.

let offline_status h =
  let m = Monitor.create () in
  match Monitor.push_all m (History.to_list h) with
  | `Ok -> Protocol.S_ok
  | `Violation why -> Protocol.S_violation why
  | `Budget why -> Protocol.S_budget why

(* --- scratch directories -------------------------------------------------- *)

let dir_counter = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let with_dir f =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "tm-recovery-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let with_durable_server ?session_timeout ?hwm ?throttle_sample ?throttle_shed f
    =
  with_dir (fun dir ->
      let addr = `Unix (Filename.concat dir "sock") in
      let journal_dir = Filename.concat dir "journal" in
      let cfg =
        Server.config ~domains:2 ~journal_dir ?session_timeout ?hwm
          ?throttle_sample ?throttle_shed addr
      in
      let srv = ref (Server.start cfg) in
      Fun.protect
        ~finally:(fun () -> Server.stop !srv)
        (fun () -> f srv cfg addr))

let connect addr =
  let c = Client.connect addr in
  guard (Client.fd c);
  c

let split_at k l =
  (List.filteri (fun i _ -> i < k) l, List.filteri (fun i _ -> i >= k) l)

(* --- the journal, in isolation -------------------------------------------- *)

let test_journal_roundtrip () =
  with_dir (fun dir ->
      let events = History.to_list Figures.fig1 in
      let n = List.length events in
      let a, b = split_at (n / 2) events in
      let m = Session_monitor.create () in
      let j = Journal.create ~dir ~session:7 () in
      ignore (Session_monitor.push_all m a);
      ignore (Journal.append j a);
      (* checkpoint mid-stream, then keep appending past the snapshot *)
      Journal.snapshot j (Session_monitor.persist m);
      ignore (Session_monitor.push_all m b);
      ignore (Journal.append j b);
      (* recovery certifies the rebuilt stream; so does the original *)
      ignore (Session_monitor.certify m);
      Alcotest.(check int) "applied counts everything" n (Journal.applied j);
      Alcotest.(check int) "post-snapshot tail" (List.length b)
        (Journal.since_snapshot j);
      Journal.close j;
      Alcotest.(check bool) "exists on disk" true
        (Journal.exists ~dir ~session:7);
      Alcotest.(check (list int)) "listed on disk" [ 7 ]
        (Journal.sessions_on_disk ~dir);
      match Journal.recover ~dir ~session:7 () with
      | Error why -> Alcotest.failf "recover: %s" why
      | Ok (m', applied, j') ->
          Alcotest.(check int) "recovered applied" n applied;
          Alcotest.(check int) "monitor replayed fully" n
            (Session_monitor.events_seen m');
          let s = Session_monitor.snapshot m
          and s' = Session_monitor.snapshot m' in
          Alcotest.(check int) "responses survive the capsule"
            s.Monitor.responses s'.Monitor.responses;
          Alcotest.(check int) "fast-path hits survive the capsule"
            s.Monitor.fastpath_hits s'.Monitor.fastpath_hits;
          Journal.close j')

let test_journal_torn_tail () =
  with_dir (fun dir ->
      let events = History.to_list Figures.fig1 in
      let n = List.length events in
      let j = Journal.create ~dir ~session:1 () in
      ignore (Journal.append j events);
      Journal.close j;
      (* Tear the last record mid-byte, as a crash during write(2) would. *)
      let path = Filename.concat dir "s1.journal" in
      let len = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (len - 3);
      Unix.close fd;
      match Journal.recover ~dir ~session:1 () with
      | Error why -> Alcotest.failf "torn-tail recover: %s" why
      | Ok (m', applied, j') ->
          Alcotest.(check bool)
            (Fmt.str "torn tail dropped (%d < %d)" applied n)
            true (applied < n);
          Alcotest.(check int) "monitor matches the surviving prefix" applied
            (Session_monitor.events_seen m');
          (* the journal is usable again: the torn tail was truncated away *)
          ignore (Journal.append j' [ Event.Inv (99, Event.Read 0) ]);
          Alcotest.(check int) "append after truncation" (applied + 1)
            (Journal.applied j');
          Journal.close j')

(* --- crash recovery and resume -------------------------------------------- *)

(* Retry a resume briefly: the dead connection's orphaning travels through
   the old reader's cleanup, which can lag the new connection. *)
let resume_eventually c session ~from =
  let rec go n =
    match Client.resume c session ~from with
    | Ok r -> r
    | Error (Protocol.Duplicate_session, _) when n > 0 ->
        Thread.delay 0.02;
        go (n - 1)
    | Error (code, msg) ->
        Alcotest.failf "resume: %a: %s" Protocol.pp_error_code code msg
  in
  go 250

let test_kill_and_recover_verdict_parity () =
  (* The lockstep test: crash the server mid-stream, restart it on the
     same journal directory, resume, finish the stream — the verdict must
     be byte-for-byte the uninterrupted one, for clean and violating
     histories alike. *)
  List.iter
    (fun (h : Figures.expectation) ->
      with_durable_server (fun srv cfg addr ->
          let events = History.to_list h.history in
          let n = List.length events in
          let half, rest = split_at (max 1 (n / 2)) events in
          let c = connect addr in
          Client.open_session c 1;
          Client.send_events_at c 1 ~from:0 half;
          (* the checkpoint round-trip guarantees everything above is
             journalled before the crash *)
          ignore (Client.checkpoint c 1);
          Server.crash !srv;
          srv := Server.start cfg;
          let c2 = connect addr in
          let applied, _mode, _status = resume_eventually c2 1 ~from:0 in
          Alcotest.(check int)
            (Fmt.str "%s: journalled prefix survived the crash" h.name)
            (List.length half) applied;
          Client.send_events_at c2 1 ~from:applied rest;
          let v = Client.close_session c2 1 in
          Alcotest.check status
            (Fmt.str "%s: recovered verdict equals uninterrupted" h.name)
            (offline_status h.history) v.Protocol.status;
          Alcotest.(check int)
            (Fmt.str "%s: verdict covers the whole stream" h.name)
            n v.Protocol.applied;
          Client.close c2;
          (try Client.close c with Unix.Unix_error _ -> ())))
    Figures.catalog

let test_capsules_interchange () =
  (* The session monitor and the sequential monitor share the capsule
     format, so a journal checkpointed by either recovers every figure
     with the uninterrupted verdict: snapshot half the stream, journal
     the rest, recover. *)
  let outcome_status : Monitor.outcome -> Protocol.status = function
    | `Ok -> Protocol.S_ok
    | `Violation why -> Protocol.S_violation why
    | `Budget why -> Protocol.S_budget why
  in
  List.iter
    (fun (writer, persist) ->
      List.iter
        (fun (h : Figures.expectation) ->
          with_dir (fun dir ->
              let events = History.to_list h.history in
              let half, rest = split_at (max 1 (List.length events / 2)) events in
              let j = Journal.create ~dir ~session:1 () in
              ignore (Journal.append j half);
              Journal.snapshot j (persist half);
              ignore (Journal.append j rest);
              Journal.close j;
              match Journal.recover ~dir ~session:1 () with
              | Error why -> Alcotest.failf "%s: recover: %s" h.name why
              | Ok (m, applied, j) ->
                  Journal.close j;
                  Alcotest.(check int)
                    (Fmt.str "%s: %s capsule, whole stream applied" h.name
                       writer)
                    (List.length events) applied;
                  Alcotest.check status
                    (Fmt.str "%s: %s capsule, recovered verdict" h.name writer)
                    (offline_status h.history)
                    (outcome_status (Session_monitor.status m))))
        Figures.catalog)
    [
      ( "monitor",
        fun evs ->
          let m = Monitor.create () in
          ignore (Monitor.push_all m evs);
          Monitor.persist m );
      ( "session",
        fun evs ->
          let m = Session_monitor.create () in
          ignore (Session_monitor.push_all m evs);
          Session_monitor.persist m );
    ]

let test_verdict_survives_budget_change () =
  (* The sticky-verdict record, end to end: Finding 3's counterexample
     trips the monitor via the backtracking search (never the fast path or
     the graph), so its [`Violation] is exactly the verdict a replay under
     a starved node budget cannot re-derive.  Crash after the flip but
     before any checkpoint — the journal holds only raw events plus the
     verdict record — then restart the server with [max_nodes = 1].  On
     code that merely replays events, recovery degrades the pre-crash
     violation to [`Budget]; the journalled verdict must keep it honest. *)
  with_dir (fun dir ->
      let addr = `Unix (Filename.concat dir "sock") in
      let journal_dir = Filename.concat dir "journal" in
      let h, vidx = Tm_figures.Findings.corollary2_gap in
      let events = History.to_list h in
      let n = List.length events in
      let expected = offline_status h in
      (match expected with
      | Protocol.S_violation _ -> ()
      | s ->
          Alcotest.failf "fixture must violate, got %a" Protocol.pp_status s);
      let srv = ref (Server.start (Server.config ~domains:2 ~journal_dir addr)) in
      Fun.protect
        ~finally:(fun () -> Server.stop !srv)
        (fun () ->
          let c = connect addr in
          Client.open_session c 1;
          Client.send_events_at c 1 ~from:0 events;
          (* Wait for the worker to journal and push the batch — via stats,
             NOT a checkpoint: a checkpoint snapshots the monitor capsule
             (sticky status included), which would mask the bug.  The
             monitor stops counting at the violating prefix, so wait on
             that index rather than the stream length. *)
          let seen () =
            List.fold_left
              (fun acc d -> acc + d.Protocol.events)
              0 (Client.stats c)
          in
          let rec wait tries =
            if seen () < vidx && tries > 0 then begin
              Thread.delay 0.01;
              wait (tries - 1)
            end
          in
          wait 500;
          Alcotest.(check bool) "monitor reached the violating prefix" true
            (seen () >= vidx);
          Server.crash !srv;
          srv :=
            Server.start
              (Server.config ~domains:2 ~max_nodes:1 ~journal_dir addr);
          let c2 = connect addr in
          let applied, _mode, st = resume_eventually c2 1 ~from:0 in
          Alcotest.(check int) "journalled stream survived the crash" n
            applied;
          Alcotest.check status "resumed status is the pre-crash violation"
            expected st;
          let v = Client.close_session c2 1 in
          Alcotest.check status "recovered verdict is the pre-crash violation"
            expected v.Protocol.status;
          Client.close c2;
          (try Client.close c with Unix.Unix_error _ -> ())))

let test_orphan_reattach () =
  with_durable_server (fun _srv _cfg addr ->
      let h = Figures.fig1 in
      let events = History.to_list h in
      let n = List.length events in
      let half, rest = split_at (n / 2) events in
      let c = connect addr in
      Client.open_session c 1;
      Client.send_events_at c 1 ~from:0 half;
      ignore (Client.checkpoint c 1);
      (* die without Goodbye: the session must become orphaned-resumable *)
      Unix.close (Client.fd c);
      let c2 = connect addr in
      let applied, mode, _ = resume_eventually c2 1 ~from:0 in
      Alcotest.(check int) "orphan kept its applied index" (n / 2) applied;
      Alcotest.(check bool) "orphan still fully checked" true
        (mode = Protocol.M_full);
      Client.send_events_at c2 1 ~from:applied rest;
      let v = Client.close_session c2 1 in
      Alcotest.check status "reattached verdict" (offline_status h)
        v.Protocol.status;
      Client.close c2)

let test_resume_is_idempotent_dedup () =
  with_durable_server (fun _srv _cfg addr ->
      let h = Figures.fig1 in
      let events = History.to_list h in
      let n = List.length events in
      let c = connect addr in
      Client.open_session c 1;
      (* send everything twice from the same index: the second pass must
         be entirely deduplicated against the applied index *)
      Client.send_events_at c 1 ~from:0 events;
      Client.send_events_at c 1 ~from:0 events;
      (* and a gap must be refused (zero-delay throttle), not applied *)
      Client.send_events_at c 1 ~from:(n + 100)
        [ Event.Inv (50, Event.Read 0) ];
      let v = Client.close_session c 1 in
      Alcotest.(check int) "events applied exactly once" n v.Protocol.applied;
      Alcotest.check status "verdict unchanged by duplicates"
        (offline_status h) v.Protocol.status;
      Alcotest.(check bool) "the gap frame was throttled" true
        (Client.throttled c >= 1);
      Client.close c)

let test_session_expiry () =
  with_durable_server ~session_timeout:0.2 (fun _srv _cfg addr ->
      let c = connect addr in
      Client.open_session c 1;
      Client.send_events_at c 1 ~from:0 (History.to_list Figures.fig1);
      ignore (Client.checkpoint c 1);
      Unix.close (Client.fd c);
      (* sweeper tick is session_timeout / 4; give it several periods *)
      Thread.delay 1.0;
      let c2 = connect addr in
      (match Client.resume c2 1 ~from:0 with
      | Ok _ -> Alcotest.fail "expired session must not resume"
      | Error (Protocol.Unknown_session, _) -> ()
      | Error (code, msg) ->
          Alcotest.failf "expected unknown-session, got %a: %s"
            Protocol.pp_error_code code msg);
      (* the identifier is free again *)
      Client.open_session c2 1;
      let v = Client.close_session c2 1 in
      Alcotest.check status "fresh session on the expired id" Protocol.S_ok
        v.Protocol.status;
      Client.close c2)

(* --- overload: the degradation ladder ------------------------------------- *)

let test_throttle_then_shed () =
  (* hwm = 0 makes every admission decision a throttle, so the ladder is
     deterministic: full -> sampling (after 2) -> shed (after 4). *)
  with_durable_server ~hwm:0 ~throttle_sample:2 ~throttle_shed:4
    (fun _srv _cfg addr ->
      let c = connect addr in
      Client.open_session c 1;
      let burst = [ Event.Inv (1, Event.Read 0) ] in
      for i = 0 to 5 do
        Client.send_events_at c 1 ~from:i burst
      done;
      let v = Client.close_session c 1 in
      Alcotest.(check bool) "session was shed" true
        (v.Protocol.mode = Protocol.M_shed);
      Alcotest.(check int) "nothing was silently applied" 0 v.Protocol.applied;
      Alcotest.(check bool) "client saw the shed notice" true
        (Client.shed c <> None);
      Alcotest.(check bool) "client counted throttles" true
        (Client.throttled c >= 2);
      Client.close c)

let test_shed_is_degraded_not_wrong () =
  (* submit_durable against a shedding server must report the shed reason
     and a verdict whose [applied] honestly bounds what it covers. *)
  with_durable_server ~hwm:0 ~throttle_sample:2 ~throttle_shed:4
    (fun _srv _cfg addr ->
      let events = History.to_list Figures.fig1 in
      let r =
        Client.submit_durable ~session:1 ~chunk:4 ~checkpoint_every:1
          ~backoff:{ Client.default_backoff with attempts = 30; base_ms = 1 }
          ~connect:(fun () -> connect addr)
          events
      in
      Alcotest.(check bool) "shed reason surfaced" true
        (r.Client.shed_reason <> None);
      Alcotest.(check bool) "verdict covers only the applied prefix" true
        (r.Client.verdict.Protocol.applied <= List.length events))

(* --- protocol odds and ends ------------------------------------------------ *)

let test_heartbeat_echo () =
  with_durable_server (fun _srv _cfg addr ->
      let c = connect addr in
      Client.ping c;
      Client.ping c;
      let v = Client.submit ~session:1 c Figures.fig1 in
      Alcotest.check status "served after heartbeats"
        (offline_status Figures.fig1) v.Protocol.status;
      Client.close c)

let test_v1_client_still_served () =
  with_durable_server (fun _srv _cfg addr ->
      let c = Client.connect ~version:1 addr in
      guard (Client.fd c);
      Alcotest.(check int) "negotiated down to v1" 1 (Client.version c);
      let v = Client.submit ~session:1 c Figures.fig1 in
      Alcotest.check status "v1 verdict" (offline_status Figures.fig1)
        v.Protocol.status;
      Alcotest.(check bool) "v1 verdicts decode tail-free" true
        (v.Protocol.mode = Protocol.M_full
        && v.Protocol.applied = v.Protocol.events);
      Client.close c)

let test_resume_needs_v2_and_durability () =
  (* On a v2 but non-durable server, Resume is a clean protocol error. *)
  with_dir (fun dir ->
      let addr = `Unix (Filename.concat dir "sock") in
      let srv = Server.start (Server.config ~domains:1 addr) in
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () ->
          let c = connect addr in
          (match Client.resume c 1 ~from:0 with
          | Ok _ -> Alcotest.fail "resume on a non-durable server succeeded"
          | Error ((Protocol.Bad_frame | Protocol.Unknown_session), _) -> ()
          | Error (code, msg) ->
              Alcotest.failf "unexpected %a: %s" Protocol.pp_error_code code
                msg);
          Client.close c))

(* --- network chaos (the full campaign, scaled down) ------------------------ *)

let test_chaos_campaign () =
  let report =
    Service_chaos.run
      (Service_chaos.config ~source:(`Faults "tl2")
         ~seeds:[ 1; 2; 3; 4 ] ~kill_every:2 ~deadline:20. ())
  in
  Alcotest.(check int) "no wrong verdicts" 0 report.Service_chaos.wrong;
  Alcotest.(check int) "no hangs" 0 report.Service_chaos.hangs;
  Alcotest.(check bool) "at least one round recovered" true
    (report.Service_chaos.recovered >= 1)

let suite =
  [
    ( "recovery: journal",
      [
        test "append / snapshot / recover round-trip" test_journal_roundtrip;
        test "torn tail truncated, never fatal" test_journal_torn_tail;
      ] );
    ( "recovery: crash and resume",
      [
        slow "server crash: recovered verdicts equal uninterrupted"
          test_kill_and_recover_verdict_parity;
        test "capsules from either monitor recover every figure"
          test_capsules_interchange;
        test "kill at violation: verdict survives a budget change"
          test_verdict_survives_budget_change;
        test "orphaned session reattaches" test_orphan_reattach;
        test "duplicated and gapped frames never double-apply"
          test_resume_is_idempotent_dedup;
        test "orphans expire after the session timeout" test_session_expiry;
      ] );
    ( "recovery: overload",
      [
        test "degradation ladder: full -> sampling -> shed"
          test_throttle_then_shed;
        test "a shed submission degrades honestly"
          test_shed_is_degraded_not_wrong;
      ] );
    ( "recovery: protocol",
      [
        test "heartbeats echo" test_heartbeat_echo;
        test "v1 clients served byte-compatibly" test_v1_client_still_served;
        test "resume requires a durable server" test_resume_needs_v2_and_durability;
      ] );
    ( "recovery: network chaos",
      [ slow "4-seed proxy chaos campaign, no wrong verdicts, no hangs"
          test_chaos_campaign ] );
  ]
