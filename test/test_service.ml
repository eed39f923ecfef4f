(* Loopback tests for the [tm serve] service: verdict agreement with the
   offline checker, and the robustness invariants server.mli promises —
   malformed frames are answered and survived, a client dying mid-stream
   is reaped without wedging anybody else. *)

open Tm_safety
open Helpers
module Protocol = Service.Protocol
module Wire = Service.Wire
module Server = Service.Server
module Client = Service.Client

let status = Alcotest.testable Protocol.pp_status ( = )

(* Every read below times out rather than hanging the suite if the server
   ever stops answering. *)
let guard fd = Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.

let with_server ?(domains = 2) f =
  let srv = Server.start (Server.config ~domains (`Tcp ("127.0.0.1", 0))) in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () -> f srv (Server.bound_addr srv))

let connect addr =
  let c = Client.connect addr in
  guard (Client.fd c);
  c

(* The server's verdict must be the online monitor's outcome — which the
   monitor tests in turn pin against the offline Du_opacity checker. *)
let offline_status h =
  let m = Monitor.create () in
  match Monitor.push_all m (History.to_list h) with
  | `Ok -> Protocol.S_ok
  | `Violation why -> Protocol.S_violation why
  | `Budget why -> Protocol.S_budget why

let norec_fault_history ~seed =
  let params =
    {
      Stm.Workload.default with
      n_threads = 3;
      txns_per_thread = 8;
      ops_per_txn = 3;
      n_vars = 4;
    }
  in
  let spec =
    Sim.Faults.sample ~n_threads:params.Stm.Workload.n_threads
      ~horizon:(Sim.Faults.horizon params) ~seed ()
  in
  (Sim.Faults.run_one ~check:false ~stm:"norec" ~params ~spec ~seed ())
    .Sim.Faults.history

(* --- verdicts match the offline checker ---------------------------------- *)

let test_figure_verdicts () =
  with_server (fun _srv addr ->
      let c = connect addr in
      List.iteri
        (fun i (e : Figures.expectation) ->
          let v = Client.submit ~session:(i + 1) c e.history in
          let expected = offline_status e.history in
          Alcotest.check status
            (Fmt.str "%s status" e.name)
            expected v.Protocol.status;
          (* a violating monitor goes sticky and stops accepting, so the
             full count is only promised for clean streams *)
          if expected = Protocol.S_ok then
            Alcotest.(check int)
              (Fmt.str "%s events" e.name)
              (History.length e.history) v.Protocol.events)
        Figures.catalog;
      Client.close c)

let test_fault_stream_verdicts () =
  with_server (fun _srv addr ->
      let c = connect addr in
      List.iteri
        (fun i seed ->
          let h = norec_fault_history ~seed in
          let v = Client.submit ~session:(i + 1) c h in
          Alcotest.check status
            (Fmt.str "norec-fault seed %d" seed)
            (offline_status h) v.Protocol.status)
        [ 7; 21; 42 ];
      Client.close c)

let test_checkpoint_progress () =
  with_server (fun _srv addr ->
      let h = Figures.fig1 in
      let events = History.to_list h in
      let n = List.length events in
      let half = n / 2 in
      let first = List.filteri (fun i _ -> i < half) events in
      let rest = List.filteri (fun i _ -> i >= half) events in
      let c = connect addr in
      Client.open_session c 1;
      Client.send_events c 1 first;
      let v = Client.checkpoint c 1 in
      Alcotest.(check int) "half acknowledged" half v.Protocol.events;
      Alcotest.check status "half status"
        (offline_status (History.prefix h half))
        v.Protocol.status;
      Client.send_events c 1 rest;
      let v = Client.close_session c 1 in
      Alcotest.(check int) "all acknowledged" n v.Protocol.events;
      Alcotest.check status "final status" (offline_status h)
        v.Protocol.status;
      Client.close c)

(* Many concurrent connections: every session still gets the offline
   checker's verdict, and the shard gauges settle back to zero. *)
let test_concurrent_sessions () =
  with_server ~domains:4 (fun srv addr ->
      let expected =
        List.map
          (fun (e : Figures.expectation) -> (e.history, offline_status e.history))
          Figures.catalog
      in
      let mismatches = Atomic.make 0 in
      let worker () =
        let c = connect addr in
        List.iteri
          (fun i (h, expect) ->
            let v = Client.submit ~session:(i + 1) c h in
            if v.Protocol.status <> expect then Atomic.incr mismatches)
          expected;
        Client.close c
      in
      let threads = List.init 8 (fun _ -> Thread.create worker ()) in
      List.iter Thread.join threads;
      Alcotest.(check int) "no mismatches" 0 (Atomic.get mismatches);
      (* closes are processed before their verdicts are sent, so by now
         every shard gauge reads zero *)
      let live =
        List.fold_left
          (fun a (d : Protocol.domain_stats) -> a + d.live_sessions)
          0 (Server.stats srv)
      in
      Alcotest.(check int) "no sessions left live" 0 live)

(* --- robustness ----------------------------------------------------------- *)

let await_live srv ~target =
  (* The reap travels through a mailbox; poll briefly for it to land. *)
  let live () =
    List.fold_left
      (fun a (d : Protocol.domain_stats) -> a + d.live_sessions)
      0 (Server.stats srv)
  in
  let rec go n =
    if live () > target && n > 0 then (Thread.delay 0.02; go (n - 1))
  in
  go 250;
  live ()

let test_client_killed_mid_stream () =
  with_server (fun srv addr ->
      (* A well-behaved client with a session in flight... *)
      let survivor = connect addr in
      let h = Figures.fig3 in
      let events = History.to_list h in
      let half = List.length events / 2 in
      Client.open_session survivor 1;
      Client.send_events survivor 1
        (List.filteri (fun i _ -> i < half) events);
      (* round-trip so the survivor's session is registered before the
         gauge is read below *)
      ignore (Client.checkpoint survivor 1);
      (* ...while another client dies abruptly, sessions open, no Goodbye. *)
      let doomed = connect addr in
      Client.open_session doomed 1;
      Client.open_session doomed 2;
      Client.send_events doomed 1 events;
      Unix.close (Client.fd doomed);
      (* only the survivor's session may remain live *)
      Alcotest.(check int) "dead client's sessions reaped" 1
        (await_live srv ~target:1);
      (* the survivor's session never noticed *)
      Client.send_events survivor 1
        (List.filteri (fun i _ -> i >= half) events);
      let v = Client.close_session survivor 1 in
      Alcotest.check status "survivor verdict" (offline_status h)
        v.Protocol.status;
      Client.close survivor;
      (* and the server still accepts fresh connections *)
      let c = connect addr in
      let v = Client.submit c Figures.fig1 in
      Alcotest.check status "fresh client served"
        (offline_status Figures.fig1) v.Protocol.status;
      Client.close c)

(* Raw wire-level conversation: a well-framed but undecodable body gets an
   Error answer and the connection keeps serving. *)
let send_raw fd body =
  let len = String.length body in
  let hdr = Bytes.create 4 in
  Bytes.set hdr 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set hdr 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set hdr 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set hdr 3 (Char.chr (len land 0xff));
  assert (Unix.write fd hdr 0 4 = 4);
  assert (Unix.write_substring fd body 0 len = len)

let expect_frame fd what k =
  match Wire.recv fd with
  | Wire.Frame f -> k f
  | Wire.Malformed msg -> Alcotest.failf "%s: malformed reply (%s)" what msg

let test_malformed_frame_survived () =
  with_server (fun _srv addr ->
      let fd = Wire.connect addr in
      guard fd;
      Wire.send fd (Protocol.Hello { version = Protocol.version });
      expect_frame fd "handshake" (function
        | Protocol.Hello _ -> ()
        | f -> Alcotest.failf "expected Hello, got %a" Protocol.pp_frame f);
      (* tag 255 exists in no grammar *)
      send_raw fd "\xff\xffgarbage";
      expect_frame fd "garbage answered" (function
        | Protocol.Err { code = Protocol.Bad_frame; _ } -> ()
        | f -> Alcotest.failf "expected Bad_frame, got %a" Protocol.pp_frame f);
      (* the connection still works *)
      let h = Figures.fig5 in
      Wire.send fd (Protocol.Open_session { session = 1 });
      Wire.send fd
        (Protocol.Events { session = 1; events = History.to_list h });
      Wire.send fd (Protocol.Close_session { session = 1 });
      expect_frame fd "verdict after garbage" (function
        | Protocol.Verdict v ->
            Alcotest.check status "verdict" (offline_status h)
              v.Protocol.status
        | f -> Alcotest.failf "expected Verdict, got %a" Protocol.pp_frame f);
      Wire.send fd Protocol.Goodbye;
      Unix.close fd)

let test_handshake_required () =
  with_server (fun _srv addr ->
      let fd = Wire.connect addr in
      guard fd;
      Wire.send fd (Protocol.Open_session { session = 1 });
      expect_frame fd "refusal" (function
        | Protocol.Err { code = Protocol.Bad_magic; _ } -> ()
        | f -> Alcotest.failf "expected Bad_magic, got %a" Protocol.pp_frame f);
      (* the server hangs up after a failed handshake *)
      (match Wire.recv fd with
      | exception Wire.Closed -> ()
      | Wire.Frame f ->
          Alcotest.failf "expected EOF, got %a" Protocol.pp_frame f
      | Wire.Malformed msg -> Alcotest.failf "expected EOF, got (%s)" msg);
      Unix.close fd)

let test_session_errors () =
  with_server (fun _srv addr ->
      let c = connect addr in
      (match Client.checkpoint c 42 with
      | _ -> Alcotest.fail "checkpoint on unopened session must fail"
      | exception Client.Server_error _ -> ());
      Client.open_session c 1;
      Client.open_session c 1;
      (match Client.checkpoint c 1 with
      | _ -> Alcotest.fail "duplicate open must be reported"
      | exception Client.Server_error _ -> ());
      Client.close c)

let test_stats () =
  with_server ~domains:3 (fun _srv addr ->
      let c = connect addr in
      let ds = Client.stats c in
      Alcotest.(check int) "one entry per domain" 3 (List.length ds);
      ignore (Client.submit c Figures.fig1);
      let events =
        List.fold_left
          (fun a (d : Protocol.domain_stats) -> a + d.events)
          0 (Client.stats c)
      in
      Alcotest.(check int) "events accounted" (History.length Figures.fig1)
        events;
      Client.close c)

(* --- session monitors and the v3 counters frame ---------------------------- *)

(* Every session streams through one conflict graph that hands the stream
   to a sequential monitor when it cannot certify it; the paper figures
   exercise both paths (fig2's duplicate written values poison the
   graph), and the verdicts must be the offline monitor's. *)
let test_session_verdicts () =
  with_server (fun _srv addr ->
      let c = connect addr in
      List.iteri
        (fun i (e : Figures.expectation) ->
          let v = Client.submit ~session:(i + 1) c e.history in
          Alcotest.check status
            (Fmt.str "%s status" e.name)
            (offline_status e.history) v.Protocol.status)
        Figures.catalog;
      List.iteri
        (fun i seed ->
          let h = norec_fault_history ~seed in
          let v = Client.submit ~session:(100 + i) c h in
          Alcotest.check status
            (Fmt.str "norec-fault seed %d" seed)
            (offline_status h) v.Protocol.status)
        [ 7; 21; 42 ];
      Client.close c)

let test_shard_stats () =
  with_server (fun _srv addr ->
      let c = connect addr in
      Alcotest.(check int) "negotiated v3" 3 (Client.version c);
      (* fig6 has unique written values: the graph certifies it without
         escalating, so every certify is answered incrementally *)
      Client.open_session c 1;
      Client.send_events c 1 (History.to_list Figures.fig6);
      ignore (Client.checkpoint c 1);
      let st = Client.shard_stats c 1 in
      Alcotest.(check int) "shard count" 1 st.Protocol.shards;
      Alcotest.(check bool) "certified at least once" true
        (st.Protocol.certifies > 0);
      Alcotest.(check bool) "never escalated" true (st.Protocol.escalated = None);
      Alcotest.(check int) "every certify incremental" st.Protocol.certifies
        st.Protocol.incremental;
      Alcotest.(check int) "no full validation" 0 st.Protocol.full;
      ignore (Client.close_session c 1);
      (* fig1 writes the same value twice: the graph poisons and the
         session is handed to the sequential monitor, with the reason
         travelling in the counters frame *)
      Client.open_session c 2;
      Client.send_events c 2 (History.to_list Figures.fig1);
      ignore (Client.checkpoint c 2);
      let st = Client.shard_stats c 2 in
      (match st.Protocol.escalated with
      | Some why ->
          Alcotest.(check bool)
            (Fmt.str "escalation reason names Corollary 2: %s" why)
            true
            (contains why "Corollary 2")
      | None -> Alcotest.fail "escalation reason not reported");
      ignore (Client.close_session c 2);
      (* counters for an unknown session are an error, not a hang *)
      (match Client.shard_stats c 99 with
      | _ -> Alcotest.fail "shard_stats on unopened session must fail"
      | exception Client.Server_error _ -> ());
      Client.close c)

let test_shard_stats_gated () =
  with_server (fun _srv addr ->
      let c = Client.connect ~version:2 addr in
      guard (Client.fd c);
      Alcotest.(check int) "negotiated v2" 2 (Client.version c);
      Client.open_session c 1;
      (match Client.shard_stats c 1 with
      | _ -> Alcotest.fail "Shards_req must be refused on a v2 connection"
      | exception Client.Server_error _ -> ());
      (* the refusal did not poison the connection *)
      Client.send_events c 1 (History.to_list Figures.fig1);
      let v = Client.close_session c 1 in
      Alcotest.check status "verdict after refusal"
        (offline_status Figures.fig1) v.Protocol.status;
      Client.close c)

(* Concurrency: many connections spread over four worker domains; verdicts
   must stay exact and gauges settle. *)
let test_session_concurrent () =
  with_server ~domains:4 (fun srv addr ->
      let expected =
        List.map
          (fun (e : Figures.expectation) -> (e.history, offline_status e.history))
          Figures.catalog
      in
      let mismatches = Atomic.make 0 in
      let worker () =
        let c = connect addr in
        List.iteri
          (fun i (h, expect) ->
            let v = Client.submit ~session:(i + 1) c h in
            if v.Protocol.status <> expect then Atomic.incr mismatches)
          expected;
        Client.close c
      in
      let threads = List.init 6 (fun _ -> Thread.create worker ()) in
      List.iter Thread.join threads;
      Alcotest.(check int) "no mismatches" 0 (Atomic.get mismatches);
      let live =
        List.fold_left
          (fun a (d : Protocol.domain_stats) -> a + d.live_sessions)
          0 (Server.stats srv)
      in
      Alcotest.(check int) "no sessions left live" 0 live)

(* Both ends of a TCP connection disable Nagle's algorithm: the server
   side too, or a verdict waits for the previous segment's ack. *)
let test_accept_nodelay () =
  let lfd = Wire.listen (`Tcp ("127.0.0.1", 0)) in
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> Alcotest.fail "TCP listener bound a Unix address"
  in
  let client = Wire.connect (`Tcp ("127.0.0.1", port)) in
  let accepted, _ = Wire.accept lfd in
  Alcotest.(check bool) "accepted socket has TCP_NODELAY" true
    (Unix.getsockopt accepted Unix.TCP_NODELAY);
  Alcotest.(check bool) "connecting socket has TCP_NODELAY" true
    (Unix.getsockopt client Unix.TCP_NODELAY);
  List.iter Unix.close [ accepted; client; lfd ]

let suite =
  [
    ( "service: verdicts",
      [
        test "six paper figures match the offline checker"
          test_figure_verdicts;
        test "fault-injected norec recordings match" test_fault_stream_verdicts;
        test "checkpoints see prefix verdicts" test_checkpoint_progress;
        slow "8 connections x 7 sessions, all verdicts agree"
          test_concurrent_sessions;
      ] );
    ( "service: robustness",
      [
        test "client killed mid-stream is reaped, others unaffected"
          test_client_killed_mid_stream;
        test "malformed frame answered, connection survives"
          test_malformed_frame_survived;
        test "handshake is mandatory" test_handshake_required;
        test "unknown and duplicate sessions reported" test_session_errors;
        test "stats count every domain" test_stats;
        test "accepted TCP sockets get TCP_NODELAY" test_accept_nodelay;
      ] );
    ( "service: session monitors",
      [
        test "session verdicts match the offline checker"
          test_session_verdicts;
        test "Shards_req reports one graph's certify counters"
          test_shard_stats;
        test "Shards_req is v3-gated, refusal is survivable"
          test_shard_stats_gated;
        slow "6 connections x 7 sessions over four domains"
          test_session_concurrent;
      ] );
  ]
