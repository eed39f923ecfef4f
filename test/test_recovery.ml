(* Fault tolerance of the [tm serve] service: durable session journals,
   crash recovery by journal replay, client resume with
   idempotent re-send, overload throttling and shedding, heartbeats and
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

let outcome_status : Monitor.outcome -> Protocol.status = function
  | `Ok -> Protocol.S_ok
  | `Violation why -> Protocol.S_violation why
  | `Budget why -> Protocol.S_budget why

let offline_status h =
  outcome_status (Monitor.push_all (Monitor.create ()) (History.to_list h))

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

let with_durable_server ?session_timeout ?hwm ?throttle_shed f =
  with_dir (fun dir ->
      let addr = `Unix (Filename.concat dir "sock") in
      let journal_dir = Filename.concat dir "journal" in
      let cfg =
        Server.config ~domains:2 ~journal_dir ?session_timeout ?hwm
          ?throttle_shed addr
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
      let m = Monitor.create () in
      let j = Journal.create ~dir ~session:7 () in
      List.iter (fun ev -> ignore (Monitor.ingest m ev)) a;
      ignore (Journal.append j a);
      (* checkpoint mid-stream, then keep appending past it *)
      Journal.snapshot j (Monitor.persist m);
      List.iter (fun ev -> ignore (Monitor.ingest m ev)) b;
      ignore (Journal.append j b);
      (* recovery certifies the rebuilt stream; so does the original *)
      ignore (Monitor.certify m);
      Alcotest.(check int) "applied counts everything" n (Journal.applied j);
      Journal.close j;
      Alcotest.(check bool) "exists on disk" true
        (Journal.exists ~dir ~session:7);
      Alcotest.(check (list string)) "the journal is the only file"
        [ "s7.journal" ]
        (Array.to_list (Sys.readdir dir));
      match Journal.recover ~dir ~session:7 () with
      | Error why -> Alcotest.failf "recover: %s" why
      | Ok (m', applied, j') ->
          Alcotest.(check int) "recovered applied" n applied;
          Alcotest.(check int) "monitor replayed fully" n
            (Monitor.events_seen m');
          let s = Monitor.snapshot m
          and s' = Monitor.snapshot m' in
          Alcotest.(check int) "replay reproduces responses"
            s.Monitor.responses s'.Monitor.responses;
          Alcotest.(check int) "replay reproduces fast-path hits"
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
            (Monitor.events_seen m');
          (* the journal is usable again: the torn tail was truncated away *)
          ignore (Journal.append j' [ Event.Inv (99, Event.Read 0) ]);
          Alcotest.(check int) "append after truncation" (applied + 1)
            (Journal.applied j');
          Journal.close j')

(* --- crash recovery and resume -------------------------------------------- *)

(* Retry a resume briefly: the dead connection's orphaning travels through
   the old reader's cleanup, which can lag the new connection. *)
let resume_eventually c session =
  let rec go n =
    match Client.resume c session with
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
          let applied, _mode, _status = resume_eventually c2 1 in
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

let test_concurrent_resume_keeps_capsules_apart () =
  (* Two sessions resumed at once on a two-domain server replay and extend
     their histories in parallel.  Each session's journal must hold its own
     stream and nothing of the other's: a history buffer shared across
     sessions without a synchronized claim once let one session write the
     other's events into its checkpoint, which a later recovery then
     rejected or misjudged. *)
  with_durable_server (fun srv cfg addr ->
      let streams = [ (1, recording 1); (2, recording 2) ] in
      let first =
        List.map
          (fun (id, h) ->
            let events = History.to_list h in
            let c = connect addr in
            Client.open_session c id;
            Client.send_events_at c id ~from:0
              (fst (split_at (List.length events / 2) events));
            ignore (Client.checkpoint c id);
            c)
          streams
      in
      Server.crash !srv;
      List.iter
        (fun c -> try Client.close c with Unix.Unix_error _ -> ())
        first;
      srv := Server.start cfg;
      let finish (id, h) =
        let failure = ref None in
        let resume () =
          try
            let c = connect addr in
            let applied, _mode, _status = resume_eventually c id in
            Client.send_events_at c id ~from:applied
              (snd (split_at applied (History.to_list h)));
            ignore (Client.checkpoint c id);
            Client.close c
          with e -> failure := Some e
        in
        (Thread.create resume (), failure)
      in
      List.iter
        (fun (t, failure) ->
          Thread.join t;
          Option.iter raise !failure)
        (List.map finish streams);
      Server.crash !srv;
      let dir = Option.get cfg.Server.journal_dir in
      List.iter
        (fun (id, h) ->
          match Journal.recover ~dir ~session:id () with
          | Error why -> Alcotest.failf "session %d: recover: %s" id why
          | Ok (m, _applied, j) ->
              Journal.close j;
              Alcotest.(check (list event))
                (Fmt.str "session %d: journal holds its own stream" id)
                (History.to_list h)
                (History.to_list (Monitor.history m));
              Alcotest.check status
                (Fmt.str "session %d: recovered verdict" id)
                (offline_status h)
                (outcome_status (Monitor.status m)))
        streams)

let test_capsules_interchange () =
  (* A capsule written after a certify per response ("monitor") and one
     written after ingestion alone, as the service streams ("session"),
     share the format, so a journal checkpointed with either recovers
     every figure with the uninterrupted verdict: journal half the stream,
     checkpoint (which journals the capsule's sticky verdict), journal the
     rest, recover by replaying the whole journal. *)
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
              Alcotest.(check (list string))
                (Fmt.str "%s: %s capsule, the journal is the only file" h.name
                   writer)
                [ "s1.journal" ]
                (Array.to_list (Sys.readdir dir));
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
                    (outcome_status (Monitor.status m))))
        Figures.catalog)
    [
      ( "monitor",
        fun evs ->
          let m = Monitor.create () in
          ignore (Monitor.push_all m evs);
          Monitor.persist m );
      ( "session",
        fun evs ->
          let m = Monitor.create () in
          List.iter (fun ev -> ignore (Monitor.ingest m ev)) evs;
          Monitor.persist m );
    ]

let test_snapshotting_format_refused () =
  (* The earlier format reset its journal at every checkpoint (header
     [TMJ1], then the applied index [base] the journal began at) and kept
     the prefix in an [s<id>.snap] capsule file.  Replaying such a journal
     alone would judge a suffix as if it were the whole stream, so both
     leftovers must refuse recovery outright. *)
  let events = History.to_list Figures.fig1 in
  let write_tmj1 dir session =
    let b = Buffer.create 64 in
    Buffer.add_string b "TMJ1";
    Service.Codec.put_uvarint b 5;
    Buffer.add_char b '\001';
    Service.Codec.put_events b events;
    Out_channel.with_open_bin
      (Filename.concat dir (Fmt.str "s%d.journal" session))
      (fun oc -> Out_channel.output_string oc (Buffer.contents b))
  in
  let refused what dir session =
    match Journal.recover ~dir ~session () with
    | Ok (_, applied, j) ->
        Journal.close j;
        Alcotest.failf "%s: recovered %d events instead of refusing" what
          applied
    | Error _ -> ()
  in
  with_dir (fun dir ->
      write_tmj1 dir 1;
      refused "TMJ1 journal with base 5" dir 1;
      let j = Journal.create ~dir ~session:2 () in
      ignore (Journal.append j events);
      Journal.close j;
      Out_channel.with_open_bin (Filename.concat dir "s2.snap") (fun oc ->
          Out_channel.output_string oc "TMS1");
      refused "current journal beside a stray capsule file" dir 2);
  with_durable_server ~session_timeout:0.2 (fun _srv cfg addr ->
      let dir = Option.get cfg.Server.journal_dir in
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      write_tmj1 dir 3;
      let journal = Filename.concat dir "s3.journal" in
      let resume_refused what c =
        match Client.resume c 3 with
        | Ok (applied, _, _) ->
            Alcotest.failf "%s: resumed a TMJ1 session at %d events" what
              applied
        | Error (Protocol.Server_error, _) -> ()
        | Error (code, msg) ->
            Alcotest.failf "%s: expected a server-error frame, got %a: %s"
              what Protocol.pp_error_code code msg
      in
      let c = connect addr in
      resume_refused "first resume" c;
      resume_refused "second resume on the same connection" c;
      (* the refusal costs nothing else: the connection keeps serving *)
      let v = Client.submit ~session:4 c Figures.fig1 in
      Alcotest.check status "served after the refusal"
        (offline_status Figures.fig1) v.Protocol.status;
      Client.close c;
      (* an orphaned refusal never expires into a deletion (sweeper tick is
         session_timeout / 4; give it several timeouts) *)
      Thread.delay 1.0;
      Alcotest.(check bool) "journal kept past the session timeout" true
        (Sys.file_exists journal);
      let c2 = connect addr in
      resume_refused "resume on a new connection" c2;
      (match Client.close_session c2 3 with
      | v ->
          Alcotest.failf "closing a refused session gave a %a verdict"
            Protocol.pp_status v.Protocol.status
      | exception Client.Server_error _ -> ());
      Alcotest.(check bool) "journal kept after a close" true
        (Sys.file_exists journal);
      resume_refused "resume after the close" c2;
      Client.close c2)

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
             not a checkpoint, so the only verdict on disk is the record the
             flipping batch journalled itself.  The monitor stops counting
             at the violating prefix, so wait on that index rather than the
             stream length. *)
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
          let applied, _mode, st = resume_eventually c2 1 in
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
      let applied, mode, _ = resume_eventually c2 1 in
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
      (match Client.resume c2 1 with
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

(* --- overload: throttle, then shed ----------------------------------------- *)

let test_throttle_then_shed () =
  (* hwm = 0 makes every admission decision a throttle, so the two rungs
     are deterministic: three frames are throttled and the session stays
     full; the fourth consecutive throttle sheds it. *)
  with_durable_server ~hwm:0 ~throttle_shed:4 (fun _srv _cfg addr ->
      let c = connect addr in
      Client.open_session c 1;
      let burst = [ Event.Inv (1, Event.Read 0) ] in
      let send_burst () = Client.send_events_at c 1 ~from:0 burst in
      for _ = 1 to 3 do
        send_burst ()
      done;
      let v = Client.checkpoint c 1 in
      Alcotest.(check bool) "full after three throttles" true
        (v.Protocol.mode = Protocol.M_full);
      Alcotest.(check int) "three throttles seen" 3 (Client.throttled c);
      Alcotest.(check bool) "not shed yet" true (Client.shed c = None);
      send_burst ();
      let v = Client.checkpoint c 1 in
      Alcotest.(check bool) "shed at the fourth throttle" true
        (v.Protocol.mode = Protocol.M_shed);
      Alcotest.(check int) "no further throttle" 3 (Client.throttled c);
      Alcotest.(check bool) "client saw the shed notice" true
        (Client.shed c <> None);
      send_burst ();
      let v = Client.close_session c 1 in
      Alcotest.(check bool) "shed is sticky" true
        (v.Protocol.mode = Protocol.M_shed);
      Alcotest.(check int) "nothing was silently applied" 0 v.Protocol.applied;
      Client.close c)

let test_shed_is_degraded_not_wrong () =
  (* submit_durable against a shedding server must report the shed reason
     and a verdict whose [applied] honestly bounds what it covers. *)
  with_durable_server ~hwm:0 ~throttle_shed:4 (fun _srv _cfg addr ->
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

let test_durable_wait_is_untimed () =
  (* A durable submission waits silently, with no receive timeout: a reply
     slower than the heartbeat interval must not cost a reconnect.  The
     proxy holds the first checkpoint verdict (server-to-client frame 2,
     after the Hello and the Resume refusal) past [default_heartbeat]. *)
  with_durable_server (fun _srv _cfg addr ->
      let listen =
        match addr with
        | `Unix path -> `Unix (path ^ "-proxy")
        | `Tcp _ -> Alcotest.fail "expected a Unix-socket server"
      in
      let plan =
        [
          {
            Service.Proxy.at = 2;
            dir = `S2c;
            fault = Service.Proxy.Delay (Protocol.default_heartbeat +. 1.);
          };
        ]
      in
      let proxy = Service.Proxy.start ~plan ~listen ~upstream:addr () in
      Fun.protect
        ~finally:(fun () -> Service.Proxy.stop proxy)
        (fun () ->
          let r =
            Client.submit_durable ~session:1
              ~connect:(fun () -> Client.connect listen)
              (History.to_list Figures.fig1)
          in
          Alcotest.(check int) "the delay fired" 1
            (List.length (Service.Proxy.fired proxy));
          Alcotest.(check int) "no reconnects" 0 r.Client.reconnects;
          Alcotest.check status "verdict" (offline_status Figures.fig1)
            r.Client.verdict.Protocol.status))

let test_version_refusal_not_retried () =
  (* A server of another protocol version refuses every Hello; retrying
     cannot help, so a durable submission must give up at once.  The stub
     answers one connection only: a retry would find nobody listening and
     end in "giving up" instead of [Refused]. *)
  with_dir (fun dir ->
      let addr = `Unix (Filename.concat dir "sock") in
      let lfd = Wire.listen addr in
      let stub =
        Thread.create
          (fun () ->
            let fd, _ = Wire.accept lfd in
            Unix.close lfd;
            guard fd;
            ignore (Wire.recv fd);
            Wire.send fd
              (Protocol.Err
                 {
                   code = Protocol.Unsupported_version;
                   message = "server speaks another version";
                 });
            Unix.close fd)
          ()
      in
      let outcome =
        match
          Client.submit_durable ~session:1
            ~backoff:{ Client.default_backoff with base_ms = 1 }
            ~connect:(fun () -> Client.connect addr)
            (History.to_list Figures.fig1)
        with
        | _ -> "a verdict"
        | exception Client.Refused _ -> "refused"
        | exception e -> Printexc.to_string e
      in
      Thread.join stub;
      Alcotest.(check string) "refused without retrying" "refused" outcome)

let test_resume_on_non_durable_server_is_clean_error () =
  (* Without a journal there is nothing to resume: a clean protocol error. *)
  with_dir (fun dir ->
      let addr = `Unix (Filename.concat dir "sock") in
      let srv = Server.start (Server.config ~domains:1 addr) in
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () ->
          let c = connect addr in
          (match Client.resume c 1 with
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
        test "two sessions resumed at once keep their own capsules"
          test_concurrent_resume_keeps_capsules_apart;
        test "capsules from either monitor recover every figure"
          test_capsules_interchange;
        test "a journal in the snapshotting format is refused"
          test_snapshotting_format_refused;
        test "kill at violation: verdict survives a budget change"
          test_verdict_survives_budget_change;
        test "orphaned session reattaches" test_orphan_reattach;
        test "duplicated and gapped frames never double-apply"
          test_resume_is_idempotent_dedup;
        test "orphans expire after the session timeout" test_session_expiry;
      ] );
    ( "recovery: overload",
      [
        test "full -> shed at the throttle_shed-th throttle"
          test_throttle_then_shed;
        test "a shed submission degrades honestly"
          test_shed_is_degraded_not_wrong;
      ] );
    ( "recovery: protocol",
      [
        test "heartbeats echo" test_heartbeat_echo;
        slow "a durable submit waits out a slow reply without reconnecting"
          test_durable_wait_is_untimed;
        test "a version refusal is not retried" test_version_refusal_not_retried;
        test "resume requires a durable server"
          test_resume_on_non_durable_server_is_clean_error;
      ] );
    ( "recovery: network chaos",
      [ slow "4-seed proxy chaos campaign, no wrong verdicts, no hangs"
          test_chaos_campaign ] );
  ]
