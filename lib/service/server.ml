module Monitor = Tm_checker.Monitor

type config = {
  addr : Wire.addr;
  domains : int;
  max_nodes : int option;
  queue_capacity : int;
  journal_dir : string option;
  journal_sync : bool;
  session_timeout : float;
  max_conns : int;
  max_sessions : int;
  hwm : int;
  throttle_shed : int;
  log : string -> unit;
}

let config ?(domains = 4) ?max_nodes ?(queue_capacity = 64)
    ?journal_dir
    ?(journal_sync = false)
    ?(session_timeout = Protocol.default_session_timeout) ?(max_conns = 1024)
    ?(max_sessions = 8192) ?hwm ?(throttle_shed = 16)
    ?(log = ignore) addr =
  if domains <= 0 then invalid_arg "Server.config: domains must be positive";
  if session_timeout <= 0.0 then
    invalid_arg "Server.config: session_timeout must be positive";
  let hwm =
    match hwm with Some h -> h | None -> max 1 (queue_capacity / 2)
  in
  {
    addr;
    domains;
    max_nodes;
    queue_capacity;
    journal_dir;
    journal_sync;
    session_timeout;
    max_conns;
    max_sessions;
    hwm;
    throttle_shed;
    log;
  }

(* Per-worker counters, written by the owning worker (and the reader
   threads for the live-session gauge), read by any reader thread serving a
   [Stats_req].  A worker runs on a domain of its own, or as a thread of the
   main domain where the process may use one CPU; atomics make the reads
   well-defined either way, and the counters are monotone so slight skew
   between fields is harmless. *)
type dstat = {
  live : int Atomic.t;
  closed : int Atomic.t;
  d_events : int Atomic.t;
  d_responses : int Atomic.t;
  d_hits : int Atomic.t;
  d_searches : int Atomic.t;
  d_nodes : int Atomic.t;
}

let dstat () =
  {
    live = Atomic.make 0;
    closed = Atomic.make 0;
    d_events = Atomic.make 0;
    d_responses = Atomic.make 0;
    d_hits = Atomic.make 0;
    d_searches = Atomic.make 0;
    d_nodes = Atomic.make 0;
  }

type conn = {
  fd : Unix.file_descr;
  conn_id : int;
  wmutex : Mutex.t;  (* one frame = one write; workers and reader share *)
  mutable alive : bool;  (* cleared on write failure or disconnect *)
  sessions : (int, session) Hashtbl.t;
      (* client session id -> session; touched only by the reader thread *)
}

(* Field ownership.  [monitor]/[last]/[applied]/[journal] belong to the
   session's worker once the session is live (mailbox FIFO is the
   synchronisation).  [dmode]/[throttles] belong to the
   serving reader thread; the worker's reads of [dmode] for verdict tails
   are ordered behind the reader's writes by the mailbox mutex.
   [sconn]/[orphaned_at]/[expiring] are guarded by the server's registry
   mutex on a durable server (reattach races reader cleanup). *)
and session = {
  client_sid : int;
  mutable sconn : conn;
  mutable monitor : Monitor.t;  (* replaced once, on crash recovery *)
  worker : int;  (* index of the owning worker *)
  mutable last : Monitor.snapshot;  (* last snapshot folded into dstats *)
  mutable applied : int;  (* events durably applied (journalled + pushed) *)
  mutable journal : Journal.t option;
  mutable dmode : Protocol.mode;  (* [M_shed] is sticky *)
  mutable throttles : int;  (* consecutive throttles; 0 resets the count *)
  mutable orphaned_at : float;  (* wall-clock; [nan] while attached *)
  mutable expiring : bool;  (* sweeper claimed it; no reattach *)
  mutable retired : bool;  (* gauges settled; never retire twice *)
}

(* Work items flowing reader -> worker.  A session is pinned to one worker,
   so its items are processed in FIFO order by a single thread of control
   and the monitor (and journal) need no locking. *)
type work =
  | W_open of session  (* create the journal of a fresh durable session *)
  | W_events of session * int option * string
      (* [Some from]: idempotent re-send; dedup against [applied] here, in
         the worker, so in-flight batches can never double-apply.  The
         frame's body: a backlog holds wire bytes, not decoded events. *)
  | W_checkpoint of session * int
  | W_close of session
  | W_reap of session
  | W_attach of session  (* answer [Resumed] after a reattach *)
  | W_recover of session  (* rebuild from disk, then answer [Resumed] *)
  | W_expire of session  (* orphan timed out: delete and retire *)
  | W_quit

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound : Wire.addr;
  mailboxes : work Mailbox.t array;
  dstats : dstat array;
  mutable stopping : bool;
  mutable crashing : bool;  (* drop queued work instead of draining it *)
  conns : (int, conn) Hashtbl.t;
  conns_mutex : Mutex.t;
  mutable readers : Thread.t list;  (* guarded by conns_mutex *)
  mutable accept_thread : Thread.t option;
  mutable sweeper : Thread.t option;  (* orphan expiry, durable mode only *)
  threaded : bool;  (* workers are threads of the main domain *)
  mutable workers : (unit -> unit) array;  (* joins each worker *)
  next_conn : int Atomic.t;
  next_session : int Atomic.t;
  durables : (int, session) Hashtbl.t;  (* durable mode: global registry *)
  reg_mutex : Mutex.t;
}

let bound_addr srv = srv.bound
let threaded srv = srv.threaded
let live_total srv =
  Array.fold_left (fun acc d -> acc + Atomic.get d.live) 0 srv.dstats

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

(* --- writing to clients -------------------------------------------------- *)

let send_frame conn frame =
  if conn.alive then
    try Wire.send ~mutex:conn.wmutex conn.fd frame
    with Unix.Unix_error _ | Sys_error _ -> conn.alive <- false

let err conn code message = send_frame conn (Protocol.Err { code; message })

let status_of_outcome : Monitor.outcome -> Protocol.status = function
  | `Ok -> Protocol.S_ok
  | `Violation why -> Protocol.S_violation why
  | `Budget why -> Protocol.S_budget why

let verdict_frame s ~token =
  Protocol.verdict ~mode:s.dmode ~applied:s.applied ~session:s.client_sid
    ~token ~events:(Monitor.events_seen s.monitor)
    (status_of_outcome (Monitor.status s.monitor))

let resumed_frame s =
  Protocol.Resumed
    {
      session = s.client_sid;
      applied = s.applied;
      mode = s.dmode;
      status = status_of_outcome (Monitor.status s.monitor);
    }

(* --- workers ------------------------------------------------------------ *)

(* Fold the session's monitor counters into its worker's atomics.  Called on
   every batch, so it leans on [Monitor.snapshot] being O(1) — including the
   pending gauge, which used to recount [History.infos] per call and made
   accounting quadratic over a session's stream. *)
let account d s =
  let snap = Monitor.snapshot s.monitor in
  let add a n = if n <> 0 then ignore (Atomic.fetch_and_add a n) in
  add d.d_events (snap.Monitor.events - s.last.Monitor.events);
  add d.d_responses (snap.Monitor.responses - s.last.Monitor.responses);
  add d.d_hits (snap.Monitor.fastpath_hits - s.last.Monitor.fastpath_hits);
  add d.d_searches (snap.Monitor.searches - s.last.Monitor.searches);
  add d.d_nodes (snap.Monitor.nodes - s.last.Monitor.nodes);
  s.last <- snap

(* Settle a session's gauges and durable state exactly once.  Files are
   deleted (close, expiry) before the registry entry goes away, so a
   concurrent [Resume] can never find the id unregistered yet its stale
   files still on disk and resurrect a half-deleted session. *)
let retire ?(delete = false) srv d s =
  if not s.retired then begin
    s.retired <- true;
    (match s.journal with Some j -> Journal.close j | None -> ());
    (match srv.cfg.journal_dir with
    | Some dir ->
        if delete then Journal.delete ~dir ~session:s.client_sid;
        Mutex.lock srv.reg_mutex;
        (match Hashtbl.find_opt srv.durables s.client_sid with
        | Some s' when s' == s -> Hashtbl.remove srv.durables s.client_sid
        | _ -> ());
        Mutex.unlock srv.reg_mutex
    | None -> ());
    ignore (Atomic.fetch_and_add srv.dstats.(s.worker).live (-1));
    Atomic.incr d.closed
  end

let fsync_quiet srv s j =
  try Journal.fsync j
  with Unix.Unix_error (e, _, _) ->
    srv.cfg.log
      (Fmt.str "session %d: journal fsync failed (%s)" s.client_sid
         (Unix.error_message e))

(* The batch that flips a session's sticky verdict journals the verdict
   itself: replay on recovery cannot be trusted to re-derive it (a
   search-found violation degrades to [`Budget] under a smaller node
   budget), and silently downgrading a pre-crash violation would defeat
   the whole point of monitoring. *)
let record_verdict_quiet srv s j =
  try
    Journal.record_verdict j (Monitor.status s.monitor)
      (Monitor.violation_index s.monitor)
  with Unix.Unix_error (e, _, _) ->
    srv.cfg.log
      (Fmt.str "session %d: verdict record failed (%s)" s.client_sid
         (Unix.error_message e))

(* Durable sessions certify at every admitted batch, so the batch that
   flips the sticky verdict journals it exactly as the sequential
   monitor's push used to — kill-at-violation recovery depends on that.
   Non-durable sessions skip the per-batch certify: nothing reads their
   status between batches, and checkpoint, close and resume certify
   before building a verdict frame, so a verdict is always a certified
   one either way. *)
let certify_record srv s ~was_ok =
  match s.journal with
  | Some j ->
      ignore (Monitor.certify s.monitor);
      if was_ok && Monitor.status s.monitor <> `Ok then
        record_verdict_quiet srv s j
  | None -> ()

let refused_frame s msg =
  Protocol.Err
    {
      code = Protocol.Server_error;
      message = Fmt.str "session %d recovery failed: %s" s.client_sid msg;
    }

let worker srv i () =
  let mailbox = srv.mailboxes.(i) in
  let d = srv.dstats.(i) in
  let rec loop () =
    let item = Mailbox.take mailbox in
    if srv.crashing then (match item with W_quit -> () | _ -> loop ())
    else
      match item with
      | W_quit -> ()
      | W_open s ->
          (match srv.cfg.journal_dir with
          | Some dir -> (
              match
                Journal.create ~sync:srv.cfg.journal_sync ~dir
                  ~session:s.client_sid ()
              with
              | j -> s.journal <- Some j
              | exception Unix.Unix_error (e, _, _) ->
                  srv.cfg.log
                    (Fmt.str "session %d: journal create failed (%s); shedding"
                       s.client_sid (Unix.error_message e));
                  s.dmode <- Protocol.M_shed;
                  send_frame s.sconn
                    (Protocol.Err
                       {
                         code = Protocol.Server_error;
                         message =
                           Fmt.str "session %d: cannot create journal"
                             s.client_sid;
                       }))
          | None -> ());
          loop ()
      | ( W_events (s, _, _) | W_checkpoint (s, _) | W_close s | W_attach s )
        when s.retired ->
          (* Only a refused recovery leaves a retired session reachable
             from its connection: keep refusing it rather than apply to, or
             answer for, an empty monitor. *)
          send_frame s.sconn (refused_frame s "refused at recovery");
          loop ()
      | W_events (s, from, body) ->
          (match (from, Protocol.decode body) with
          | Some f, _ when f > s.applied ->
              (* A gap: applying would skip events.  Throttle =
                 "not applied, re-send from your acknowledged index". *)
              send_frame s.sconn (Protocol.Throttle { session = s.client_sid })
          | _, Error msg ->
              srv.cfg.log
                (Fmt.str "session %d: malformed events (%s)" s.client_sid msg);
              err s.sconn Protocol.Bad_frame msg
          | _, Ok (Protocol.Events { events; _ }
                  | Protocol.Events_at { events; _ }) ->
              let events =
                match from with
                | Some f -> drop (s.applied - f) events  (* dedup re-sends *)
                | None -> events
              in
              if events <> [] then begin
                let admitted =
                  match s.journal with
                  | None ->
                      s.applied <- s.applied + List.length events;
                      true
                  | Some j -> (
                      match Journal.append j events with
                      | n ->
                          s.applied <- n;
                          true
                      | exception Unix.Unix_error (e, _, _) ->
                          (* Never apply what we could not persist: the
                             resume contract says [applied] events are on
                             disk. *)
                          srv.cfg.log
                            (Fmt.str
                               "session %d: journal append failed (%s); \
                                shedding"
                               s.client_sid (Unix.error_message e));
                          s.dmode <- Protocol.M_shed;
                          send_frame s.sconn
                            (Protocol.Shed
                               {
                                 session = s.client_sid;
                                 reason = "journal write failed";
                               });
                          false)
                in
                if admitted then begin
                  let was_ok = Monitor.status s.monitor = `Ok in
                  List.iter
                    (fun ev -> ignore (Monitor.ingest s.monitor ev))
                    events;
                  certify_record srv s ~was_ok;
                  account d s
                end
              end
          | _, Ok _ -> assert false (* [events_header] admitted it *));
          loop ()
      | W_checkpoint (s, token) ->
          account d s;
          ignore (Monitor.certify s.monitor);
          (* a durable session's sticky verdict is already journalled (it
             certifies every batch), so a checkpoint only makes the
             journal durable *)
          (match s.journal with
          | Some j -> fsync_quiet srv s j
          | None -> ());
          send_frame s.sconn (verdict_frame s ~token);
          loop ()
      | W_close s ->
          account d s;
          ignore (Monitor.certify s.monitor);
          let final = verdict_frame s ~token:0 in
          (* Counters and durable state settle before the final verdict: a
             client holding its close verdict must not observe the session
             still live (or resumable). *)
          retire ~delete:true srv d s;
          send_frame s.sconn final;
          loop ()
      | W_reap s ->
          account d s;
          retire srv d s;
          loop ()
      | W_expire s ->
          account d s;
          retire ~delete:true srv d s;
          loop ()
      | W_attach s ->
          (* FIFO behind any in-flight work from the dead connection, so
             [applied] has settled by the time we acknowledge it. *)
          send_frame s.sconn (resumed_frame s);
          loop ()
      | W_recover s ->
          (match srv.cfg.journal_dir with
          | None -> ()
          | Some dir -> (
              match
                Journal.recover ~sync:srv.cfg.journal_sync
                  ?max_nodes:srv.cfg.max_nodes ~dir ~session:s.client_sid ()
              with
              | Ok (m, applied, j) ->
                  s.monitor <- m;
                  (* Pre-crash monitor work stays accounted to the process
                     that did it; only post-recovery deltas hit dstats. *)
                  s.last <- Monitor.snapshot m;
                  s.applied <- applied;
                  s.journal <- Some j;
                  send_frame s.sconn (resumed_frame s)
              | Error msg ->
                  srv.cfg.log
                    (Fmt.str "session %d: recovery failed: %s" s.client_sid
                       msg);
                  (* Refused, not deleted: retiring without [~delete]
                     unregisters the session, so no expiry or close can
                     remove the files it was refused to protect. *)
                  s.dmode <- Protocol.M_shed;
                  retire srv d s;
                  send_frame s.sconn (refused_frame s msg)));
          loop ()
  in
  loop ()

(* --- per-connection reader threads ---------------------------------------- *)

let stats_frame srv =
  Protocol.Stats
    (Array.to_list
       (Array.map
          (fun d ->
            {
              Protocol.live_sessions = Atomic.get d.live;
              closed_sessions = Atomic.get d.closed;
              events = Atomic.get d.d_events;
              responses = Atomic.get d.d_responses;
              fastpath_hits = Atomic.get d.d_hits;
              searches = Atomic.get d.d_searches;
              nodes = Atomic.get d.d_nodes;
            })
          srv.dstats))

let handshake conn =
  match Wire.recv conn.fd with
  | Wire.Frame (Protocol.Hello { version }) ->
      if version <> Protocol.version then begin
        err conn Protocol.Unsupported_version
          (Fmt.str "client speaks protocol v%d, server v%d" version
             Protocol.version);
        false
      end
      else begin
        send_frame conn (Protocol.Hello { version });
        true
      end
  | Wire.Frame f ->
      err conn Protocol.Bad_magic
        (Fmt.str "first frame must be Hello, got %a" Protocol.pp_frame f);
      false
  | Wire.Malformed msg ->
      err conn Protocol.Bad_magic (Fmt.str "undecodable Hello: %s" msg);
      false

let new_session srv conn sid =
  let key = Atomic.fetch_and_add srv.next_session 1 in
  let monitor = Monitor.create ?max_nodes:srv.cfg.max_nodes () in
  {
    client_sid = sid;
    sconn = conn;
    monitor;
    worker = key mod srv.cfg.domains;
    last = Monitor.snapshot monitor;
    applied = 0;
    journal = None;
    dmode = Protocol.M_full;
    throttles = 0;
    orphaned_at = Float.nan;
    expiring = false;
    retired = false;
  }

let open_session srv conn sid =
  if Hashtbl.mem conn.sessions sid then
    err conn Protocol.Duplicate_session
      (Fmt.str "session %d is already open on this connection" sid)
  else if live_total srv >= srv.cfg.max_sessions then
    err conn Protocol.Overloaded
      (Fmt.str "session limit %d reached; try again later"
         srv.cfg.max_sessions)
  else
    match srv.cfg.journal_dir with
    | None ->
        let s = new_session srv conn sid in
        Hashtbl.replace conn.sessions sid s;
        Atomic.incr srv.dstats.(s.worker).live
    | Some _ -> (
        (* Durable servers have one global session-id namespace. *)
        Mutex.lock srv.reg_mutex;
        match Hashtbl.find_opt srv.durables sid with
        | Some s' ->
            Mutex.unlock srv.reg_mutex;
            err conn Protocol.Duplicate_session
              (if s'.expiring then
                 Fmt.str "durable session %d is being expired; retry" sid
               else if Float.is_nan s'.orphaned_at then
                 Fmt.str "durable session %d exists" sid
               else
                 Fmt.str
                   "durable session %d exists (orphaned; Resume it or wait \
                    for expiry)"
                   sid)
        | None ->
            let s = new_session srv conn sid in
            Hashtbl.replace srv.durables sid s;
            Mutex.unlock srv.reg_mutex;
            Hashtbl.replace conn.sessions sid s;
            Atomic.incr srv.dstats.(s.worker).live;
            Mailbox.put srv.mailboxes.(s.worker) (W_open s))

let handle_resume srv conn sid =
  match srv.cfg.journal_dir with
  | None -> err conn Protocol.Bad_frame "server is not durable (no journal)"
  | Some dir -> (
      match Hashtbl.find_opt conn.sessions sid with
      | Some s ->
          (* Resuming a session already attached here: idempotent ack. *)
          Mailbox.put srv.mailboxes.(s.worker) (W_attach s)
      | None -> (
          Mutex.lock srv.reg_mutex;
          let decision =
            match Hashtbl.find_opt srv.durables sid with
            | Some s when s.expiring ->
                `Err
                  ( Protocol.Unknown_session,
                    Fmt.str "durable session %d expired" sid )
            | Some s
              when Float.is_nan s.orphaned_at
                   && s.sconn != conn && s.sconn.alive ->
                `Err
                  ( Protocol.Duplicate_session,
                    Fmt.str "session %d is attached to a live connection"
                      sid )
            | Some s ->
                (* Reattach: claim it before the old reader's cleanup can
                   orphan it (cleanup checks [sconn == conn] under this
                   mutex). *)
                s.orphaned_at <- Float.nan;
                s.sconn <- conn;
                `Attach s
            | None ->
                if Journal.exists ~dir ~session:sid then
                  if live_total srv >= srv.cfg.max_sessions then
                    `Err
                      ( Protocol.Overloaded,
                        Fmt.str "session limit %d reached; try again later"
                          srv.cfg.max_sessions )
                  else begin
                    let s = new_session srv conn sid in
                    Hashtbl.replace srv.durables sid s;
                    `Recover s
                  end
                else
                  `Err
                    ( Protocol.Unknown_session,
                      Fmt.str "no durable session %d" sid )
          in
          Mutex.unlock srv.reg_mutex;
          match decision with
          | `Err (code, msg) -> err conn code msg
          | `Attach s ->
              Hashtbl.replace conn.sessions sid s;
              Mailbox.put srv.mailboxes.(s.worker) (W_attach s)
          | `Recover s ->
              Hashtbl.replace conn.sessions sid s;
              Atomic.incr srv.dstats.(s.worker).live;
              Mailbox.put srv.mailboxes.(s.worker) (W_recover s)))

(* The admission path: throttling and shedding live here, in the reader,
   because the reader is what sees mailbox pressure.  The reader never
   blocks on a full mailbox: over the high-watermark the frame is discarded
   and answered with [Throttle]/[Shed], so the client can back off and
   re-send idempotently. *)
let handle_events srv conn sid from events =
  match Hashtbl.find_opt conn.sessions sid with
  | None ->
      err conn Protocol.Unknown_session
        (Fmt.str "no open session %d on this connection" sid)
  | Some s when s.dmode = Protocol.M_shed ->
      send_frame conn
        (Protocol.Shed { session = sid; reason = "session is shed" })
  | Some s ->
      let mb = srv.mailboxes.(s.worker) in
      let throttle () =
        s.throttles <- s.throttles + 1;
        if s.throttles >= srv.cfg.throttle_shed then begin
          s.dmode <- Protocol.M_shed;
          srv.cfg.log
            (Fmt.str "session %d: shed after %d consecutive throttles" sid
               s.throttles);
          send_frame conn
            (Protocol.Shed
               {
                 session = sid;
                 reason =
                   Fmt.str "overloaded: %d consecutive throttles" s.throttles;
               })
        end
        else send_frame conn (Protocol.Throttle { session = sid })
      in
      if Mailbox.length mb >= srv.cfg.hwm then throttle ()
      else if not (Mailbox.try_put mb (W_events (s, from, events))) then
        throttle ()
      else if Mailbox.length mb * 2 < srv.cfg.hwm then s.throttles <- 0

let with_session srv conn sid k =
  match Hashtbl.find_opt conn.sessions sid with
  | Some s -> Mailbox.put srv.mailboxes.(s.worker) (k s)
  | None ->
      err conn Protocol.Unknown_session
        (Fmt.str "no open session %d on this connection" sid)

(* An events frame is admitted on its header alone and queued as its
   body; the worker decodes the events. *)
let serve_frames srv conn =
  let continue = ref true in
  while !continue && conn.alive do
    let body = Wire.recv_body conn.fd in
    match Protocol.events_header body with
    | Some (session, from) -> handle_events srv conn session from body
    | None -> (
        match Protocol.decode body with
        | Ok frame -> (
            match frame with
            | Protocol.Open_session { session } ->
                open_session srv conn session
            | Protocol.Events _ | Protocol.Events_at _ ->
                assert false (* taken by [events_header] *)
            | Protocol.Resume { session } ->
                handle_resume srv conn session
            | Protocol.Heartbeat -> send_frame conn Protocol.Heartbeat
            | Protocol.Checkpoint { session; token } ->
                with_session srv conn session (fun s ->
                    W_checkpoint (s, token))
            | Protocol.Close_session { session } -> (
                match Hashtbl.find_opt conn.sessions session with
                | Some s ->
                    Hashtbl.remove conn.sessions session;
                    Mailbox.put srv.mailboxes.(s.worker) (W_close s)
                | None ->
                    err conn Protocol.Unknown_session
                      (Fmt.str "no open session %d on this connection"
                         session))
            | Protocol.Stats_req -> send_frame conn (stats_frame srv)
            | Protocol.Goodbye -> continue := false
            | Protocol.Hello _ | Protocol.Verdict _ | Protocol.Stats _
            | Protocol.Err _ | Protocol.Resumed _ | Protocol.Throttle _
            | Protocol.Shed _ ->
                err conn Protocol.Bad_frame
                  (Fmt.str "unexpected frame %a" Protocol.pp_frame frame))
        | Error msg ->
            (* The stream is still framed: report and keep serving, so one bad
               frame never takes down the connection's other sessions. *)
            srv.cfg.log
              (Fmt.str "conn %d: malformed frame (%s)" conn.conn_id msg);
            err conn Protocol.Bad_frame msg)
  done

let serve_conn srv conn () =
  (try
     if handshake conn then serve_frames srv conn
   with
  | Wire.Closed -> ()
  | Wire.Desync msg ->
      srv.cfg.log (Fmt.str "conn %d: desync (%s), closing" conn.conn_id msg);
      err conn Protocol.Bad_frame msg
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* The read deadline fired: the peer was silent (or dripping nothing)
         past the session timeout. *)
      srv.cfg.log
        (Fmt.str "conn %d: idle past session timeout, closing" conn.conn_id)
  | Unix.Unix_error (e, _, _) ->
      srv.cfg.log
        (Fmt.str "conn %d: %s, closing" conn.conn_id (Unix.error_message e)));
  (* A dead client never wedges a worker.  Non-durable sessions are reaped
     through the same mailboxes as regular closes, after any work already
     enqueued for them; durable sessions become orphans — resumable until
     the sweeper expires them. *)
  conn.alive <- false;
  let durable = srv.cfg.journal_dir <> None in
  Hashtbl.iter
    (fun _ s ->
      if durable then begin
        Mutex.lock srv.reg_mutex;
        if s.sconn == conn && Float.is_nan s.orphaned_at && not s.retired
        then begin
          s.orphaned_at <- Unix.gettimeofday ();
          srv.cfg.log
            (Fmt.str "conn %d: session %d orphaned (resumable)" conn.conn_id
               s.client_sid)
        end;
        Mutex.unlock srv.reg_mutex
      end
      else Mailbox.put srv.mailboxes.(s.worker) (W_reap s))
    conn.sessions;
  Hashtbl.reset conn.sessions;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Mutex.lock srv.conns_mutex;
  Hashtbl.remove srv.conns conn.conn_id;
  Mutex.unlock srv.conns_mutex

(* --- orphan expiry ---------------------------------------------------------- *)

let sweeper srv () =
  (* Tick fast enough that [stop] never waits long, slow enough to cost
     nothing: expiry precision well under a second is meaningless for a
     30-second default timeout anyway. *)
  let tick = Float.max 0.01 (Float.min 0.25 (srv.cfg.session_timeout /. 4.)) in
  while not srv.stopping do
    Thread.delay tick;
    if not srv.stopping then begin
      let now = Unix.gettimeofday () in
      let expired = ref [] in
      Mutex.lock srv.reg_mutex;
      (* lint: allow ordering-nondeterminism — expiry is per-session;
         the collection order of the expired list is immaterial *)
      Hashtbl.iter
        (fun _ s ->
          if
            (not s.expiring)
            && (not (Float.is_nan s.orphaned_at))
            && now -. s.orphaned_at > srv.cfg.session_timeout
          then begin
            s.expiring <- true;
            expired := s :: !expired
          end)
        srv.durables;
      Mutex.unlock srv.reg_mutex;
      List.iter
        (fun s ->
          srv.cfg.log
            (Fmt.str "session %d: orphan expired after %.1fs" s.client_sid
               srv.cfg.session_timeout);
          Mailbox.put srv.mailboxes.(s.worker) (W_expire s))
        !expired
    end
  done

(* --- accept loop ----------------------------------------------------------- *)

let accept_loop srv () =
  while not srv.stopping do
    match Wire.accept srv.listen_fd with
    | fd, _ ->
        Mutex.lock srv.conns_mutex;
        let nconns = Hashtbl.length srv.conns in
        Mutex.unlock srv.conns_mutex;
        if nconns >= srv.cfg.max_conns then begin
          (* Admission control: refuse loudly rather than accept work the
             pool cannot serve. *)
          (try
             Wire.send fd
               (Protocol.Err
                  {
                    code = Protocol.Overloaded;
                    message =
                      Fmt.str "connection limit %d reached" srv.cfg.max_conns;
                  })
           with Unix.Unix_error _ | Sys_error _ -> ());
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
        else begin
          (* Read/write deadlines: a peer that is completely silent — or
             one that never drains its replies — cannot hold the reader
             (or a worker's send) hostage past the session timeout. *)
          (try
             Unix.setsockopt_float fd Unix.SO_RCVTIMEO srv.cfg.session_timeout;
             Unix.setsockopt_float fd Unix.SO_SNDTIMEO srv.cfg.session_timeout
           with Unix.Unix_error _ | Invalid_argument _ -> ());
          let conn =
            {
              fd;
              conn_id = Atomic.fetch_and_add srv.next_conn 1;
              wmutex = Mutex.create ();
              alive = true;
              sessions = Hashtbl.create 8;
            }
          in
          Mutex.lock srv.conns_mutex;
          Hashtbl.replace srv.conns conn.conn_id conn;
          srv.readers <- Thread.create (serve_conn srv conn) () :: srv.readers;
          Mutex.unlock srv.conns_mutex
        end
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* --- lifecycle -------------------------------------------------------------- *)

let start cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listen_fd = Wire.listen cfg.addr in
  let bound =
    match cfg.addr with
    | `Tcp (host, 0) -> (
        match Unix.getsockname listen_fd with
        | Unix.ADDR_INET (_, port) -> `Tcp (host, port)
        | _ -> cfg.addr)
    | addr -> addr
  in
  let mailboxes =
    Array.init cfg.domains (fun _ ->
        Mailbox.create ~capacity:cfg.queue_capacity)
  in
  let dstats = Array.init cfg.domains (fun _ -> dstat ()) in
  let srv =
    {
      cfg;
      listen_fd;
      bound;
      mailboxes;
      dstats;
      stopping = false;
      crashing = false;
      conns = Hashtbl.create 16;
      conns_mutex = Mutex.create ();
      readers = [];
      accept_thread = None;
      sweeper = None;
      threaded = Domain.recommended_domain_count () = 1;
      workers = [||];
      next_conn = Atomic.make 1;
      next_session = Atomic.make 1;
      durables = Hashtbl.create 16;
      reg_mutex = Mutex.create ();
    }
  in
  (* Where the process may use one CPU, a domain per worker could never
     run beside the main domain, and every minor collection would still
     stop both; there the workers are threads of the main domain. *)
  let spawn f =
    if srv.threaded then
      let t = Thread.create f () in
      fun () -> Thread.join t
    else
      let d = Domain.spawn f in
      fun () -> Domain.join d
  in
  srv.workers <- Array.init cfg.domains (fun i -> spawn (worker srv i));
  srv.accept_thread <- Some (Thread.create (accept_loop srv) ());
  if cfg.journal_dir <> None then
    srv.sweeper <- Some (Thread.create (sweeper srv) ());
  srv

let stop ?(drain = true) srv =
  if not srv.stopping then begin
    if not drain then srv.crashing <- true;
    srv.stopping <- true;
    (* Wake the blocked accept: closing the fd does NOT interrupt an
       in-flight accept(2), but shutdown(2) on the listening socket does
       (EINVAL on Linux).  Where shutdown is refused the listener is still
       live, so a self-connect pokes it instead; the stray connection's
       reader sees immediate EOF and cleans itself up below. *)
    (try Unix.shutdown srv.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try Unix.close (Wire.connect srv.bound) with
    | Unix.Unix_error _ | Wire.Closed -> ());
    (match srv.accept_thread with Some t -> Thread.join t | None -> ());
    (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
    (* Wake every reader blocked in a read; their reaps then drain through
       the still-running workers, so no mailbox deadlock. *)
    Mutex.lock srv.conns_mutex;
    (* lint: allow ordering-nondeterminism — every conn gets shut down;
       order is immaterial *)
    let conns = Hashtbl.fold (fun _ c acc -> c :: acc) srv.conns [] in
    let readers = srv.readers in
    Mutex.unlock srv.conns_mutex;
    List.iter
      (fun c ->
        try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    List.iter Thread.join readers;
    (match srv.sweeper with Some t -> Thread.join t | None -> ());
    Array.iter (fun mb -> Mailbox.put mb W_quit) srv.mailboxes;
    Array.iter (fun join -> join ()) srv.workers;
    (* Close surviving durable journals (fds) — the files stay on disk, so
       every orphaned or still-open session remains recoverable by the
       next server on the same journal directory. *)
    Mutex.lock srv.reg_mutex;
    Hashtbl.iter
      (fun _ s ->
        match s.journal with Some j -> Journal.close j | None -> ())
      srv.durables;
    Hashtbl.reset srv.durables;
    Mutex.unlock srv.reg_mutex;
    match srv.cfg.addr with
    | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | `Tcp _ -> ()
  end

let crash srv = stop ~drain:false srv

let stats srv =
  match stats_frame srv with Protocol.Stats ds -> ds | _ -> assert false
