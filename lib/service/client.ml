exception Server_error of string
exception Refused of string

let error_of = function
  | Protocol.Err { code; message } ->
      Server_error (Fmt.str "%a: %s" Protocol.pp_error_code code message)
  | f -> Server_error (Fmt.str "unexpected frame %a" Protocol.pp_frame f)

type t = {
  fd : Unix.file_descr;
  mutable keepalive : bool;  (* heartbeat while waiting for a reply? *)
  mutable next_token : int;
  mutable closed : bool;
  mutable throttled : int;  (* Throttle frames seen on this connection *)
  mutable shed : string option;  (* Shed reason, once received *)
}

(* Waiting for a verdict can legitimately take a while — the server's
   monitor is chewing a large backlog — but the server's read deadline
   (its slow-loris defense) reaps any connection that stays *silent* that
   long.  So every client wait heartbeats: block in [recv] for at most the
   heartbeat interval, and on each expiry send a [Heartbeat] to prove
   liveness.  The server echoes it, and every wait loop absorbs echoes.
   A server that stays mute through [keepalive_patience] heartbeats is
   declared unresponsive rather than hanging the client forever.

   Durable-session connections run with [keepalive = false]: if the
   request frame itself was lost in transit (network faults), heartbeats
   would hold the dead-ended connection open forever — the server sees a
   live, chatty client with nothing to answer.  Staying silent instead
   lets the server's idle deadline close the connection, and the client's
   reconnect + [Resume] repairs the session. *)
let keepalive_patience = 120

let recv_frame t =
  if not t.keepalive then
    match Wire.recv t.fd with
    | Wire.Frame f -> f
    | Wire.Malformed msg ->
        raise (Server_error (Fmt.str "malformed server frame: %s" msg))
  else begin
    Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO Protocol.default_heartbeat;
    let rec go beats =
      match Wire.recv t.fd with
      | Wire.Frame f -> f
      | Wire.Malformed msg ->
          raise (Server_error (Fmt.str "malformed server frame: %s" msg))
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          if beats >= keepalive_patience then
            raise
              (Server_error
                 (Fmt.str "server unresponsive for %.0f s"
                    (float_of_int keepalive_patience
                    *. Protocol.default_heartbeat)));
          Wire.send t.fd Protocol.Heartbeat;
          go (beats + 1)
    in
    go 0
  end

(* --- bounded exponential backoff with deterministic jitter ---------------- *)

type backoff = {
  attempts : int;  (* give up after this many consecutive failures *)
  base_ms : int;
  max_ms : int;
  jitter : float;  (* fraction of the delay that is randomised, [0,1] *)
}

let default_backoff = { attempts = 8; base_ms = 25; max_ms = 2000; jitter = 0.5 }

(* splitmix64 finalizer: seed-deterministic jitter, so retry schedules are
   reproducible in tests yet de-synchronised between clients. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 33)) 0xff51afd7ed558ccdL in
  let z = mul (logxor z (shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
  logxor z (shift_right_logical z 33)

let backoff_delay_ms b ~seed ~attempt =
  let cap = min b.max_ms (b.base_ms * (1 lsl min attempt 16)) in
  let h =
    Int64.to_int (mix64 (Int64.of_int ((seed * 1_000_003) + attempt)))
    land 0xffff
  in
  let frac = float_of_int h /. 65536. in
  let lo = float_of_int cap *. (1. -. b.jitter) in
  int_of_float (lo +. ((float_of_int cap -. lo) *. frac))

(* --- connection ------------------------------------------------------------ *)

let connect addr =
  let fd = Wire.connect addr in
  let t =
    { fd; keepalive = true; next_token = 1; closed = false; throttled = 0;
      shed = None }
  in
  Wire.send fd (Protocol.Hello { version = Protocol.version });
  (* The reply is read blocking, before [recv_frame] ever puts a receive
     timeout on the fd: a caller that then turns keepalive off (as
     [submit_durable] does) must get untimed, silent waits. *)
  let refuse exn =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise exn
  in
  match Wire.recv fd with
  | Wire.Frame (Protocol.Hello { version }) when version = Protocol.version -> t
  | Wire.Frame (Protocol.Err { code = Protocol.Unsupported_version; message })
    ->
      refuse (Refused message)
  | Wire.Frame f -> refuse (error_of f)
  | Wire.Malformed msg ->
      refuse (Server_error (Fmt.str "malformed server frame: %s" msg))

let connect_retry ?(backoff = default_backoff) ?(seed = 0) addr =
  let rec go attempt =
    match connect addr with
    | t -> t
    | exception ((Unix.Unix_error _ | Wire.Closed | Sys_error _) as e) ->
        if attempt >= backoff.attempts then raise e;
        Thread.delay
          (float_of_int (backoff_delay_ms backoff ~seed ~attempt) /. 1000.);
        go (attempt + 1)
  in
  go 0

let throttled t = t.throttled
let shed t = t.shed

let open_session t session =
  Wire.send t.fd (Protocol.Open_session { session })

let rec split n acc rest =
  match rest with
  | [] -> (List.rev acc, [])
  | _ when n = 0 -> (List.rev acc, rest)
  | ev :: rest -> split (n - 1) (ev :: acc) rest

let send_events ?(chunk = 512) t session events =
  let rec go = function
    | [] -> ()
    | events ->
        let batch, rest = split chunk [] events in
        Wire.send t.fd (Protocol.Events { session; events = batch });
        go rest
  in
  go events

let send_events_at ?(chunk = 512) t session ~from events =
  let rec go from = function
    | [] -> ()
    | events ->
        let batch, rest = split chunk [] events in
        Wire.send t.fd (Protocol.Events_at { session; from; events = batch });
        go (from + List.length batch) rest
  in
  go from events

(* Requests and replies are strictly alternating from this client, so the
   next Verdict frame is ours; asynchronous control frames (Throttle,
   Shed, Heartbeat echoes) are absorbed into the connection's counters on
   the way; Error frames raise. *)
let rec await_verdict t session token =
  match recv_frame t with
  | Protocol.Verdict v
    when v.Protocol.session = session && v.Protocol.token = token ->
      v
  | Protocol.Verdict _ ->
      (* a stale reply (e.g. a final verdict racing a reap): skip *)
      await_verdict t session token
  | Protocol.Throttle _ ->
      t.throttled <- t.throttled + 1;
      await_verdict t session token
  | Protocol.Shed { reason; _ } ->
      if t.shed = None then t.shed <- Some reason;
      await_verdict t session token
  | Protocol.Heartbeat | Protocol.Resumed _ -> await_verdict t session token
  | f -> raise (error_of f)

let checkpoint t session =
  let token = t.next_token in
  t.next_token <- token + 1;
  Wire.send t.fd (Protocol.Checkpoint { session; token });
  await_verdict t session token

let close_session t session =
  Wire.send t.fd (Protocol.Close_session { session });
  await_verdict t session 0

let resume t session =
  Wire.send t.fd (Protocol.Resume { session });
  let rec wait () =
    match recv_frame t with
    | Protocol.Resumed { session = s; applied; mode; status } when s = session
      ->
        Ok (applied, mode, status)
    | Protocol.Err { code; message } -> Error (code, message)
    | Protocol.Throttle _ ->
        t.throttled <- t.throttled + 1;
        wait ()
    | Protocol.Shed { reason; _ } ->
        if t.shed = None then t.shed <- Some reason;
        wait ()
    | Protocol.Heartbeat | Protocol.Verdict _ | Protocol.Resumed _ -> wait ()
    | f -> raise (error_of f)
  in
  wait ()

let ping t =
  Wire.send t.fd Protocol.Heartbeat;
  let rec wait () =
    match recv_frame t with
    | Protocol.Heartbeat -> ()
    | Protocol.Throttle _ ->
        t.throttled <- t.throttled + 1;
        wait ()
    | Protocol.Shed { reason; _ } ->
        if t.shed = None then t.shed <- Some reason;
        wait ()
    | Protocol.Verdict _ | Protocol.Resumed _ -> wait ()
    | f -> raise (error_of f)
  in
  wait ()

let stats t =
  Wire.send t.fd Protocol.Stats_req;
  let rec wait () =
    match recv_frame t with
    | Protocol.Stats ds -> ds
    | Protocol.Throttle _ ->
        t.throttled <- t.throttled + 1;
        wait ()
    | Protocol.Heartbeat | Protocol.Verdict _ -> wait ()
    | f -> raise (error_of f)
  in
  wait ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try Wire.send t.fd Protocol.Goodbye
     with Unix.Unix_error _ | Sys_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let fd t = t.fd

(* One-shot convenience used by [tm submit]: stream a whole history into a
   fresh session and return the final verdict. *)
let submit ?(session = 1) ?chunk t h =
  open_session t session;
  send_events ?chunk t session (History.to_list h);
  close_session t session

(* --- durable submission ---------------------------------------------------- *)

type durable_report = {
  verdict : Protocol.verdict;
  reconnects : int;
  retries : int;  (* throttle-induced re-send rounds *)
  shed_reason : string option;
}

let submit_durable ?(session = 1) ?(chunk = 256) ?(checkpoint_every = 4)
    ?(backoff = default_backoff) ?(seed = 0) ~connect:connect_fn events =
  let arr = Array.of_list events in
  let n = Array.length arr in
  let reconnects = ref 0 in
  let retries = ref 0 in
  let shed_reason = ref None in
  let attempt = ref 0 in
  let best = ref 0 in  (* highest server-acknowledged applied index *)
  let last_err = ref None in
  let exception Exhausted in
  let sleep () =
    if !attempt >= backoff.attempts then raise Exhausted;
    Thread.delay
      (float_of_int (backoff_delay_ms backoff ~seed ~attempt:!attempt)
      /. 1000.);
    incr attempt
  in
  (* Connect (or reconnect) and find out where the server stands: [Resume]
     answers with the durably-applied index, the authoritative re-send
     point.  A session the server never heard of, or a server that is not
     durable, starts fresh from 0 — correct because a fresh session means
     a fresh monitor, so the whole stream must flow again. *)
  let connect_sess () =
    let c = connect_fn () in
    (* Silent waits: let the server's idle deadline break a dead-ended
       connection; reconnect + Resume is this path's recovery story. *)
    c.keepalive <- false;
    match resume c session with
    | Ok (applied, mode, _status) ->
        if mode = Protocol.M_shed && !shed_reason = None then
          shed_reason := Some "resumed into a shed session";
        best := applied;
        (c, applied)
    | Error ((Protocol.Unknown_session | Protocol.Bad_frame), _) ->
        open_session c session;
        best := 0;
        (c, 0)
    | Error (code, msg) ->
        close c;
        raise
          (Server_error (Fmt.str "%a: %s" Protocol.pp_error_code code msg))
  in
  (* One round: stream a checkpoint window of events, then ask for a
     verdict and adopt the server's applied index — anything it discarded
     under load is simply re-sent next round, idempotently. *)
  let round c cursor =
    let upto = min n (cursor + (chunk * checkpoint_every)) in
    let rec send i =
      if i < upto then begin
        let k = min chunk (upto - i) in
        send_events_at c session ~from:i (Array.to_list (Array.sub arr i k));
        send (i + k)
      end
    in
    send cursor;
    let v = checkpoint c session in
    (match shed c with
    | Some r when !shed_reason = None -> shed_reason := Some r
    | _ -> ());
    if v.Protocol.mode = Protocol.M_shed && !shed_reason = None then
      shed_reason := Some "session shed by server";
    let applied = v.Protocol.applied in
    best := max !best applied;
    if applied <= cursor && upto > cursor && !shed_reason = None then begin
      incr retries;
      sleep ()  (* the whole window was throttled away: back off *)
    end
    else attempt := 0;
    max cursor applied
  in
  let rec drive c cursor =
    if !shed_reason <> None || cursor >= n then begin
      let v = close_session c session in
      close c;
      {
        verdict = v;
        reconnects = !reconnects;
        retries = !retries;
        shed_reason = !shed_reason;
      }
    end
    else drive c (round c cursor)
  in
  (* Retryable failures: transport errors, and [Server_error] — a
     network-duplicated or dropped frame can poison one connection's
     request/response pairing, which a fresh connection repairs.  Genuinely
     persistent errors simply exhaust the bounded budget and surface in
     the give-up diagnostic; a version mismatch ([Refused]) is known to be
     permanent and escapes at once. *)
  let cur = ref None in
  let drop_conn () =
    (match !cur with Some c -> close c | None -> ());
    cur := None
  in
  let rec session_loop () =
    match
      let c, applied = connect_sess () in
      cur := Some c;
      drive c applied
    with
    | report ->
        cur := None;
        report
    | exception (Wire.Closed | Wire.Desync _ | Unix.Unix_error _ | Sys_error _)
      ->
        drop_conn ();
        incr reconnects;
        sleep ();
        session_loop ()
    | exception Server_error msg ->
        drop_conn ();
        last_err := Some msg;
        incr reconnects;
        sleep ();
        session_loop ()
  in
  try session_loop ()
  with Exhausted ->
    raise
      (Server_error
         (Fmt.str "giving up after %d retries (%d/%d events applied)%s"
            backoff.attempts !best n
            (match !last_err with
            | Some m -> Fmt.str "; last error: %s" m
            | None -> "")))
