(* End-to-end load for the `tm serve` workload.  The server is a
   `tm serve` process behind a Unix-domain socket; clients reach it only
   through the wire protocol, so it sees nothing but the recorded events.
   (Over loopback TCP each verdict would wait on Nagle's algorithm: the
   server does not set TCP_NODELAY on accepted sockets, so latency would
   track the client's next send rather than the server's work.)
   Every verdict is compared with the offline Monitor's outcome on the
   same stream. *)

open Tm_safety
module P = Service.Protocol
module C = Service.Client
module Wire = Service.Wire

(* Sessions or checks attempted and failed (verdict mismatch, error,
   shed, hang), shared by client threads. *)
module Tally = struct
  let lock = Mutex.create ()
  let attempted = ref 0
  let failed = ref 0
  let throttles = ref 0
  let sheds = ref 0
  let notes = ref []

  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

  let attempt () = locked (fun () -> incr attempted)

  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        locked (fun () ->
            incr failed;
            if List.length !notes < 20 then notes := msg :: !notes))
      fmt
end

let status_of : Monitor.outcome -> P.status = function
  | `Ok -> P.S_ok
  | `Violation why -> P.S_violation why
  | `Budget why -> P.S_budget why

(* The offline ground truth every service verdict is compared with. *)
let expected (s : Inputs.stream) =
  status_of (Monitor.push_all (Monitor.create ()) s.Inputs.events)

let chunk = 512

(* --- the server process ---------------------------------------------- *)

type config = {
  tm : string;  (* the tm executable *)
  cpus : string;  (* taskset CPU list for the server; "" = unpinned *)
  socket : string;
}

type server = { pid : int; out : in_channel }

let addr cfg = `Unix cfg.socket

(* Servers not yet stopped, killed if the benchmark exits early. *)
let live = ref []

let start cfg =
  (* one session domain and one shard: the machine has two cores, and
     the generator needs one *)
  let args =
    [ cfg.tm; "serve"; "--unix"; cfg.socket; "--domains"; "1"; "--shards"; "1";
      "--queue"; "1024"; "--quiet" ]
  in
  let args = if cfg.cpus = "" then args else "taskset" :: "-c" :: cfg.cpus :: args in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process (List.hd args) (Array.of_list args) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  live := pid :: !live;
  let out = Unix.in_channel_of_descr r in
  (* `tm serve` prints its listening line once the socket accepts *)
  match input_line out with
  | l when String.starts_with ~prefix:"tm serve: listening" l -> { pid; out }
  | l -> failwith ("tm serve: " ^ l)
  | exception End_of_file -> failwith "tm serve exited before listening"

(* The highest peak resident memory of any server stopped so far. *)
let server_peak_mb = ref 0.

(* Servers are stopped with SIGKILL once every session is closed, which
   loses nothing.  `tm serve`'s SIGTERM handler runs Server.stop on
   whichever thread takes the signal and can fail on a server mutex that
   thread already holds, leaving the process up. *)
let stop srv =
  let mb = Measure.peak_rss_mb ~pid:(string_of_int srv.pid) () in
  if not (Float.is_nan mb) then server_peak_mb := Float.max !server_peak_mb mb;
  (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] srv.pid);
  live := List.filter (( <> ) srv.pid) !live;
  close_in_noerr srv.out

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let check_final (s : Inputs.stream) want (v : P.verdict) =
  if v.P.status <> want || v.P.events <> s.Inputs.len || v.P.mode <> P.M_full
     || v.P.applied <> s.Inputs.len
  then
    Tally.fail "%s: final verdict %s after %d/%d events" s.Inputs.name
      (Format.asprintf "%a" P.pp_status v.P.status)
      v.P.events s.Inputs.len

let close_quietly c = try C.close c with _ -> ()

(* One short session through a fresh connection: the warm-up of every
   set-up and the probe behind the restart latency. *)
let probe addr (s : Inputs.stream) =
  let c = C.connect addr in
  let events = Measure.take chunk s.Inputs.events in
  C.open_session c 1;
  C.send_events ~chunk c 1 events;
  let v = C.close_session c 1 in
  close_quietly c;
  if v.P.events <> List.length events then
    Tally.fail "probe %s: verdict covers %d events" s.Inputs.name v.P.events

(* In-memory cold start: start a second server beside the running one,
   time until a fresh session's verdict arrives, and stop it.  In-memory
   sessions do not survive a restart, so coming back means serving new
   sessions. *)
let cold_start_ms cfg (s : Inputs.stream) =
  let t0 = Measure.now () in
  let srv = start cfg in
  probe (addr cfg) s;
  let dt = Measure.now () -. t0 in
  stop srv;
  dt *. 1e3

(* --- open loop ----------------------------------------------------------- *)

(* One connection carries every session.  The calling thread sends on a
   schedule and a reader thread collects verdicts, so a slow server delays
   verdicts, never arrivals.  A session the server throttled or shed has
   lost frames: it marks its step as overloaded instead of failing the run,
   and its verdict is not compared. *)
type sess = {
  stream : Inputs.stream;
  want : P.status;
  due : float;
  mutable sent : float;
  mutable answered : float;  (* nan until the final verdict *)
  mutable overloaded : bool;
}

type loop = {
  fd : Unix.file_descr;
  lock : Mutex.t;
  live : (int, sess) Hashtbl.t;  (* sent and not yet answered *)
  mutable next_sid : int;
  mutable closing : bool;
  pool : (Inputs.stream * P.status * Event.t list list) array;
  mutable reader : Thread.t option;
}

let locked lp f =
  Mutex.lock lp.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lp.lock) f

let overload lp sid =
  locked lp (fun () ->
      Option.iter (fun s -> s.overloaded <- true) (Hashtbl.find_opt lp.live sid))

let read_verdicts lp =
  let finished () = locked lp (fun () -> lp.closing && Hashtbl.length lp.live = 0) in
  try
    while not (finished ()) do
      match Unix.select [ lp.fd ] [] [] 0.05 with
      | [], _, _ -> ()
      | _ -> (
          match Wire.recv lp.fd with
          | Wire.Frame (P.Verdict v) when v.P.token = 0 -> (
              let t = Measure.now () in
              (* answered before it leaves [live], which the sender waits on *)
              let s =
                locked lp (fun () ->
                    let s = Hashtbl.find_opt lp.live v.P.session in
                    Option.iter (fun s -> s.answered <- t) s;
                    Hashtbl.remove lp.live v.P.session;
                    s)
              in
              match s with
              | Some s -> if not s.overloaded then check_final s.stream s.want v
              | None -> Tally.fail "open: verdict for unknown session %d" v.P.session)
          | Wire.Frame (P.Throttle { session; _ }) ->
              Tally.locked (fun () -> incr Tally.throttles);
              overload lp session
          | Wire.Frame (P.Shed { session; _ }) ->
              Tally.locked (fun () -> incr Tally.sheds);
              overload lp session
          | Wire.Frame (P.Err { message; _ }) -> Tally.fail "open: error %s" message
          | Wire.Frame _ -> ()
          | Wire.Malformed msg -> Tally.fail "open: malformed frame %s" msg)
    done
  with e ->
    Tally.fail "open: connection lost: %s" (Printexc.to_string e);
    locked lp (fun () -> lp.closing <- true)

let connect_loop ~addr ~(pool : Inputs.stream array) ~want =
  let fd = Wire.connect addr in
  Wire.send fd (P.Hello { version = P.version });
  (match Wire.recv fd with
  | Wire.Frame (P.Hello _) -> ()
  | _ -> failwith "open loop: handshake refused");
  let lp =
    {
      fd;
      lock = Mutex.create ();
      live = Hashtbl.create 64;
      next_sid = 1;
      closing = false;
      pool = Array.mapi (fun i s -> (s, want.(i), Measure.chunks chunk s.Inputs.events)) pool;
      reader = None;
    }
  in
  lp.reader <- Some (Thread.create read_verdicts lp);
  lp

(* Send the next pool session, due at [due]. *)
let send lp due =
  let sid = lp.next_sid in
  lp.next_sid <- sid + 1;
  let stream, want, frames = lp.pool.((sid - 1) mod Array.length lp.pool) in
  let s = { stream; want; due; sent = Measure.now (); answered = nan; overloaded = false } in
  locked lp (fun () -> Hashtbl.replace lp.live sid s);
  Span.run ~session:sid "client.send" (fun () ->
      Wire.send_many lp.fd
        ((P.Open_session { session = sid }
         :: List.map (fun events -> P.Events { session = sid; events }) frames)
        @ [ P.Close_session { session = sid } ]));
  s

(* Poll until fewer than [n] sessions are unanswered, the connection is
   lost, or [timeout] seconds pass. *)
let await lp ~below:n ~timeout =
  let until = Measure.now () +. timeout in
  while
    locked lp (fun () -> Hashtbl.length lp.live >= n && not lp.closing)
    && Measure.now () < until
  do
    Thread.delay 0.0002
  done

(* Wait until every sent session is answered, at most [timeout] seconds;
   a session still unanswered then is a hang unless it was overloaded. *)
let drain lp ~timeout =
  await lp ~below:1 ~timeout;
  let left = locked lp (fun () -> Hashtbl.fold (fun sid s acc -> (sid, s) :: acc) lp.live []) in
  List.iter
    (fun (sid, s) ->
      if not s.overloaded then Tally.fail "open: session %d never answered" sid;
      locked lp (fun () -> Hashtbl.remove lp.live sid))
    left

let close_loop lp =
  drain lp ~timeout:5.;
  locked lp (fun () -> lp.closing <- true);
  Option.iter Thread.join lp.reader;
  (try Wire.send lp.fd P.Goodbye with _ -> ());
  Unix.close lp.fd

let mean_len lp =
  float_of_int (Array.fold_left (fun a (s, _, _) -> a + s.Inputs.len) 0 lp.pool)
  /. float_of_int (Array.length lp.pool)

type step = {
  rate : float;  (* offered events/s *)
  lat_ms : float list;  (* due -> verdict, answered sessions in due order *)
  lag_ms : float list;  (* send start - due *)
  passed : bool;
  why : string;  (* why it did not pass *)
}

(* Offer [rate] events/s for [span] seconds: a session is due every
   [mean_len / rate] seconds whatever the server does, and latency runs
   from the due time.  The step passes when every session is answered in
   full, the tail stays within [limit_ms] and the backlog does not grow.
   Once the oldest unanswered session is [4 * limit_ms] late the server
   cannot keep up and the step stops early, before the admission path
   starts discarding frames. *)
let step lp ~rate ~span ~limit_ms =
  let gap = mean_len lp /. rate in
  let count = max 1 (int_of_float (span /. gap)) in
  let t0 = Measure.now () +. 0.005 in
  let oldest () =
    locked lp (fun () -> Hashtbl.fold (fun _ s acc -> Float.min acc s.due) lp.live infinity)
  in
  let rec go j acc =
    if j = count then (acc, false)
    else begin
      let due = t0 +. (float_of_int j *. gap) in
      let wait = due -. Measure.now () in
      if wait > 0. then Thread.delay wait;
      if (Measure.now () -. oldest ()) *. 1e3 > 4. *. limit_ms then (acc, true)
      else go (j + 1) (send lp due :: acc)
    end
  in
  let sessions, stopped = go 0 [] in
  drain lp ~timeout:5.;
  let sessions = List.rev sessions in
  Tally.locked (fun () -> Tally.attempted := !Tally.attempted + List.length sessions);
  let answered = List.filter (fun s -> not (Float.is_nan s.answered)) sessions in
  let lat_ms = List.map (fun s -> (s.answered -. s.due) *. 1e3) answered in
  let third k =
    let m = max 1 (List.length lat_ms / 3) in
    Measure.median (List.filteri (fun j _ -> j / m = k) lat_ms)
  in
  (* a backlog that grows over the step shows as late sessions running
     well behind early ones *)
  let growing = List.length lat_ms >= 9 && third 2 -. third 0 > limit_ms /. 2. in
  let tail, _, _, _ = Measure.block_tail lat_ms in
  let why =
    if stopped then "backlog"
    else if List.exists (fun s -> s.overloaded) sessions then "throttled"
    else if List.length answered < List.length sessions then "unanswered"
    else if tail > limit_ms then "tail over limit"
    else if growing then "growing backlog"
    else ""
  in
  {
    rate;
    lat_ms;
    lag_ms = List.map (fun s -> (s.sent -. s.due) *. 1e3) sessions;
    passed = why = "";
    why;
  }

(* The answered rate at saturation: [window] sessions always outstanding,
   each sent as soon as one is answered, for [span] seconds. *)
let saturate lp ~window ~span =
  let t0 = Measure.now () in
  let sessions = ref [] in
  while Measure.now () -. t0 < span do
    await lp ~below:window ~timeout:5.;
    sessions := send lp (Measure.now ()) :: !sessions
  done;
  drain lp ~timeout:5.;
  Tally.locked (fun () -> Tally.attempted := !Tally.attempted + List.length !sessions);
  let events, last =
    List.fold_left
      (fun (e, last) s ->
        if Float.is_nan s.answered then (e, last)
        else (e + s.stream.Inputs.len, Float.max last s.answered))
      (0, t0) !sessions
  in
  if List.exists (fun s -> s.overloaded) !sessions then
    Tally.fail "saturation: the server throttled with %d sessions outstanding" window;
  float_of_int events /. (last -. t0)
