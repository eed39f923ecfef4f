module Monitor = Tm_checker.Monitor
module Client = Tm_service.Client
module Server = Tm_service.Server
module Proxy = Tm_service.Proxy
module Protocol = Tm_service.Protocol
module Wire = Tm_service.Wire

type outcome =
  | Recovered
  | Degraded of int
  | Clean_error of string
  | Wrong of string
  | Hung

let outcome_to_string = function
  | Recovered -> "recovered"
  | Degraded n -> Fmt.str "degraded(prefix=%d)" n
  | Clean_error msg -> Fmt.str "clean-error(%s)" msg
  | Wrong msg -> Fmt.str "WRONG(%s)" msg
  | Hung -> "HUNG"

type round = {
  c_seed : int;
  c_source : string;
  c_plan : string;
  c_events : int;
  c_applied : int;
  c_reconnects : int;
  c_retries : int;
  c_killed : bool;
  c_outcome : outcome;
  c_seconds : float;
}

type report = {
  rounds : round list;
  recovered : int;
  degraded : int;
  clean_errors : int;
  wrong : int;
  hangs : int;
}

type config = {
  source : Oracle.source;
  seeds : int list;
  kinds : Proxy.kind list;
  points : int;
  kill_every : int;  (* 0 = never; else every k-th round kills the server *)
  max_nodes : int;
  deadline : float;  (* per-round hang watchdog, seconds *)
  scratch : string option;
  log : string -> unit;
}

let config ?(source = `Faults "tl2") ?(seeds = List.init 10 (fun i -> i + 1))
    ?(kinds = Proxy.all_kinds) ?(points = 2) ?(kill_every = 3)
    ?(max_nodes = 2_000_000) ?(deadline = 30.) ?scratch ?(log = ignore) () =
  {
    source;
    seeds;
    kinds;
    points;
    kill_every;
    max_nodes;
    deadline;
    scratch;
    log;
  }

(* --- scratch directories --------------------------------------------------- *)

let rec mkdirs dir =
  if dir <> Filename.dirname dir && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* --- arbitration ----------------------------------------------------------- *)

let status_agrees (st : Protocol.status) (o : Monitor.outcome) =
  match (st, o) with
  | Protocol.S_ok, `Ok -> true
  | Protocol.S_violation _, `Violation _ -> true
  | Protocol.S_budget _, `Budget _ -> true
  | _ -> false

let pp_status_outcome ppf ((st : Protocol.status), (o : Monitor.outcome)) =
  Fmt.pf ppf "service=%a offline=%s" Protocol.pp_status st
    (match o with
    | `Ok -> "ok"
    | `Violation w -> Fmt.str "violation(%s)" w
    | `Budget w -> Fmt.str "budget(%s)" w)

let offline_verdict ~max_nodes events =
  let m = Monitor.create ~max_nodes () in
  ignore (Monitor.push_all m events);
  Monitor.status m

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

(* Judge a completed submission against the offline monitor.  The contract
   under chaos: a full run must carry the exact offline verdict; a shed run
   must carry the offline verdict of exactly the prefix it claims
   ([applied]); anything else is a wrong verdict — the one outcome the
   service must never produce. *)
let arbitrate ~max_nodes ~events (r : Client.durable_report) =
  let v = r.Client.verdict in
  match r.Client.shed_reason with
  | None ->
      let expected = offline_verdict ~max_nodes events in
      if v.Protocol.applied <> List.length events then
        Wrong
          (Fmt.str "full run applied %d of %d events" v.Protocol.applied
             (List.length events))
      else if status_agrees v.Protocol.status expected then Recovered
      else
        Wrong
          (Fmt.str "verdict mismatch: %a"
             pp_status_outcome
             (v.Protocol.status, expected))
  | Some _ ->
      let prefix = take v.Protocol.applied events in
      let expected = offline_verdict ~max_nodes prefix in
      if status_agrees v.Protocol.status expected then
        Degraded v.Protocol.applied
      else
        Wrong
          (Fmt.str "shed verdict wrong for its %d-event prefix: %a"
             v.Protocol.applied pp_status_outcome
             (v.Protocol.status, expected))

(* --- one chaos round ------------------------------------------------------- *)

let run_round cfg ~seed =
  let t0 = Unix.gettimeofday () in
  let events = History.to_list (Oracle.produce cfg.source ~seed) in
  let n = List.length events in
  let base =
    match cfg.scratch with
    | Some d -> d
    | None -> Filename.get_temp_dir_name ()
  in
  let dir =
    Filename.concat base (Fmt.str "tm-chaos-%d-s%d" (Unix.getpid ()) seed)
  in
  rm_rf dir;
  mkdirs dir;
  let sock_server = `Unix (Filename.concat dir "server.sock") in
  let sock_proxy = `Unix (Filename.concat dir "proxy.sock") in
  let journal_dir = Filename.concat dir "journal" in
  let scfg =
    Server.config ~domains:2 ~max_nodes:cfg.max_nodes ~journal_dir
      ~session_timeout:10. ~log:cfg.log sock_server
  in
  let srv = ref (Server.start scfg) in
  let srv_mutex = Mutex.create () in
  let plan = Proxy.sample ~kinds:cfg.kinds ~points:cfg.points ~seed () in
  let px =
    Proxy.start ~plan ~log:cfg.log ~listen:sock_proxy ~upstream:sock_server ()
  in
  let kill_round = cfg.kill_every > 0 && seed mod cfg.kill_every = 0 in
  let killed = ref false in
  let finished = ref false in
  (* The killer waits until the server has durably applied some real work,
     then crashes it (dropping everything queued but not journalled) and
     starts a fresh server on the same journal directory and address —
     the client must resume through a journal replay. *)
  let killer =
    if not kill_round then None
    else
      Some
        (Thread.create
           (fun () ->
             let threshold = max 1 (n / 4) in
             let rec wait () =
               if !finished then ()
               else begin
                 let applied =
                   List.fold_left
                     (fun acc (d : Protocol.domain_stats) ->
                       acc + d.Protocol.events)
                     0
                     (Server.stats !srv)
                 in
                 if applied >= threshold then begin
                   Mutex.lock srv_mutex;
                   Server.crash !srv;
                   srv := Server.start scfg;
                   Mutex.unlock srv_mutex;
                   killed := true;
                   cfg.log
                     (Fmt.str "seed %d: server killed at >=%d events and \
                               restarted"
                        seed threshold)
                 end
                 else begin
                   Thread.delay 0.001;
                   wait ()
                 end
               end
             in
             wait ())
           ())
  in
  let backoff =
    { Client.attempts = 14; base_ms = 5; max_ms = 200; jitter = 0.5 }
  in
  let result = ref None in
  let worker =
    Thread.create
      (fun () ->
        let r =
          match
            Client.submit_durable ~session:1 ~chunk:32 ~checkpoint_every:2
              ~backoff ~seed
              ~connect:(fun () ->
                Client.connect_retry ~backoff ~seed sock_proxy)
              events
          with
          | report ->
              ( arbitrate ~max_nodes:cfg.max_nodes ~events report,
                report.Client.reconnects,
                report.Client.retries )
          | exception (Client.Server_error msg | Client.Refused msg) ->
              (Clean_error msg, 0, 0)
          | exception Unix.Unix_error (e, _, _) ->
              (Clean_error (Unix.error_message e), 0, 0)
          | exception Wire.Closed -> (Clean_error "connection closed", 0, 0)
          | exception Wire.Desync msg ->
              (Clean_error (Fmt.str "desync: %s" msg), 0, 0)
        in
        result := Some r)
      ()
  in
  (* Hang watchdog: polling join with a deadline.  OCaml's Condition has no
     timed wait; 10 ms polling is plenty for a 30 s deadline. *)
  let deadline = Unix.gettimeofday () +. cfg.deadline in
  let rec wait_worker () =
    if !result <> None then Thread.join worker
    else if Unix.gettimeofday () > deadline then ()
    else begin
      Thread.delay 0.01;
      wait_worker ()
    end
  in
  wait_worker ();
  finished := true;
  (match killer with Some t -> Thread.join t | None -> ());
  let outcome, reconnects, retries =
    match !result with Some r -> r | None -> (Hung, 0, 0)
  in
  Proxy.stop px;
  Mutex.lock srv_mutex;
  Server.stop !srv;
  Mutex.unlock srv_mutex;
  (* A hung worker thread is itself the finding; the teardown above wakes
     it (sockets die), and the round reports [Hung] regardless. *)
  if outcome = Hung then (try Thread.join worker with Sys_error _ -> ());
  rm_rf dir;
  {
    c_seed = seed;
    c_source = Oracle.source_tag cfg.source;
    c_plan = Fmt.str "%a" Proxy.pp_plan plan;
    c_events = n;
    c_applied = (match outcome with Degraded a -> a | _ -> n);
    c_reconnects = reconnects;
    c_retries = retries;
    c_killed = !killed;
    c_outcome = outcome;
    c_seconds = Unix.gettimeofday () -. t0;
  }

let run cfg =
  let rounds = List.map (fun seed -> run_round cfg ~seed) cfg.seeds in
  let count p = List.length (List.filter p rounds) in
  {
    rounds;
    recovered = count (fun r -> r.c_outcome = Recovered);
    degraded =
      count (fun r -> match r.c_outcome with Degraded _ -> true | _ -> false);
    clean_errors =
      count (fun r ->
          match r.c_outcome with Clean_error _ -> true | _ -> false);
    wrong =
      count (fun r -> match r.c_outcome with Wrong _ -> true | _ -> false);
    hangs = count (fun r -> r.c_outcome = Hung);
  }

let pp_round ppf r =
  Fmt.pf ppf "%4d  %-36s %6d %6d %4s  %s" r.c_seed r.c_plan r.c_events
    r.c_applied
    (if r.c_killed then "kill" else "-")
    (outcome_to_string r.c_outcome)

let pp_report ppf rep =
  Fmt.pf ppf "%4s  %-36s %6s %6s %4s  %s@." "seed" "plan" "events" "applied"
    "kill" "outcome";
  List.iter (fun r -> Fmt.pf ppf "%a@." pp_round r) rep.rounds;
  Fmt.pf ppf
    "# %d rounds: %d recovered, %d degraded, %d clean errors, %d WRONG, %d \
     HUNG"
    (List.length rep.rounds)
    rep.recovered rep.degraded rep.clean_errors rep.wrong rep.hangs
