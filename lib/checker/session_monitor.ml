(* One session's stream on one incremental conflict graph, handed to a
   replaying Monitor at the first verdict the graph cannot certify.  See the
   .mli for the contract and the soundness argument. *)

module Inc = Conflict_graph.Inc

type outcome = Monitor.outcome

type mode = Graph of Inc.t | Escalated of Monitor.t

type t = {
  max_nodes : int option;
  mutable mode : mode;
  events : History.Builder.t;  (* the graph's stream, validated *)
  mutable events_seen : int;
  mutable responses_seen : int;
  mutable completed : int;  (* C_k / A_k responses: pending = nodes - this *)
  mutable certifies : int;
  mutable certificate : Serialization.t option;
  mutable certified_at : int;  (* graph events covered by [certificate] *)
  mutable why : string option;
}

let create ?max_nodes () =
  {
    max_nodes;
    mode = Graph (Inc.create ());
    events = History.Builder.create ();
    events_seen = 0;
    responses_seen = 0;
    completed = 0;
    certifies = 0;
    certificate = None;
    certified_at = -1;
    why = None;
  }

let status t =
  match t.mode with Graph _ -> `Ok | Escalated m -> Monitor.status m

let history t =
  match t.mode with
  | Graph _ -> History.Builder.history t.events
  | Escalated m -> Monitor.history m

let violation_index t =
  match t.mode with Graph _ -> None | Escalated m -> Monitor.violation_index m

let events_seen t =
  match t.mode with
  | Graph _ -> t.events_seen
  | Escalated m -> Monitor.events_seen m

let responses_seen t =
  match t.mode with
  | Graph _ -> t.responses_seen
  | Escalated m -> Monitor.responses_seen m

let pending_txns t =
  match t.mode with
  | Graph g -> (Inc.stats g).Conflict_graph.nodes - t.completed
  | Escalated m -> Monitor.pending_txns m

let escalated t = match t.mode with Graph _ -> false | Escalated _ -> true
let escalation t = t.why
let certifies t = t.certifies
let certificate t =
  match t.mode with Graph _ -> t.certificate | Escalated _ -> None

let snapshot t : Monitor.snapshot =
  match t.mode with
  | Escalated m -> Monitor.snapshot m
  | Graph _ ->
      {
        Monitor.events = t.events_seen;
        responses = t.responses_seen;
        fastpath_hits = t.responses_seen;
        searches = t.certifies;
        nodes = 0;
        pending = pending_txns t;
      }

let escalate t why =
  match t.mode with
  | Escalated m -> m
  | Graph _ ->
      t.why <- Some why;
      let m = Monitor.create ?max_nodes:t.max_nodes () in
      ignore (Monitor.push_all m (History.Builder.to_list t.events));
      t.mode <- Escalated m;
      m

(* The graph's verdict on everything pushed so far: a [Sat] that also
   covers every prefix certifies the stream, anything else hands it to a
   monitor. *)
let settle t g =
  match Inc.verdict g with
  | Conflict_graph.Sat s when Inc.prefix_closed g ->
      t.certificate <- Some s;
      t.certified_at <- Inc.events g;
      `Ok
  | Conflict_graph.Sat _ ->
      Monitor.status
        (escalate t
           "the certificate serves a read from a writer that invoked tryC \
            after the read's response, past one of another value, so it \
            need not cover earlier prefixes (repeated values forfeit prefix \
            closure, Corollary 2)")
  | Conflict_graph.Unsat why | Conflict_graph.Ambiguous why ->
      Monitor.status (escalate t why)

let push t ev =
  match t.mode with
  | Escalated m -> Monitor.push m ev
  | Graph g -> (
      t.events_seen <- t.events_seen + 1;
      match History.Builder.add t.events ev with
      | Error _ ->
          (* A monitor rejects this event too, but it may also have failed
             earlier, inside the uncertified window; its replay decides
             both with the right violation index. *)
          Monitor.push (escalate t "ill-formed event") ev
      | Ok () ->
          Inc.push g ev;
          (match ev with
          | Event.Res (_, (Event.Committed | Event.Aborted)) ->
              t.responses_seen <- t.responses_seen + 1;
              t.completed <- t.completed + 1
          | Event.Res (_, (Event.Read_ok _ | Event.Write_ok)) ->
              t.responses_seen <- t.responses_seen + 1
          | Event.Inv _ -> ());
          (* once the graph cannot certify any extension, escalate now:
             the monitor then replays the shortest prefix *)
          if Inc.certifiable g then `Ok else settle t g)

let push_all t events =
  List.fold_left (fun _ ev -> push t ev) (status t) events

let certify t =
  match t.mode with
  | Escalated m -> Monitor.status m
  | Graph g ->
      t.certifies <- t.certifies + 1;
      if t.certified_at = Inc.events g then `Ok else settle t g

(* --- serializable checkpoints ------------------------------------------ *)

let persist t =
  ignore (certify t);
  {
    Monitor.p_max_nodes = t.max_nodes;
    p_events = History.to_list (history t);
    p_status = status t;
    p_violation_index = violation_index t;
    p_counters = snapshot t;
  }

let of_persisted (p : Monitor.persisted) =
  match p.Monitor.p_status with
  | `Violation _ | `Budget _ ->
      (* a recorded failure is adopted exactly as [Monitor.of_persisted]
         adopts it, and the stream stays escalated from the start *)
      Result.map
        (fun m ->
          let t = create ?max_nodes:p.Monitor.p_max_nodes () in
          t.mode <- Escalated m;
          t)
        (Monitor.of_persisted p)
  | `Ok -> (
      let t = create ?max_nodes:p.Monitor.p_max_nodes () in
      ignore (push_all t p.Monitor.p_events);
      match certify t with
      | `Ok -> Ok t
      | `Violation why | `Budget why ->
          Error
            (Fmt.str "corrupt capsule: recorded `Ok but the replay finds: %s"
               why))
