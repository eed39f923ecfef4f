type outcome = [ `Ok | `Violation of string | `Budget of string ]

module Inc = Conflict_graph.Inc

(* One stream on one incremental conflict graph.  See the .mli for the
   contract.  The search context is created and synced only when a search
   runs ([Du_opacity.check_inc] syncs it), so a stream the graph decides
   never builds its tables. *)
type t = {
  max_nodes : int option;
  mutable events : History.Builder.t;  (* the accepted stream, validated *)
  mutable graph : Inc.t;  (* fed every accepted event *)
  mutable inc : Du_opacity.inc option;  (* the search's context *)
  mutable rebuilt : int;  (* stream length the graph was last rebuilt at *)
  mutable stuck : string option;
      (* the graph answered [`Ambiguous] for this reason; its edges keep
         the contradiction, so it is not asked again until a rebuild *)
  mutable cert : Serialization.t option;
      (* the search's certificate, until the graph decides again *)
  mutable failed : outcome option;  (* [None] while every prefix is du-opaque *)
  mutable violation_index : int option;
  mutable certified : int;  (* responses covered by the last [`Ok] *)
  mutable certified_at : int;  (* and the stream length then *)
  mutable last_response : int;  (* stream length after the last response *)
  mutable fallback : string option;
  mutable events_seen : int;
  mutable responses_seen : int;
  mutable completed : int;  (* C_k / A_k responses *)
  mutable certifies : int;
  mutable rebuilds : int;
  mutable replays : int;
  mutable fastpath_hits : int;
  mutable graph_hits : int;
  mutable searches_run : int;
  mutable nodes_total : int;
}

let create ?max_nodes () =
  {
    max_nodes;
    events = History.Builder.create ();
    graph = Inc.create ();
    inc = None;
    rebuilt = 0;
    stuck = None;
    cert = None;
    failed = None;
    violation_index = None;
    certified = 0;
    certified_at = 0;
    last_response = 0;
    fallback = None;
    events_seen = 0;
    responses_seen = 0;
    completed = 0;
    certifies = 0;
    rebuilds = 0;
    replays = 0;
    fastpath_hits = 0;
    graph_hits = 0;
    searches_run = 0;
    nodes_total = 0;
  }

let history m = History.Builder.history m.events
let status (m : t) = match m.failed with Some o -> o | None -> `Ok

let fail m o =
  m.failed <- Some o;
  if m.violation_index = None then
    m.violation_index <- Some (History.Builder.length m.events);
  o

let violation m why =
  fail m
    (`Violation
      (Fmt.str "prefix of length %d is not du-opaque: %s"
         (History.Builder.length m.events) why))

let fell_back m why = if m.fallback = None then m.fallback <- Some why

let accept m =
  m.certified <- m.responses_seen;
  m.certified_at <- History.Builder.length m.events;
  `Ok

(* The last certificate: the search's, or else the graph's order. *)
let last_certificate m =
  match m.cert with Some c -> c | None -> Inc.certificate m.graph

(* The graph's verdict.  An [`Ambiguous] may be the fault of a heuristic
   choice made on a shorter prefix, so the graph is rebuilt from the
   stream — only once the stream is more than twice as long as at the
   last rebuild, which keeps rebuilds at O(1) amortised per event.  An
   [`Ambiguous] graph is stuck until then: the search decides.  [true]
   when a graph rebuilt now decided. *)
let graph_verdict m =
  let len = History.Builder.length m.events in
  let d =
    match m.stuck with
    | Some why -> `Ambiguous why
    | None -> Inc.decide m.graph
  in
  let d, rebuilt =
    match d with
    | `Ambiguous _ when len > 2 * m.rebuilt ->
        let g = Inc.create () in
        let h = history m in
        for i = 0 to len - 1 do
          Inc.push g (History.get h i)
        done;
        m.graph <- g;
        m.rebuilt <- len;
        m.rebuilds <- m.rebuilds + 1;
        (Inc.decide g, true)
    | d -> (d, false)
  in
  (match d with
  | `Ambiguous why -> m.stuck <- Some why
  | `Sat | `Unsat _ -> m.stuck <- None);
  (d, rebuilt)

let rec certify m =
  match m.failed with
  | Some o -> o
  | None ->
      m.certifies <- m.certifies + 1;
      let pending = m.responses_seen - m.certified in
      (* the graph's verdict on the stream is the verdict on every prefix
         since the last [`Ok] when one response arrived since, as the last
         event: an invocation keeps a du-opaque prefix du-opaque, but may
         make a prefix that is not du-opaque again (Finding 3) *)
      let len = History.Builder.length m.events in
      let single = pending = 1 && m.last_response = len in
      if pending = 0 then `Ok
      else begin
        let decided, rebuilt = graph_verdict m in
        let by_graph () =
          if rebuilt then m.graph_hits <- m.graph_hits + pending
          else m.fastpath_hits <- m.fastpath_hits + pending
        in
        match decided with
        | `Sat when single || Inc.closed_after m.graph <= m.certified_at ->
            by_graph ();
            m.cert <- None;
            accept m
        | `Unsat why when single ->
            by_graph ();
            violation m why
        | `Ambiguous why when single -> search m why
        | `Sat ->
            replay_window m
              "the certificate serves a read from a writer that invoked \
               tryC after the read's response, past one of another value, \
               so it need not cover earlier prefixes (repeated values \
               forfeit prefix closure, Corollary 2)"
        | `Unsat why | `Ambiguous why -> replay_window m why
      end

(* One response since the last [`Ok], as the last event, and the graph
   cannot decide: the search, hinted by the last certificate, decides the
   prefix. *)
and search m why =
  fell_back m why;
  let hint = (last_certificate m).Serialization.order in
  let inc =
    match m.inc with
    | Some c -> c
    | None ->
        let c = Du_opacity.incremental () in
        m.inc <- Some c;
        c
  in
  let v, stats =
    Du_opacity.check_inc ?max_nodes:m.max_nodes ~hint inc (history m)
  in
  m.searches_run <- m.searches_run + 1;
  m.nodes_total <- m.nodes_total + stats.Search.nodes;
  match v with
  | Verdict.Sat c ->
      m.cert <- Some c;
      accept m
  | Verdict.Unsat why -> violation m why
  | Verdict.Unknown why -> fail m (`Budget why)

(* Several responses since the last [`Ok] (or invocations after the one)
   and the graph's verdict does not cover every prefix among them: replay
   the stream through a fresh monitor, certifying after each of those
   responses, so the first violating prefix is found as the per-response
   pattern finds it, and adopt that monitor's state. *)
and replay_window m why =
  fell_back m why;
  m.replays <- m.replays + 1;
  let e = create ?max_nodes:m.max_nodes () in
  let h = history m in
  for i = 0 to m.certified_at - 1 do
    ignore (ingest e (History.get h i))
  done;
  ignore (accept e);
  for i = m.certified_at to History.length h - 1 do
    ignore (push e (History.get h i))
  done;
  m.events <- e.events;
  m.graph <- e.graph;
  m.inc <- e.inc;
  m.rebuilt <- e.rebuilt;
  m.stuck <- e.stuck;
  m.cert <- e.cert;
  m.failed <- e.failed;
  m.violation_index <- e.violation_index;
  m.certified <- e.certified;
  m.certified_at <- e.certified_at;
  m.last_response <- e.last_response;
  m.rebuilds <- m.rebuilds + e.rebuilds;
  m.fastpath_hits <- m.fastpath_hits + e.fastpath_hits;
  m.graph_hits <- m.graph_hits + e.graph_hits;
  m.searches_run <- m.searches_run + e.searches_run;
  m.nodes_total <- m.nodes_total + e.nodes_total;
  status m

and ingest m ev =
  match m.failed with
  | Some o -> o
  | None -> (
      m.events_seen <- m.events_seen + 1;
      match History.Builder.add m.events ev with
      | Error e -> (
          (* an earlier prefix in the uncertified window fails first *)
          match certify m with
          | `Ok -> fail m (`Violation (Fmt.str "%a" History.pp_error e))
          | o -> o)
      | Ok () ->
          Inc.push m.graph ev;
          (match ev with
          | Event.Res (_, res) -> (
              m.responses_seen <- m.responses_seen + 1;
              m.last_response <- History.Builder.length m.events;
              match res with
              | Event.Committed | Event.Aborted ->
                  m.completed <- m.completed + 1
              | Event.Read_ok _ | Event.Write_ok -> ())
          | Event.Inv _ -> ());
          `Ok)

(* An invocation keeps every prefix du-opaque: its operation is pending,
   so a completion aborts it. *)
and push m ev =
  match ingest m ev with
  | `Ok when Event.is_res ev -> certify m
  | o -> o

let push_all m events =
  List.fold_left (fun _ ev -> push m ev) (status m) events

(* A search's certificate predates the invocations pushed since; their
   transactions are live, so they sit last and abort. *)
let certificate m =
  if m.failed <> None || m.responses_seen > m.certified then None
  else
    match m.cert with
      | None -> Some (Inc.certificate m.graph)
      | Some c ->
          let known = Hashtbl.create 64 in
          List.iter (fun k -> Hashtbl.replace known k ()) c.Serialization.order;
          let fresh =
            List.filter
              (fun k -> not (Hashtbl.mem known k))
              (History.txns (history m))
          in
        Some { c with Serialization.order = c.Serialization.order @ fresh }

let adopt_verdict m (o : outcome) index =
  match o with
  | `Ok -> ()
  | `Violation _ | `Budget _ ->
      m.failed <- Some o;
      m.violation_index <- index

let pending_txns m = (Inc.stats m.graph).Conflict_graph.nodes - m.completed
let violation_index m = m.violation_index
let events_seen m = m.events_seen
let responses_seen m = m.responses_seen
let certifies m = m.certifies
let rebuilds m = m.rebuilds
let replays m = m.replays
let fallback m = m.fallback
let fastpath_hits m = m.fastpath_hits
let graph_hits m = m.graph_hits
let searches_run m = m.searches_run
let nodes_total m = m.nodes_total

type snapshot = {
  events : int;
  responses : int;
  fastpath_hits : int;
  searches : int;
  nodes : int;
  pending : int;
}

let snapshot (m : t) =
  {
    events = m.events_seen;
    responses = m.responses_seen;
    fastpath_hits = m.fastpath_hits;
    searches = m.searches_run;
    nodes = m.nodes_total;
    pending = pending_txns m;
  }

(* --- serializable checkpoints ------------------------------------------- *)

type persisted = {
  p_max_nodes : int option;
  p_events : Event.t list;
  p_status : outcome;
  p_violation_index : int option;
  p_counters : snapshot;
}

let persist (m : t) =
  ignore (certify m);
  {
    p_max_nodes = m.max_nodes;
    p_events = History.Builder.to_list m.events;
    p_status = status m;
    p_violation_index = m.violation_index;
    p_counters = snapshot m;
  }

(* Rebuild by ingesting the accepted history into a fresh monitor and
   certifying once: the graph's state is a deterministic function of the
   stream.  The recorded counters are then adopted wholesale — they can
   legitimately exceed the replayed ones (events the builder rejects are
   counted but never enter the history) and must survive a round-trip so
   hit rates are checkpoint-transparent.  A recorded [`Ok] that the replay
   refutes convicts the blob (or the code) of corruption; a recorded failure
   is adopted even where the replayed history alone stays clean, because the
   failing event may have been rejected before reaching the history. *)
let of_persisted p =
  let m = create ?max_nodes:p.p_max_nodes () in
  List.iter (fun ev -> ignore (ingest m ev)) p.p_events;
  match (p.p_status, certify m) with
  | `Ok, (`Violation why | `Budget why) ->
      Error
        (Fmt.str "monitor snapshot is corrupt: replay refutes it (%s)" why)
  | `Ok, `Ok | (`Violation _ | `Budget _), _ ->
      adopt_verdict m p.p_status p.p_violation_index;
      m.events_seen <- p.p_counters.events;
      m.responses_seen <- p.p_counters.responses;
      m.fastpath_hits <- p.p_counters.fastpath_hits;
      m.searches_run <- p.p_counters.searches;
      m.nodes_total <- p.p_counters.nodes;
      Ok m
