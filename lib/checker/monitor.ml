type outcome = [ `Ok | `Violation of string | `Budget of string ]

(* The running certificate is held unmaterialised: [rev_order] accumulates
   transactions by an O(1) cons (newest first) and [committed] is the
   decision set; the forward {!Serialization.t} view is (re)built only when
   something needs it — a validator run, a search hint, the [certificate]
   accessor — and cached until the order or the decisions change.

   Invariant (while no failure has been recorded): the certificate is a
   valid du-opaque serialization of [history], i.e.
   [Serialization.validate ~claim:Du_opaque history (certificate)] holds.
   Every fast-path acceptance below preserves it by construction; the
   search fallback re-establishes it with a fresh witness. *)
type t = {
  max_nodes : int option;
  events : History.Builder.t;  (* the accepted stream, validated *)
  inc : Du_opacity.inc;
      (* persistent search context for the fallback, synced every accepted
         event: its transaction summaries serve the local checks, and its
         index answers which transactions the certificate order holds *)
  graph : Conflict_graph.Inc.t;
      (* incremental conflict-graph backend, fed every accepted event;
         consulted before each backtracking search and trusted whenever it
         decides — see [run_search] *)
  mutable failed : outcome option;  (* [None] while the prefix is du-opaque *)
  mutable rev_order : Event.tx list;
  mutable committed : Serialization.Tx_set.t;
  mutable forward : Serialization.t option;  (* cache of the forward view *)
  mutable violation_index : int option;
  mutable events_seen : int;
  mutable responses_seen : int;
  mutable fastpath_hits : int;
  mutable graph_hits : int;
  mutable searches_run : int;
  mutable nodes_total : int;
  mutable pending : int;
      (* transactions in [history] that are not yet t-complete, maintained
         incrementally: +1 on a transaction's first invocation, -1 on its
         C_k/A_k.  [snapshot] is taken per batch by the streaming service,
         so recomputing this from [History.infos] (O(T log T)) would make
         per-session accounting quadratic over a stream. *)
}

let create ?max_nodes () =
  {
    max_nodes;
    events = History.Builder.create ();
    inc = Du_opacity.incremental ();
    graph = Conflict_graph.Inc.create ();
    failed = None;
    rev_order = [];
    committed = Serialization.Tx_set.empty;
    forward = None;
    violation_index = None;
    events_seen = 0;
    responses_seen = 0;
    fastpath_hits = 0;
    graph_hits = 0;
    searches_run = 0;
    nodes_total = 0;
    pending = 0;
  }

let force_forward m =
  match m.forward with
  | Some s -> s
  | None ->
      let s =
        { Serialization.order = List.rev m.rev_order; committed = m.committed }
      in
      m.forward <- Some s;
      s

let fail m o =
  m.failed <- Some o;
  if m.violation_index = None then
    m.violation_index <- Some (History.Builder.length m.events);
  o

let run_search m h' =
  (* The graph backend has already ingested every accepted event; when it
     decides the prefix, no backtracking search is needed.  A [Sat]
     certificate has passed the graph's linear replay of Definition 3's
     clauses, and is adopted as it stands: the quadratic validator would
     cost about a second per fallback on a 33k-event stream.  An [Unsat] is
     sound by construction (forced edges only, no heuristic taint).  Only
     [Ambiguous] — a contradiction after a heuristic choice, or a
     heuristically committed writer that aborted — reaches the search. *)
  let graph_decision =
    match Conflict_graph.Inc.verdict m.graph with
    | Conflict_graph.Sat cert -> Some (Verdict.Sat cert)
    | Conflict_graph.Unsat why -> Some (Verdict.Unsat why)
    | Conflict_graph.Ambiguous _ -> None
  in
  match graph_decision with
  | Some (Verdict.Sat cert) ->
      m.graph_hits <- m.graph_hits + 1;
      m.rev_order <- List.rev cert.Serialization.order;
      m.committed <- cert.Serialization.committed;
      m.forward <- Some cert;
      `Ok
  | Some (Verdict.Unsat why) ->
      m.graph_hits <- m.graph_hits + 1;
      fail m
        (`Violation
          (Fmt.str "prefix of length %d is not du-opaque: %s"
             (History.length h') why))
  | Some (Verdict.Unknown _) | None ->
  let hint = (force_forward m).Serialization.order in
  let verdict, stats =
    Du_opacity.check_inc ?max_nodes:m.max_nodes ~hint m.inc h'
  in
  m.searches_run <- m.searches_run + 1;
  m.nodes_total <- m.nodes_total + stats.Search.nodes;
  match verdict with
  | Verdict.Sat cert ->
      m.rev_order <- List.rev cert.Serialization.order;
      m.committed <- cert.Serialization.committed;
      m.forward <- Some cert;
      `Ok
  | Verdict.Unsat why ->
      fail m
        (`Violation
          (Fmt.str "prefix of length %d is not du-opaque: %s"
             (History.length h') why))
  | Verdict.Unknown why -> fail m (`Budget why)

(* Expected values for an external read of [var] whose response sits at
   [res_index], scanning certificate predecessors latest-first ([before_rev])
   and skipping transaction [skip] (0 = none; ids are positive).  Returns the
   final-state expectation (latest committed writer, Definition 4 legality)
   and the local-serialization expectation (latest committed writer retained
   by the deferred-update filter, Definition 3(3)); a valid certificate needs
   the read to return both. *)
let expected m ~skip ~res_index var before_rev =
  let final_write w =
    (* the latest successful write to [var], read off the ops in place *)
    let ops = (Search.txn m.inc w).Txn.ops in
    let rec latest i =
      if i < 0 then None
      else
        match ops.(i) with
        | { Op.inv = Event.Write (x, v); res = Some Event.Write_ok; _ }
          when x = var ->
            Some v
        | _ -> latest (i - 1)
    in
    latest (Array.length ops - 1)
  in
  let retained w =
    match Txn.tryc_inv_index (Search.txn m.inc w) with
    | Some j -> j < res_index
    | None -> false
  in
  let rec go sem du = function
    | [] ->
        ( Option.value sem ~default:Event.init_value,
          Option.value du ~default:Event.init_value )
    | w :: rest -> (
        match sem, du with
        | Some s, Some d -> (s, d)
        | _ when w = skip -> go sem du rest
        | _ ->
            if Serialization.Tx_set.mem w m.committed then
              match final_write w with
              | Some v ->
                  let sem = match sem with Some _ -> sem | None -> Some v in
                  let du =
                    match du with
                    | Some _ -> du
                    | None -> if retained w then Some v else None
                  in
                  go sem du rest
              | None -> go sem du rest
            else go sem du rest)
  in
  go None None before_rev

(* Would every value-returning read of [k] be valid if [k] sat at the end of
   the certificate order?  Sufficient for adopting the order that moves [k]
   there: [k]'s moved segment is the only thing the validator would see
   differently — transactions between [k]'s old slot and the end lose only
   an entry that contributed nothing (aborted, or committing just now with
   no read downstream of the move), and the real-time clause cannot bind
   [k] forward since [k]'s latest event is the newest in the history. *)
let reads_valid_at_end m k =
  let txn = Search.txn m.inc k in
  List.for_all
    (fun (r : Txn.read) ->
      match r.Txn.kind with
      | `Internal own -> r.Txn.value = own
      | `External ->
          let sem, du =
            expected m ~skip:k ~res_index:r.Txn.res_index r.Txn.var
              m.rev_order
          in
          r.Txn.value = sem && r.Txn.value = du)
    (Txn.reads txn)

let move_to_end m k =
  (match m.rev_order with
  | k' :: _ when k' = k -> ()  (* already last *)
  | _ -> m.rev_order <- k :: List.filter (fun k' -> k' <> k) m.rev_order);
  m.forward <- None

let rec last_read = function
  | [] -> None
  | [ (r : Txn.read) ] -> Some r
  | _ :: rest -> last_read rest

let handle_response m h' k res =
  let hit () =
    m.fastpath_hits <- m.fastpath_hits + 1;
    `Ok
  in
  match res with
  | Event.Write_ok ->
      (* A live transaction is aborted by the running certificate, so its
         write is invisible to every other transaction and unconstrained. *)
      hit ()
  | Event.Read_ok v -> (
      (* In place first: the new read is the only clause the validator would
         check afresh, so compare it against the expectations at [k]'s
         current certificate position.  Failing that, try sliding [k] (live,
         hence certificate-aborted) to the end of the order — the common
         case of a read that observed a transaction committed after [k]'s
         birth.  Only then search. *)
      match last_read (Txn.reads (Search.txn m.inc k)) with
      | None -> run_search m h' (* defensive: cannot happen on Read_ok *)
      | Some r ->
          let ok_in_place =
            match r.Txn.kind with
            | `Internal own -> v = own
            | `External ->
                let rec drop_to = function
                  | [] -> []
                  | k' :: rest -> if k' = k then rest else drop_to rest
                in
                let sem, du =
                  expected m ~skip:0 ~res_index:r.Txn.res_index r.Txn.var
                    (drop_to m.rev_order)
                in
                v = sem && v = du
          in
          if ok_in_place then hit ()
          else if reads_valid_at_end m k then begin
            move_to_end m k;
            hit ()
          end
          else run_search m h')
  | Event.Committed ->
      if Serialization.Tx_set.mem k m.committed then
        (* An earlier search already decided to commit [k]; the response
           merely resolves the pending tryC the way the certificate does. *)
        hit ()
      else if reads_valid_at_end m k then begin
        (* Flip [k]'s decision to commit while moving it to the end: its
           writes become visible to no one (nothing reads after the newest
           event) and the deferred-update filter retains it for no earlier
           read, so only [k]'s own reads need rechecking. *)
        move_to_end m k;
        m.committed <- Serialization.Tx_set.add k m.committed;
        m.forward <- None;
        hit ()
      end
      else run_search m h'
  | Event.Aborted ->
      if not (Serialization.Tx_set.mem k m.committed) then
        (* The certificate already aborts [k]: the pending operation was
           resolved with A_k in the completion, which the response now
           makes literal. *)
        hit ()
      else
        (* A commit-pending transaction the certificate chose to commit
           (someone read its value) aborted after all. *)
        run_search m h'

let push m ev =
  match m.failed with
  | Some o -> o
  | None -> (
      m.events_seen <- m.events_seen + 1;
      match History.Builder.add m.events ev with
      | Error e -> fail m (`Violation (Fmt.str "%a" History.pp_error e))
      | Ok () -> (
          let h' = History.Builder.history m.events in
          (* the context knows [k] iff the certificate order holds it *)
          let fresh =
            match ev with
            | Event.Inv (k, _) -> not (Search.mem m.inc k)
            | Event.Res _ -> false
          in
          Search.sync m.inc h';
          Conflict_graph.Inc.push m.graph ev;
          match ev with
          | Event.Inv (k, _) ->
              (* Extending by an invocation preserves du-opacity and its
                 certificate (see .mli); only register the new transaction.
                 A transaction that never responds again — a crashed thread,
                 a stalled tryC — simply stays registered here forever: it
                 constrains nothing until a response event involves it. *)
              if fresh then begin
                m.rev_order <- k :: m.rev_order;
                m.forward <- None;
                m.pending <- m.pending + 1
              end;
              `Ok
          | Event.Res (k, res) ->
              (* The builder validated the response against [k]'s pending
                 invocation, so C_k/A_k t-completes exactly one counted
                 transaction; later events for [k] are ill-formed and never
                 reach here. *)
              (match res with
              | Event.Committed | Event.Aborted -> m.pending <- m.pending - 1
              | Event.Read_ok _ | Event.Write_ok -> ());
              m.responses_seen <- m.responses_seen + 1;
              handle_response m h' k res))

let push_all m events =
  List.fold_left
    (fun _ ev -> push m ev)
    (match m.failed with Some o -> o | None -> `Ok)
    events

let history m = History.Builder.history m.events

let certificate m =
  match m.failed with None -> Some (force_forward m) | Some _ -> None

let pending_txns m = m.pending

let violation_index m = m.violation_index
let events_seen m = m.events_seen
let responses_seen m = m.responses_seen
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

let status (m : t) = match m.failed with Some o -> o | None -> `Ok

(* --- serializable checkpoints ------------------------------------------- *)

type persisted = {
  p_max_nodes : int option;
  p_events : Event.t list;
  p_status : outcome;
  p_violation_index : int option;
  p_counters : snapshot;
}

let persist (m : t) =
  {
    p_max_nodes = m.max_nodes;
    p_events = History.Builder.to_list m.events;
    p_status = status m;
    p_violation_index = m.violation_index;
    p_counters = snapshot m;
  }

(* Rebuild by replaying the accepted history through a fresh monitor: the
   original built its certificate, search context, and sticky state from
   exactly this push sequence, so the deterministic replay reproduces them
   bit for bit.  The recorded counters are then adopted wholesale — they can
   legitimately exceed the replayed ones (events the builder rejects are
   counted but never enter the history) and must survive a round-trip so
   hit rates are checkpoint-transparent.  A recorded [`Ok] that the replay
   refutes convicts the blob (or the code) of corruption; a recorded failure
   is adopted even where the replayed history alone stays clean, because the
   failing event may have been rejected before reaching the history. *)
let of_persisted p =
  let m = create ?max_nodes:p.p_max_nodes () in
  let replayed = push_all m p.p_events in
  match p.p_status, replayed with
  | `Ok, (`Violation why | `Budget why) ->
      Error
        (Fmt.str "monitor snapshot is corrupt: replay refutes it (%s)" why)
  | `Ok, `Ok | (`Violation _ | `Budget _), _ ->
      (match p.p_status with
      | `Ok -> ()
      | (`Violation _ | `Budget _) as o ->
          m.failed <- Some o;
          m.violation_index <- p.p_violation_index);
      m.events_seen <- p.p_counters.events;
      m.responses_seen <- p.p_counters.responses;
      m.fastpath_hits <- p.p_counters.fastpath_hits;
      m.searches_run <- p.p_counters.searches;
      m.nodes_total <- p.p_counters.nodes;
      Ok m
