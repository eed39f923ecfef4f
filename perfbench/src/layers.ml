(* The traced layer replays.  The workload's own recorded streams are
   pushed through each module's public functions from here, outside the
   program, with a span around every call: the service path frame by frame
   (Codec, Wire, Mailbox, Journal, Sharded_monitor) at the workload's
   checkpoint cadence, then the checkers behind it (Conflict_graph,
   Monitor, Search).  Per-layer figures are self times from those spans. *)

open Tm_safety
module P = Service.Protocol
module Wire = Service.Wire
module Mailbox = Service.Mailbox
module Journal = Service.Journal

type plan = {
  path : Inputs.stream list;  (* replayed along the service path *)
  heavy : Inputs.stream;  (* stitch, Monitor and Search replays *)
  batch : Inputs.stream list;  (* Conflict_graph.check replays *)
  dir : string;  (* scratch journal directory *)
}

type counts = {
  mutable events : int;
  mutable frames : int;
  mutable bytes : int;
  mutable journal_bytes : int;
  mutable sessions : int;
  mutable escalated : int;
  mutable certifies : int;
  mutable incremental : int;
  mutable full : int;
  classes : (string, int) Hashtbl.t;
}

(* Escalation reasons, reduced to the fixed classes of
   [Sharded_monitor]'s escalate sites. *)
let reason_classes =
  [ "duplicate_write"; "cross_shard_cycle"; "stitch_rejected";
    "shard_undecided"; "ill_formed" ]

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

let classify why =
  if contains why "prefix closure" then "duplicate_write"
  else if contains why "close a cycle" then "cross_shard_cycle"
  else if contains why "stitched order rejected" then "stitch_rejected"
  else if contains why "ill-formed" then "ill_formed"
  else "shard_undecided"

let ack sid = P.verdict ~session:sid ~token:1 ~events:0 P.S_ok

(* One session along the service path: encode, framed round trip over a
   socketpair, decode, reader-to-domain hand-off, journal append and shard
   push per frame, certify at close, as `tm serve` does for a session
   without checkpoints; then snapshot and recovery of its journal. *)
let session_path plan c (a, b) (req, rep) sid (s : Inputs.stream) =
  Span.run ~session:sid "session" (fun () ->
      let m = Sharded_monitor.create () in
      let j = Journal.create ~dir:plan.dir ~session:sid () in
      (* the file name is part of the journal format (journal.mli) *)
      let journal = Filename.concat plan.dir (Printf.sprintf "s%d.journal" sid) in
      let certify () =
        Span.run ~session:sid "sharded_monitor.certify" (fun () ->
            ignore (Sharded_monitor.certify m))
      in
      List.iter
        (fun events ->
          let frame = P.Events { session = sid; events } in
          let body =
            Span.run ~session:sid "codec.encode" (fun () -> P.to_string frame)
          in
          c.bytes <- c.bytes + String.length body + 4;
          c.frames <- c.frames + 1;
          Span.run ~session:sid "wire.roundtrip" (fun () ->
              Wire.send a frame;
              ignore (Wire.recv b);
              Wire.send b (ack sid);
              ignore (Wire.recv a));
          Span.run ~session:sid "codec.decode" (fun () ->
              match P.decode body with
              | Ok _ -> ()
              | Error e -> failwith ("decode: " ^ e));
          Span.run ~session:sid "mailbox.handoff" (fun () ->
              Mailbox.put req (Some sid);
              ignore (Mailbox.take rep));
          let before = Measure.file_size journal in
          Span.run ~session:sid "journal.append" (fun () ->
              ignore (Journal.append j events));
          c.journal_bytes <- c.journal_bytes + Measure.file_size journal - before;
          Span.run ~session:sid "sharded_monitor.push" (fun () ->
              List.iter (fun e -> ignore (Sharded_monitor.push m e)) events))
        (Measure.chunks Serve.chunk s.Inputs.events);
      certify ();
      Span.run ~session:sid "journal.snapshot" (fun () ->
          Journal.snapshot j (Sharded_monitor.persist m));
      Journal.close j;
      Span.run ~session:sid "journal.recover" (fun () ->
          match
            Journal.recover_sharded ~dir:plan.dir
              ~session:sid ()
          with
          | Ok (_, _, j) -> Journal.close j
          | Error e -> failwith ("recover: " ^ e));
      Journal.delete ~dir:plan.dir ~session:sid;
      let st = Sharded_monitor.stitch_stats m in
      c.events <- c.events + s.Inputs.len;
      c.sessions <- c.sessions + 1;
      c.certifies <- c.certifies + st.Sharded_monitor.certifies;
      c.incremental <- c.incremental + st.Sharded_monitor.incremental;
      c.full <- c.full + st.Sharded_monitor.full;
      match st.Sharded_monitor.escalated with
      | None -> ()
      | Some why ->
          c.escalated <- c.escalated + 1;
          let k = classify why in
          Hashtbl.replace c.classes k
            (1 + Option.value (Hashtbl.find_opt c.classes k) ~default:0))

let service_path plan =
  let c =
    {
      events = 0; frames = 0; bytes = 0; journal_bytes = 0; sessions = 0;
      escalated = 0; certifies = 0; incremental = 0; full = 0;
      classes = Hashtbl.create 8;
    }
  in
  Measure.mkdir_p plan.dir;
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let req = Mailbox.create ~capacity:64 and rep = Mailbox.create ~capacity:64 in
  let echo =
    Domain.spawn (fun () ->
        let rec loop () =
          match Mailbox.take req with
          | None -> ()
          | Some x ->
              Mailbox.put rep x;
              loop ()
        in
        loop ())
  in
  Fun.protect
    ~finally:(fun () ->
      Mailbox.put req None;
      Domain.join echo;
      Unix.close a;
      Unix.close b)
    (fun () ->
      List.iteri (fun i s -> session_path plan c (a, b) (req, rep) (i + 1) s) plan.path);
  c

(* Certify at one shard against a standalone incremental graph fed the
   same stream, both at every frame: the difference is the stitch. *)
let stitch plan =
  let s = plan.heavy in
  let m = Sharded_monitor.create ~nshards:1 () in
  let g = Conflict_graph.Inc.create () in
  List.iter
    (fun events ->
      List.iter (fun e -> ignore (Sharded_monitor.push m e)) events;
      Span.run "conflict_graph.inc_push" (fun () ->
          List.iter (Conflict_graph.Inc.push g) events);
      Span.run "stitch.certify_1shard" (fun () -> ignore (Sharded_monitor.certify m));
      Span.run "conflict_graph.inc_verdict" (fun () ->
          ignore (Conflict_graph.Inc.verdict g)))
    (Measure.chunks Serve.chunk s.Inputs.events)

type monitor_counts = {
  fastpath_ratio : float;
  graph_hits : int;
  searches : int;
  search_nodes : int;
}

let monitor plan =
  let s = plan.heavy in
  let m = Monitor.create () in
  Span.run "monitor.push" (fun () ->
      List.iter (fun e -> ignore (Monitor.push m e)) s.Inputs.events);
  let p = Monitor.persist m in
  Span.run "monitor.of_persisted" (fun () ->
      match Monitor.of_persisted p with
      | Ok _ -> ()
      | Error e -> failwith ("of_persisted: " ^ e));
  {
    fastpath_ratio =
      float_of_int (Monitor.fastpath_hits m)
      /. float_of_int (max 1 (Monitor.responses_seen m));
    graph_hits = Monitor.graph_hits m;
    searches = Monitor.searches_run m;
    search_nodes = Monitor.nodes_total m;
  }

let search plan =
  let v, st =
    Span.run "search.check" (fun () ->
        Search.search Search.du plan.heavy.Inputs.history)
  in
  if not (Verdict.is_sat v) then failwith "search: TL2/NOrec stream not du-opaque";
  st.Search.nodes

type batch_counts = {
  checks : int;
  b_events : int;
  edges : int;
  reorders : int;
  repairs : int;
  ambiguous : int;
}

let batch plan =
  List.fold_left
    (fun acc (s : Inputs.stream) ->
      let r, st =
        Span.run "conflict_graph.check" (fun () ->
            Conflict_graph.check_stats s.Inputs.history)
      in
      (match r with
      | Conflict_graph.Unsat why -> failwith ("graph refused a recording: " ^ why)
      | Conflict_graph.Sat _ | Conflict_graph.Ambiguous _ -> ());
      {
        checks = acc.checks + 1;
        b_events = acc.b_events + s.Inputs.len;
        edges = acc.edges + st.Conflict_graph.edges;
        reorders = acc.reorders + st.Conflict_graph.reorders;
        repairs = acc.repairs + st.Conflict_graph.repairs;
        ambiguous =
          (acc.ambiguous
          + match r with Conflict_graph.Ambiguous _ -> 1 | _ -> 0);
      })
    { checks = 0; b_events = 0; edges = 0; reorders = 0; repairs = 0; ambiguous = 0 }
    plan.batch

type t = {
  path : counts;
  mon : monitor_counts;
  search_nodes : int;
  b : batch_counts;
  heavy_events : int;
}

let run plan =
  let path = service_path plan in
  stitch plan;
  let mon = monitor plan in
  let search_nodes = search plan in
  let b = batch plan in
  {
    path;
    mon;
    search_nodes;
    b;
    heavy_events = plan.heavy.Inputs.len;

  }

(* [Wire.send]/[Wire.recv] encode and decode inside the round trip, so
   the path counts only what the round trip adds to the codec spans of the
   same frames. *)
let wire_io_s () =
  Float.max 0.
    (Span.self_s "wire.roundtrip" -. Span.self_s "codec.encode"
   -. Span.self_s "codec.decode")

(* Time per event along the service path's blocking steps of an
   in-memory server, from the path replay's self times. *)
let path_ns_per_event t =
  let s = Span.self_s in
  let total =
    s "codec.encode" +. s "codec.decode" +. wire_io_s ()
    +. s "mailbox.handoff" +. s "sharded_monitor.push"
    +. s "sharded_monitor.certify"
  in
  1e9 *. total /. float_of_int (max 1 t.path.events)

let ms_median name = Measure.median (List.map (fun d -> d *. 1e3) (Span.durations name))

let metrics t =
  let per_event name n = 1e9 *. Span.self_s name /. float_of_int (max 1 n) in
  let c = t.path and heavy = t.heavy_events in
  let frac a b = float_of_int a /. float_of_int (max 1 b) in
  [
    ("codec.encode_ns_per_event", per_event "codec.encode" c.events, "ns");
    ("codec.decode_ns_per_event", per_event "codec.decode" c.events, "ns");
    ("codec.bytes_per_event", frac c.bytes c.events, "bytes");
    (* the whole round trip, its own encode and decode included *)
    ("wire.roundtrip_ns_per_frame", per_event "wire.roundtrip" c.frames, "ns");
    (* Open_session, the Events frames and Close_session out, the verdict back *)
    ("wire.frames_per_session", frac (c.frames + (3 * c.sessions)) c.sessions, "count");
    (* each replayed hand-off is a put/take there and back *)
    ("mailbox.handoff_ns", 1e9 *. Span.self_s "mailbox.handoff" /. float_of_int (2 * max 1 c.frames), "ns");
    ("sharded_monitor.push_ns_per_event", per_event "sharded_monitor.push" c.events, "ns");
    ("sharded_monitor.certify_p50_ms", ms_median "sharded_monitor.certify", "ms");
    ("sharded_monitor.certify_ns_per_event", per_event "sharded_monitor.certify" c.events, "ns");
    ("sharded_monitor.incremental_ratio", frac c.incremental c.certifies, "ratio");
    ("sharded_monitor.full_validations", float_of_int c.full, "count");
    ("sharded_monitor.escalated_frac", frac c.escalated c.sessions, "ratio");
  ]
  @ List.map
      (fun k ->
        ( "sharded_monitor.escalations." ^ k,
          float_of_int (Option.value (Hashtbl.find_opt c.classes k) ~default:0),
          "count" ))
      reason_classes
  @ [
      (* derived: one-shard certify minus a standalone Inc.verdict *)
      ( "sharded_monitor.stitch_ns_per_event",
        per_event "stitch.certify_1shard" heavy
        -. per_event "conflict_graph.inc_verdict" heavy,
        "ns" );
      ("conflict_graph.inc_push_ns_per_event", per_event "conflict_graph.inc_push" heavy, "ns");
      ("conflict_graph.inc_verdict_ms", ms_median "conflict_graph.inc_verdict", "ms");
      ("conflict_graph.check_ns_per_event", per_event "conflict_graph.check" t.b.b_events, "ns");
      ("conflict_graph.edges_per_event", frac t.b.edges t.b.b_events, "ratio");
      ("conflict_graph.reorders", float_of_int t.b.reorders, "count");
      ("conflict_graph.repairs", float_of_int t.b.repairs, "count");
      ("conflict_graph.ambiguous_frac", frac t.b.ambiguous t.b.checks, "ratio");
      ("monitor.push_ns_per_event", per_event "monitor.push" heavy, "ns");
      ("monitor.fastpath_ratio", t.mon.fastpath_ratio, "ratio");
      ("monitor.graph_hits", float_of_int t.mon.graph_hits, "count");
      ("monitor.searches", float_of_int t.mon.searches, "count");
      ("monitor.search_nodes", float_of_int t.mon.search_nodes, "count");
      ( "monitor.of_persisted_ms_per_kevent",
        1e6 *. Span.self_s "monitor.of_persisted" /. float_of_int (max 1 heavy),
        "ms" );
      ("journal.recover_ms", ms_median "journal.recover", "ms");
      ("journal.append_ns_per_event", per_event "journal.append" c.events, "ns");
      ("journal.snapshot_ms", ms_median "journal.snapshot", "ms");
      ("journal.bytes_per_event", frac c.journal_bytes c.events, "bytes");
      ("search.check_s", Span.self_s "search.check", "s");
      ("search.nodes", float_of_int t.search_nodes, "count");
    ]
