(* Binary codec and wire protocol: round-trips and decoder totality.

   Pins the promise codec.mli and protocol.mli make: every encoded value
   decodes back to itself, and adversarial bytes — truncations, random
   mutations, pure garbage — yield [Error _], never an exception. *)

open Tm_safety
open Helpers
module Codec = Service.Codec
module Protocol = Service.Protocol

(* --- primitives --------------------------------------------------------- *)

let roundtrip_uvarint () =
  List.iter
    (fun n ->
      let b = Buffer.create 16 in
      Codec.put_uvarint b n;
      let r = Codec.reader (Buffer.contents b) in
      Alcotest.(check int) (Fmt.str "uvarint %d" n) n (Codec.get_uvarint r);
      Alcotest.(check bool) "consumed" true (Codec.at_end r))
    [ 0; 1; 127; 128; 16383; 16384; 0x3fffffff; max_int ]

let roundtrip_int () =
  List.iter
    (fun n ->
      let b = Buffer.create 16 in
      Codec.put_int b n;
      let r = Codec.reader (Buffer.contents b) in
      Alcotest.(check int) (Fmt.str "int %d" n) n (Codec.get_int r))
    [ 0; 1; -1; 63; -64; 1000; -1000; 1 lsl 60; -(1 lsl 60) ]

let roundtrip_string () =
  List.iter
    (fun s ->
      let b = Buffer.create 16 in
      Codec.put_string b s;
      let r = Codec.reader (Buffer.contents b) in
      Alcotest.(check string) "string" s (Codec.get_string r))
    [ ""; "x"; "hello"; String.make 300 '\xff'; "\x00\x80\x7f" ]

let uvarint_rejects_overflow () =
  (* Ten continuation bytes would shift past bit 62. *)
  let too_long = String.make 9 '\xff' ^ "\x7f" in
  match Codec.get_uvarint (Codec.reader too_long) with
  | _ -> Alcotest.fail "expected Codec.Error on overflowing varint"
  | exception Codec.Error _ -> ()

(* --- events -------------------------------------------------------------- *)

let all_event_shapes =
  [
    Event.Inv (1, Event.Read 0);
    Event.Inv (2, Event.Write (3, -7));
    Event.Inv (3, Event.Try_commit);
    Event.Inv (4, Event.Try_abort);
    Event.Res (1, Event.Read_ok 42);
    Event.Res (2, Event.Write_ok);
    Event.Res (3, Event.Committed);
    Event.Res (4, Event.Aborted);
  ]

let roundtrip_events () =
  List.iter
    (fun ev ->
      let b = Buffer.create 16 in
      Codec.put_event b ev;
      let r = Codec.reader (Buffer.contents b) in
      Alcotest.check event "event" ev (Codec.get_event r);
      Alcotest.(check bool) "consumed" true (Codec.at_end r))
    all_event_shapes;
  let b = Buffer.create 64 in
  Codec.put_events b all_event_shapes;
  let r = Codec.reader (Buffer.contents b) in
  Alcotest.(check (list event)) "event list" all_event_shapes
    (Codec.get_events r)

let event_rejects_t0 () =
  (* tag inv-read, tx 0: identifiers must be positive. *)
  match Codec.get_event (Codec.reader "\x00\x00\x00") with
  | _ -> Alcotest.fail "expected Codec.Error on tx 0"
  | exception Codec.Error _ -> ()

(* --- standalone binary histories ---------------------------------------- *)

let figures_roundtrip () =
  List.iter
    (fun (e : Figures.expectation) ->
      let s = Codec.history_to_string e.history in
      Alcotest.(check bool) "magic" true (Codec.looks_binary s);
      match Codec.history_of_string s with
      | Ok h -> Alcotest.check history e.name e.history h
      | Error why -> Alcotest.failf "%s: %s" e.name why)
    Figures.catalog

let figures_text_binary_agree () =
  (* The binary format and the text format decode to the same history. *)
  List.iter
    (fun (e : Figures.expectation) ->
      let via_text = Parse.of_string_exn (Parse.to_text e.history) in
      let via_binary =
        match Codec.history_of_string (Codec.history_to_string e.history) with
        | Ok h -> h
        | Error why -> Alcotest.failf "%s: binary decode: %s" e.name why
      in
      Alcotest.check history e.name via_text via_binary)
    Figures.catalog

let truncations_fail () =
  let s = Codec.history_to_string (List.hd Figures.catalog).history in
  for len = 0 to String.length s - 1 do
    match Codec.history_of_string (String.sub s 0 len) with
    | Ok _ -> Alcotest.failf "strict prefix of length %d decoded" len
    | Error _ -> ()
  done

(* --- protocol frames ----------------------------------------------------- *)

let gen_status =
  let open QCheck2.Gen in
  let str = string_size ~gen:printable (0 -- 20) in
  oneof
    [
      pure Protocol.S_ok;
      map (fun s -> Protocol.S_violation s) str;
      map (fun s -> Protocol.S_budget s) str;
    ]

let gen_domain_stats =
  let open QCheck2.Gen in
  let n = 0 -- 100_000 in
  map3
    (fun (a, b) (c, d) (e, (f, g)) ->
      {
        Protocol.live_sessions = a;
        closed_sessions = b;
        events = c;
        responses = d;
        fastpath_hits = e;
        searches = f;
        nodes = g;
      })
    (pair n n) (pair n n)
    (pair n (pair n n))

let gen_mode = QCheck2.Gen.oneofl [ Protocol.M_full; Protocol.M_shed ]

let gen_frame =
  let open QCheck2.Gen in
  let session = 1 -- 1_000 in
  let str = string_size ~gen:printable (0 -- 30) in
  let events = map History.to_list (arb_history ()) in
  oneof
    [
      map (fun v -> Protocol.Hello { version = v }) (1 -- 7);
      map (fun s -> Protocol.Open_session { session = s }) session;
      map2
        (fun s events -> Protocol.Events { session = s; events })
        session events;
      map2
        (fun s token -> Protocol.Checkpoint { session = s; token })
        session (0 -- 1_000);
      map (fun s -> Protocol.Close_session { session = s }) session;
      (* Both tail-free verdicts (applied = events, full mode) and
         verdicts carrying a tail. *)
      map3
        (fun s token (events, status) ->
          Protocol.Verdict
            {
              session = s;
              token;
              events;
              status;
              mode = Protocol.M_full;
              applied = events;
            })
        session (0 -- 1_000)
        (pair (0 -- 100_000) gen_status);
      map3
        (fun s ((token, events), (mode, applied)) status ->
          Protocol.Verdict { session = s; token; events; status; mode; applied })
        session
        (pair (pair (0 -- 1_000) (0 -- 100_000)) (pair gen_mode (0 -- 200_000)))
        gen_status;
      pure Protocol.Stats_req;
      map (fun ds -> Protocol.Stats ds) (list_size (0 -- 5) gen_domain_stats);
      map2
        (fun code message -> Protocol.Err { code; message })
        (oneofl
           [
             Protocol.Bad_frame; Protocol.Bad_magic;
             Protocol.Unsupported_version; Protocol.Unknown_session;
             Protocol.Duplicate_session; Protocol.Server_error;
             Protocol.Overloaded;
           ])
        str;
      pure Protocol.Goodbye;
      map (fun s -> Protocol.Resume { session = s }) session;
      map3
        (fun s (applied, mode) status ->
          Protocol.Resumed { session = s; applied; mode; status })
        session
        (pair (0 -- 100_000) gen_mode)
        gen_status;
      map (fun s -> Protocol.Throttle { session = s }) session;
      pure Protocol.Heartbeat;
      map3
        (fun s from events -> Protocol.Events_at { session = s; from; events })
        session (0 -- 100_000) events;
      map2 (fun s reason -> Protocol.Shed { session = s; reason }) session str;
    ]

let prop_frame_roundtrip =
  qtest ~count:1000 "protocol: decode (to_string f) = Ok f (1000x)" gen_frame
    (fun f ->
      match Protocol.decode (Protocol.to_string f) with
      | Ok f' -> f = f'
      | Error _ -> false)

(* --- the QCheck round-trip and fuzz properties --------------------------- *)

let prop_events_roundtrip =
  qtest ~count:1000 "codec: events decode (encode evs) = evs (1000x)"
    (arb_history ()) (fun h ->
      let events = History.to_list h in
      let b = Buffer.create 256 in
      Codec.put_events b events;
      let r = Codec.reader (Buffer.contents b) in
      List.equal Event.equal events (Codec.get_events r) && Codec.at_end r)

let prop_history_roundtrip =
  qtest ~count:1000 "codec: history_of_string (history_to_string h) = Ok h"
    (arb_history ()) (fun h ->
      match Codec.history_of_string (Codec.history_to_string h) with
      | Ok h' -> History.to_list h = History.to_list h'
      | Error _ -> false)

(* Mutate a few bytes of a valid encoding: the decoder must return — any
   [Ok]/[Error] is fine, an exception is the bug.  (A mutation can land in
   a string payload and still decode, so [Ok] is not excluded.) *)

let mutate s muts =
  let b = Bytes.of_string s in
  List.iter
    (fun (pos, byte) ->
      if Bytes.length b > 0 then
        Bytes.set b (pos mod Bytes.length b) (Char.chr (byte land 0xff)))
    muts;
  Bytes.to_string b

let gen_mutations =
  QCheck2.Gen.(list_size (1 -- 8) (pair (0 -- 10_000) (0 -- 255)))

let prop_history_fuzz =
  qtest ~count:1000 "codec: mutated history bytes never crash the decoder"
    QCheck2.Gen.(pair (arb_history ()) gen_mutations)
    (fun (h, muts) ->
      let s = mutate (Codec.history_to_string h) muts in
      match Codec.history_of_string s with Ok _ | Error _ -> true)

let prop_frame_fuzz =
  qtest ~count:1000 "protocol: mutated frame bodies never crash the decoder"
    QCheck2.Gen.(pair gen_frame gen_mutations)
    (fun (f, muts) ->
      let s = mutate (Protocol.to_string f) muts in
      match Protocol.decode s with Ok _ | Error _ -> true)

(* A server's reader admits an events frame on [events_header] alone and
   its worker decodes the body: the header must name the session (and
   [from]) that [decode] finds, and must pass no body that [decode] reads
   as another kind of frame. *)
let header_agrees s =
  match (Protocol.events_header s, Protocol.decode s) with
  | h, Ok (Protocol.Events { session; _ }) -> h = Some (session, None)
  | h, Ok (Protocol.Events_at { session; from; _ }) ->
      h = Some (session, Some from)
  | h, Ok _ -> h = None
  | _, Error _ -> true

let prop_events_header =
  qtest ~count:1000 "protocol: events_header agrees with decode under mutation"
    QCheck2.Gen.(
      pair gen_frame (list_size (0 -- 8) (pair (0 -- 10_000) (0 -- 255))))
    (fun (f, muts) -> header_agrees (mutate (Protocol.to_string f) muts))

let prop_events_header_garbage =
  qtest ~count:1000 "protocol: events_header agrees with decode on garbage"
    QCheck2.Gen.(string_size ~gen:(0 -- 255 |> map Char.chr) (0 -- 64))
    header_agrees

(* --- batched decode ≡ per-event decode ----------------------------------- *)

(* [get_events] decodes a whole batch in one pass with hoisted bounds
   checks; this is the reference it must match bit for bit — the public
   per-event decoder driven by the same count prefix.  Same events, same
   final position, same error message, over valid encodings, mutated
   bytes, strict prefixes and garbage alike. *)

let reference_get_events r =
  let n = Codec.get_uvarint r in
  if n > Codec.remaining r then
    Codec.fail "event count %d exceeds remaining payload" n;
  List.init n (fun _ -> Codec.get_event r)

let batch_equals_reference s =
  let run f =
    let r = Codec.reader s in
    match f r with
    | evs -> Ok (evs, r.Codec.pos)
    | exception Codec.Error m -> Error m
  in
  match (run Codec.get_events, run reference_get_events) with
  | Ok (e1, p1), Ok (e2, p2) -> List.equal Event.equal e1 e2 && p1 = p2
  | Error m1, Error m2 -> String.equal m1 m2
  | Ok _, Error _ | Error _, Ok _ -> false

let encode_events events =
  let b = Buffer.create 256 in
  Codec.put_events b events;
  Buffer.contents b

let prop_batch_decode_valid =
  qtest ~count:1000 "codec: batch decode = per-event decode on encodings"
    (arb_history ()) (fun h ->
      batch_equals_reference (encode_events (History.to_list h)))

let prop_batch_decode_fuzz =
  qtest ~count:1000 "codec: batch decode = per-event decode under mutation"
    QCheck2.Gen.(pair (arb_history ()) gen_mutations)
    (fun (h, muts) ->
      batch_equals_reference (mutate (encode_events (History.to_list h)) muts))

let prop_batch_decode_garbage =
  qtest ~count:1000 "codec: batch decode = per-event decode on garbage"
    QCheck2.Gen.(string_size ~gen:(0 -- 255 |> map Char.chr) (0 -- 96))
    batch_equals_reference

let batch_decode_prefixes () =
  (* Every strict prefix of a long valid batch: exercises the slack-window
     fallback at every possible distance from the frame boundary. *)
  List.iter
    (fun (e : Figures.expectation) ->
      let s = encode_events (History.to_list e.history) in
      for len = 0 to String.length s do
        if not (batch_equals_reference (String.sub s 0 len)) then
          Alcotest.failf "%s: batch/per-event divergence at prefix %d" e.name
            len
      done)
    Figures.catalog

(* --- batched encode ≡ per-event encode ----------------------------------- *)

(* [put_events] serializes a whole batch through a scratch block with
   unchecked byte writes; this is the reference it must match bit for
   bit — the count prefix followed by the public per-event encoder.
   Same bytes on success; on a failed encode (negative operand), the
   same exception and the same partial buffer contents. *)

let reference_put_events b events =
  Codec.put_uvarint b (List.length events);
  List.iter (Codec.put_event b) events

let encode_parity events =
  let run f =
    let b = Buffer.create 256 in
    match f b events with
    | () -> Ok (Buffer.contents b)
    | exception Invalid_argument m -> Error (m, Buffer.contents b)
  in
  match (run Codec.put_events, run reference_put_events) with
  | Ok s1, Ok s2 -> String.equal s1 s2
  | Error (m1, s1), Error (m2, s2) -> String.equal m1 m2 && String.equal s1 s2
  | Ok _, Error _ | Error _, Ok _ -> false

let prop_batch_encode_valid =
  qtest ~count:1000 "codec: batch encode = per-event encode on histories"
    (arb_history ()) (fun h -> encode_parity (History.to_list h))

(* Raw event lists with hostile operands: negative variables and
   min_int values make the encoder raise partway through an event; the
   batch path must leave the buffer exactly as the reference would. *)
let gen_hostile_events =
  let open QCheck2.Gen in
  let hostile = oneofl [ min_int; -1; 0; 1; 5; max_int ] in
  let ev =
    oneof
      [
        map2 (fun k v -> Event.Inv (k, Event.Read v)) (1 -- 4) hostile;
        map3
          (fun k var v -> Event.Inv (k, Event.Write (var, v)))
          (1 -- 4) hostile hostile;
        map (fun k -> Event.Inv (k, Event.Try_commit)) (1 -- 4);
        map2 (fun k v -> Event.Res (k, Event.Read_ok v)) (1 -- 4) hostile;
        map (fun k -> Event.Res (k, Event.Committed)) (1 -- 4);
      ]
  in
  list_size (0 -- 24) ev

let prop_batch_encode_hostile =
  qtest ~count:1000 "codec: batch encode = per-event encode on hostile events"
    gen_hostile_events encode_parity

let batch_encode_long () =
  (* Enough events to overflow the scratch block several times: the
     flush boundaries must be seamless and the result must round-trip. *)
  let events =
    List.concat_map
      (fun i ->
        [
          Event.Inv (i + 1, Event.Write (i, (i * 7919) - 4000));
          Event.Res (i + 1, Event.Write_ok);
        ])
      (List.init 2000 Fun.id)
  in
  Alcotest.(check bool) "parity across flushes" true (encode_parity events);
  let r = Codec.reader (encode_events events) in
  Alcotest.(check bool)
    "round-trips" true
    (List.equal Event.equal events (Codec.get_events r) && Codec.at_end r)

(* Tags 17 and 18 carried protocol 3's certify-counter request and reply.
   They are unassigned now: even a body that was valid under the old
   layout must be refused, never misread as another frame. *)
let retired_tags_refused () =
  List.iter
    (fun (name, body) ->
      match Protocol.decode body with
      | Ok f -> Alcotest.failf "%s decoded as %a" name Protocol.pp_frame f
      | Error _ -> ())
    [
      ("tag 17, empty", "\x11");
      ("tag 17 with a session", "\x11\x01");
      ("tag 18, empty", "\x12");
      ("tag 18 with a protocol-3 payload", "\x12\x01\x01\x03\x03\x00\x00");
    ]

(* Protocol 4 carried a sampling mode (byte 1), a retry hint after a
   [Throttle]'s session and a resume index after a [Resume]'s.  Version 5
   carries none of them, so each such body must be refused; the same
   bodies without the retired field still decode. *)
let retired_fields_refused () =
  let refused (name, body) =
    match Protocol.decode body with
    | Ok f -> Alcotest.failf "%s decoded as %a" name Protocol.pp_frame f
    | Error _ -> ()
  in
  List.iter refused
    [
      ("verdict tail with mode byte 1", "\x06\x01\x00\x03\x00\x01\x03");
      ("Resumed with mode byte 1", "\x0c\x01\x02\x01\x00");
      ("Throttle with a retry hint", "\x0d\x01\x32");
      ("Resume with a resume index", "\x0b\x01\x00");
    ];
  let decodes name body want =
    match Protocol.decode body with
    | Ok f when f = want -> ()
    | Ok f -> Alcotest.failf "%s decoded as %a" name Protocol.pp_frame f
    | Error msg -> Alcotest.failf "%s: %s" name msg
  in
  decodes "shed verdict tail" "\x06\x01\x00\x03\x00\x02\x03"
    (Protocol.verdict ~mode:Protocol.M_shed ~session:1 ~token:0 ~events:3
       Protocol.S_ok);
  decodes "Resumed, shed" "\x0c\x01\x02\x02\x00"
    (Protocol.Resumed
       { session = 1; applied = 2; mode = Protocol.M_shed; status = S_ok });
  decodes "Throttle" "\x0d\x01" (Protocol.Throttle { session = 1 });
  decodes "Resume" "\x0b\x01" (Protocol.Resume { session = 1 })

let prop_garbage =
  qtest ~count:1000 "protocol: arbitrary bytes never crash the decoder"
    QCheck2.Gen.(string_size ~gen:(0 -- 255 |> map Char.chr) (0 -- 64))
    (fun s ->
      (match Protocol.decode s with Ok _ | Error _ -> ());
      match Codec.history_of_string s with Ok _ | Error _ -> true)

let suite =
  [
    ( "codec",
      [
        test "uvarint round-trip at the edges" roundtrip_uvarint;
        test "zigzag int round-trip" roundtrip_int;
        test "string round-trip" roundtrip_string;
        test "overlong varint rejected" uvarint_rejects_overflow;
        test "every event shape round-trips" roundtrip_events;
        test "transaction 0 rejected" event_rejects_t0;
        test "paper figures round-trip through TMH1" figures_roundtrip;
        test "text and binary formats agree" figures_text_binary_agree;
        test "every strict prefix fails to decode" truncations_fail;
        prop_events_roundtrip;
        prop_history_roundtrip;
        prop_history_fuzz;
        test "batch decode = per-event decode on every strict prefix"
          batch_decode_prefixes;
        prop_batch_decode_valid;
        prop_batch_decode_fuzz;
        prop_batch_decode_garbage;
        test "batch encode = per-event encode across flushes" batch_encode_long;
        prop_batch_encode_valid;
        prop_batch_encode_hostile;
      ] );
    ( "protocol",
      [
        prop_frame_roundtrip;
        prop_frame_fuzz;
        prop_garbage;
        test "retired tags 17 and 18 do not decode" retired_tags_refused;
        test "retired protocol-4 fields do not decode" retired_fields_refused;
        prop_events_header;
        prop_events_header_garbage;
      ] );
  ]
