let version = 5
let hello_magic = "TMSV"
let max_frame = 16 * 1024 * 1024
let default_session_timeout = 30.0
let default_heartbeat = 5.0

type error_code =
  | Bad_frame
  | Bad_magic
  | Unsupported_version
  | Unknown_session
  | Duplicate_session
  | Server_error
  | Overloaded

let error_code_to_int = function
  | Bad_frame -> 1
  | Bad_magic -> 2
  | Unsupported_version -> 3
  | Unknown_session -> 4
  | Duplicate_session -> 5
  | Server_error -> 6
  | Overloaded -> 7

let error_code_of_int = function
  | 1 -> Some Bad_frame
  | 2 -> Some Bad_magic
  | 3 -> Some Unsupported_version
  | 4 -> Some Unknown_session
  | 5 -> Some Duplicate_session
  | 6 -> Some Server_error
  | 7 -> Some Overloaded
  | _ -> None

let pp_error_code ppf c =
  Fmt.string ppf
    (match c with
    | Bad_frame -> "bad-frame"
    | Bad_magic -> "bad-magic"
    | Unsupported_version -> "unsupported-version"
    | Unknown_session -> "unknown-session"
    | Duplicate_session -> "duplicate-session"
    | Server_error -> "server-error"
    | Overloaded -> "overloaded")

type status = S_ok | S_violation of string | S_budget of string

type mode = M_full | M_shed

let mode_to_int = function M_full -> 0 | M_shed -> 2

let mode_of_int = function 0 -> Some M_full | 2 -> Some M_shed | _ -> None

let pp_mode ppf m =
  Fmt.string ppf (match m with M_full -> "full" | M_shed -> "shed")

type verdict = {
  session : int;
  token : int;
  events : int;
  status : status;
  mode : mode;
  applied : int;
}

type domain_stats = {
  live_sessions : int;
  closed_sessions : int;
  events : int;
  responses : int;
  fastpath_hits : int;
  searches : int;
  nodes : int;
}

type frame =
  | Hello of { version : int }
  | Open_session of { session : int }
  | Events of { session : int; events : Event.t list }
  | Checkpoint of { session : int; token : int }
  | Close_session of { session : int }
  | Verdict of verdict
  | Stats_req
  | Stats of domain_stats list
  | Err of { code : error_code; message : string }
  | Goodbye
  | Resume of { session : int }
  | Resumed of { session : int; applied : int; mode : mode; status : status }
  | Throttle of { session : int }
  | Heartbeat
  | Events_at of { session : int; from : int; events : Event.t list }
  | Shed of { session : int; reason : string }

let verdict ?(mode = M_full) ?applied ~session ~token ~events status =
  let applied = Option.value applied ~default:events in
  Verdict { session; token; events; status; mode; applied }

let tag_of_frame = function
  | Hello _ -> 1
  | Open_session _ -> 2
  | Events _ -> 3
  | Checkpoint _ -> 4
  | Close_session _ -> 5
  | Verdict _ -> 6
  | Stats_req -> 7
  | Stats _ -> 8
  | Err _ -> 9
  | Goodbye -> 10
  | Resume _ -> 11
  | Resumed _ -> 12
  | Throttle _ -> 13
  | Heartbeat -> 14
  | Events_at _ -> 15
  | Shed _ -> 16

let put_status b = function
  | S_ok -> Codec.put_uvarint b 0
  | S_violation why ->
      Codec.put_uvarint b 1;
      Codec.put_string b why
  | S_budget why ->
      Codec.put_uvarint b 2;
      Codec.put_string b why

let encode b frame =
  Buffer.add_char b (Char.chr (tag_of_frame frame));
  match frame with
  | Hello { version } ->
      Buffer.add_string b hello_magic;
      Codec.put_uvarint b version
  | Open_session { session } -> Codec.put_uvarint b session
  | Events { session; events } ->
      Codec.put_uvarint b session;
      Codec.put_events b events
  | Checkpoint { session; token } ->
      Codec.put_uvarint b session;
      Codec.put_uvarint b token
  | Close_session { session } -> Codec.put_uvarint b session
  | Verdict { session; token; events; status; mode; applied } ->
      Codec.put_uvarint b session;
      Codec.put_uvarint b token;
      Codec.put_uvarint b events;
      put_status b status;
      (* The tail is only emitted when it says something: an absent tail
         decodes as full checking with [applied = events]. *)
      if mode <> M_full || applied <> events then begin
        Buffer.add_char b (Char.chr (mode_to_int mode));
        Codec.put_uvarint b applied
      end
  | Stats_req -> ()
  | Stats domains ->
      Codec.put_uvarint b (List.length domains);
      List.iter
        (fun d ->
          Codec.put_uvarint b d.live_sessions;
          Codec.put_uvarint b d.closed_sessions;
          Codec.put_uvarint b d.events;
          Codec.put_uvarint b d.responses;
          Codec.put_uvarint b d.fastpath_hits;
          Codec.put_uvarint b d.searches;
          Codec.put_uvarint b d.nodes)
        domains
  | Err { code; message } ->
      Codec.put_uvarint b (error_code_to_int code);
      Codec.put_string b message
  | Goodbye -> ()
  | Resume { session } -> Codec.put_uvarint b session
  | Resumed { session; applied; mode; status } ->
      Codec.put_uvarint b session;
      Codec.put_uvarint b applied;
      Buffer.add_char b (Char.chr (mode_to_int mode));
      put_status b status
  | Throttle { session } -> Codec.put_uvarint b session
  | Heartbeat -> ()
  | Events_at { session; from; events } ->
      Codec.put_uvarint b session;
      Codec.put_uvarint b from;
      Codec.put_events b events
  | Shed { session; reason } ->
      Codec.put_uvarint b session;
      Codec.put_string b reason

let to_string frame =
  let b = Buffer.create 64 in
  encode b frame;
  Buffer.contents b

let get_status r =
  match Codec.get_uvarint r with
  | 0 -> S_ok
  | 1 -> S_violation (Codec.get_string r)
  | 2 -> S_budget (Codec.get_string r)
  | n -> Codec.fail "unknown verdict status %d" n

let get_mode r =
  let m = Codec.get_byte r in
  match mode_of_int m with
  | Some m -> m
  | None -> Codec.fail "unknown degradation mode %d" m

let decode_reader r =
  let tag = Codec.get_byte r in
  match tag with
  | 1 ->
      let magic = Codec.get_bytes r 4 in
      if magic <> hello_magic then Codec.fail "bad hello magic %S" magic;
      Hello { version = Codec.get_uvarint r }
  | 2 -> Open_session { session = Codec.get_uvarint r }
  | 3 ->
      let session = Codec.get_uvarint r in
      Events { session; events = Codec.get_events r }
  | 4 ->
      let session = Codec.get_uvarint r in
      Checkpoint { session; token = Codec.get_uvarint r }
  | 5 -> Close_session { session = Codec.get_uvarint r }
  | 6 ->
      let session = Codec.get_uvarint r in
      let token = Codec.get_uvarint r in
      let events = Codec.get_uvarint r in
      let status = get_status r in
      let mode, applied =
        if Codec.at_end r then (M_full, events)
        else
          let mode = get_mode r in
          (mode, Codec.get_uvarint r)
      in
      Verdict { session; token; events; status; mode; applied }
  | 7 -> Stats_req
  | 8 ->
      let n = Codec.get_uvarint r in
      if n > Codec.remaining r then
        Codec.fail "domain count %d exceeds remaining payload" n;
      Stats
        (List.init n (fun _ ->
             let live_sessions = Codec.get_uvarint r in
             let closed_sessions = Codec.get_uvarint r in
             let events = Codec.get_uvarint r in
             let responses = Codec.get_uvarint r in
             let fastpath_hits = Codec.get_uvarint r in
             let searches = Codec.get_uvarint r in
             let nodes = Codec.get_uvarint r in
             {
               live_sessions;
               closed_sessions;
               events;
               responses;
               fastpath_hits;
               searches;
               nodes;
             }))
  | 9 ->
      let code = Codec.get_uvarint r in
      let message = Codec.get_string r in
      let code =
        match error_code_of_int code with
        | Some c -> c
        | None -> Codec.fail "unknown error code %d" code
      in
      Err { code; message }
  | 10 -> Goodbye
  | 11 -> Resume { session = Codec.get_uvarint r }
  | 12 ->
      let session = Codec.get_uvarint r in
      let applied = Codec.get_uvarint r in
      let mode = get_mode r in
      let status = get_status r in
      Resumed { session; applied; mode; status }
  | 13 -> Throttle { session = Codec.get_uvarint r }
  | 14 -> Heartbeat
  | 15 ->
      let session = Codec.get_uvarint r in
      let from = Codec.get_uvarint r in
      Events_at { session; from; events = Codec.get_events r }
  | 16 ->
      let session = Codec.get_uvarint r in
      Shed { session; reason = Codec.get_string r }
  | t -> Codec.fail "unknown frame tag %d" t

let decode body =
  match
    let r = Codec.reader body in
    let frame = decode_reader r in
    if not (Codec.at_end r) then
      Codec.fail "%d trailing bytes after frame" (Codec.remaining r);
    frame
  with
  | frame -> Ok frame
  | exception Codec.Error msg -> Error msg
  (* lint: allow swallowed-exception — total-decoder backstop: any crash
     on adversarial bytes must become a decode error, never a raise *)
  | exception _ -> Error "undecodable frame"

let events_header body =
  let r = Codec.reader body in
  try
    match Codec.get_byte r with
    | 3 -> Some (Codec.get_uvarint r, None)
    | 15 ->
        let session = Codec.get_uvarint r in
        Some (session, Some (Codec.get_uvarint r))
    | _ -> None
  with Codec.Error _ -> None

let pp_status ppf = function
  | S_ok -> Fmt.string ppf "ok"
  | S_violation why -> Fmt.pf ppf "VIOLATION (%s)" why
  | S_budget why -> Fmt.pf ppf "unknown (%s)" why

let pp_frame ppf = function
  | Hello { version } -> Fmt.pf ppf "Hello v%d" version
  | Open_session { session } -> Fmt.pf ppf "Open_session %d" session
  | Events { session; events } ->
      Fmt.pf ppf "Events %d (%d events)" session (List.length events)
  | Checkpoint { session; token } ->
      Fmt.pf ppf "Checkpoint %d token %d" session token
  | Close_session { session } -> Fmt.pf ppf "Close_session %d" session
  | Verdict { session; token; events; status; mode; applied } ->
      Fmt.pf ppf "Verdict %d token %d events %d: %a" session token events
        pp_status status;
      if mode <> M_full || applied <> events then
        Fmt.pf ppf " [%a, applied %d]" pp_mode mode applied
  | Stats_req -> Fmt.string ppf "Stats_req"
  | Stats ds -> Fmt.pf ppf "Stats (%d domains)" (List.length ds)
  | Err { code; message } ->
      Fmt.pf ppf "Error %a: %s" pp_error_code code message
  | Goodbye -> Fmt.string ppf "Goodbye"
  | Resume { session } -> Fmt.pf ppf "Resume %d" session
  | Resumed { session; applied; mode; status } ->
      Fmt.pf ppf "Resumed %d applied %d [%a]: %a" session applied pp_mode
        mode pp_status status
  | Throttle { session } -> Fmt.pf ppf "Throttle %d" session
  | Heartbeat -> Fmt.string ppf "Heartbeat"
  | Events_at { session; from; events } ->
      Fmt.pf ppf "Events_at %d from %d (%d events)" session from
        (List.length events)
  | Shed { session; reason } -> Fmt.pf ppf "Shed %d: %s" session reason
