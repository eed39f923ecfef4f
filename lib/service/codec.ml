exception Error of string

let fail fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type reader = { data : string; mutable pos : int; limit : int }

let reader ?(pos = 0) ?len data =
  let limit =
    match len with Some n -> pos + n | None -> String.length data
  in
  if pos < 0 || limit > String.length data || pos > limit then
    invalid_arg "Codec.reader: bounds";
  { data; pos; limit }

let remaining r = r.limit - r.pos
let at_end r = r.pos >= r.limit

let get_byte r =
  if r.pos >= r.limit then fail "truncated input at byte %d" r.pos
  else begin
    let b = Char.code r.data.[r.pos] in
    r.pos <- r.pos + 1;
    b
  end

let get_bytes r n =
  if n < 0 then fail "negative byte count"
  else if remaining r < n then
    fail "truncated input: need %d bytes at %d, have %d" n r.pos (remaining r)
  else begin
    let s = String.sub r.data r.pos n in
    r.pos <- r.pos + n;
    s
  end

(* --- varints ----------------------------------------------------------- *)

(* Unsigned LEB128.  OCaml ints are 63-bit here; ten 7-bit groups overflow,
   so the decoder bounds the shift and rejects the overflowing continuation
   rather than wrapping silently. *)

let put_uvarint b n =
  if n < 0 then invalid_arg "Codec.put_uvarint: negative";
  let rec go n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let get_uvarint r =
  let rec go shift acc =
    if shift > 56 then fail "varint too long at byte %d" r.pos
    else
      let byte = get_byte r in
      let acc = acc lor ((byte land 0x7f) lsl shift) in
      if byte land 0x80 = 0 then
        if shift = 56 && byte > 0x3f then fail "varint overflows 63 bits"
        else acc
      else go (shift + 7) acc
  in
  go 0 0

(* Signed values zigzag through the unsigned encoding. *)

let put_int b n =
  let z = if n >= 0 then n lsl 1 else (lnot n lsl 1) lor 1 in
  put_uvarint b z

let get_int r =
  let z = get_uvarint r in
  if z land 1 = 0 then z lsr 1 else lnot (z lsr 1)

let put_string b s =
  put_uvarint b (String.length s);
  Buffer.add_string b s

let get_string r =
  let n = get_uvarint r in
  get_bytes r n

(* --- events ------------------------------------------------------------ *)

(* One tag byte selects the event shape; operands follow as varints.
   Transaction identifiers are positive, variables non-negative — the
   decoder enforces both so undecodable bytes surface here as [Error]
   rather than as a well-formedness failure three layers up. *)

let tag_inv_read = 0
let tag_inv_write = 1
let tag_inv_tryc = 2
let tag_inv_trya = 3
let tag_res_read = 4
let tag_res_write = 5
let tag_res_committed = 6
let tag_res_aborted = 7

let put_event b ev =
  let tag t k =
    Buffer.add_char b (Char.chr t);
    put_uvarint b k
  in
  match ev with
  | Event.Inv (k, Event.Read var) ->
      tag tag_inv_read k;
      put_uvarint b var
  | Event.Inv (k, Event.Write (var, v)) ->
      tag tag_inv_write k;
      put_uvarint b var;
      put_int b v
  | Event.Inv (k, Event.Try_commit) -> tag tag_inv_tryc k
  | Event.Inv (k, Event.Try_abort) -> tag tag_inv_trya k
  | Event.Res (k, Event.Read_ok v) ->
      tag tag_res_read k;
      put_int b v
  | Event.Res (k, Event.Write_ok) -> tag tag_res_write k
  | Event.Res (k, Event.Committed) -> tag tag_res_committed k
  | Event.Res (k, Event.Aborted) -> tag tag_res_aborted k

let get_event r =
  let tag = get_byte r in
  let tx () =
    let k = get_uvarint r in
    if k <= 0 then fail "transaction identifier must be positive, got %d" k;
    k
  in
  if tag = tag_inv_read then
    let k = tx () in
    Event.Inv (k, Event.Read (get_uvarint r))
  else if tag = tag_inv_write then begin
    let k = tx () in
    let var = get_uvarint r in
    Event.Inv (k, Event.Write (var, get_int r))
  end
  else if tag = tag_inv_tryc then Event.Inv (tx (), Event.Try_commit)
  else if tag = tag_inv_trya then Event.Inv (tx (), Event.Try_abort)
  else if tag = tag_res_read then
    let k = tx () in
    Event.Res (k, Event.Read_ok (get_int r))
  else if tag = tag_res_write then Event.Res (tx (), Event.Write_ok)
  else if tag = tag_res_committed then Event.Res (tx (), Event.Committed)
  else if tag = tag_res_aborted then Event.Res (tx (), Event.Aborted)
  else fail "unknown event tag %d" tag

(* A whole frame's batch encodes in a single pass, mirroring the batch
   decode below: events serialize into a scratch block with unchecked
   byte writes, flushed to the buffer in runs — one slack test per event
   instead of a bounds check per byte ([max_event_bytes] caps any
   event's encoding).  [put_event] stays as the per-event reference; the
   fuzz suite holds the two paths to byte-identical output, including
   the partial bytes and exception of a failed encode. *)

let put_events b events =
  put_uvarint b (List.length events);
  let scratch = Bytes.create 8192 in
  let pos = ref 0 in
  let flush () =
    Buffer.add_subbytes b scratch 0 !pos;
    pos := 0
  in
  let byte v =
    Bytes.unsafe_set scratch !pos (Char.unsafe_chr v);
    incr pos
  in
  (* [put_uvarint] with the per-byte buffer pushes elided; the negative
     guard flushes first so the buffer holds exactly the bytes the
     reference encoder would have written before raising *)
  let uvarint n =
    if n < 0 then begin
      flush ();
      invalid_arg "Codec.put_uvarint: negative"
    end;
    let n = ref n in
    while !n >= 0x80 do
      byte (0x80 lor (!n land 0x7f));
      n := !n lsr 7
    done;
    byte !n
  in
  let zint n = uvarint (if n >= 0 then n lsl 1 else (lnot n lsl 1) lor 1) in
  List.iter
    (fun ev ->
      if Bytes.length scratch - !pos < 1 + (3 * 9) then flush ();
      match ev with
      | Event.Inv (k, Event.Read var) ->
          byte tag_inv_read;
          uvarint k;
          uvarint var
      | Event.Inv (k, Event.Write (var, v)) ->
          byte tag_inv_write;
          uvarint k;
          uvarint var;
          zint v
      | Event.Inv (k, Event.Try_commit) ->
          byte tag_inv_tryc;
          uvarint k
      | Event.Inv (k, Event.Try_abort) ->
          byte tag_inv_trya;
          uvarint k
      | Event.Res (k, Event.Read_ok v) ->
          byte tag_res_read;
          uvarint k;
          zint v
      | Event.Res (k, Event.Write_ok) ->
          byte tag_res_write;
          uvarint k
      | Event.Res (k, Event.Committed) ->
          byte tag_res_committed;
          uvarint k
      | Event.Res (k, Event.Aborted) ->
          byte tag_res_aborted;
          uvarint k)
    events;
  flush ()

(* A whole frame's batch decodes in a single pass: the hot loop reads
   through [r.pos] with the per-byte limit checks hoisted into one slack
   test per event — no event encodes to more than [max_event_bytes] (a
   tag plus three maximal varints), so inside that window every byte
   access is in bounds by construction.  Events near the frame boundary,
   and only those, fall back to the per-event reference decoder
   [get_event]; the fuzz suite holds the two paths to byte-identical
   results, failure messages included. *)

let max_event_bytes = 1 + (3 * 9)

(* The count that prefixes an event sequence. *)
let get_count r =
  let n = get_uvarint r in
  if n > remaining r then
    (* each event takes >= 2 bytes; an inflated count cannot be honest *)
    fail "event count %d exceeds remaining payload" n;
  n

(* The batch decoder over [r]: each call decodes the next event. *)
let event_decoder r =
  let data = r.data in
  (* [get_uvarint] with the bounds checks elided; failure positions and
     messages mirror the checked decoder exactly *)
  let uvarint () =
    let b0 = Char.code (String.unsafe_get data r.pos) in
    r.pos <- r.pos + 1;
    if b0 < 0x80 then b0
    else begin
      let acc = ref (b0 land 0x7f) and shift = ref 7 and cont = ref true in
      while !cont do
        if !shift > 56 then fail "varint too long at byte %d" r.pos;
        let byte = Char.code (String.unsafe_get data r.pos) in
        r.pos <- r.pos + 1;
        acc := !acc lor ((byte land 0x7f) lsl !shift);
        if byte land 0x80 = 0 then begin
          if !shift = 56 && byte > 0x3f then fail "varint overflows 63 bits";
          cont := false
        end
        else shift := !shift + 7
      done;
      !acc
    end
  in
  let zint () =
    let z = uvarint () in
    if z land 1 = 0 then z lsr 1 else lnot (z lsr 1)
  in
  let tx () =
    let k = uvarint () in
    if k <= 0 then fail "transaction identifier must be positive, got %d" k;
    k
  in
  let fast_event () =
    let tag = Char.code (String.unsafe_get data r.pos) in
    r.pos <- r.pos + 1;
    if tag = tag_inv_read then
      let k = tx () in
      Event.Inv (k, Event.Read (uvarint ()))
    else if tag = tag_inv_write then begin
      let k = tx () in
      let var = uvarint () in
      Event.Inv (k, Event.Write (var, zint ()))
    end
    else if tag = tag_inv_tryc then Event.Inv (tx (), Event.Try_commit)
    else if tag = tag_inv_trya then Event.Inv (tx (), Event.Try_abort)
    else if tag = tag_res_read then
      let k = tx () in
      Event.Res (k, Event.Read_ok (zint ()))
    else if tag = tag_res_write then Event.Res (tx (), Event.Write_ok)
    else if tag = tag_res_committed then Event.Res (tx (), Event.Committed)
    else if tag = tag_res_aborted then Event.Res (tx (), Event.Aborted)
    else fail "unknown event tag %d" tag
  in
  fun () ->
    if r.limit - r.pos >= max_event_bytes then fast_event () else get_event r

let get_events r =
  let n = get_count r in
  let next = event_decoder r in
  let rec build i acc =
    if i >= n then List.rev acc else build (i + 1) (next () :: acc)
  in
  build 0 []

(* A decoded history fills an array of the announced count, which
   [History.of_event_array] then validates in place: no list. *)
let get_event_array r =
  let n = get_count r in
  let next = event_decoder r in
  let arr = Array.make n (Event.Res (0, Event.Aborted)) in
  for i = 0 to n - 1 do
    arr.(i) <- next ()
  done;
  arr

(* --- standalone history files ------------------------------------------ *)

let history_magic = "TMH1"

let put_history b h =
  Buffer.add_string b history_magic;
  put_events b (History.to_list h)

let history_to_string h =
  let b = Buffer.create (16 + (4 * History.length h)) in
  put_history b h;
  Buffer.contents b

let get_history r =
  let magic = get_bytes r 4 in
  if magic <> history_magic then fail "bad history magic %S" magic;
  match History.of_event_array (get_event_array r) with
  | Ok h -> h
  | Error e -> fail "decoded events are ill-formed: %a" History.pp_error e

let history_of_string s =
  match
    let r = reader s in
    let h = get_history r in
    if not (at_end r) then fail "trailing bytes after history";
    h
  with
  | h -> Ok h
  | exception Error msg -> Result.Error msg
  (* lint: allow swallowed-exception — total-decoder backstop: any crash
     on adversarial bytes must become a decode error, never a raise *)
  | exception _ -> Result.Error "undecodable history"

let looks_binary s = String.length s >= 4 && String.sub s 0 4 = history_magic
