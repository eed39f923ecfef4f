module Monitor = Tm_checker.Monitor

let magic = "TMJ2"

(* The previous format: a journal that a capsule file could reset, so its
   prefix may live only in that capsule.  Never replayed. *)
let snapshotting_magic = "TMJ1"
let record_tag = 1
let verdict_tag = 2

let journal_path ~dir ~session =
  Filename.concat dir (Fmt.str "s%d.journal" session)

(* The previous format's capsule file: refused by [recover], removed by
   [delete], never written. *)
let capsule_path ~dir ~session = Filename.concat dir (Fmt.str "s%d.snap" session)

type t = {
  sync : bool;
  mutable fd : Unix.file_descr option;
  mutable count : int;  (* events recorded in the journal *)
}

let applied t = t.count

let rec mkdirs dir =
  if dir <> Filename.dirname dir && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec write_all fd bytes pos len =
  if len > 0 then begin
    match Unix.write fd bytes pos len with
    | n -> write_all fd bytes (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd bytes pos len
  end

let write_string fd s = write_all fd (Bytes.unsafe_of_string s) 0 (String.length s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let unlink_quiet path = try Unix.unlink path with Unix.Unix_error _ -> ()

let delete ~dir ~session =
  unlink_quiet (journal_path ~dir ~session);
  unlink_quiet (journal_path ~dir ~session ^ ".tmp");
  unlink_quiet (capsule_path ~dir ~session)

let exists ~dir ~session =
  Sys.file_exists (journal_path ~dir ~session)
  || Sys.file_exists (capsule_path ~dir ~session)

let open_append path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644

(* The header goes in through a temporary file and [rename(2)], so a crash
   never leaves a headerless journal behind. *)
let create ?(sync = false) ~dir ~session () =
  mkdirs dir;
  delete ~dir ~session;
  let path = journal_path ~dir ~session in
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_string fd magic;
      Unix.fsync fd);
  Unix.rename tmp path;
  { sync; fd = Some (open_append path); count = 0 }

let write_record t what record =
  match t.fd with
  | None -> invalid_arg ("Journal." ^ what ^ ": closed")
  | Some fd ->
      write_string fd record;
      if t.sync then Unix.fsync fd

let append t events =
  let b = Buffer.create 64 in
  Buffer.add_char b (Char.chr record_tag);
  Codec.put_events b events;
  write_record t "append" (Buffer.contents b);
  t.count <- t.count + List.length events;
  applied t

(* --- sticky verdicts ----------------------------------------------------- *)

let put_outcome b : Monitor.outcome -> unit = function
  | `Ok -> Codec.put_uvarint b 0
  | `Violation why ->
      Codec.put_uvarint b 1;
      Codec.put_string b why
  | `Budget why ->
      Codec.put_uvarint b 2;
      Codec.put_string b why

let get_outcome r : Monitor.outcome =
  match Codec.get_uvarint r with
  | 0 -> `Ok
  | 1 -> `Violation (Codec.get_string r)
  | 2 -> `Budget (Codec.get_string r)
  | n -> Codec.fail "unknown monitor outcome %d" n

let put_opt_index b = function
  | None -> Codec.put_uvarint b 0
  | Some i -> Codec.put_uvarint b (i + 1)

let get_opt_index r =
  match Codec.get_uvarint r with 0 -> None | n -> Some (n - 1)

(* A sticky-verdict record: the live monitor's outcome at the moment it
   flipped, durably in the journal stream.  Event replay alone cannot be
   trusted to re-derive it — a violation found by the backtracking search
   under the pre-crash node budget degrades to [`Budget] when the restarted
   server replays under a smaller one — so the verdict itself is data. *)
let record_verdict t status violation_index =
  let b = Buffer.create 32 in
  Buffer.add_char b (Char.chr verdict_tag);
  put_outcome b status;
  put_opt_index b violation_index;
  write_record t "record_verdict" (Buffer.contents b)

let fsync t =
  match t.fd with
  | None -> invalid_arg "Journal.fsync: closed"
  | Some fd -> Unix.fsync fd

let snapshot t (p : Monitor.persisted) =
  record_verdict t p.Monitor.p_status p.Monitor.p_violation_index;
  fsync t

let close t =
  match t.fd with
  | None -> ()
  | Some fd ->
      t.fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

(* --- recovery ------------------------------------------------------------ *)

(* Parse the journal greedily, tolerating a torn tail: the whole records'
   events, the last sticky-verdict record if any, and the byte length of
   the valid prefix the file should be truncated to. *)
let parse_journal data =
  if String.starts_with ~prefix:snapshotting_magic data then
    Error
      "in the snapshotting format (TMJ1), whose prefix may live only in a \
       capsule file: refusing to replay it short"
  else if not (String.starts_with ~prefix:magic data) then
    Error "bad journal header"
  else begin
    let r = Codec.reader ~pos:(String.length magic) data in
    let events = ref [] in
    let verdict = ref None in
    let valid = ref r.Codec.pos in
    (try
       while not (Codec.at_end r) do
         let tag = Codec.get_byte r in
         if tag = record_tag then
           events := List.rev_append (Codec.get_events r) !events
         else if tag = verdict_tag then begin
           let status = get_outcome r in
           let vidx = get_opt_index r in
           verdict := Some (status, vidx)
         end
         else Codec.fail "unknown record tag %d" tag;
         valid := r.Codec.pos
       done
     with Codec.Error _ -> ());
    Ok (List.rev !events, !verdict, !valid)
  end

(* A journalled sticky verdict is authoritative: the pre-crash server
   observed it live.  Replay may fail to re-derive it (e.g. a search-found
   violation degrades to [`Budget] under a smaller [max_nodes]), so it is
   adopted into the monitor the journal was ingested into.  The final
   certify settles the replayed stream's verdict, so the caller's
   [Resumed] frame never reports a provisional [`Ok] over an uncertified
   suffix. *)
let recover ?(sync = false) ?max_nodes ~dir ~session () =
  let path = journal_path ~dir ~session in
  let parsed =
    if Sys.file_exists (capsule_path ~dir ~session) then
      Error
        "a capsule file of the snapshotting format is present; the journal \
         may not hold its prefix"
    else
      match read_file path with
      | exception Sys_error msg -> Error msg
      | data -> parse_journal data
  in
  match parsed with
  | Error msg -> Error (Fmt.str "journal %s: %s" path msg)
  | Ok (events, verdict, valid_len) -> (
      match open_append path with
      | exception Unix.Unix_error (e, _, _) ->
          Error (Fmt.str "journal %s: %s" path (Unix.error_message e))
      | fd ->
          (* shear any torn tail before appending again *)
          (try Unix.ftruncate fd valid_len with Unix.Unix_error _ -> ());
          let monitor = Monitor.create ?max_nodes () in
          List.iter (fun ev -> ignore (Monitor.ingest monitor ev)) events;
          (match verdict with
          | Some (st, vidx) when Monitor.status monitor <> st ->
              Monitor.adopt_verdict monitor st vidx
          | _ -> ());
          ignore (Monitor.certify monitor);
          let count = List.length events in
          Ok (monitor, count, { sync; fd = Some fd; count }))

(* perfbench/ is frozen and still calls the name recovery had while
   sessions were sharded. *)
let recover_sharded = recover
