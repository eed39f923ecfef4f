module Monitor = Tm_checker.Monitor
module Session = Tm_checker.Session_monitor

let journal_magic = "TMJ1"
let snap_magic = "TMS1"
let record_tag = 1
let verdict_tag = 2

let journal_path ~dir ~session =
  Filename.concat dir (Fmt.str "s%d.journal" session)

let snap_path ~dir ~session = Filename.concat dir (Fmt.str "s%d.snap" session)

type t = {
  dir : string;
  session : int;
  sync : bool;
  mutable fd : Unix.file_descr option;
  mutable base : int;  (* applied index at which the journal file begins *)
  mutable count : int;  (* events recorded in the journal file *)
}

let applied t = t.base + t.count
let since_snapshot t = t.count

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

(* Write [content] to [path] atomically: temporary file + rename. *)
let write_file_atomic path content =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (try
     write_string fd content;
     Unix.fsync fd
   with e ->
     Unix.close fd;
     raise e);
  Unix.close fd;
  Unix.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let journal_header base =
  let b = Buffer.create 16 in
  Buffer.add_string b journal_magic;
  Codec.put_uvarint b base;
  Buffer.contents b

let unlink_quiet path = try Unix.unlink path with Unix.Unix_error _ -> ()

let delete ~dir ~session =
  unlink_quiet (journal_path ~dir ~session);
  unlink_quiet (snap_path ~dir ~session);
  unlink_quiet (journal_path ~dir ~session ^ ".tmp");
  unlink_quiet (snap_path ~dir ~session ^ ".tmp")

let exists ~dir ~session =
  Sys.file_exists (journal_path ~dir ~session)
  || Sys.file_exists (snap_path ~dir ~session)

let open_append path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644

let create ?(sync = false) ~dir ~session () =
  mkdirs dir;
  delete ~dir ~session;
  let path = journal_path ~dir ~session in
  write_file_atomic path (journal_header 0);
  let fd = open_append path in
  { dir; session; sync; fd = Some fd; base = 0; count = 0 }

let append t events =
  match t.fd with
  | None -> invalid_arg "Journal.append: closed"
  | Some fd ->
      let b = Buffer.create 64 in
      Buffer.add_char b (Char.chr record_tag);
      Codec.put_events b events;
      write_string fd (Buffer.contents b);
      if t.sync then Unix.fsync fd;
      t.count <- t.count + List.length events;
      applied t

(* --- monitor capsules ---------------------------------------------------- *)

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
  match t.fd with
  | None -> invalid_arg "Journal.record_verdict: closed"
  | Some fd ->
      let b = Buffer.create 32 in
      Buffer.add_char b (Char.chr verdict_tag);
      put_outcome b status;
      put_opt_index b violation_index;
      write_string fd (Buffer.contents b);
      if t.sync then Unix.fsync fd

let put_capsule b (p : Monitor.persisted) =
  put_opt_index b p.Monitor.p_max_nodes;
  Codec.put_events b p.Monitor.p_events;
  put_outcome b p.Monitor.p_status;
  put_opt_index b p.Monitor.p_violation_index;
  let c = p.Monitor.p_counters in
  Codec.put_uvarint b c.Monitor.events;
  Codec.put_uvarint b c.Monitor.responses;
  Codec.put_uvarint b c.Monitor.fastpath_hits;
  Codec.put_uvarint b c.Monitor.searches;
  Codec.put_uvarint b c.Monitor.nodes;
  Codec.put_uvarint b c.Monitor.pending

let get_capsule r : Monitor.persisted =
  let p_max_nodes = get_opt_index r in
  let p_events = Codec.get_events r in
  let p_status = get_outcome r in
  let p_violation_index = get_opt_index r in
  let events = Codec.get_uvarint r in
  let responses = Codec.get_uvarint r in
  let fastpath_hits = Codec.get_uvarint r in
  let searches = Codec.get_uvarint r in
  let nodes = Codec.get_uvarint r in
  let pending = Codec.get_uvarint r in
  {
    Monitor.p_max_nodes;
    p_events;
    p_status;
    p_violation_index;
    p_counters =
      { Monitor.events; responses; fastpath_hits; searches; nodes; pending };
  }

let snapshot t p =
  let b = Buffer.create 1024 in
  Buffer.add_string b snap_magic;
  Codec.put_uvarint b (applied t);
  put_capsule b p;
  write_file_atomic (snap_path ~dir:t.dir ~session:t.session) (Buffer.contents b);
  (* Reset the journal: its new base is the applied index the snapshot
     covers.  The reset is itself atomic (tmp + rename); a crash landing
     between the two renames leaves the old journal in place, whose
     smaller header [base] makes recovery skip the doubly-covered events
     rather than replay them twice. *)
  let path = journal_path ~dir:t.dir ~session:t.session in
  write_file_atomic path (journal_header (applied t));
  (match t.fd with Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ()) | None -> ());
  t.fd <- Some (open_append path);
  t.base <- applied t;
  t.count <- 0

let close t =
  match t.fd with
  | None -> ()
  | Some fd ->
      t.fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

(* --- recovery ------------------------------------------------------------ *)

let load_snapshot ~dir ~session =
  let path = snap_path ~dir ~session in
  if not (Sys.file_exists path) then Ok None
  else
    match
      let r = Codec.reader (read_file path) in
      let magic = Codec.get_bytes r 4 in
      if magic <> snap_magic then Codec.fail "bad snapshot magic %S" magic;
      let applied = Codec.get_uvarint r in
      let capsule = get_capsule r in
      if not (Codec.at_end r) then Codec.fail "trailing bytes after snapshot";
      (applied, capsule)
    with
    | v -> Ok (Some v)
    | exception Codec.Error msg ->
        Error (Fmt.str "snapshot %s is corrupt: %s" path msg)
    | exception Sys_error msg -> Error msg

(* Parse the journal greedily, tolerating a torn tail: returns the header
   base (None when the file is empty or headerless — a crash window during
   reset), the whole records' events, the last sticky-verdict record if
   any, and the byte length of the valid prefix the file should be
   truncated to. *)
let parse_journal data =
  let len = String.length data in
  if len = 0 then (None, [], None, 0)
  else
    match
      let r = Codec.reader data in
      let magic = Codec.get_bytes r 4 in
      if magic <> journal_magic then Codec.fail "bad journal magic %S" magic;
      let base = Codec.get_uvarint r in
      (base, r)
    with
    | exception Codec.Error _ -> (None, [], None, 0)
    | base, r ->
        let events = ref [] in
        let verdict = ref None in
        let valid = ref r.Codec.pos in
        (try
           while not (Codec.at_end r) do
             let tag = Codec.get_byte r in
             if tag = record_tag then begin
               let batch = Codec.get_events r in
               events := List.rev_append batch !events
             end
             else if tag = verdict_tag then begin
               let status = get_outcome r in
               let vidx = get_opt_index r in
               verdict := Some (status, vidx)
             end
             else Codec.fail "unknown record tag %d" tag;
             valid := r.Codec.pos
           done
         with Codec.Error _ -> ());
        (Some base, List.rev !events, !verdict, !valid)

(* Everything recovery reads from disk: the snapshot capsule (if any),
   the journal events to replay on top of it, the last journalled sticky
   verdict, and the reopened (torn-tail-sheared) journal handle. *)
let recover_parts ~sync ~dir ~session =
  match load_snapshot ~dir ~session with
  | Error _ as e -> e
  | Ok snap ->
      let snap_applied = match snap with None -> 0 | Some (a, _) -> a in
      let capsule = Option.map snd snap in
      let path = journal_path ~dir ~session in
      let base, events, verdict, valid_len =
        if Sys.file_exists path then parse_journal (read_file path)
        else (None, [], None, -1)
      in
      let base = Option.value base ~default:snap_applied in
      (* Events at indices [base, snap_applied) are already inside the
         snapshot (the crash landed mid-reset); replay only the rest. *)
      let skip = max 0 (snap_applied - base) in
      let rec drop n = function
        | rest when n <= 0 -> rest
        | [] -> []
        | _ :: rest -> drop (n - 1) rest
      in
      let replay = drop skip events in
      let count = List.length events in
      let t = { dir; session; sync; fd = None; base; count } in
      (if valid_len >= String.length journal_magic then begin
         (* Reopen the surviving journal, shearing any torn tail. *)
         let fd = open_append path in
         (try Unix.ftruncate fd valid_len with Unix.Unix_error _ -> ());
         t.fd <- Some fd
       end
       else begin
         (* Missing or headerless journal: start a fresh file whose
            base is everything applied so far. *)
         mkdirs dir;
         write_file_atomic path (journal_header (applied t));
         t.base <- applied t;
         t.count <- 0;
         t.fd <- Some (open_append path)
       end);
      Ok (capsule, replay, verdict, t)

(* A journalled sticky verdict is authoritative: the pre-crash server
   observed it live.  Replay may fail to re-derive it (e.g. a
   search-found violation degrades to [`Budget] under a smaller
   [max_nodes]), so adopt it the way a snapshot capsule would. *)
let adopt_verdict ~persist ~status = function
  | Some (((`Violation _ | `Budget _) as st), vidx) when status <> st ->
      Some { (persist ()) with Monitor.p_status = st; p_violation_index = vidx }
  | _ -> None

(* The final certify settles the replayed stream's verdict, so the
   caller's [Resumed] frame never reports a provisional [`Ok] over an
   uncertified suffix. *)
let recover ?(sync = false) ?max_nodes ~dir ~session () =
  match recover_parts ~sync ~dir ~session with
  | Error _ as e -> e
  | Ok (capsule, replay, verdict, t) -> (
      let monitor_r =
        match capsule with
        | None -> Ok (Session.create ?max_nodes ())
        | Some capsule -> Session.of_persisted capsule
      in
      match monitor_r with
      | Error _ as e ->
          close t;
          e
      | Ok monitor ->
          List.iter (fun ev -> ignore (Session.push monitor ev)) replay;
          let monitor =
            match
              adopt_verdict
                ~persist:(fun () -> Session.persist monitor)
                ~status:(Session.status monitor) verdict
            with
            | Some patched -> (
                match Session.of_persisted patched with
                | Ok m -> m
                | Error _ -> monitor)
            | None -> monitor
          in
          ignore (Session.certify monitor);
          Ok (monitor, applied t, t))

(* perfbench/ is frozen and still calls the name recovery had while
   sessions were sharded. *)
let recover_sharded = recover

let sessions_on_disk ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun name ->
             match Filename.chop_suffix_opt ~suffix:".journal" name with
             | Some stem when String.length stem > 1 && stem.[0] = 's' ->
                 int_of_string_opt
                   (String.sub stem 1 (String.length stem - 1))
             | _ -> (
                 match Filename.chop_suffix_opt ~suffix:".snap" name with
                 | Some stem when String.length stem > 1 && stem.[0] = 's' ->
                     int_of_string_opt
                       (String.sub stem 1 (String.length stem - 1))
                 | _ -> None))
      |> List.sort_uniq Int.compare
