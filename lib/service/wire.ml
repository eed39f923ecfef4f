type addr = [ `Unix of string | `Tcp of string * int ]

let pp_addr ppf = function
  | `Unix path -> Fmt.pf ppf "unix:%s" path
  | `Tcp (host, port) -> Fmt.pf ppf "tcp:%s:%d" host port

exception Closed
exception Desync of string

let sockaddr_of = function
  | `Unix path -> Unix.ADDR_UNIX path
  | `Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
          | _ -> Fmt.failwith "Wire: cannot resolve host %S" host)
      in
      Unix.ADDR_INET (ip, port)

let socket_of = function
  | `Unix _ -> Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
  | `Tcp _ -> Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0

(* Frames are small and latency-bound: with Nagle's algorithm on, a
   verdict waits for the previous segment's acknowledgement.  Both ends of
   a TCP connection turn it off. *)
let no_delay fd = function
  | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
  | Unix.ADDR_UNIX _ -> ()

let connect addr =
  (* A server dying mid-write must surface as EPIPE (a retryable
     transport error), not kill the client process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let fd = socket_of addr in
  let sa = sockaddr_of addr in
  (try Unix.connect fd sa
   with e ->
     Unix.close fd;
     raise e);
  no_delay fd sa;
  fd

let accept fd =
  let ((client, peer) as accepted) = Unix.accept fd in
  (* a peer that already vanished surfaces on the first read instead *)
  (try no_delay client peer with Unix.Unix_error _ -> ());
  accepted

let listen ?(backlog = 64) addr =
  let fd = socket_of addr in
  (try
     (match addr with
     | `Unix path -> if Sys.file_exists path then Unix.unlink path
     | `Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
     Unix.bind fd (sockaddr_of addr);
     Unix.listen fd backlog
   with e ->
     Unix.close fd;
     raise e);
  fd

let rec write_all fd bytes pos len =
  if len > 0 then begin
    match Unix.write fd bytes pos len with
    | n -> write_all fd bytes (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        write_all fd bytes pos len
  end

(* Read exactly [len] bytes into [bytes] at [pos].  EOF before the first
   byte of a frame is a clean close ([Closed]); EOF once any byte of the
   frame has been consumed — inside this read, or with [mid_frame] set by a
   caller that already consumed the frame's header — tears the frame and
   raises [Desync], so a connection dying mid-frame is never misreported as
   a clean close that silently drops the partial frame.  EINTR retries. *)
let read_exact ?(mid_frame = false) fd bytes pos len =
  let rec go consumed pos len =
    if len > 0 then begin
      match Unix.read fd bytes pos len with
      | 0 ->
          if consumed then
            raise
              (Desync
                 (Fmt.str "connection closed inside a frame (%d bytes short)"
                    len))
          else raise Closed
      | n -> go true (pos + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go consumed pos len
    end
  in
  go mid_frame pos len

(* Frames serialise into one contiguous byte string so a send is a single
   [write] loop under the caller's mutex — concurrent writers (one reader
   thread, several worker domains) interleave whole frames only. *)
let frame_bytes frames =
  let out = Buffer.create 256 in
  List.iter
    (fun frame ->
      let body = Protocol.to_string frame in
      let len = String.length body in
      if len > Protocol.max_frame then
        Fmt.invalid_arg "Wire.send: frame of %d bytes exceeds max_frame" len;
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 (Int32.of_int len);
      Buffer.add_bytes out hdr;
      Buffer.add_string out body)
    frames;
  Buffer.to_bytes out

let send_many ?mutex fd frames =
  let bytes = frame_bytes frames in
  match mutex with
  | None -> write_all fd bytes 0 (Bytes.length bytes)
  | Some m ->
      Mutex.lock m;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock m)
        (fun () -> write_all fd bytes 0 (Bytes.length bytes))

let send ?mutex fd frame = send_many ?mutex fd [ frame ]

type input = Frame of Protocol.frame | Malformed of string

let recv fd =
  let header = Bytes.create 4 in
  read_exact fd header 0 4;
  let len = Int32.to_int (Bytes.get_int32_be header 0) in
  if len <= 0 || len > Protocol.max_frame then
    raise (Desync (Fmt.str "frame length %d out of bounds" len));
  let body = Bytes.create len in
  read_exact ~mid_frame:true fd body 0 len;
  match Protocol.decode (Bytes.unsafe_to_string body) with
  | Ok frame -> Frame frame
  | Error msg -> Malformed msg
