(** Framed I/O over Unix file descriptors.

    A frame on the wire is a 4-byte big-endian body length followed by the
    body ({!Protocol.encode}); see {!Protocol} for the grammar.  Reads are
    blocking and exact; writes serialise each batch of frames into one
    contiguous buffer so concurrent writers holding the same mutex
    interleave whole frames only. *)

type addr = [ `Unix of string | `Tcp of string * int ]

val pp_addr : Format.formatter -> addr -> unit

exception Closed
(** Peer closed the connection cleanly: EOF on a frame boundary. *)

exception Desync of string
(** The stream cannot be re-synchronised: the length prefix is unusable
    (zero, negative, or beyond {!Protocol.max_frame}), or the connection
    was torn {e inside} a frame — EOF after part of a frame's header or
    body was consumed, which must not be mistaken for a clean close. *)

val connect : addr -> Unix.file_descr
(** Client side: connect (with [TCP_NODELAY] for TCP).  Ignores
    [SIGPIPE] process-wide, so a peer dying mid-write surfaces as
    [EPIPE] rather than killing the process. *)

val listen : ?backlog:int -> addr -> Unix.file_descr
(** Server side: bind + listen; an existing Unix-socket path is unlinked
    first, TCP sockets get [SO_REUSEADDR]. *)

val accept : Unix.file_descr -> Unix.file_descr * Unix.sockaddr
(** Server side: [Unix.accept], plus [TCP_NODELAY] on a TCP connection, so
    both ends of the connection disable Nagle's algorithm alike. *)

val send : ?mutex:Mutex.t -> Unix.file_descr -> Protocol.frame -> unit
val send_many : ?mutex:Mutex.t -> Unix.file_descr -> Protocol.frame list -> unit

type input =
  | Frame of Protocol.frame
  | Malformed of string
      (** the body did not decode; the stream is still framed and the
          caller may keep reading after reporting the error *)

val recv : Unix.file_descr -> input
(** Reads retry [EINTR] rather than aborting a frame.
    @raise Closed on EOF at a frame boundary.
    @raise Desync on an unusable length prefix or EOF mid-frame.
    @raise Unix.Unix_error as usual. *)
