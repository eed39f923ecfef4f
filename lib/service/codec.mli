(** Compact binary codec for events and histories.

    The wire protocol ({!Protocol}) and the standalone binary history file
    format are both built from these primitives: unsigned LEB128 varints,
    zigzag-coded signed integers, length-prefixed strings, and a one-byte
    tag per event.  Everything round-trips with the text format — a
    history printed by {!Parse.to_text} and one encoded by
    {!history_to_string} decode to equivalent values.

    Encoders write into a caller-supplied [Buffer]; decoders read from a
    bounds-checked {!reader} and {b never} raise anything but {!Error} on
    adversarial input — random byte mutations yield [Error _], not a crash
    (property-tested in [test/test_codec.ml]). *)

exception Error of string
(** Decoding failure: truncated input, overflowing varint, unknown tag,
    ill-formed decoded history.  The only exception the [get_*] family
    raises. *)

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [fail fmt ...] raises {!Error} with a formatted message; for decoders
    layered on top of these primitives (see {!Protocol}). *)

(** {1 Readers} *)

type reader = { data : string; mutable pos : int; limit : int }

val reader : ?pos:int -> ?len:int -> string -> reader
val remaining : reader -> int
val at_end : reader -> bool

(** {1 Primitives} *)

val put_uvarint : Buffer.t -> int -> unit
(** Unsigned LEB128.  @raise Invalid_argument on negative input. *)

val get_uvarint : reader -> int

val put_int : Buffer.t -> int -> unit
(** Zigzag-coded signed integer. *)

val get_int : reader -> int

val put_string : Buffer.t -> string -> unit
val get_string : reader -> string
val get_byte : reader -> int
val get_bytes : reader -> int -> string

(** {1 Events} *)

val put_event : Buffer.t -> Event.t -> unit
(** Per-event reference encoder; {!put_events} is the batch fast path
    and must stay byte-identical to iterating this. *)

val get_event : reader -> Event.t

val put_events : Buffer.t -> Event.t list -> unit
(** Count-prefixed event sequence.  Encodes the whole batch in one pass
    through a scratch block (one bounds test per event rather than one
    per byte); output is byte-identical to [iter put_event], including
    the bytes written before a failed encode raises. *)

val get_events : reader -> Event.t list
(** Batch decode; one slack test per event in the interior, per-event
    reference decode near the frame boundary.  Byte- and
    failure-identical to iterating {!get_event}. *)

(** {1 Standalone binary histories}

    [TMH1] magic followed by a count-prefixed event sequence.  [tm submit]
    and [tm check] auto-detect this format by the magic. *)

val history_magic : string

val put_history : Buffer.t -> History.t -> unit
val history_to_string : History.t -> string

val get_history : reader -> History.t
(** Decodes into an array of the announced count and validates
    well-formedness in place ({!History.of_event_array}). *)

val history_of_string : string -> (History.t, string) result

val looks_binary : string -> bool
(** The string starts with {!history_magic}. *)
