(** Hash tables keyed by client-chosen integers: transaction and variable
    ids, written values.

    Keys arrive from outside (a [tm serve] client picks them), so the hash
    is not the identity: under the identity, keys that share their low
    bits, such as multiples of 2^20, would share a bucket and make every
    lookup linear.  A key's bits above the lowest 16 go through an integer
    mix; the lowest 16 are kept, so keys below 2^16 (the dense ids of a
    recorded history) spread one per bucket.  At most 2^16 keys lie there,
    which bounds what any choice of them can pile into one bucket. *)

include Hashtbl.S with type key = int
