(** ASCII timeline rendering of histories, one row per transaction — the
    textual analogue of the paper's figures:

    {v
    T1: W(X,1) >ok tryC ---------------- >A
    T2: ------------- R(X) >1
    T3: ------------------------ W(X,1) >ok tryC >C
    v}

    Each column is one event of the history; an operation occupies the
    columns of its invocation and response, and dashes fill a transaction's
    span between its events. *)

val timeline : History.t -> string
