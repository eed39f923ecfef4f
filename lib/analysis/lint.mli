(** Static lint: a multi-rule token-level analysis engine.

    The engine strips comments, strings and char literals (preserving
    line/column positions), builds a shared {e source model} — stripped
    lines, a token stream, per-line loop-region flags, suppression
    pragmas — and runs every registered rule over it.  It is a tripwire,
    not a type checker: each rule over-approximates and false positives
    are routed through inline pragmas or the per-rule whitelist, never by
    deleting the rule.

    {2 Rules}

    - [poly-hash]: any use of [Hashtbl.hash].  [History.t]/[Event.t]
      carry interned structure whose polymorphic hash is
      representation-dependent; [Event.hash] and friends are the
      supported entry points.
    - [poly-compare]: [Stdlib.compare] or bare unqualified [compare]
      (qualified comparators — [Int.compare], [Event.compare], ... — are
      the fix).
    - [poly-eq]: [=] / [<>] / [==] / [!=] whose right operand is rooted
      in [Event.] / [History.] / [Txn.], excluding the scalar literals
      ([Txn.Committed] and the other status constructors,
      [Event.init_value]) and binding positions ([let x = ...],
      [{ field = ... }]).
    - [quadratic-hot-path]: [xs @ [x]] tail-append or a linear [List]
      scan ([List.nth]/[mem]/[assoc]/...) inside an iteration context
      (combinator argument, [while]/[for] body, [let rec] body) — O(n)
      per step under an O(n) loop.  One-shot uses outside loops are
      quiet.
    - [ordering-nondeterminism]: [Hashtbl.iter]/[Hashtbl.fold] feeding
      an order-sensitive computation.  Enumeration order is hash-order —
      arbitrary and version-dependent.  Quiet when the surrounding
      window shows a sort, a keyed store ([<-], [Hashtbl.replace], ...)
      or a commutative accumulator ([acc ||], [acc +], ...).
    - [domain-safety]: unsynchronized module-level mutable state
      ([ref]/[Hashtbl]/[Bytes]/[Buffer]/[Queue]/[Array] bindings at
      column 0) in a module that spawns domains ([Domain.spawn]) and
      shows no [Mutex.]/[Atomic.] discipline anywhere.  Reconciled against the dynamic {!Race} analyzer by the
      test suite.
    - [lock-hygiene]: a blocking call ([Unix.read]/[write]/[accept],
      [Mailbox]/[Wire] ops, [Thread.delay], [Domain.join]) while holding
      a [Mutex] (linear token scan; [Condition.wait] is exempt — it
      releases the mutex).
    - [swallowed-exception]: [try ... with _ ->] catch-alls (or
      [| exception _ ->]) that can eat [Wire.Desync]/[Codec] errors;
      [match ... with _ ->] is the quiet near-miss.
    - [unused-suppression]: a [(* lint: allow <rule> *)] pragma that
      suppressed nothing, names no rules, or names an unknown rule — so
      stale suppressions cannot accumulate and typos cannot silently
      disable a gate.

    {2 Suppression}

    [(* lint: allow rule-a rule-b — optional prose *)] suppresses
    findings of the named rules on its own line and the line directly
    below.  File-level exemptions live in the per-rule whitelist inside
    the engine (reviewed, with reasons) and in the caller-supplied
    [?whitelist] of {!scan_files}/{!scan_roots} (whole-file skip by
    basename; [default_whitelist] covers [event.ml], which defines the
    canonical comparators).

    Wired as [tm lint] (with [--format json|text], [--rules],
    [--list-rules], [--self-test]) and run repo-wide over [lib/] + [bin/]
    by the test suite and CI. *)

type finding = {
  file : string;
  line : int;  (** 1-based *)
  rule : string;  (** one of {!rule_names} *)
  text : string;  (** the offending source line, trimmed *)
}

val rule_names : string list
(** Registered rule names, in registry order. *)

val rule_docs : (string * string) list
(** [(name, one-line description)] per registered rule. *)

val unknown_rules : string list -> string list
(** The subset of the given names that are not registered rules. *)

val default_whitelist : string list
(** File basenames exempt from the pass ([event.ml]). *)

val scan_source : ?rules_enabled:string list -> file:string -> string -> finding list
(** Lint one file's contents (the [file] name is used for reporting and
    for the per-rule whitelist).  [rules_enabled] defaults to every
    registered rule.  Findings are sorted by line, then rule. *)

val scan_files :
  ?whitelist:string list -> ?rules_enabled:string list -> string list -> finding list
(** Lint the given [.ml] files, skipping whitelisted basenames. *)

val scan_roots :
  ?whitelist:string list -> ?rules_enabled:string list -> string list -> finding list
(** Recursively collect and lint every [.ml] under the given directories
    (skipping [_build] and dot-directories), sorted by path. *)

val pp_finding : Format.formatter -> finding -> unit
(** [file:line: [rule] text] — one line per finding. *)

val json_escape : string -> string
(** The body of a JSON string literal holding [s]. *)

val report_json : ?rules_run:string list -> finding list -> string
(** Machine-readable report:
    [{"rules": [...], "count": n, "findings": [{"file", "line", "rule",
    "text"}, ...]}]. *)

val self_test : unit -> (string * bool) list
(** Run every rule against its embedded positive fixture (must fire) and
    near-miss negative (must stay quiet); [(name, ok)] per rule.  Wired
    as [tm lint --self-test] so a broken rule cannot silently pass CI. *)
