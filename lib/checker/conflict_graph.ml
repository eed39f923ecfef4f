(* Direct-serialization-graph backend with Pearce–Kelly incremental cycle
   detection.  See the .mli for the contract; the notes here are about the
   mechanics.

   The graph's nodes are interned transactions; its edges are the orderings
   every du-opaque serialization must respect:

   - real-time edges, kept to a transitive reduction: a new transaction
     gets edges only from the current *frontier* of maximal t-complete
     transactions (a t-complete transaction covered by a later one is
     dropped from the frontier, its ordering implied transitively);
   - reads-from edges (writer before reader), determined because written
     (variable, value) pairs are unique across transactions — any
     duplicate, and any later write that would retract an existing
     attribution, *poisons* the state into Ambiguous instead;
   - anti-dependency edges: for a read attributed to writer [w], every
     other committed writer of the variable must sit outside the open
     interval (w, reader) of the serialization.  These are not materialised
     pairwise (that is quadratic in hot variables); instead the maintained
     topological order is scanned at verdict time — a per-variable sorted
     array of committed-writer positions makes the "is anything inside the
     interval" test a binary search — and only actual offenders get an
     edge, forced when one direction would close a cycle, by tryC order
     otherwise (a heuristic, recorded in [tainted]: contradictions reached
     after a heuristic choice answer Ambiguous, never Unsat).  The
     repaired order is then replayed against Definition 3's value
     clauses and, if the replay passes, is the certificate: the verdict
     has no other way to a [Sat].

   Acyclicity under edge insertion is maintained with the Pearce–Kelly
   dynamic topological order, which lives in {!Topo}: an edge already
   respecting the order is free; otherwise the affected region is
   discovered and its order indices reassigned.  Edges live in
   index-linked arena pools, so insertion allocates nothing beyond
   amortised array growth.  {!Topo} does not deduplicate: only a
   reads-from edge can repeat one already present (a reader reads several
   variables from one writer, or from its real-time predecessor), so
   [do_read] alone asks [Topo.mem_edge] first.

   No per-event step hashes a tuple.  Transactions and variables are
   interned through [Int]-keyed tables; each written or read (variable,
   value) pair has one mutable [slot] found through its variable's
   value table; a node's deferred writes are a short (variable, value)
   list; per-variable state is a vector indexed by the dense variable id. *)

type result =
  | Sat of Serialization.t
  | Unsat of string
  | Ambiguous of string

type stats = {
  nodes : int;
  edges : int;
  reorders : int;
  repairs : int;
  tainted : bool;
}

module Pvec = Topo.Pvec
module Itbl = Hashtbl.Make (Int)

module Inc = struct
  (* A value-returning external read, as recorded at its response.
     [rd_writer] is the attributed writer node, or -1 for a read of the
     initial value.  Attributions are never rebound — a write that would
     change one poisons the whole state. *)
  type reader = {
    rd_node : int;
    rd_var : int;
    rd_value : int;
    rd_res : int;  (* stream index of the read's response *)
    rd_writer : int;
  }

  let dummy_reader =
    { rd_node = -1; rd_var = -1; rd_value = 0; rd_res = -1; rd_writer = -1 }

  (* Everything known about one written or read (variable, value) pair,
     so a write or a read costs one lookup. *)
  type slot = {
    mutable seen : int;  (* node owning the value among all writes; -1 *)
    mutable final : int;  (* node whose current final write it is; -1 *)
    mutable readers : (int * int) list;
        (* (reader node, attributed writer | -1 init | -2 none) *)
  }

  type t = {
    (* interning *)
    node_of_tx : int Itbl.t;
    tx_of_node : int Pvec.t;
    var_of_tvar : int Itbl.t;
    tvar_of_var : Event.tvar Pvec.t;
    (* the DSG itself: nodes, edges and the maintained topological order
       all live in the Pearce–Kelly structure *)
    topo : Topo.t;
    (* per-node state (parallel vectors, indexed by node) *)
    first_ev : int Pvec.t;
    completion : int Pvec.t;  (* index of C_k/A_k; -1 while not t-complete *)
    tryc_inv : int Pvec.t;  (* index of the tryC invocation; -1 *)
    aborted : int Pvec.t;  (* 0/1 *)
    must_commit : int Pvec.t;  (* 0/1: forced commit decision *)
    pend_kind : int Pvec.t;  (* 0 none / 1 read / 2 write / 3 tryC / 4 tryA *)
    pend_var : int Pvec.t;
    pend_val : int Pvec.t;
    writes : (int * int) list Pvec.t;
        (* the node's deferred buffer: (var, current final value) *)
    (* per-variable state (parallel vectors, indexed by variable) *)
    slots : slot Itbl.t Pvec.t;  (* value -> slot *)
    writers_of_var : int list Pvec.t;  (* committed writers *)
    var_cache : ((int * int) array * int) Pvec.t;
        (* sorted (ord, node) committed-writer positions, epoch at build;
           rebuilt lazily *)
    reads : reader Pvec.t;  (* attributed + initial-value reads, in order *)
    (* frontier of maximal t-complete transactions (queue over a vector) *)
    frontier : int Pvec.t;
    mutable f_lo : int;
    mutable epoch : int;  (* bumped at each resolution pass *)
    (* stream state *)
    mutable idx : int;
    mutable poison : (int * string) option;  (* stream index it fired at *)
    mutable violation : (int * string) option;
    mutable cycle : int list option;  (* first counterexample cycle (nodes) *)
    mutable taint : bool;
    mutable repairs : int;
  }

  let stale = ([||], -1)

  let create () =
    {
      node_of_tx = Itbl.create 64;
      tx_of_node = Pvec.create 0;
      var_of_tvar = Itbl.create 16;
      tvar_of_var = Pvec.create 0;
      topo = Topo.create ();
      first_ev = Pvec.create 0;
      completion = Pvec.create (-1);
      tryc_inv = Pvec.create (-1);
      aborted = Pvec.create 0;
      must_commit = Pvec.create 0;
      pend_kind = Pvec.create 0;
      pend_var = Pvec.create 0;
      pend_val = Pvec.create 0;
      writes = Pvec.create [];
      slots = Pvec.create (Itbl.create 1);
      writers_of_var = Pvec.create [];
      var_cache = Pvec.create stale;
      reads = Pvec.create dummy_reader;
      frontier = Pvec.create 0;
      f_lo = 0;
      epoch = 0;
      idx = 0;
      poison = None;
      violation = None;
      cycle = None;
      taint = false;
      repairs = 0;
    }

  let nnodes g = g.tx_of_node.Pvec.n
  let tx g n = Pvec.get g.tx_of_node n

  let poison g why = if g.poison = None then g.poison <- Some (g.idx, why)
  let violate g why = if g.violation = None then g.violation <- Some (g.idx, why)

  let vid g x =
    match Itbl.find_opt g.var_of_tvar x with
    | Some i -> i
    | None ->
        let i = g.tvar_of_var.Pvec.n in
        Itbl.replace g.var_of_tvar x i;
        Pvec.push g.tvar_of_var x;
        Pvec.push g.slots (Itbl.create 16);
        Pvec.push g.writers_of_var [];
        Pvec.push g.var_cache stale;
        i

  let pp_var g ppf v = Event.pp_tvar ppf (Pvec.get g.tvar_of_var v)

  let slot g x v =
    let tbl = Pvec.get g.slots x in
    match Itbl.find_opt tbl v with
    | Some s -> s
    | None ->
        let s = { seen = -1; final = -1; readers = [] } in
        Itbl.add tbl v s;
        s

  (* --- edges and Pearce–Kelly maintenance ------------------------------ *)

  (* The order, the edge arenas and the reorder machinery live in [g.topo];
     these are thin views with the node-id conventions baked in. *)

  let ord g n = Topo.ord g.topo n
  let add_edge g u v = Topo.add_edge g.topo u v
  let reach g a b = Topo.reach g.topo a b

  (* --- transactions ----------------------------------------------------- *)

  let cycle_msg g u v =
    Fmt.str "ordering T%d before T%d closes a cycle" (tx g u) (tx g v)

  (* The edge u -> v was refused because a path v ~> u already exists (the
     insertion was rolled back, so the path still does).  Recover one such
     path by parent-tracking DFS — the nodes of the counterexample cycle
     u -> v -> ... -> u that [tm check --dot] renders. *)
  let record_cycle g u v =
    if g.cycle = None then
      match Topo.find_path g.topo v u with
      | Some path ->
          (* [path] runs v ... u; drop the final u and prepend it so the
             list reads u -> v -> ... (closing back to u implicitly). *)
          let rec drop_last = function
            | [] | [ _ ] -> []
            | x :: rest -> x :: drop_last rest
          in
          g.cycle <- Some (u :: drop_last path)
      | None -> ()

  let on_cycle g u v =
    record_cycle g u v;
    if g.taint then
      poison g
        (Fmt.str "%s (after a heuristic write-order choice)" (cycle_msg g u v))
    else violate g (cycle_msg g u v)

  let node g k =
    match Itbl.find_opt g.node_of_tx k with
    | Some n -> n
    | None ->
        let n = nnodes g in
        Itbl.replace g.node_of_tx k n;
        Pvec.push g.tx_of_node k;
        (* new nodes take the largest order index, so edges from existing
           nodes never trigger a reorder *)
        let n' = Topo.add_node g.topo in
        assert (n = n');
        Pvec.push g.first_ev g.idx;
        Pvec.push g.completion (-1);
        Pvec.push g.tryc_inv (-1);
        Pvec.push g.aborted 0;
        Pvec.push g.must_commit 0;
        Pvec.push g.pend_kind 0;
        Pvec.push g.pend_var (-1);
        Pvec.push g.pend_val 0;
        Pvec.push g.writes [];
        (* real-time edges: the frontier holds exactly the maximal
           t-complete transactions, each of which really-time-precedes the
           newcomer; everything below them is implied transitively.  The
           members are distinct and [n] has no edges yet, so none of these
           is a duplicate. *)
        for fi = g.f_lo to g.frontier.Pvec.n - 1 do
          match add_edge g (Pvec.get g.frontier fi) n with
          | `Ok -> ()
          | `Cycle -> on_cycle g (Pvec.get g.frontier fi) n
        done;
        n

  let t_complete g n =
    Pvec.set g.completion n g.idx;
    (* drop frontier members now covered: they completed before [n] even
       started, so their edge to [n] plus [n]'s future edges imply theirs *)
    let first_n = Pvec.get g.first_ev n in
    while
      g.f_lo < g.frontier.Pvec.n
      && Pvec.get g.completion (Pvec.get g.frontier g.f_lo) < first_n
    do
      g.f_lo <- g.f_lo + 1
    done;
    Pvec.push g.frontier n

  let register_writer g x w =
    Pvec.set g.writers_of_var x (w :: Pvec.get g.writers_of_var x);
    Pvec.set g.var_cache x stale

  let force_commit g w =
    if Pvec.get g.must_commit w = 0 then begin
      Pvec.set g.must_commit w 1;
      List.iter (fun (x, _) -> register_writer g x w) (Pvec.get g.writes w)
    end

  let do_write g n x v =
    let s = slot g x v in
    if s.seen < 0 then s.seen <- n
    else if s.seen <> n then begin
      (* A duplicate from an already-aborted writer — the common case
         under STM retry, where an aborted attempt's program re-executes —
         is harmless: no read can ever be legally attributed to the
         aborted transaction (any that was is already a violation), so
         the value's ownership simply transfers.  A duplicate between two
         transactions that could both commit leaves reads-from genuinely
         undetermined: poison. *)
      if Pvec.get g.aborted s.seen = 1 then s.seen <- n
      else
        poison g
          (Fmt.str
             "T%d and T%d both write %d to %a, which forfeits prefix \
              closure (Corollary 2)"
             (tx g s.seen) (tx g n) v (pp_var g) x)
    end;
    (* a write whose (var, value) an earlier read already returned — not
       attributed to this writer — could retract that read's verdict.
       Reads bound to a since-aborted writer, and reads no write could
       explain, are already recorded violations that precede this write,
       so they need no poison. *)
    if
      List.exists
        (fun (_, w) -> w = -1 || (w >= 0 && w <> n && Pvec.get g.aborted w = 0))
        s.readers
    then
      poison g
        (Fmt.str
           "T%d writes %d to %a, a value an earlier read returned from \
            elsewhere"
           (tx g n) v (pp_var g) x);
    let ws = Pvec.get g.writes n in
    (match List.assoc_opt x ws with
    | Some v_old when v_old <> v ->
        let so = slot g x v_old in
        if List.exists (fun (_, w) -> w = n) so.readers then
          poison g
            (Fmt.str
               "T%d overwrites %a after a read was attributed to its \
                previous write"
               (tx g n) (pp_var g) x);
        so.final <- -1;
        Pvec.set g.writes n ((x, v) :: List.remove_assoc x ws)
    | Some _ -> ()
    | None -> Pvec.set g.writes n ((x, v) :: ws));
    s.final <- n

  let do_read g n x v =
    match List.assoc_opt x (Pvec.get g.writes n) with
    | Some own_v ->
        if v <> own_v then
          violate g
            (Fmt.str "T%d: internal read of %a returned %d, own write was %d"
               (tx g n) (pp_var g) x v own_v)
    | None ->
        let s = slot g x v in
        let w = s.final in
        if v = Event.init_value then begin
          if w >= 0 && w <> n && Pvec.get g.aborted w = 0 then
            poison g
              (Fmt.str
                 "T%d writes the initial value %d to %a: ambiguous \
                  reads-from"
                 (tx g w) v (pp_var g) x);
          s.readers <- (n, -1) :: s.readers;
          Pvec.push g.reads
            { rd_node = n; rd_var = x; rd_value = v; rd_res = g.idx;
              rd_writer = -1 }
        end
        else if w < 0 then begin
          violate g
            (Fmt.str
               "T%d reads %d from %a but no transaction's final write has \
                that value"
               (tx g n) v (pp_var g) x);
          s.readers <- (n, -2) :: s.readers
        end
        else if w = n then
          poison g (Fmt.str "T%d externally reads its own write" (tx g n))
        else if Pvec.get g.aborted w = 1 then
          violate g
            (Fmt.str "T%d reads from T%d, which cannot commit" (tx g n)
               (tx g w))
        else begin
          let tc = Pvec.get g.tryc_inv w in
          if tc < 0 || tc >= g.idx then
            violate g
              (Fmt.str
                 "T%d reads from T%d before it invoked tryC (deferred \
                  update violated)"
                 (tx g n) (tx g w))
          else begin
            force_commit g w;
            (* the one edge kind that can repeat: [n] may already have read
               another variable from [w], or have [w] as a real-time
               predecessor *)
            if not (Topo.mem_edge g.topo w n) then begin
              match add_edge g w n with
              | `Ok -> ()
              | `Cycle -> on_cycle g w n
            end;
            s.readers <- (n, w) :: s.readers;
            Pvec.push g.reads
              { rd_node = n; rd_var = x; rd_value = v; rd_res = g.idx;
                rd_writer = w }
          end
        end

  let push g ev =
    (match ev with
    | Event.Inv (k, inv) -> (
        let n = node g k in
        match inv with
        | Event.Read x ->
            Pvec.set g.pend_kind n 1;
            Pvec.set g.pend_var n (vid g x)
        | Event.Write (x, v) ->
            Pvec.set g.pend_kind n 2;
            Pvec.set g.pend_var n (vid g x);
            Pvec.set g.pend_val n v
        | Event.Try_commit ->
            Pvec.set g.pend_kind n 3;
            Pvec.set g.tryc_inv n g.idx
        | Event.Try_abort -> Pvec.set g.pend_kind n 4)
    | Event.Res (k, res) -> (
        let n = node g k in
        let pk = Pvec.get g.pend_kind n in
        Pvec.set g.pend_kind n 0;
        match res with
        | Event.Write_ok ->
            if pk = 2 then
              do_write g n (Pvec.get g.pend_var n) (Pvec.get g.pend_val n)
            else poison g "ok response without a pending write"
        | Event.Read_ok v ->
            if pk = 1 then do_read g n (Pvec.get g.pend_var n) v
            else poison g "read response without a pending read"
        | Event.Committed ->
            force_commit g n;
            t_complete g n
        | Event.Aborted ->
            if Pvec.get g.must_commit n = 1 then
              violate g
                (Fmt.str
                   "T%d aborted, but an earlier read forces it to commit"
                   (tx g n));
            Pvec.set g.aborted n 1;
            t_complete g n));
    g.idx <- g.idx + 1

  (* --- verdict ---------------------------------------------------------- *)

  exception Decided of result

  let contradiction g why =
    raise
      (Decided
         (if g.taint then
            Ambiguous ("ordering contradiction after heuristic choice: " ^ why)
          else Unsat why))

  (* Sorted (ord, node) array of the committed writers of [x].  The cache
     entry is dropped by [register_writer] when a writer is added, and
     keyed on the pass epoch.  Within a pass the positions may go stale as
     repairs reorder the region — [repair] re-checks current positions
     before acting, and the fixpoint loop only stops after a clean pass
     against freshly built arrays, so staleness costs at most an extra
     pass, never a wrong verdict. *)
  let writer_array g x =
    match Pvec.get g.var_cache x with
    | arr, ep when ep = g.epoch -> arr
    | _ ->
        let arr =
          Array.of_list
            (List.map (fun n -> (ord g n, n)) (Pvec.get g.writers_of_var x))
        in
        Array.sort (fun (a, _) (b, _) -> Int.compare a b) arr;
        Pvec.set g.var_cache x (arr, g.epoch);
        arr

  (* Committed writers of [r.rd_var] strictly inside the serialization
     interval the read forbids: (writer, reader) for attributed reads,
     (-inf, reader) for initial-value reads. *)
  let offenders g (r : reader) =
    let arr = writer_array g r.rd_var in
    if Array.length arr = 0 then []
    else begin
      let lo =
        if r.rd_writer < 0 then min_int else ord g r.rd_writer
      in
      let hi = ord g r.rd_node in
      (* first index with ord > lo *)
      let l = ref 0 and rgt = ref (Array.length arr) in
      while !l < !rgt do
        let m = (!l + !rgt) / 2 in
        if fst arr.(m) <= lo then l := m + 1 else rgt := m
      done;
      let acc = ref [] in
      let i = ref !l in
      while !i < Array.length arr && fst arr.(!i) < hi do
        let w'' = snd arr.(!i) in
        if w'' <> r.rd_node && w'' <> r.rd_writer then acc := w'' :: !acc;
        incr i
      done;
      !acc
    end

  (* Position of a committed writer in commit order: its [Committed]
     response index, or past-end-of-stream (by tryC invocation) for
     read-forced writers still live.  For every deferred-update STM the
     commit responses happen inside the commit critical section, so this
     is the version order the implementation actually induced — the right
     default ordering for write pairs no read constrains. *)
  let commit_key g n =
    let c = Pvec.get g.completion n in
    if c >= 0 then c
    else
      g.idx
      +
      let t = Pvec.get g.tryc_inv n in
      if t >= 0 then t else Pvec.get g.first_ev n

  (* Order [w''] out of the read's forbidden interval.  With
     [~heuristic:false] only acts when exactly one direction is possible
     (unit propagation); with [~heuristic:true] an unconstrained pair is
     decided by commit order — see [commit_key] — and the state is
     tainted, because a later contradiction may be that choice's fault
     rather than the history's.  Returns true iff an edge was added (the
     pair is then resolved for good: reachability only grows).  Raises
     [Decided] when both directions are impossible. *)
  let repair g ~heuristic (r : reader) w'' =
    let i = r.rd_node in
    let added u v =
      match add_edge g u v with
      | `Ok ->
          g.repairs <- g.repairs + 1;
          true
      | `Cycle ->
          record_cycle g u v;
          contradiction g (cycle_msg g u v)
    in
    if r.rd_writer < 0 then begin
      if ord g w'' >= ord g i then false
      else if reach g w'' i then begin
        (* the read forces i -> w'', but w'' already reaches i: that path
           plus the forced edge is the counterexample cycle *)
        record_cycle g i w'';
        contradiction g
          (Fmt.str
             "T%d reads the initial value of %a but committed writer T%d \
              must precede it"
             (tx g i) (pp_var g) r.rd_var (tx g w''))
      end
      else added i w''
    end
    else begin
      let w = r.rd_writer in
      if
        not
          (ord g w < ord g w'' && ord g w'' < ord g i)
      then false
      else begin
        let fst_blocked = reach g w w'' in
        (* w'' -> w would close a cycle *)
        let snd_blocked = reach g w'' i in
        (* i -> w'' would close a cycle *)
        match (fst_blocked, snd_blocked) with
        | true, true ->
            (* evicting w'' after the reader closes i -> w'' -> ... -> i;
               record that direction's cycle as the counterexample *)
            record_cycle g i w'';
            contradiction g
              (Fmt.str
                 "committed writer T%d cannot leave the interval between \
                  T%d and its reader T%d"
                 (tx g w'') (tx g w) (tx g i))
        | true, false -> added i w''
        | false, true -> added w'' w
        | false, false ->
            if not heuristic then false
            else begin
              g.taint <- true;
              if commit_key g w'' < commit_key g w then added w'' w
              else added i w''
            end
      end
    end

  (* Repair every read's interval to a clean fixpoint.  The first pass
     applies only forced repairs (unit propagation); later passes also
     decide unconstrained pairs by commit order.  Because all heuristic
     choices are drawn from the one global commit order, they are mutually
     consistent and can be applied eagerly — no per-decision re-pass is
     needed, so the work is O(passes × reads × log writers + repairs),
     and on histories the STM really produced the commit order is the
     version order, so no choice ever backfires into a contradiction. *)
  let resolve g =
    let pass ~heuristic =
      g.epoch <- g.epoch + 1;
      let acted = ref false in
      for ri = 0 to g.reads.Pvec.n - 1 do
        let r = Pvec.get g.reads ri in
        List.iter
          (fun w'' -> if repair g ~heuristic r w'' then acted := true)
          (offenders g r)
      done;
      !acted
    in
    ignore (pass ~heuristic:false);
    let continue_ = ref true in
    while !continue_ do
      continue_ := false;
        if pass ~heuristic:true then continue_ := true
    done

  (* Linear replay of the candidate serialization against Definition 3's
     value clauses: global legality (latest committed writer) and the
     local-serialization (deferred-update filter) expectation per read. *)
  let replay g order =
    let reads_of = Array.make (max 1 (nnodes g)) [] in
    for ri = g.reads.Pvec.n - 1 downto 0 do
      let r = Pvec.get g.reads ri in
      reads_of.(r.rd_node) <- r :: reads_of.(r.rd_node)
    done;
    let nvars = max 1 g.tvar_of_var.Pvec.n in
    let state = Array.make nvars Event.init_value in
    let stacks = Array.make nvars [] in
    (* (tryC invocation index, value), newest first *)
    let bad = ref None in
    Array.iter
      (fun nd ->
        if !bad = None then begin
          List.iter
            (fun (r : reader) ->
              if !bad = None then begin
                let rec du = function
                  | [] -> Event.init_value
                  | (tc, v) :: rest -> if tc < r.rd_res then v else du rest
                in
                let glob = state.(r.rd_var) in
                let duv = du stacks.(r.rd_var) in
                if glob <> r.rd_value || duv <> r.rd_value then
                  bad :=
                    Some
                      (Fmt.str
                         "T%d's read of %a returns %d where the order yields \
                          %d (du view %d)"
                         (tx g nd) (pp_var g) r.rd_var r.rd_value glob duv)
              end)
            reads_of.(nd);
          if !bad = None && Pvec.get g.must_commit nd = 1 then
            List.iter
              (fun (x, v) ->
                state.(x) <- v;
                stacks.(x) <- (Pvec.get g.tryc_inv nd, v) :: stacks.(x))
              (Pvec.get g.writes nd)
        end)
      order;
    !bad

  let certificate g order =
    let ids = Array.to_list (Array.map (tx g) order) in
    let committed =
      List.filter_map
        (fun nd ->
          if Pvec.get g.must_commit nd = 1 then Some (tx g nd) else None)
        (Array.to_list order)
    in
    Sat (Serialization.make ~order:ids ~committed)

  (* One path: a recorded poison or violation answers at once; otherwise
     [resolve] repairs every read's interval, the maintained topological
     order is replayed, and the replayed order is the certificate.
     Between a poison and a violation, whichever fired first in stream
     order wins: a violation detected before any poison rests only on
     trustworthy attributions (and non-du-opacity is monotone under
     extension), while a violation detected after a poison may rest on
     state the poison made unreliable. *)
  let verdict g =
    match (g.poison, g.violation) with
    | Some (pi, pw), Some (vi, _) when pi < vi -> Ambiguous pw
    | _, Some (_, vw) -> Unsat vw
    | Some (_, pw), None -> Ambiguous pw
    | None, None -> (
        match resolve g with
        | () -> (
            (* [ord] is a permutation of the node ids: invert it *)
            let order = Array.make (nnodes g) 0 in
            for nd = 0 to nnodes g - 1 do
              order.(ord g nd) <- nd
            done;
            match replay g order with
            | Some why ->
                (* defensive: the resolution missed a clause; the exact
                   search arbitrates *)
                Ambiguous ("internal: graph certificate rejected: " ^ why)
            | None -> certificate g order)
        | exception Decided r ->
            (match r with
            | Unsat why -> violate g why
            | Ambiguous why -> poison g why
            | Sat _ -> ());
            r)

  let certifiable g = g.poison = None && g.violation = None
  let events g = g.idx
  let cycle g = Option.map (List.map (tx g)) g.cycle

  let stats g =
    {
      nodes = nnodes g;
      edges = Topo.edge_count g.topo;
      reorders = Topo.reorders g.topo;
      repairs = g.repairs;
      tainted = g.taint;
    }
end

let check_stats h =
  let g = Inc.create () in
  List.iter (Inc.push g) (History.to_list h);
  (* the verdict's resolution adds edges and repairs: count them *)
  let r = Inc.verdict g in
  (r, Inc.stats g)

let check h = fst (check_stats h)

let counterexample_cycle h =
  let g = Inc.create () in
  List.iter (Inc.push g) (History.to_list h);
  (* verdict-time resolution can be what closes the cycle *)
  ignore (Inc.verdict g);
  Inc.cycle g

let check_or_fallback ?max_nodes h =
  match check h with
  | Sat s -> Verdict.Sat s
  | Unsat why -> Verdict.Unsat why
  | Ambiguous _ -> Du_opacity.check ?max_nodes h
