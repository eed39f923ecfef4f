(* Direct-serialization-graph backend with Pearce–Kelly incremental cycle
   detection.  See the .mli for the contract; the notes here are about the
   mechanics.

   The graph's nodes are interned transactions; its edges are the orderings
   every du-opaque serialization must respect:

   - real-time edges, kept to a transitive reduction: a new transaction
     gets edges only from the current *frontier* of maximal t-complete
     transactions (a t-complete transaction covered by a later one is
     dropped from the frontier, its ordering implied transitively);
   - reads-from edges (local source before reader).  Definition 3(3)
     judges a read in its local serialization, which keeps only the
     transactions that invoked tryC before the read's response, so the
     read's source is one of the writers of its (variable, value) pair
     that had invoked tryC by then — or T0 for the initial value.  That
     candidate set is fixed at the response.  With one writer per pair
     the single writer is bound directly; otherwise a candidate W is
     pruned when a committed writer of the variable follows W and
     precedes the reader in real time (it sits between them in every
     serialization and is retained).  One survivor is a forced binding;
     several are bound by [tie_key], a heuristic recorded in [taint];
   - anti-dependency edges: for a read bound to [w], every committed
     writer of a *different* value must sit outside the open interval
     (w, reader) of the serialization.  These are not materialised
     pairwise (that is quadratic in hot variables); instead the maintained
     topological order is scanned at verdict time — a per-variable sorted
     array of committed-writer positions makes the "is anything inside the
     interval" test a binary search — and only actual offenders get an
     edge, forced when one direction would close a cycle, by tryC order
     otherwise (a heuristic, recorded in [taint]: contradictions reached
     after a heuristic choice answer Ambiguous, never Unsat).  An offender
     the read's local serialization does not retain may stay inside when
     a committed same-value writer follows it there (Finding 3): the
     global source and the local one differ.  While such a stand-in can
     still commit, that constraint is never forced.  The repaired order
     is then replayed against Definition 3's value clauses and, if the
     replay passes, is the certificate: the verdict has no other way to a
     [Sat].

   A forced constraint stays forced under extension, with one exception
   the state watches for: a non-retained offender was forced out because
   no other writer of the read's pair could commit.  Such a slot is
   marked [relied]; a writer of it that later invokes tryC could be a
   stand-in, and taints the state.

   Acyclicity under edge insertion is maintained with the Pearce–Kelly
   dynamic topological order, which lives in {!Topo}: an edge already
   respecting the order is free; otherwise the affected region is
   discovered and its order indices reassigned.  Edges live in
   index-linked arena pools, so insertion allocates nothing beyond
   amortised array growth.  {!Topo} does not deduplicate: only a
   reads-from edge can repeat one already present (a reader reads several
   variables from one writer, or from its real-time predecessor), so
   [bind] asks [Topo.mem_edge] first; stand-in edges are added only
   where no path exists yet.

   The verdict costs what changed since the previous one.  Every change a
   push or a repair makes to the order, to a transaction's decision or to
   its reads lowers [low], the lowest order index it touched (a reorder
   reports the lowest index it reassigned, {!Topo.reorder_low}).  Below
   [low] nothing moved, so every read whose reader sits there keeps the
   clean interval the previous verdict left it, and the replay state
   there still holds: a verdict rescans the reads of the transactions at
   [low] and above, and rewinds the replay to [low] through an undo log
   before replaying the rest.  The committed writers of each variable are
   kept sorted by order index the same way: entries below the lowest
   index a reorder or a new writer touched since the last look keep their
   place, and only the rest is re-sorted.  The batch [check] keeps no undo
   log: its one verdict replays from index 0.

   No per-event step hashes a tuple or calls into C, and the state is
   monomorphic: every int kept per node, edge, read or variable lives in a
   {!Topo.Ivec} (no float-array tag test per read, no write barrier per
   write), and a variable's committed writers are two parallel vectors,
   not tuples.  Transactions and variables are interned through a
   direct-indexed array where their ids allow ([Intern]); each written or
   read (variable, value) pair has one mutable [slot] found through its
   variable's value table ({!Int_tbl}, whose hash mixes a value's high
   bits); a node's deferred writes are a short (variable, value) list;
   per-variable state is a vector indexed by the dense variable id.  The
   real-time prune needs, per variable, the committed writers in
   completion order; that log is folded lazily out of the frontier vector
   whenever a read has two candidates, so a history with one writer per
   pair never builds it. *)

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

module Ivec = Topo.Ivec
module Pvec = Topo.Pvec

(* Dense ids for client ids (transactions, variables), handed out in
   order of first sight.  An id below a bound proportional to the number
   of ids interned is found in a direct-indexed array; any other (a
   negative one, or one far beyond that count) goes through a table, so
   the array stays O(entries) whatever ids a client sends.  Every event
   interns its transaction, and the array, not the table alone, is what
   makes that cheap (EXPERIMENTS.md §24). *)
module Intern = struct
  type t = {
    mutable direct : int array;  (* id -> dense id; -1 *)
    sparse : int Int_tbl.t;
    ids : Ivec.t;  (* dense id -> id *)
  }

  let create () =
    { direct = [||]; sparse = Int_tbl.create 8; ids = Ivec.create 0 }
  let size t = t.ids.Ivec.n
  let id t i = Ivec.get t.ids i

  (* the dense id of [k], or -1 *)
  let find t k =
    let i = if k >= 0 && k < Array.length t.direct then t.direct.(k) else -1 in
    if i >= 0 || Int_tbl.length t.sparse = 0 then i
    else match Int_tbl.find_opt t.sparse k with Some i -> i | None -> -1

  (* [k], not interned yet, takes the next dense id *)
  let add t k =
    let i = size t and len = Array.length t.direct in
    Ivec.push t.ids k;
    if k >= 0 && k < len then t.direct.(k) <- i
    else if k >= 0 && k < (4 * i) + 64 then begin
      let d = Array.make (max (k + 1) (2 * len)) (-1) in
      Array.blit t.direct 0 d 0 len;
      d.(k) <- i;
      t.direct <- d
    end
    else Int_tbl.replace t.sparse k i;
    i
end

module Inc = struct
  (* Everything known about one written or read (variable, value) pair,
     so a write or a read costs one lookup. *)
  type slot = {
    mutable final : int;  (* latest node whose final write it is; -1 *)
    mutable others : int list;
        (* the pair's other writers, not aborted when displaced; empty
           while the pair has one writer *)
    mutable relied : bool;
        (* a forced repair assumed no other writer of the pair can commit *)
  }

  (* A value-returning external read, as recorded at its response.
     [rd_writer] is the bound local source, or -1 for T0 (the initial
     value).  Bindings are never revised: the candidates are fixed at the
     response. *)
  type reader = {
    rd_node : int;
    rd_var : int;
    rd_value : int;
    rd_res : int;  (* stream index of the read's response *)
    rd_writer : int;
    rd_slot : slot;  (* the pair's writers: stand-ins for the source *)
  }

  let dummy_reader =
    {
      rd_node = -1; rd_var = -1; rd_value = 0; rd_res = -1; rd_writer = -1;
      rd_slot = { final = -1; others = []; relied = false };
    }

  (* A variable's committed writers sorted by the ord cached at the last
     look ([writer_array]): parallel vectors of ords and nodes. *)
  type writers = { w_ord : Ivec.t; w_node : Ivec.t }

  let new_writers () = { w_ord = Ivec.create 0; w_node = Ivec.create 0 }

  type t = {
    online : bool;  (* more verdicts will follow: keep the replay undo log *)
    (* interning *)
    txs : Intern.t;
    tvars : Intern.t;
    (* the DSG itself: nodes, edges and the maintained topological order
       all live in the Pearce–Kelly structure *)
    topo : Topo.t;
    (* per-node state (parallel vectors, indexed by node) *)
    first_ev : Ivec.t;
    completion : Ivec.t;  (* index of C_k/A_k; -1 while not t-complete *)
    tryc_inv : Ivec.t;  (* index of the tryC invocation; -1 *)
    aborted : Ivec.t;  (* 0/1 *)
    must_commit : Ivec.t;
        (* 0 free / 1 forced to commit / 2 committed by a heuristic choice *)
    pend_kind : Ivec.t;  (* 0 none / 1 read / 2 write / 3 tryC / 4 tryA *)
    pend_var : Ivec.t;
    pend_val : Ivec.t;
    writes : (int * int) list Pvec.t;
        (* the node's deferred buffer: (var, current final value) *)
    (* per-variable state (parallel vectors, indexed by variable) *)
    slots : slot Int_tbl.t Pvec.t;  (* value -> slot *)
    wsorted : writers Pvec.t;
    wpending : int list Pvec.t;  (* committed writers not sorted in yet *)
    wseen : Ivec.t;  (* reorders folded into [wsorted] *)
    wepoch : Ivec.t;  (* pass of the last look *)
    var_reads : reader Pvec.t Pvec.t;
        (* external reads, in stream order, folded in from [reads] only
           once values repeat ([resolve]) *)
    mutable var_reads_upto : int;
    clog_end : Ivec.t Pvec.t;
        (* committed writers' completion indices, ascending *)
    clog_start : Ivec.t Pvec.t;  (* running max of their first events *)
    mutable clog_upto : int;  (* frontier entries folded into the logs *)
    reads : reader Pvec.t;  (* bound external reads, in order *)
    last_read : Ivec.t;  (* per node: index of its latest read; -1 *)
    prev_read : Ivec.t;
        (* per read: index of its reader's previous read; -1 *)
    (* frontier of maximal t-complete transactions (queue over a vector;
       the vector keeps every t-complete node in completion order) *)
    frontier : Ivec.t;
    mutable f_lo : int;
    mutable epoch : int;  (* bumped at each resolution pass *)
    mutable low : int;  (* lowest order index touched since the last Sat *)
    mutable lows_seen : int;  (* reorders folded into [low] *)
    (* the replay of the order against Definition 3, kept between
       verdicts: per-variable state after positions [0, rupto), with an
       undo record per replayed position *)
    rvalue : Ivec.t;  (* latest committed value *)
    rstack : (int * int) list Pvec.t;
        (* committed writes as (tryC invocation index, value), newest
           first *)
    rlog : (int * int * (int * int) list) list Pvec.t;
    mutable rupto : int;
    opens : (int * int) Pvec.t;
        (* replayed positions with a read that has a committed writer of
           another value between its local source and it, ascending, each
           with the latest tryC index of such a read's newer writers so far
           ({!closed_after}) *)
    watch : unit Int_tbl.t;
        (* writers of [relied] slots that had not invoked tryC *)
    (* stream state *)
    mutable idx : int;
    mutable poison : (int * string) option;  (* stream index it fired at *)
    mutable violation : (int * string) option;
    mutable cycle : int list option;  (* first counterexample cycle (nodes) *)
    mutable taint : bool;
    mutable same_value_choice : bool;
        (* some heuristic choice was among writers of one repeated value *)
    mutable repeated : bool;  (* some pair has had two live writers *)
    mutable repairs : int;
  }

  let make ~online =
    {
      online;
      txs = Intern.create ();
      tvars = Intern.create ();
      topo = Topo.create ();
      first_ev = Ivec.create 0;
      completion = Ivec.create (-1);
      tryc_inv = Ivec.create (-1);
      aborted = Ivec.create 0;
      must_commit = Ivec.create 0;
      pend_kind = Ivec.create 0;
      pend_var = Ivec.create 0;
      pend_val = Ivec.create 0;
      writes = Pvec.create [];
      slots = Pvec.create (Int_tbl.create 1);
      wsorted = Pvec.create (new_writers ());
      wpending = Pvec.create [];
      wseen = Ivec.create 0;
      wepoch = Ivec.create 0;
      var_reads = Pvec.create (Pvec.create dummy_reader);
      var_reads_upto = 0;
      clog_end = Pvec.create (Ivec.create 0);
      clog_start = Pvec.create (Ivec.create 0);
      clog_upto = 0;
      reads = Pvec.create dummy_reader;
      last_read = Ivec.create (-1);
      prev_read = Ivec.create (-1);
      frontier = Ivec.create 0;
      f_lo = 0;
      epoch = 0;
      low = (if online then max_int else 0);
      lows_seen = 0;
      rvalue = Ivec.create Event.init_value;
      rstack = Pvec.create [];
      rlog = Pvec.create [];
      rupto = 0;
      opens = Pvec.create (0, -1);
      watch = Int_tbl.create 1;
      idx = 0;
      poison = None;
      violation = None;
      cycle = None;
      taint = false;
      same_value_choice = false;
      repeated = false;
      repairs = 0;
    }

  let create () = make ~online:true

  let nnodes g = Intern.size g.txs
  let tx g n = Intern.id g.txs n

  let poison g why = if g.poison = None then g.poison <- Some (g.idx, why)
  let violate g why = if g.violation = None then g.violation <- Some (g.idx, why)

  (* A heuristic choice among the writers of one (variable, value) pair:
     later contradictions may be its fault, not the history's. *)
  let choose_among_same_value g =
    g.taint <- true;
    g.same_value_choice <- true

  let vid g x =
    let i = Intern.find g.tvars x in
    if i >= 0 then i
    else begin
      let i = Intern.add g.tvars x in
      Pvec.push g.slots (Int_tbl.create 16);
      Pvec.push g.wsorted (new_writers ());
      Pvec.push g.wpending [];
      Ivec.push g.wseen (Topo.reorders g.topo);
      Ivec.push g.wepoch (-1);
      Pvec.push g.var_reads (Pvec.create dummy_reader);
      Ivec.push g.rvalue Event.init_value;
      Pvec.push g.rstack [];
      Pvec.push g.clog_end (Ivec.create 0);
      Pvec.push g.clog_start (Ivec.create 0);
      i
    end

  let pp_var g ppf v = Event.pp_tvar ppf (Intern.id g.tvars v)

  let slot g x v =
    let tbl = Pvec.get g.slots x in
    match Int_tbl.find_opt tbl v with
    | Some s -> s
    | None ->
        let s = { final = -1; others = []; relied = false } in
        Int_tbl.add tbl v s;
        s

  (* --- edges and Pearce–Kelly maintenance ------------------------------ *)

  (* The order, the edge arenas and the reorder machinery live in [g.topo];
     these are thin views with the node-id conventions baked in. *)

  let ord g n = Topo.ord g.topo n

  (* Int minimum and maximum: [Stdlib.min] compares polymorphically. *)
  let imin (a : int) b = if a < b then a else b
  let imax (a : int) b = if a > b then a else b

  (* [n]'s order index, its decision or its reads changed.  The batch
     [check] rescans from index 0 anyway ([make]). *)
  let touch g n =
    if g.online then begin
      let o = ord g n in
      if o < g.low then g.low <- o
    end

  (* fold the reorders since the last call into [low] *)
  let fold_lows g =
    for i = g.lows_seen to Topo.reorders g.topo - 1 do
      g.low <- imin g.low (Topo.reorder_low g.topo i)
    done;
    g.lows_seen <- Topo.reorders g.topo

  let add_edge g u v = Topo.add_edge g.topo u v

  (* A path a ~> b.  Real-time order implies one (the frontier's edges
     reach every transaction that completed before [b] started), and
     answers without the search, which is bounded only by [b]'s index:
     from a source far back in a long stream it would walk the whole
     interval. *)
  let reach g a b =
    (let c = Ivec.get g.completion a in
     c >= 0 && c < Ivec.get g.first_ev b)
    || Topo.reach g.topo a b

  (* --- transactions ----------------------------------------------------- *)

  let cycle_msg g u v =
    Fmt.str "ordering T%d before T%d closes a cycle" (tx g u) (tx g v)

  (* Why a contradiction after a heuristic choice proves nothing.  A
     choice among same-value writers says so in the words perfbench's
     fallback classes match on ("prefix closure"). *)
  let heuristic_note g =
    if g.same_value_choice then
      "a heuristic choice among same-value writers (repeated values forfeit \
       prefix closure, Corollary 2)"
    else "a heuristic write-order choice"

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
      poison g (Fmt.str "%s (after %s)" (cycle_msg g u v) (heuristic_note g))
    else violate g (cycle_msg g u v)

  let node g k =
    let n = Intern.find g.txs k in
    if n >= 0 then n
    else begin
      let n = Intern.add g.txs k in
      (* new nodes take the largest order index, so edges from existing
         nodes never trigger a reorder *)
      let n' = Topo.add_node g.topo in
      assert (n = n');
      Ivec.push g.first_ev g.idx;
      Ivec.push g.completion (-1);
      Ivec.push g.tryc_inv (-1);
      Ivec.push g.aborted 0;
      Ivec.push g.must_commit 0;
      Ivec.push g.pend_kind 0;
      Ivec.push g.pend_var (-1);
      Ivec.push g.pend_val 0;
      Pvec.push g.writes [];
      Ivec.push g.last_read (-1);
      touch g n;
      (* real-time edges: the frontier holds exactly the maximal
         t-complete transactions, each of which really-time-precedes the
         newcomer; everything below them is implied transitively.  The
         members are distinct and [n] has no edges yet, so none of these
         is a duplicate. *)
      for fi = g.f_lo to g.frontier.Ivec.n - 1 do
        match add_edge g (Ivec.get g.frontier fi) n with
        | `Ok -> ()
        | `Cycle -> on_cycle g (Ivec.get g.frontier fi) n
      done;
      n
    end

  let t_complete g n =
    Ivec.set g.completion n g.idx;
    (* drop frontier members now covered: they completed before [n] even
       started, so their edge to [n] plus [n]'s future edges imply theirs *)
    let first_n = Ivec.get g.first_ev n in
    while
      g.f_lo < g.frontier.Ivec.n
      && Ivec.get g.completion (Ivec.get g.frontier g.f_lo) < first_n
    do
      g.f_lo <- g.f_lo + 1
    done;
    Ivec.push g.frontier n

  let register_writer g x w = Pvec.set g.wpending x (w :: Pvec.get g.wpending x)

  (* Commit [w] in the certificate: [~forced] when every du-opaque
     serialization must, otherwise as a heuristic choice. *)
  let decide_commit g ~forced w =
    match Ivec.get g.must_commit w with
    | 0 ->
        Ivec.set g.must_commit w (if forced then 1 else 2);
        touch g w;
        List.iter (fun (x, _) -> register_writer g x w) (Pvec.get g.writes w)
    | 2 when forced -> Ivec.set g.must_commit w 1
    | _ -> ()

  (* [n] joins the writers of the pair.  A displaced writer that already
     aborted is dropped: no read can be legally bound to it, which is the
     common case under STM retry, where an aborted attempt's program
     re-executes and writes the same value again. *)
  let add_writer g s n =
    if s.relied then Int_tbl.replace g.watch n ();
    if s.final >= 0 && Ivec.get g.aborted s.final = 0 then begin
      g.repeated <- true;
      s.others <- s.final :: s.others
    end;
    s.final <- n

  (* [n]'s final write no longer has the pair's value *)
  let drop_writer s n =
    if s.final = n then
      match s.others with
      | [] -> s.final <- -1
      | w :: rest ->
          s.final <- w;
          s.others <- rest
    else s.others <- List.filter (fun w -> w <> n) s.others

  let do_write g n x v =
    let ws = Pvec.get g.writes n in
    match List.assoc_opt x ws with
    | Some v_old when v_old = v -> ()
    | Some v_old ->
        drop_writer (slot g x v_old) n;
        Pvec.set g.writes n ((x, v) :: List.remove_assoc x ws);
        add_writer g (slot g x v) n
    | None ->
        Pvec.set g.writes n ((x, v) :: ws);
        add_writer g (slot g x v) n

  (* Fold the frontier's new entries into the per-variable logs of
     committed writers.  The frontier vector holds every t-complete node
     in completion order, so each log stays sorted by completion. *)
  let sync_clog g =
    for fi = g.clog_upto to g.frontier.Ivec.n - 1 do
      let nd = Ivec.get g.frontier fi in
      if Ivec.get g.aborted nd = 0 then
        List.iter
          (fun (x, _) ->
            let ends = Pvec.get g.clog_end x
            and starts = Pvec.get g.clog_start x in
            let f = Ivec.get g.first_ev nd in
            Ivec.push ends (Ivec.get g.completion nd);
            Ivec.push starts
              (if starts.Ivec.n = 0 then f else imax f (Ivec.last starts)))
          (Pvec.get g.writes nd)
    done;
    g.clog_upto <- g.frontier.Ivec.n

  (* The latest first event among committed writers of [x] that completed
     before stream index [before]; -1 if there are none. *)
  let latest_rt_start g x before =
    let ends = Pvec.get g.clog_end x in
    let l = ref 0 and r = ref ends.Ivec.n in
    while !l < !r do
      let m = (!l + !r) / 2 in
      if Ivec.get ends m < before then l := m + 1 else r := m
    done;
    if !l = 0 then -1 else Ivec.get (Pvec.get g.clog_start x) (!l - 1)

  (* Position of a committed writer in commit order: its [Committed]
     response index, or past-end-of-stream (by tryC invocation) for
     read-forced writers still live.  For every deferred-update STM the
     commit responses happen inside the commit critical section, so this
     is the version order the implementation actually induced — the right
     default ordering for write pairs no read constrains. *)
  let commit_key g n =
    let c = Ivec.get g.completion n in
    if c >= 0 then c
    else
      g.idx
      +
      let t = Ivec.get g.tryc_inv n in
      if t >= 0 then t else Ivec.get g.first_ev n

  let bind g n x v s ~forced w =
    if w >= 0 then begin
      decide_commit g ~forced w;
      (* the one edge kind that can repeat: [n] may already have read
         another variable from [w], or have [w] as a real-time
         predecessor *)
      if not (Topo.mem_edge g.topo w n) then begin
        match add_edge g w n with
        | `Ok -> ()
        | `Cycle -> on_cycle g w n
      end
    end;
    let r =
      { rd_node = n; rd_var = x; rd_value = v; rd_res = g.idx;
        rd_writer = w; rd_slot = s }
    in
    Ivec.push g.prev_read (Ivec.get g.last_read n);
    Ivec.set g.last_read n g.reads.Pvec.n;
    Pvec.push g.reads r;
    touch g n

  (* [f] on each of [n]'s reads, newest first *)
  let iter_reads g n f =
    let ri = ref (Ivec.get g.last_read n) in
    while !ri >= 0 do
      f (Pvec.get g.reads !ri);
      ri := Ivec.get g.prev_read !ri
    done

  (* A read of a pair with several writers (T0 counting as the initial
     value's writer, -1): the candidates are those that had invoked tryC
     by now and can still commit, pruned by real time when more than one
     is left.  A tie taints the state and is bound by [tie_key]: the
     latest candidate that already committed — no commit to assume, and
     the narrowest interval to keep clear — else the commit-pending one
     that invoked tryC first; T0 last. *)
  let tie_key g w =
    if w < 0 then min_int
    else
      let c = Ivec.get g.completion w in
      if c >= 0 then c else -1 - Ivec.get g.tryc_inv w

  let read_among g n x v s =
    g.repeated <- true;
    let live w =
      w >= 0 && w <> n
      && Ivec.get g.aborted w = 0
      &&
      let tc = Ivec.get g.tryc_inv w in
      tc >= 0 && tc < g.idx
    in
    let cands = List.filter live (s.final :: s.others) in
    let cands = if v = Event.init_value then cands @ [ -1 ] else cands in
    let cands =
      match cands with
      | [] | [ _ ] -> cands
      | _ ->
          (* a committed writer of [x] that starts after W completed and
             completes before [n] started sits between them, retained *)
          sync_clog g;
          let m = latest_rt_start g x (Ivec.get g.first_ev n) in
          List.filter
            (fun w ->
              if w < 0 then m < 0
              else
                let c = Ivec.get g.completion w in
                c < 0 || c >= m)
            cands
    in
    match cands with
    | [] ->
        violate g
          (Fmt.str
             "T%d reads %d from %a, but no writer of that value can be its \
              local source (deferred update or real-time order violated)"
             (tx g n) v (pp_var g) x)
    | [ w ] -> bind g n x v s ~forced:true w
    | w :: rest ->
        choose_among_same_value g;
        let best =
          List.fold_left
            (fun a b -> if tie_key g b > tie_key g a then b else a)
            w rest
        in
        bind g n x v s ~forced:false best

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
        if
          s.others <> []
          || (v = Event.init_value && w >= 0 && Ivec.get g.aborted w = 0)
        then read_among g n x v s
        else if v = Event.init_value then bind g n x v s ~forced:true (-1)
        else if w < 0 then
          violate g
            (Fmt.str
               "T%d reads %d from %a but no transaction's final write has \
                that value"
               (tx g n) v (pp_var g) x)
        else if Ivec.get g.aborted w = 1 then
          violate g
            (Fmt.str "T%d reads from T%d, which cannot commit" (tx g n)
               (tx g w))
        else begin
          let tc = Ivec.get g.tryc_inv w in
          if tc < 0 || tc >= g.idx then
            violate g
              (Fmt.str
                 "T%d reads from T%d before it invoked tryC (deferred \
                  update violated)"
                 (tx g n) (tx g w))
          else bind g n x v s ~forced:true w
        end

  let push g ev =
    (match ev with
    | Event.Inv (k, inv) -> (
        let n = node g k in
        match inv with
        | Event.Read x ->
            Ivec.set g.pend_kind n 1;
            Ivec.set g.pend_var n (vid g x)
        | Event.Write (x, v) ->
            Ivec.set g.pend_kind n 2;
            Ivec.set g.pend_var n (vid g x);
            Ivec.set g.pend_val n v
        | Event.Try_commit ->
            Ivec.set g.pend_kind n 3;
            Ivec.set g.tryc_inv n g.idx;
            (* a writer a forced repair assumed could not commit now can *)
            if Int_tbl.length g.watch > 0 && Int_tbl.mem g.watch n then
              choose_among_same_value g
        | Event.Try_abort -> Ivec.set g.pend_kind n 4)
    | Event.Res (k, res) -> (
        let n = node g k in
        let pk = Ivec.get g.pend_kind n in
        Ivec.set g.pend_kind n 0;
        match res with
        | Event.Write_ok ->
            if pk = 2 then
              do_write g n (Ivec.get g.pend_var n) (Ivec.get g.pend_val n)
            else poison g "ok response without a pending write"
        | Event.Read_ok v ->
            if pk = 1 then do_read g n (Ivec.get g.pend_var n) v
            else poison g "read response without a pending read"
        | Event.Committed ->
            decide_commit g ~forced:true n;
            t_complete g n
        | Event.Aborted ->
            (match Ivec.get g.must_commit n with
            | 1 ->
                violate g
                  (Fmt.str
                     "T%d aborted, but an earlier read forces it to commit"
                     (tx g n))
            | 2 ->
                poison g
                  (Fmt.str "T%d aborted after %s committed it" (tx g n)
                     (heuristic_note g))
            | _ -> ());
            Ivec.set g.aborted n 1;
            t_complete g n));
    g.idx <- g.idx + 1

  (* --- verdict ---------------------------------------------------------- *)

  exception Decided of [ `Unsat of string | `Ambiguous of string ]

  let contradiction g why =
    raise
      (Decided
         (if g.taint then
            `Ambiguous
              (Fmt.str "ordering contradiction after %s: %s"
                 (heuristic_note g) why)
          else `Unsat why))

  (* The committed writers of [x] sorted by ord, brought up to date at
     most once per resolution pass (and whenever a writer was registered
     since).  Entries whose cached ord lies below every index a reorder or
     a new writer touched since the last look kept their index
     ({!Topo.reorder_low}) and stay; the rest are re-sorted by their
     current ord.  Within a pass the positions may go stale as repairs
     reorder the region — [repair] re-checks current positions before
     acting, and the fixpoint loop only stops after a clean pass against
     freshly sorted arrays, so staleness costs at most an extra pass,
     never a wrong verdict.  Ords are distinct, so the moved entries are
     re-sorted as bare ords, each one's node read back through
     {!Topo.at}. *)
  let writer_array g x =
    let ws = Pvec.get g.wsorted x and pend = Pvec.get g.wpending x in
    if Ivec.get g.wepoch x <> g.epoch || pend <> [] then begin
      Ivec.set g.wepoch x g.epoch;
      let t = ref max_int and nr = Topo.reorders g.topo in
      for i = Ivec.get g.wseen x to nr - 1 do
        t := imin !t (Topo.reorder_low g.topo i)
      done;
      Ivec.set g.wseen x nr;
      List.iter (fun n -> t := imin !t (ord g n)) pend;
      if !t < max_int then begin
        let len = ws.w_ord.Ivec.n in
        let l = ref 0 and r = ref len in
        while !l < !r do
          let m = (!l + !r) / 2 in
          if Ivec.get ws.w_ord m < !t then l := m + 1 else r := m
        done;
        let moved = Array.make (len - !l + List.length pend) 0 in
        for i = !l to len - 1 do
          moved.(i - !l) <- ord g (Ivec.get ws.w_node i)
        done;
        List.iteri (fun i n -> moved.(len - !l + i) <- ord g n) pend;
        Array.sort Int.compare moved;
        ws.w_ord.Ivec.n <- !l;
        ws.w_node.Ivec.n <- !l;
        Array.iter
          (fun o ->
            Ivec.push ws.w_ord o;
            Ivec.push ws.w_node (Topo.at g.topo o))
          moved;
        Pvec.set g.wpending x []
      end
    end;
    ws

  (* Committed writers of another value than the read's, strictly inside
     the serialization interval the read forbids: (writer, reader) for
     reads bound to a writer, (-inf, reader) for T0.  Writers of the same
     value may sit anywhere; a pair with one writer has none to skip. *)
  let offenders g (r : reader) =
    let ws = writer_array g r.rd_var in
    let len = ws.w_ord.Ivec.n in
    if len = 0 then []
    else begin
      let lo = if r.rd_writer < 0 then min_int else ord g r.rd_writer in
      let hi = ord g r.rd_node in
      let s = r.rd_slot in
      let one_writer = s.others = [] && (s.final < 0 || s.final = r.rd_writer) in
      (* first index with ord > lo *)
      let l = ref 0 and rgt = ref len in
      while !l < !rgt do
        let m = (!l + !rgt) / 2 in
        if Ivec.get ws.w_ord m <= lo then l := m + 1 else rgt := m
      done;
      let acc = ref [] in
      let i = ref !l in
      while !i < len && Ivec.get ws.w_ord !i < hi do
        let w'' = Ivec.get ws.w_node !i in
        if
          w'' <> r.rd_node && w'' <> r.rd_writer
          && (one_writer
             (* lint: allow quadratic-hot-path — a write buffer is as short
                as its transaction's write set *)
             || List.assoc_opt r.rd_var (Pvec.get g.writes w'')
                <> Some r.rd_value)
        then acc := w'' :: !acc;
        incr i
      done;
      !acc
    end

  (* Does the read's local serialization retain [w]? *)
  let retains g (r : reader) w =
    let tc = Ivec.get g.tryc_inv w in
    tc >= 0 && tc < r.rd_res

  (* Writers of the read's pair that could stand in as its global source
     after an offender the local serialization does not retain: any that
     invoked tryC and did not abort, other than the bound writer and the
     reader itself. *)
  let stand_ins g (r : reader) =
    let s = r.rd_slot in
    List.filter
      (fun w ->
        w >= 0 && w <> r.rd_writer && w <> r.rd_node
        && Ivec.get g.aborted w = 0
        && Ivec.get g.tryc_inv w >= 0)
      (s.final :: s.others)

  (* A forced repair of a non-retained offender assumed no other writer of
     the pair can commit: watch the ones that have not invoked tryC yet
     (and, through [relied], the pair's later writers). *)
  let rely g (r : reader) =
    let s = r.rd_slot in
    s.relied <- true;
    List.iter
      (fun w ->
        if w >= 0 && w <> r.rd_writer && w <> r.rd_node
           && Ivec.get g.aborted w = 0
        then Int_tbl.replace g.watch w ())
      (s.final :: s.others)

  let added g u v =
    match add_edge g u v with
    | `Ok ->
        g.repairs <- g.repairs + 1;
        true
    | `Cycle ->
        record_cycle g u v;
        contradiction g (cycle_msg g u v)

  (* Settle offender [w''] of read [r].  A hard constraint — the offender
     is retained by the read's local serialization, or no other writer of
     the pair can commit — orders [w''] out of the interval: with
     [~heuristic:false] only when exactly one direction is possible (unit
     propagation); with [~heuristic:true] an unconstrained pair is
     decided by commit order — see [commit_key] — and the state is
     tainted, because a later contradiction may be that choice's fault
     rather than the history's.  A soft constraint — a committable
     same-value writer could follow [w''] inside the interval and serve
     the read globally — is never forced: the heuristic pass orders
     [w''] out where it can and otherwise places such a stand-in between
     [w''] and the reader.  Before any heuristic choice, [around] (when
     given) settles what is forced near the interval.  Returns true iff
     the graph changed (the pair is then resolved for good: reachability
     only grows).  Raises [Decided] when no resolution is possible. *)
  let rec repair g ~heuristic ~around (r : reader) w'' =
    let i = r.rd_node and w = r.rd_writer in
    if not ((w < 0 || ord g w < ord g w'') && ord g w'' < ord g i) then false
    else begin
      let retained = retains g r w'' in
      let subs = if retained then [] else stand_ins g r in
      (* w'' -> w would close a cycle (nothing precedes T0) *)
      let fst_blocked = w < 0 || reach g w w'' in
      (* i -> w'' would close a cycle *)
      let snd_blocked = reach g w'' i in
      let hard = subs = [] in
      if hard && (not retained) && (fst_blocked || snd_blocked || heuristic)
      then rely g r;
      if
        (not hard)
        && List.exists
             (fun s ->
               Ivec.get g.must_commit s <> 0
               && ord g w'' < ord g s && ord g s < ord g i)
             subs
      then false (* served by a same-value writer after it *)
      else
        match (fst_blocked, snd_blocked) with
        | true, true when hard ->
            (* evicting w'' after the reader closes i -> w'' -> ... -> i;
               record that direction's cycle as the counterexample *)
            record_cycle g i w'';
            contradiction g
              (if w < 0 then
                 Fmt.str
                   "T%d reads the initial value of %a but committed writer \
                    T%d must precede it"
                   (tx g i) (pp_var g) r.rd_var (tx g w'')
               else
                 Fmt.str
                   "committed writer T%d cannot leave the interval between \
                    T%d and its reader T%d"
                   (tx g w'') (tx g w) (tx g i))
        | true, false when hard -> added g i w''
        | false, true when hard -> added g w'' w
        | _ when not heuristic -> false
        | _ -> (
            match around with
            | Some settle ->
                settle r w'';
                repair g ~heuristic ~around:None r w''
            | None -> (
                if hard then g.taint <- true else choose_among_same_value g;
                (* a hard constraint reaches here unconstrained only *)
                match (fst_blocked, snd_blocked) with
                | false, false ->
                    if commit_key g w'' < commit_key g w then added g w'' w
                    else added g i w''
                | true, false -> added g i w''
                | false, true -> added g w'' w
                | true, true -> (
                    (* prefer a stand-in already committed: it commits
                       nothing new *)
                    let committed, free =
                      List.partition
                        (fun s -> Ivec.get g.must_commit s <> 0)
                        subs
                    in
                    match
                      List.find_opt
                        (fun s -> not (reach g s w'' || reach g i s))
                        (committed @ free)
                    with
                    | None ->
                        record_cycle g i w'';
                        contradiction g
                          (Fmt.str
                             "no writer of %d to %a can follow committed \
                              writer T%d and precede its reader T%d"
                             r.rd_value (pp_var g) r.rd_var (tx g w'')
                             (tx g i))
                    | Some s ->
                        decide_commit g ~forced:false s;
                        if not (reach g w'' s) then ignore (added g w'' s);
                        if not (reach g s i) then ignore (added g s i);
                        true)))
    end

  (* Forced orderings of committed writer [w''] against read [r] when it
     sits outside the read's interval: one side of the interval may
     already be closed to it by a path.  Soft constraints force nothing. *)
  let pin g (r : reader) w'' =
    let i = r.rd_node and w = r.rd_writer in
    let o = ord g w'' in
    let hard () = retains g r w'' || stand_ins g r = [] in
    if (w < 0 || ord g w < o) && o < ord g i then
      ignore (repair g ~heuristic:false ~around:None r w'')
    else if w >= 0 && o < ord g w then begin
      (* before the source: forced there iff i -> w'' closes a cycle *)
      if (not (reach g w'' w)) && reach g w'' i && hard () then begin
        rely g r;
        ignore (added g w'' w)
      end
    end
    else if (not (reach g i w'')) && (w < 0 || reach g w w'') && hard ()
    then begin
      rely g r;
      ignore (added g i w'')
    end

  (* Repair every read's interval to a clean fixpoint.  The first pass
     applies only forced repairs (unit propagation); later passes also
     decide unconstrained pairs by commit order.  Because all heuristic
     choices are drawn from the one global commit order, they are mutually
     consistent and can be applied eagerly — no per-decision re-pass is
     needed, so the work is O(passes × reads × log writers + repairs),
     and on histories the STM really produced the commit order is the
     version order, so no choice ever backfires into a contradiction.

     With repeated values a choice can also be forced by a read whose
     interval the offender sits outside, which the interval scan never
     sees (Finding 3: [T4] is pinned between [T2] and [T5] by the reads of
     [X] alone).  So before each heuristic choice the offender is pinned
     against every other read of the variables it writes whose source or
     reader lies within the interval at stake — the only reads whose
     constraint the choice can move it across. *)
  let resolve g =
    let around =
      if not g.repeated then None
      else begin
        for ri = g.var_reads_upto to g.reads.Pvec.n - 1 do
          let r = Pvec.get g.reads ri in
          Pvec.push (Pvec.get g.var_reads r.rd_var) r
        done;
        g.var_reads_upto <- g.reads.Pvec.n;
        Some
          (fun (r : reader) w'' ->
            let lo = if r.rd_writer < 0 then min_int else ord g r.rd_writer in
            let hi = ord g r.rd_node in
            let near n =
              n >= 0
              &&
              let o = ord g n in
              lo <= o && o <= hi
            in
            List.iter
              (fun (x, v'') ->
                let rs = Pvec.get g.var_reads x in
                for ri = 0 to rs.Pvec.n - 1 do
                  let r' = Pvec.get rs ri in
                  if
                    r' != r && r'.rd_writer <> w'' && r'.rd_node <> w''
                    && r'.rd_value <> v''
                    && (near r'.rd_writer || near r'.rd_node)
                  then pin g r' w''
                done)
              (Pvec.get g.writes w''))
      end
    in
    (* The reads to rescan are those of the transactions at [low] and
       above; from index 0 that is every read, taken in stream order. *)
    let pass ~heuristic =
      g.epoch <- g.epoch + 1;
      fold_lows g;
      let edges = Topo.edge_count g.topo in
      let acted = ref false in
      let visit r =
        List.iter
          (fun w'' -> if repair g ~heuristic ~around r w'' then acted := true)
          (offenders g r)
      in
      if g.low = 0 then
        for ri = 0 to g.reads.Pvec.n - 1 do
          visit (Pvec.get g.reads ri)
        done
      else
        for p = g.low to nnodes g - 1 do
          iter_reads g (Topo.at g.topo p) visit
        done;
      !acted || Topo.edge_count g.topo <> edges
    in
    ignore (pass ~heuristic:false);
    while pass ~heuristic:true do
      ()
    done;
    fold_lows g

  (* Rewind the replay to position [p]: undo the writes of the positions
     at and above it.  Without an undo log, start over. *)
  let rewind g p =
    if g.online then
      for q = g.rupto - 1 downto p do
        List.iter
          (fun (x, v, st) ->
            Ivec.set g.rvalue x v;
            Pvec.set g.rstack x st)
          (Pvec.get g.rlog q);
        Pvec.pop g.rlog
      done
    else
      for x = 0 to g.rvalue.Ivec.n - 1 do
        Ivec.set g.rvalue x Event.init_value;
        Pvec.set g.rstack x []
      done;
    g.rupto <- (if g.online then p else 0)

  (* the last entry of [opens], or (-1, -1) *)
  let last_open g =
    let o = g.opens in
    if o.Pvec.n = 0 then (-1, -1) else Pvec.get o (o.Pvec.n - 1)

  (* A read at position [p] has a newer writer of another value before it;
     [tc] is the latest tryC index among its newer writers. *)
  let open_read g p tc =
    let q, last = last_open g in
    let tc = if tc > last then tc else last in
    if q = p then Pvec.set g.opens (g.opens.Pvec.n - 1) (p, tc)
    else Pvec.push g.opens (p, tc)

  (* Linear replay of the maintained order against Definition 3's value
     clauses: global legality (latest committed writer) and the
     local-serialization (deferred-update filter) expectation per read.
     Resumes from the lowest touched position; stops at the first read
     the order does not serve. *)
  let replay g =
    if g.low < g.rupto then rewind g g.low;
    (* positions from [rupto] up are replayed again *)
    while fst (last_open g) >= g.rupto do
      Pvec.pop g.opens
    done;
    let n = nnodes g in
    let bad = ref None in
    while !bad = None && g.rupto < n do
      let p = g.rupto in
      let nd = Topo.at g.topo p in
      iter_reads g nd (fun r ->
          if !bad = None then begin
            (* the writers newer than the local source are exactly
               those a prefix may abort: any of another value would
               then serve the read globally *)
            let rec du ~other ~latest = function
              | [] ->
                  if other then open_read g p latest;
                  Event.init_value
              | (tc, v) :: rest ->
                  if tc < r.rd_res then begin
                    if other then open_read g p latest;
                    v
                  end
                  else
                    du ~other:(other || v <> r.rd_value)
                      ~latest:(if tc > latest then tc else latest) rest
            in
            let glob = Ivec.get g.rvalue r.rd_var in
            let duv =
              du ~other:false ~latest:(-1) (Pvec.get g.rstack r.rd_var)
            in
            if glob <> r.rd_value || duv <> r.rd_value then
              bad :=
                Some
                  (Fmt.str
                     "T%d's read of %a returns %d where the order yields %d \
                      (du view %d)"
                     (tx g nd) (pp_var g) r.rd_var r.rd_value glob duv)
          end);
      if !bad = None then begin
        let undo = ref [] in
        if Ivec.get g.must_commit nd <> 0 then
          List.iter
            (fun (x, v) ->
              let st = Pvec.get g.rstack x in
              if g.online then undo := (x, Ivec.get g.rvalue x, st) :: !undo;
              Ivec.set g.rvalue x v;
              Pvec.set g.rstack x ((Ivec.get g.tryc_inv nd, v) :: st))
            (Pvec.get g.writes nd);
        if g.online then Pvec.push g.rlog !undo;
        g.rupto <- p + 1
      end
    done;
    !bad

  (* The maintained order as a serialization, with the decisions. *)
  let certificate g =
    let order = ref [] and committed = ref [] in
    for p = nnodes g - 1 downto 0 do
      let nd = Topo.at g.topo p in
      order := tx g nd :: !order;
      if Ivec.get g.must_commit nd <> 0 then committed := tx g nd :: !committed
    done;
    Serialization.make ~order:!order ~committed:!committed

  (* One path: a recorded poison or violation answers at once; otherwise
     [resolve] repairs the interval of every read at or above [low], and
     the order is replayed from there.  Between a poison and a violation,
     whichever fired first in stream order wins: a violation detected
     before any poison rests only on trustworthy bindings (and
     non-du-opacity of a prefix is never retracted by the monitor that
     reads it), while a violation detected after a poison may rest on
     state the poison made unreliable.  What the resolution decides is
     not recorded: a contradiction leaves [low] where it was, so the next
     verdict meets it again unless the stream changed it. *)
  let decide g =
    match (g.poison, g.violation) with
    | Some (pi, pw), Some (vi, _) when pi < vi -> `Ambiguous pw
    | _, Some (_, vw) -> `Unsat vw
    | Some (_, pw), None -> `Ambiguous pw
    | None, None -> (
        match resolve g with
        | () -> (
            match replay g with
            | Some why ->
                (* defensive: the resolution missed a clause; the exact
                   search arbitrates *)
                `Ambiguous ("internal: graph certificate rejected: " ^ why)
            | None ->
                g.low <- max_int;
                `Sat)
        | exception Decided (`Unsat why) -> `Unsat why
        | exception Decided (`Ambiguous why) -> `Ambiguous why)

  let verdict g =
    match decide g with
    | `Sat -> Sat (certificate g)
    | `Unsat why -> Unsat why
    | `Ambiguous why -> Ambiguous why

  let closed_after g = snd (last_open g)
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

(* a batch graph fed every event of [h], read by index: no list copy *)
let batch h =
  let g = Inc.make ~online:false in
  for i = 0 to History.length h - 1 do
    Inc.push g (History.get h i)
  done;
  g

let check_stats h =
  let g = batch h in
  (* the verdict's resolution adds edges and repairs: count them *)
  let r = Inc.verdict g in
  (r, Inc.stats g)

let check h = fst (check_stats h)

let counterexample_cycle h =
  let g = batch h in
  (* verdict-time resolution can be what closes the cycle *)
  ignore (Inc.verdict g);
  Inc.cycle g

let check_or_fallback ?max_nodes h =
  match check h with
  | Sat s -> Verdict.Sat s
  | Unsat why -> Verdict.Unsat why
  | Ambiguous _ -> Du_opacity.check ?max_nodes h
