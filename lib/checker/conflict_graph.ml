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
     after a heuristic choice answer Ambiguous, never Unsat).

   Acyclicity under edge insertion is maintained with the Pearce–Kelly
   dynamic topological order, which lives in {!Topo}: an edge already
   respecting the order is free; otherwise the affected region is
   discovered and its order indices reassigned.  Edges live in
   index-linked arena pools, so insertion allocates nothing beyond
   amortised array growth. *)

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

(* Dense bitsets over interned variable ids (32 bits per word so shifts
   stay well inside OCaml's 63-bit integers). *)
module Bitset = struct
  type t = { mutable w : int array }

  let create () = { w = [||] }

  let add t i =
    let j = i lsr 5 in
    if j >= Array.length t.w then begin
      let a' = Array.make (max (j + 1) ((2 * Array.length t.w) + 1)) 0 in
      Array.blit t.w 0 a' 0 (Array.length t.w);
      t.w <- a'
    end;
    t.w.(j) <- t.w.(j) lor (1 lsl (i land 31))

  let iter f t =
    Array.iteri
      (fun j word ->
        if word <> 0 then
          for b = 0 to 31 do
            if word land (1 lsl b) <> 0 then f ((j lsl 5) + b)
          done)
      t.w
end

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

  type t = {
    (* interning *)
    node_of_tx : (Event.tx, int) Hashtbl.t;
    tx_of_node : int Pvec.t;
    var_of_tvar : (Event.tvar, int) Hashtbl.t;
    mutable nvars : int;
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
    wset : Bitset.t Pvec.t;
    rset : Bitset.t Pvec.t;
    (* write bookkeeping; keys are dense (var, value) or (node, var) *)
    own : (int * int, int) Hashtbl.t;  (* deferred buffer: (node,var) -> v *)
    writes_seen : (int * int, int) Hashtbl.t;  (* all writes: (var,v) -> node *)
    final_writer : (int * int, int) Hashtbl.t;  (* (var,v) -> node, current *)
    fw_val : (int * int, int) Hashtbl.t;  (* (node,var) -> current final v *)
    readers_by_vv : (int * int, (int * int) list ref) Hashtbl.t;
        (* (var,v) -> (reader node, attributed writer | -1 init | -2 none) *)
    reads : reader Pvec.t;  (* attributed + initial-value reads, in order *)
    writers_of_var : (int, int list ref) Hashtbl.t;  (* committed writers *)
    (* frontier of maximal t-complete transactions (queue over a vector) *)
    frontier : int Pvec.t;
    mutable f_lo : int;
    (* per-variable sorted committed-writer positions, rebuilt lazily *)
    var_cache : (int, (int * int) array * int) Hashtbl.t;
        (* var -> (sorted (ord, node) positions, epoch at build) *)
    mutable epoch : int;  (* bumped at each resolution pass *)
    (* stream state *)
    mutable idx : int;
    mutable poison : (int * string) option;  (* stream index it fired at *)
    mutable violation : (int * string) option;
    mutable cycle : int list option;  (* first counterexample cycle (nodes) *)
    mutable taint : bool;
    mutable repairs : int;
  }

  let create () =
    {
      node_of_tx = Hashtbl.create 64;
      tx_of_node = Pvec.create 0;
      var_of_tvar = Hashtbl.create 16;
      nvars = 0;
      topo = Topo.create ();
      first_ev = Pvec.create 0;
      completion = Pvec.create (-1);
      tryc_inv = Pvec.create (-1);
      aborted = Pvec.create 0;
      must_commit = Pvec.create 0;
      pend_kind = Pvec.create 0;
      pend_var = Pvec.create 0;
      pend_val = Pvec.create 0;
      wset = Pvec.create (Bitset.create ());
      rset = Pvec.create (Bitset.create ());
      own = Hashtbl.create 64;
      writes_seen = Hashtbl.create 64;
      final_writer = Hashtbl.create 64;
      fw_val = Hashtbl.create 64;
      readers_by_vv = Hashtbl.create 64;
      reads = Pvec.create dummy_reader;
      writers_of_var = Hashtbl.create 16;
      frontier = Pvec.create 0;
      f_lo = 0;
      var_cache = Hashtbl.create 16;
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
    match Hashtbl.find_opt g.var_of_tvar x with
    | Some i -> i
    | None ->
        let i = g.nvars in
        g.nvars <- i + 1;
        Hashtbl.replace g.var_of_tvar x i;
        i

  (* Variable names in messages: dense ids are only ever created from
     [Event.tvar]s, so keep a reverse map implicitly via messages built at
     intern sites.  For verdict-time messages we print the dense id. *)
  let pp_var g ppf v =
    let shown = ref false in
    Hashtbl.iter
      (fun tv dv ->
        if dv = v && not !shown then begin
          shown := true;
          Event.pp_tvar ppf tv
        end)
      g.var_of_tvar;
    if not !shown then Fmt.pf ppf "X?%d" v

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
    match Hashtbl.find_opt g.node_of_tx k with
    | Some n -> n
    | None ->
        let n = nnodes g in
        Hashtbl.replace g.node_of_tx k n;
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
        Pvec.push g.wset (Bitset.create ());
        Pvec.push g.rset (Bitset.create ());
        (* real-time edges: the frontier holds exactly the maximal
           t-complete transactions, each of which really-time-precedes the
           newcomer; everything below them is implied transitively *)
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
    (match Hashtbl.find_opt g.writers_of_var x with
    | Some r -> r := w :: !r
    | None -> Hashtbl.replace g.writers_of_var x (ref [ w ]));
    Hashtbl.remove g.var_cache x

  let force_commit g w =
    if Pvec.get g.must_commit w = 0 then begin
      Pvec.set g.must_commit w 1;
      Bitset.iter (fun x -> register_writer g x w) (Pvec.get g.wset w)
    end

  let add_vv_reader g x v entry =
    match Hashtbl.find_opt g.readers_by_vv (x, v) with
    | Some r -> r := entry :: !r
    | None -> Hashtbl.replace g.readers_by_vv (x, v) (ref [ entry ])

  let do_write g n x v =
    (match Hashtbl.find_opt g.writes_seen (x, v) with
    | Some o when o <> n ->
        (* A duplicate from an already-aborted writer — the common case
           under STM retry, where an aborted attempt's program re-executes —
           is harmless: no read can ever be legally attributed to the
           aborted transaction (any that was is already a violation), so
           the value's ownership simply transfers.  A duplicate between two
           transactions that could both commit leaves reads-from genuinely
           undetermined: poison. *)
        if Pvec.get g.aborted o = 1 then Hashtbl.replace g.writes_seen (x, v) n
        else
          poison g
            (Fmt.str
               "T%d and T%d both write %d to %a, which forfeits prefix \
                closure (Corollary 2)"
               (tx g o) (tx g n) v (pp_var g) x)
    | Some _ -> ()
    | None -> Hashtbl.replace g.writes_seen (x, v) n);
    (* a write whose (var, value) an earlier read already returned — not
       attributed to this writer — could retract that read's verdict.
       Reads bound to a since-aborted writer, and reads no write could
       explain, are already recorded violations that precede this write,
       so they need no poison. *)
    (match Hashtbl.find_opt g.readers_by_vv (x, v) with
    | Some readers ->
        if
          List.exists
            (fun (_, w) ->
              w = -1 || (w >= 0 && w <> n && Pvec.get g.aborted w = 0))
            !readers
        then
          poison g
            (Fmt.str
               "T%d writes %d to %a, a value an earlier read returned from \
                elsewhere"
               (tx g n) v (pp_var g) x)
    | None -> ());
    (match Hashtbl.find_opt g.fw_val (n, x) with
    | Some v_old when v_old <> v ->
        (match Hashtbl.find_opt g.readers_by_vv (x, v_old) with
        | Some readers ->
            if List.exists (fun (_, w) -> w = n) !readers then
              poison g
                (Fmt.str
                   "T%d overwrites %a after a read was attributed to its \
                    previous write"
                   (tx g n) (pp_var g) x)
        | None -> ());
        Hashtbl.remove g.final_writer (x, v_old)
    | Some _ | None -> ());
    Hashtbl.replace g.fw_val (n, x) v;
    Hashtbl.replace g.final_writer (x, v) n;
    Hashtbl.replace g.own (n, x) v;
    Bitset.add (Pvec.get g.wset n) x

  let do_read g n x v =
    Bitset.add (Pvec.get g.rset n) x;
    match Hashtbl.find_opt g.own (n, x) with
    | Some own_v ->
        if v <> own_v then
          violate g
            (Fmt.str "T%d: internal read of %a returned %d, own write was %d"
               (tx g n) (pp_var g) x v own_v)
    | None ->
        if v = Event.init_value then begin
          (match Hashtbl.find_opt g.final_writer (x, v) with
          | Some w when w <> n && Pvec.get g.aborted w = 0 ->
              poison g
                (Fmt.str
                   "T%d writes the initial value %d to %a: ambiguous \
                    reads-from"
                   (tx g w) v (pp_var g) x)
          | Some _ | None -> ());
          add_vv_reader g x v (n, -1);
          Pvec.push g.reads
            { rd_node = n; rd_var = x; rd_value = v; rd_res = g.idx;
              rd_writer = -1 }
        end
        else
          match Hashtbl.find_opt g.final_writer (x, v) with
          | None ->
              violate g
                (Fmt.str
                   "T%d reads %d from %a but no transaction's final write \
                    has that value"
                   (tx g n) v (pp_var g) x);
              add_vv_reader g x v (n, -2)
          | Some w when w = n ->
              poison g (Fmt.str "T%d externally reads its own write" (tx g n))
          | Some w ->
              if Pvec.get g.aborted w = 1 then
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
                  (match add_edge g w n with
                  | `Ok -> ()
                  | `Cycle -> on_cycle g w n);
                  add_vv_reader g x v (n, w);
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
    match Hashtbl.find_opt g.var_cache x with
    | Some (arr, ep) when ep = g.epoch -> arr
    | _ ->
        let current =
          match Hashtbl.find_opt g.writers_of_var x with
          | Some r -> !r
          | None -> []
        in
        let arr =
          Array.of_list (List.map (fun n -> (ord g n, n)) current)
        in
        Array.sort (fun (a, _) (b, _) -> Int.compare a b) arr;
        Hashtbl.replace g.var_cache x (arr, g.epoch);
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

  (* Greedy verdict fast path: one commit-key-greedy topological sort of
     the current graph (Kahn's algorithm over a binary heap), then a purely
     static validation of every read interval and a linear replay against
     the resulting order — no graph mutation, no Pearce–Kelly reorders.
     On histories an STM actually produced, the commit order IS a valid
     serialization, so this succeeds and the whole verdict is
     O((nodes + edges + reads) log nodes).  When it fails, the exact
     repair machinery below takes over. *)

  let greedy_order g =
    let n = nnodes g in
    let indeg = Array.make (max 1 n) 0 in
    for u = 0 to n - 1 do
      Topo.succ_iter g.topo u (fun v -> indeg.(v) <- indeg.(v) + 1)
    done;
    (* binary min-heap of (commit_key, node) *)
    let hk = Array.make (max 1 n) 0 and hn = Array.make (max 1 n) 0 in
    let hsz = ref 0 in
    let swap i j =
      let k = hk.(i) and m = hn.(i) in
      hk.(i) <- hk.(j);
      hn.(i) <- hn.(j);
      hk.(j) <- k;
      hn.(j) <- m
    in
    let push key nd =
      hk.(!hsz) <- key;
      hn.(!hsz) <- nd;
      let i = ref !hsz in
      incr hsz;
      while !i > 0 && hk.((!i - 1) / 2) > hk.(!i) do
        swap ((!i - 1) / 2) !i;
        i := (!i - 1) / 2
      done
    in
    let pop () =
      let nd = hn.(0) in
      decr hsz;
      hk.(0) <- hk.(!hsz);
      hn.(0) <- hn.(!hsz);
      let i = ref 0 in
      let go = ref true in
      while !go do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let s = ref !i in
        if l < !hsz && hk.(l) < hk.(!s) then s := l;
        if r < !hsz && hk.(r) < hk.(!s) then s := r;
        if !s <> !i then begin
          swap !s !i;
          i := !s
        end
        else go := false
      done;
      nd
    in
    for nd = 0 to n - 1 do
      if indeg.(nd) = 0 then push (commit_key g nd) nd
    done;
    (* [Array.make n] and not [max 1 n]: an empty graph must yield an
       empty order, or the phantom slot masquerades as node 0 downstream *)
    let order = Array.make n 0 in
    let k = ref 0 in
    while !hsz > 0 do
      let nd = pop () in
      order.(!k) <- nd;
      incr k;
      Topo.succ_iter g.topo nd (fun v ->
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then push (commit_key g v) v)
    done;
    (* the graph is acyclic by construction, so the sort is total *)
    assert (!k = n);
    order

  (* Do all reads respect their anti-dependency intervals under [order]?
     Purely static: positions instead of graph edges. *)
  let intervals_ok g order =
    let n = nnodes g in
    let pos = Array.make (max 1 n) 0 in
    Array.iteri (fun p nd -> pos.(nd) <- p) order;
    let by_var = Hashtbl.create 64 in
    Hashtbl.iter
      (fun x r ->
        let arr = Array.of_list (List.map (fun w -> pos.(w)) !r) in
        Array.sort Int.compare arr;
        Hashtbl.replace by_var x arr)
      g.writers_of_var;
    let ok = ref true in
    let ri = ref 0 in
    while !ok && !ri < g.reads.Pvec.n do
      let r = Pvec.get g.reads !ri in
      (match Hashtbl.find_opt by_var r.rd_var with
      | None -> ()
      | Some arr ->
          let lo = if r.rd_writer < 0 then -1 else pos.(r.rd_writer) in
          let hi = pos.(r.rd_node) in
          (* first position > lo *)
          let l = ref 0 and rgt = ref (Array.length arr) in
          while !l < !rgt do
            let m = (!l + !rgt) / 2 in
            if arr.(m) <= lo then l := m + 1 else rgt := m
          done;
          (* any committed writer strictly inside (lo, hi) offends — the
             bound writer sits at lo and the reader at hi, so neither can
             be such an entry *)
          if !l < Array.length arr && arr.(!l) < hi then ok := false);
      incr ri
    done;
    !ok

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
    let state = Array.make (max 1 g.nvars) Event.init_value in
    let stacks = Array.make (max 1 g.nvars) [] in
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
            Bitset.iter
              (fun x ->
                match Hashtbl.find_opt g.fw_val (nd, x) with
                | Some v ->
                    state.(x) <- v;
                    stacks.(x) <- (Pvec.get g.tryc_inv nd, v) :: stacks.(x)
                | None -> ())
              (Pvec.get g.wset nd)
        end)
      order;
    !bad

  let verdict g =
    (* Whichever fired first in stream order wins: a violation detected
       before any poison rests only on trustworthy attributions (and
       non-du-opacity is monotone under extension), while a violation
       detected after a poison may rest on state the poison made
       unreliable. *)
    match (g.poison, g.violation) with
    | Some (pi, pw), Some (vi, _) when pi < vi -> Ambiguous pw
    | _, Some (_, vw) -> Unsat vw
    | Some (_, pw), None -> Ambiguous pw
    | None, None -> (
        let fast =
          let order = greedy_order g in
          if intervals_ok g order && replay g order = None then Some order
          else None
        in
        match fast with
        | Some order ->
            let ids = Array.to_list (Array.map (fun nd -> tx g nd) order) in
            let committed =
              List.filter
                (fun k ->
                  Pvec.get g.must_commit (Hashtbl.find g.node_of_tx k) = 1)
                ids
            in
            Sat (Serialization.make ~order:ids ~committed)
        | None -> (
        match resolve g with
        | () -> (
                let n = nnodes g in
                let order = Array.init n (fun i -> i) in
                Array.sort
                  (fun a b -> Int.compare (ord g a) (ord g b))
                  order;
                match replay g order with
                | Some why ->
                    (* defensive: the resolution missed a clause; the exact
                       search arbitrates *)
                    Ambiguous ("internal: graph certificate rejected: " ^ why)
                | None ->
                    let ids =
                      Array.to_list (Array.map (fun nd -> tx g nd) order)
                    in
                    let committed =
                      List.filter
                        (fun k ->
                          Pvec.get g.must_commit
                            (Hashtbl.find g.node_of_tx k)
                          = 1)
                        ids
                    in
                    Sat (Serialization.make ~order:ids ~committed))
        | exception Decided r ->
            (match r with
            | Unsat why -> violate g why
            | Ambiguous why -> poison g why
            | Sat _ -> ());
            r))

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
  (Inc.verdict g, Inc.stats g)

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
