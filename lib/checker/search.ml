type mode = Plain | Du | Last_use

type options = {
  mode : mode;
  extra_edges : (Event.tx * Event.tx) list;
  commit_edges : (Event.tx * Event.tx) list;
  respect_rt : bool;
  max_nodes : int option;
  hint : Event.tx list option;
}

let default =
  { mode = Plain; extra_edges = []; commit_edges = []; respect_rt = true;
    max_nodes = None; hint = None }

let du = { default with mode = Du }
let lu = { default with mode = Last_use }

type stats = { nodes : int; memo_hits : int; prefiltered : bool }

exception Exhausted

(* Per-transaction data, indexed densely by 0..n-1, kept across searches.

   The context is a persistent accumulator: [sync] consumes only the events
   appended since the previous call, growing the dense arrays amortised and
   keeping the transaction/variable/key interning tables alive, so an online
   monitor that searches occasionally over an ever-growing history pays for
   each event once instead of rebuilding everything per search.

   Real-time edges are derived at each transaction's birth, and only the
   immediate ones are kept.  The real-time order is an interval order: [a]
   precedes [b] when [a] completed before [b] started.  A t-complete [a] is
   an immediate predecessor of a newborn iff no other t-complete
   transaction started after [a] completed, i.e. iff [a] completed after
   the latest start among the t-complete.  Those transactions form the
   [frontier], maintained per completion, so a birth takes it as a shared
   list in O(1).  The closure is unchanged, so "every predecessor placed"
   still means "every real-time predecessor placed". *)
type ictx = {
  mode : mode;
  respect_rt : bool;
  extra_edges : (Event.tx * Event.tx) list;
  commit_edges : (Event.tx * Event.tx) list;
  mutable n : int;  (* transactions known *)
  mutable synced : int;  (* events consumed so far *)
  mutable ids : Event.tx array;  (* dense index -> transaction id *)
  mutable reads : Txn.read list array;  (* external reads, dense var ids *)
  mutable final_writes : (int * Event.value) list array;  (* dense var ids *)
  mutable choices : bool list array;
  mutable tryc_inv : int option array;
  mutable closing : (int * int) list array;
      (* dense var -> res index of the closing (last) write, per txn *)
  mutable rt_preds : int list array;  (* immediate real-time predecessors *)
  mutable start : int array;  (* history index of the first event *)
  mutable finish : int array;  (* history index of the commit/abort response *)
  mutable demands : int list array;  (* keys of external reads *)
  index : (Event.tx, int) Hashtbl.t;
  var_index : (Event.tvar, int) Hashtbl.t;
  mutable n_vars : int;
  keys : (int * Event.value, int) Hashtbl.t;  (* (dense var, value) -> key *)
  mutable n_keys : int;
  mutable max_start : int;  (* latest start among the t-complete *)
  mutable frontier : int list;
      (* t-complete transactions that completed after [max_start], latest
         completion first *)
}

let ictx (opts : options) =
  {
    mode = opts.mode;
    respect_rt = opts.respect_rt;
    extra_edges = opts.extra_edges;
    commit_edges = opts.commit_edges;
    n = 0;
    synced = 0;
    ids = [||];
    reads = [||];
    final_writes = [||];
    choices = [||];
    tryc_inv = [||];
    closing = [||];
    rt_preds = [||];
    start = [||];
    finish = [||];
    demands = [||];
    index = Hashtbl.create 64;
    var_index = Hashtbl.create 16;
    n_vars = 0;
    keys = Hashtbl.create 32;
    n_keys = 0;
    max_start = -1;
    frontier = [];
  }

let grow c =
  let cap = Array.length c.ids in
  if c.n = cap then begin
    let ncap = max 8 (2 * cap) in
    let g a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    c.ids <- g c.ids 0;
    c.reads <- g c.reads [];
    c.final_writes <- g c.final_writes [];
    c.choices <- g c.choices [];
    c.tryc_inv <- g c.tryc_inv None;
    c.closing <- g c.closing [];
    c.rt_preds <- g c.rt_preds [];
    c.start <- g c.start 0;
    c.finish <- g c.finish 0;
    c.demands <- g c.demands []
  end

let dense_var c x =
  match Hashtbl.find_opt c.var_index x with
  | Some d -> d
  | None ->
      let d = c.n_vars in
      c.n_vars <- d + 1;
      Hashtbl.replace c.var_index x d;
      d

let key_of c xv =
  match Hashtbl.find_opt c.keys xv with
  | Some k -> k
  | None ->
      let k = c.n_keys in
      c.n_keys <- k + 1;
      Hashtbl.replace c.keys xv k;
      k

(* Recompute transaction [d]'s row from its summary in [h].  Values some
   external read demands are interned as keys here; a writer's supplies are
   resolved per search (never cached), so a key interned after the writer
   last changed is still seen. *)
let refresh c h d =
  let txn = History.info h c.ids.(d) in
  let reads =
    Txn.reads txn
    |> List.filter_map (fun (r : Txn.read) ->
           match r.Txn.kind with
           | `Internal _ -> None (* checked by the prefilter *)
           | `External -> Some { r with Txn.var = dense_var c r.Txn.var })
  in
  c.reads.(d) <- reads;
  c.demands.(d) <-
    List.map (fun (r : Txn.read) -> key_of c (r.Txn.var, r.Txn.value)) reads;
  c.final_writes.(d) <-
    List.map (fun (x, v) -> (dense_var c x, v)) (Txn.final_writes txn);
  c.choices.(d) <- Txn.commit_choices txn;
  c.tryc_inv.(d) <- Txn.tryc_inv_index txn;
  c.closing.(d) <-
    List.map (fun (x, p) -> (dense_var c x, p)) (Txn.closing_writes txn)

(* [d] completed at history index [i]: it joins the frontier, and raising
   the latest start drops the members that completed before it.  Those sit
   at the tail, the list being ordered by completion. *)
let complete c d i =
  c.finish.(d) <- i;
  if c.start.(d) <= c.max_start then c.frontier <- d :: c.frontier
  else begin
    c.max_start <- c.start.(d);
    let rec keep = function
      | e :: rest when c.finish.(e) > c.max_start -> e :: keep rest
      | _ -> []
    in
    c.frontier <- d :: keep c.frontier
  end

(* Consume the events of [h] beyond the last synced position.  [h] must be
   an extension of the history previously synced into [c] (the monitor only
   ever extends; batch searches use a fresh context). *)
let sync c h =
  let len = History.length h in
  if len < c.synced then
    invalid_arg "Search.sync: history is shorter than the synced prefix";
  if len > c.synced then begin
    let dirty = ref [] in
    let mark d =
      match !dirty with
      | d' :: _ when d' = d -> ()
      | _ -> dirty := d :: !dirty
    in
    for i = c.synced to len - 1 do
      match History.get h i with
      | Event.Inv (k, _) -> (
          match Hashtbl.find_opt c.index k with
          | Some d -> mark d
          | None ->
              grow c;
              let d = c.n in
              c.n <- d + 1;
              Hashtbl.replace c.index k d;
              c.ids.(d) <- k;
              c.start.(d) <- i;
              c.rt_preds.(d) <- (if c.respect_rt then c.frontier else []);
              mark d)
      | Event.Res (k, res) -> (
          match Hashtbl.find_opt c.index k with
          | None ->
              invalid_arg "Search.sync: response without known transaction"
          | Some d ->
              mark d;
              (match res with
              | Event.Committed | Event.Aborted -> complete c d i
              | Event.Read_ok _ | Event.Write_ok -> ()))
    done;
    c.synced <- len;
    List.sort_uniq Int.compare !dirty |> List.iter (refresh c h)
  end

(* Necessary conditions, checked in linear time.  A violation here refutes
   every serialization, so most negative instances never reach the search. *)
let prefilter c h =
  let n = c.n in
  let internal_ok =
    let rec check_infos = function
      | [] -> Ok ()
      | (t : Txn.t) :: rest ->
          let bad =
            List.find_opt
              (fun (r : Txn.read) ->
                match r.Txn.kind with
                | `Internal own -> r.Txn.value <> own
                | `External -> false)
              (Txn.reads t)
          in
          (match bad with
          | Some r ->
              Error
                (Fmt.str
                   "T%d: internal read of %a returned %d instead of its own \
                    latest write"
                   t.Txn.id Event.pp_tvar r.Txn.var r.Txn.value)
          | None -> check_infos rest)
    in
    check_infos (History.infos h)
  in
  match internal_ok with
  | Error _ as e -> e
  | Ok () ->
      (* Every external read of a non-initial value needs a possible writer:
         some other transaction whose final write to the variable has that
         value and that is allowed to commit — in Du mode, one that moreover
         invoked tryC before the read's response.  In Last_use mode a
         writer that can never commit still serves a reader that may abort,
         provided its closing write on the variable responded before the
         read did (early release).  Writers are indexed by the key of the
         value they write, so each read looks only at its own value's. *)
      let writers = Array.make (max 1 c.n_keys) [] in
      for w = n - 1 downto 0 do
        List.iter
          (fun xv ->
            match Hashtbl.find_opt c.keys xv with
            | Some k -> writers.(k) <- w :: writers.(k)
            | None -> ())
          c.final_writes.(w)
      done;
      let writer_possible i (r : Txn.read) =
        let closed_before w =
          match List.assoc_opt r.Txn.var c.closing.(w) with
          | Some p -> p < r.Txn.res_index
          | None -> false
        in
        let ok w =
          w <> i
          &&
          match c.mode with
          | Plain -> List.mem true c.choices.(w)
          | Du -> (
              List.mem true c.choices.(w)
              &&
              match c.tryc_inv.(w) with
              | Some j -> j < r.Txn.res_index
              | None -> false)
          | Last_use ->
              List.mem true c.choices.(w)
              || (List.mem false c.choices.(i) && closed_before w)
        in
        List.exists ok writers.(Hashtbl.find c.keys (r.Txn.var, r.Txn.value))
      in
      let rec check i =
        if i >= n then Ok ()
        else
          match
            List.find_opt
              (fun (r : Txn.read) ->
                r.Txn.value <> Event.init_value && not (writer_possible i r))
              c.reads.(i)
          with
          | Some r ->
              Error
                (Fmt.str
                   "T%d reads value %d but no transaction can commit that \
                    value%s"
                   c.ids.(i) r.Txn.value
                   (match c.mode with
                   | Du -> " having begun committing before the read returned"
                   | Last_use ->
                       " (or have closed the variable before the read \
                        returned, the reader being abortable)"
                   | Plain -> ""))
          | None -> check (i + 1)
      in
      check 0

(* Failure memoisation.  A node's state is everything the remaining
   subtree's feasibility depends on: which transactions are placed AND
   with which decision (the availability prune reads decisions), plus the
   visible write state — each variable's stack of writers ([Du],
   [Last_use]) or just its top value ([Plain]).

   The state is hashed incrementally: placing [i] XORs in one constant per
   (transaction, decision), and every stack entry carries the running hash
   of its variable, so a pop restores the previous one.  The constants are
   a fixed function of their index (splitmix64's mixer, its multipliers
   cut to OCaml's 63-bit ints), so two runs hash identically.  A hash
   match is confirmed against a snapshot of the full state, so the memo is
   exact: the placement row is copied, and so is the array of stacks, whose
   immutable lists the copy shares. *)
let mix z =
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

let splitmix k = mix ((k + 1) * 0x1e3779b97f4a7c15)
let combine h k = mix (h lxor splitmix k)

module Memo = Hashtbl.Make (Int)
module Ranks = Set.Make (Int)

(* A stack entry: writer, value written, running hash of the variable. *)
type entry = int * Event.value * int

type snapshot = { row : Bytes.t; stacks : entry list array }

let stack_hash : entry list -> int = function
  | [] -> 0
  | (_, _, hx) :: _ -> hx

let rec same_writers (a : entry list) (b : entry list) =
  a == b
  ||
  match (a, b) with
  | [], [] -> true
  | (wa, _, _) :: ra, (wb, _, _) :: rb -> Int.equal wa wb && same_writers ra rb
  | _, _ -> false

let same_stack mode (a : entry list) (b : entry list) =
  match mode with
  | Du | Last_use -> same_writers a b
  | Plain -> (
      match (a, b) with
      | [], [] -> true
      | (_, va, _) :: _, (_, vb, _) :: _ -> Int.equal va vb
      | _, _ -> false)

(* Symmetry reduction.  Transactions [i] and [j] are interchangeable when
   transposing them is an automorphism of the whole constraint system:
   same commit choices and final writes, same precedence environment, the
   same sidedness w.r.t. every read's deferred-update filter, and pairwise
   matching reads.  At any search node where both are unplaced, expanding
   only the smaller index is then complete — any serialization starting
   with the other maps to one starting with it by the transposition.
   This collapses e.g. the paper's Figure 2 family, whose zero-readers are
   all interchangeable, from exponential to linear.

   The precedence environment is the transitive reduction of the real-time
   order (plus any extra edges); a DAG and its closure have the same
   automorphisms, and an automorphism of an edge set preserves its closure.

   [equivalent] is only tried within buckets of equal signature: commit
   choices, final writes, the (var, value) sequence of reads, the numbers
   of predecessors and successors, and how many reads in the history
   respond after the transaction's tryC.  Interchangeable transactions
   agree on each.  The result lists, per [i], the [j < i] interchangeable
   with it. *)
let interchangeable c n preds succs =
  let all_reads =
    List.concat (List.init n (fun i -> c.reads.(i)))
  in
  (* A writer's "sidedness" w.r.t. a read: did its tryC (and, in Last_use
     mode, its closing write on the read's variable) respond before the
     read did?  Interchangeable transactions must agree on it for every
     read in the history, or transposing them changes which writers a
     local serialization retains. *)
  let sided k (r : Txn.read) =
    let tc =
      match c.tryc_inv.(k) with
      | Some t -> t < r.Txn.res_index
      | None -> false
    in
    let closed =
      match c.mode with
      | Plain | Du -> false
      | Last_use -> (
          match List.assoc_opt r.Txn.var c.closing.(k) with
          | Some p -> p < r.Txn.res_index
          | None -> false)
    in
    (tc, closed)
  in
  let equivalent i j =
    c.choices.(i) = c.choices.(j)
    && c.final_writes.(i) = c.final_writes.(j)
    && List.length c.reads.(i) = List.length c.reads.(j)
    && (let swap x = if x = i then j else if x = j then i else x in
        let set_eq a b =
          List.sort_uniq Int.compare (List.map swap a)
          = List.sort_uniq Int.compare b
        in
        set_eq preds.(i) preds.(j)
        && set_eq succs.(i) succs.(j)
        (* identical sidedness as writers, for every read in the history *)
        && List.for_all (fun r -> sided i r = sided j r) all_reads
        (* pairwise matching reads, modulo the transposition *)
        && List.for_all2
             (fun (ri : Txn.read) (rj : Txn.read) ->
               ri.Txn.var = rj.Txn.var
               && ri.Txn.value = rj.Txn.value
               && (let rec upto k =
                     k >= n
                     || (sided k ri = sided (swap k) rj && upto (k + 1))
                   in
                   upto 0))
             c.reads.(i) c.reads.(j))
  in
  let responses =
    Array.of_list (List.map (fun (r : Txn.read) -> r.Txn.res_index) all_reads)
  in
  Array.sort Int.compare responses;
  (* reads responding after history index [t]: binary search *)
  let after t =
    let rec go lo hi =
      if lo >= hi then Array.length responses - lo
      else
        let mid = (lo + hi) / 2 in
        if responses.(mid) > t then go lo mid else go (mid + 1) hi
    in
    go 0 (Array.length responses)
  in
  let signature i =
    let h = ref (splitmix (List.length preds.(i))) in
    let add k = h := combine !h k in
    add (List.length succs.(i));
    add (match c.tryc_inv.(i) with Some t -> after t | None -> 0);
    List.iter (fun b -> add (Bool.to_int b)) c.choices.(i);
    add (List.length c.final_writes.(i));
    List.iter (fun (x, v) -> add x; add v) c.final_writes.(i);
    List.iter
      (fun (r : Txn.read) -> add r.Txn.var; add r.Txn.value)
      c.reads.(i);
    !h
  in
  let sigs = Array.init n signature in
  let by_sig = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match Int.compare sigs.(a) sigs.(b) with
      | 0 -> Int.compare a b
      | d -> d)
    by_sig;
  let lower = Array.make n [] in
  let first = ref 0 in
  while !first < n do
    let s = sigs.(by_sig.(!first)) in
    let last = ref !first in
    while !last + 1 < n && Int.equal sigs.(by_sig.(!last + 1)) s do
      incr last
    done;
    for b = !first + 1 to !last do
      for a = !first to b - 1 do
        let j = by_sig.(a) and i = by_sig.(b) in
        if equivalent j i then lower.(i) <- j :: lower.(i)
      done
    done;
    first := !last + 1
  done;
  lower

(* One search over the transactions currently in [c].  Everything sized by
   the current [c.n] is local to the call: the dense rows persist, the
   search state does not. *)
let run c ~max_nodes ~hint ~extra_edges ~commit_edges h =
  let n = c.n in
  if n = 0 then
    ( Verdict.Sat (Serialization.make ~order:[] ~committed:[]),
      { nodes = 0; memo_hits = 0; prefiltered = true } )
  else
    match prefilter c h with
    | Error why ->
        (Verdict.Unsat why, { nodes = 0; memo_hits = 0; prefiltered = true })
    | Ok () ->
        let preds_uniq =
          let base = Array.init n (fun b -> c.rt_preds.(b)) in
          List.iter
            (fun (ka, kb) ->
              match Hashtbl.find_opt c.index ka, Hashtbl.find_opt c.index kb with
              | Some a, Some b -> if a <> b then base.(b) <- a :: base.(b)
              | _, _ ->
                  invalid_arg "Search: extra edge names unknown transaction")
            extra_edges;
          Array.map (List.sort_uniq Int.compare) base
        in
        let commit_preds = Array.make n [] in
        List.iter
          (fun (ka, kb) ->
            match Hashtbl.find_opt c.index ka, Hashtbl.find_opt c.index kb with
            | Some a, Some b ->
                if a <> b then commit_preds.(b) <- a :: commit_preds.(b)
            | _, _ ->
                invalid_arg "Search: commit edge names unknown transaction")
          commit_edges;
        let pending = Array.make n 0 in
        Array.iteri
          (fun b preds -> pending.(b) <- List.length preds)
          preds_uniq;
        let succs = Array.make n [] in
        Array.iteri
          (fun b preds ->
            List.iter (fun a -> succs.(a) <- b :: succs.(a)) preds)
          preds_uniq;
        let stacks : entry list array = Array.make c.n_vars [] in
        (* Placement row: ['0'] unplaced, ['c'] committed, ['a'] aborted. *)
        let row = Bytes.make n '0' in
        let placed i = Bytes.get row i <> '0' in
        let committed i = Bytes.get row i = 'c' in
        let hash = ref 0 in
        let place_hash i commit = splitmix ((2 * i) + Bool.to_int commit) in
        let push x w v =
          let old = stack_hash stacks.(x) in
          let hx =
            match c.mode with
            | Plain -> combine (splitmix x) v
            | Du | Last_use -> combine (combine old x) w
          in
          stacks.(x) <- (w, v, hx) :: stacks.(x);
          hash := !hash lxor old lxor hx
        in
        let pop x =
          match stacks.(x) with
          | ((_, _, hx) :: rest : entry list) ->
              stacks.(x) <- rest;
              hash := !hash lxor hx lxor stack_hash rest
          | [] -> assert false
        in
        (* Writer-availability bookkeeping for the look-ahead prune:
           [avail.(k)] counts transactions that could still commit the
           (var, value) behind key [k]; [waiting.(k)] counts unplaced
           transactions demanding it.  Aborting the last potential supplier
           of a still-demanded value dooms the whole subtree.  Supplies are
           resolved here, per search, against the up-to-date key table. *)
        let supplies =
          Array.init n (fun i ->
              if List.mem true c.choices.(i) then
                List.filter_map
                  (fun (x, v) -> Hashtbl.find_opt c.keys (x, v))
                  c.final_writes.(i)
              else [])
        in
        let zero_key =
          Array.init c.n_vars (fun x ->
              Hashtbl.find_opt c.keys (x, Event.init_value))
        in
        let avail = Array.make (max 1 c.n_keys) 0 in
        let waiting = Array.make (max 1 c.n_keys) 0 in
        Array.iter (List.iter (fun k -> avail.(k) <- avail.(k) + 1)) supplies;
        for i = 0 to n - 1 do
          List.iter (fun k -> waiting.(k) <- waiting.(k) + 1) c.demands.(i)
        done;
        (* The initial state supplies every initial-value key until a
           committed non-initial write to the variable is visible. *)
        Array.iter
          (function Some k -> avail.(k) <- avail.(k) + 1 | None -> ())
          zero_key;
        let nonzero_commits = Array.make (max 1 c.n_vars) 0 in
        (* Placement priority: hint order first, then order of first event
           in the history (dense indices already follow first appearance). *)
        let priority =
          match hint with
          | None -> Array.init n (fun i -> i)
          | Some hint ->
              let pos = Hashtbl.create 16 in
              List.iteri (fun p k -> Hashtbl.replace pos k p) hint;
              let rank i =
                match Hashtbl.find_opt pos c.ids.(i) with
                | Some p -> p
                | None -> max_int
              in
              let arr = Array.init n (fun i -> i) in
              Array.sort
                (fun a b ->
                  match Int.compare (rank a) (rank b) with
                  | 0 -> Int.compare a b
                  | c -> c)
                arr;
              arr
        in
        (* The candidates: unplaced transactions whose predecessors are all
           placed, as a persistent set of priority ranks.  A node iterates
           the set it was entered with; its children's placements replace
           the set but never mutate it.  So a node costs nothing for
           transactions that are not ready. *)
        let rank = Array.make n 0 in
        Array.iteri (fun r i -> rank.(i) <- r) priority;
        let ready = ref Ranks.empty in
        Array.iteri
          (fun i p -> if p = 0 then ready := Ranks.add rank.(i) !ready)
          pending;
        let order = Array.make n (-1) in
        let nodes = ref 0 in
        let memo_hits = ref 0 in
        let memo : snapshot list Memo.t = Memo.create 256 in
        let seen (s : snapshot) =
          Bytes.equal s.row row
          &&
          let rec vars x =
            x >= c.n_vars
            || (same_stack c.mode s.stacks.(x) stacks.(x) && vars (x + 1))
          in
          vars 0
        in
        let budget = match max_nodes with Some b -> b | None -> max_int in
        (* The symmetry classes cost a pass over every read per pair in a
           bucket; a hinted search that succeeds straight down never
           consults them, so build them lazily the first time the search
           actually has to backtrack.  Pruning only from that point on is
           sound: the canonical-candidate rule is a per-node completeness
           argument, independent across nodes. *)
        let equiv = ref None in
        let branched = ref false in
        (* Candidate [i] is redundant while an unplaced interchangeable
           transaction with a smaller index exists. *)
        let canonical i =
          (not !branched)
          ||
          let lower =
            match !equiv with
            | Some l -> l
            | None ->
                let l = interchangeable c n preds_uniq succs in
                equiv := Some l;
                l
          in
          List.for_all placed lower.(i)
        in
        let retained w res_index =
          match c.tryc_inv.(w) with
          | Some j -> j < res_index
          | None -> false
        in
        let reads_ok i =
          List.for_all
            (fun (r : Txn.read) ->
              let stack = stacks.(r.Txn.var) in
              let global_ok =
                match stack with
                | [] -> r.Txn.value = Event.init_value
                | (_, v, _) :: _ -> r.Txn.value = v
              in
              global_ok
              &&
              match c.mode with
              | Plain | Last_use -> true
              | Du -> (
                  (* Legality in the local serialization: the first retained
                     committed writer (scanning from the latest) must have
                     written the value; none retained means initial value. *)
                  let rec scan = function
                    | [] -> r.Txn.value = Event.init_value
                    | (w, v, _) :: rest ->
                        if retained w r.Txn.res_index then r.Txn.value = v
                        else scan rest
                  in
                  scan stack))
            c.reads.(i)
        in
        (* Last-use legality is decision-dependent, so it is checked per
           commit choice inside the expansion loop.  In Last_use mode the
           stacks carry {e every} placed writer (the placement row tells
           the committed ones apart):

           - a reader that commits must be Vis-legal — its reads see the
             latest {e committed} write preceding it in the serialization
             (aborted entries are skipped);
           - a reader that does not commit is judged against LVis with
             {e optional} visibility of closed writers: scanning latest
             first, a committed writer is a mandatory stop (its value must
             match), while a non-committed writer whose closing write on
             the variable responded before the read is a candidate the
             witness may but need not include (legal if the value matches,
             skipped otherwise). *)
        let released w (r : Txn.read) =
          match List.assoc_opt r.Txn.var c.closing.(w) with
          | Some p -> p < r.Txn.res_index
          | None -> false
        in
        let reads_ok_lu i commit =
          List.for_all
            (fun (r : Txn.read) ->
              let rec scan = function
                | [] -> r.Txn.value = Event.init_value
                | (w, v, _) :: rest ->
                    if committed w then r.Txn.value = v
                    else if
                      (not commit) && released w r && r.Txn.value = v
                    then true
                    else scan rest
              in
              scan stacks.(r.Txn.var))
            c.reads.(i)
        in
        let exception Found in
        let rec dfs depth =
          incr nodes;
          if !nodes > budget then raise Exhausted;
          if depth = n then raise Found;
          let key = !hash in
          let known = Memo.find_opt memo key in
          if
            match known with
            | Some snaps -> List.exists seen snaps
            | None -> false
          then incr memo_hits
          else begin
            let commit_allowed i = List.for_all placed commit_preds.(i) in
            Ranks.iter
              (fun r ->
                let i = priority.(r) in
                if canonical i && (c.mode = Last_use || reads_ok i) then
                  List.iter
                    (fun commit ->
                      if
                        ((not commit) || commit_allowed i)
                        && (c.mode <> Last_use || reads_ok_lu i commit)
                      then begin
                        Bytes.set row i (if commit then 'c' else 'a');
                        hash := !hash lxor place_hash i commit;
                        order.(depth) <- i;
                        let entered = !ready in
                        ready := Ranks.remove r entered;
                        List.iter
                          (fun b ->
                            pending.(b) <- pending.(b) - 1;
                            if pending.(b) = 0 then
                              ready := Ranks.add rank.(b) !ready)
                          succs.(i);
                        List.iter
                          (fun k -> waiting.(k) <- waiting.(k) - 1)
                          c.demands.(i);
                        if not commit then
                          List.iter
                            (fun k -> avail.(k) <- avail.(k) - 1)
                            supplies.(i);
                        let pushed =
                          (* Last_use stacks carry aborted writers too (for
                             the optional-candidate scan); only committed
                             non-initial writes feed the prune accounting. *)
                          if commit || c.mode = Last_use then begin
                            List.iter
                              (fun (x, v) ->
                                push x i v;
                                if commit && v <> Event.init_value then begin
                                  nonzero_commits.(x) <- nonzero_commits.(x) + 1;
                                  if nonzero_commits.(x) = 1 then
                                    match zero_key.(x) with
                                    | Some k -> avail.(k) <- avail.(k) - 1
                                    | None -> ()
                                end)
                              c.final_writes.(i);
                            c.final_writes.(i)
                          end
                          else []
                        in
                        (* Look-ahead prune: did this placement exhaust the
                           last supply of a value some unplaced transaction
                           still needs to read? *)
                        let key_ok k = avail.(k) > 0 || waiting.(k) = 0 in
                        let feasible =
                          (* Unsound in Last_use mode: a writer that can
                             never commit may still supply abortable
                             readers after its closing write. *)
                          if c.mode = Last_use then true
                          else if commit then
                            List.for_all
                              (fun (x, v) ->
                                v = Event.init_value
                                ||
                                match zero_key.(x) with
                                | Some k -> key_ok k
                                | None -> true)
                              pushed
                          else List.for_all key_ok supplies.(i)
                        in
                        if feasible then dfs (depth + 1);
                        branched := true;
                        List.iter
                          (fun (x, v) ->
                            pop x;
                            if commit && v <> Event.init_value then begin
                              nonzero_commits.(x) <- nonzero_commits.(x) - 1;
                              if nonzero_commits.(x) = 0 then
                                match zero_key.(x) with
                                | Some k -> avail.(k) <- avail.(k) + 1
                                | None -> ()
                            end)
                          pushed;
                        if not commit then
                          List.iter
                            (fun k -> avail.(k) <- avail.(k) + 1)
                            supplies.(i);
                        List.iter
                          (fun k -> waiting.(k) <- waiting.(k) + 1)
                          c.demands.(i);
                        List.iter (fun b -> pending.(b) <- pending.(b) + 1)
                          succs.(i);
                        ready := entered;
                        hash := !hash lxor place_hash i commit;
                        Bytes.set row i '0'
                      end)
                    c.choices.(i))
              !ready;
            let snap = { row = Bytes.copy row; stacks = Array.copy stacks } in
            Memo.replace memo key
              (snap :: Option.value known ~default:[])
          end
        in
        let outcome =
          match dfs 0 with
          | () ->
              Verdict.Unsat
                (Fmt.str "no serialization exists (%d nodes explored)" !nodes)
          | exception Found ->
              let order_ids =
                Array.to_list (Array.map (fun i -> c.ids.(i)) order)
              in
              let committed_ids =
                Array.to_list order
                |> List.filter committed
                |> List.map (fun i -> c.ids.(i))
              in
              Verdict.Sat
                (Serialization.make ~order:order_ids ~committed:committed_ids)
          | exception Exhausted ->
              Verdict.Unknown
                (Fmt.str "node budget exhausted after %d nodes" !nodes)
        in
        (outcome, { nodes = !nodes; memo_hits = !memo_hits; prefiltered = false })

let search_ictx ?max_nodes ?hint c h =
  sync c h;
  run c ~max_nodes ~hint ~extra_edges:c.extra_edges
    ~commit_edges:c.commit_edges h

let search opts h =
  search_ictx ?max_nodes:opts.max_nodes ?hint:opts.hint (ictx opts) h

let serialize opts h = fst (search opts h)
