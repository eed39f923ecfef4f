(* Pearce–Kelly dynamic topological order over a growable DAG: the
   acyclicity engine behind the conflict-graph backend.

   Nodes are dense ids handed out by [add_node]; a new node takes the
   largest order index, so edges from existing nodes never trigger a
   reorder.  Edges live in two index-linked arena pools (out- and
   in-adjacency), so insertion allocates nothing beyond amortised array
   growth.  There is no duplicate suppression: [add_edge] stores what it
   is given, and a caller that may repeat an edge asks [mem_edge] first,
   which walks the target's in-list (see the .mli for why the conflict
   graph needs this only for reads-from edges).  An edge already
   respecting the maintained order is free; otherwise the affected region
   — forward reachability from the target bounded by the source's
   position, backward from the source bounded by the target's — is
   discovered and its order indices reassigned.  [`Cycle] leaves the graph
   exactly as it was.  The inverse of the order ([pos]) and the lowest
   index of every reorder ([lows]) are kept too, so an incremental caller
   can walk the order from the lowest index that moved. *)

(* Growable arrays with push/get/set.  [Ivec] holds ints in an [int array]
   whose element type the compiler sees, so a read tests no float-array tag
   and a write is a plain store, with no write barrier; it is the workhorse
   for the order, the edge arenas and the work areas here, and for the
   conflict-graph backend's per-node and per-read state.  [Pvec] is for
   boxed contents only. *)
module Ivec = struct
  type t = { mutable a : int array; mutable n : int; dummy : int }

  (* no storage until the first push: a graph creates many vectors, per
     variable too, and a short history fills few of them *)
  let create dummy = { a = [||]; n = 0; dummy }

  (* copied element by element: [Array.blit] cannot tell an int array from
     a boxed one and pays the write barrier into a major-heap target *)
  let grow v =
    let a' = Array.make (if v.n < 4 then 8 else 2 * v.n) v.dummy in
    for i = 0 to v.n - 1 do
      Array.unsafe_set a' i (Array.unsafe_get v.a i)
    done;
    v.a <- a'

  let push v x =
    if v.n = Array.length v.a then grow v;
    Array.unsafe_set v.a v.n x;
    v.n <- v.n + 1

  let get v i = v.a.(i)
  let set v i x = v.a.(i) <- x
  let pop v = v.n <- v.n - 1
  let last v = v.a.(v.n - 1)
end

module Pvec = struct
  type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

  let create dummy = { a = [||]; n = 0; dummy }

  let push v x =
    if v.n = Array.length v.a then begin
      let a' = Array.make (if v.n < 4 then 8 else 2 * v.n) v.dummy in
      Array.blit v.a 0 a' 0 v.n;
      v.a <- a'
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let get v i = v.a.(i)
  let set v i x = v.a.(i) <- x
  let pop v = v.n <- v.n - 1
end

type t = {
  ord : Ivec.t;  (* maintained topological index *)
  pos : Ivec.t;  (* its inverse: the node at each index *)
  (* edge arenas: logical edge e has out-list links (e_dst, e_next) from
     its source and in-list links (e_src, e_inext) from its target *)
  out_head : Ivec.t;
  in_head : Ivec.t;
  e_dst : Ivec.t;
  e_next : Ivec.t;
  e_src : Ivec.t;
  e_inext : Ivec.t;
  (* work areas *)
  mark : Ivec.t;
  mutable stamp : int;
  dfs_stack : Ivec.t;
  dfa : Ivec.t;  (* affected-region scratch: forward set *)
  dfb : Ivec.t;  (* backward set *)
  lows : Ivec.t;  (* lowest index each reorder reassigned, in turn *)
}

let create () =
  {
    ord = Ivec.create 0;
    pos = Ivec.create 0;
    out_head = Ivec.create (-1);
    in_head = Ivec.create (-1);
    e_dst = Ivec.create (-1);
    e_next = Ivec.create (-1);
    e_src = Ivec.create (-1);
    e_inext = Ivec.create (-1);
    mark = Ivec.create 0;
    stamp = 0;
    dfs_stack = Ivec.create 0;
    dfa = Ivec.create 0;
    dfb = Ivec.create 0;
    lows = Ivec.create 0;
  }

let nodes t = t.ord.Ivec.n
let ord t n = Ivec.get t.ord n
let edge_count t = t.e_dst.Ivec.n
let at t i = Ivec.get t.pos i
let reorders t = t.lows.Ivec.n
let reorder_low t i = Ivec.get t.lows i

let add_node t =
  let n = nodes t in
  Ivec.push t.ord n;
  Ivec.push t.pos n;
  Ivec.push t.out_head (-1);
  Ivec.push t.in_head (-1);
  Ivec.push t.mark 0;
  n

let arena_add t u v =
  let e = t.e_dst.Ivec.n in
  Ivec.push t.e_dst v;
  Ivec.push t.e_next (Ivec.get t.out_head u);
  Ivec.set t.out_head u e;
  Ivec.push t.e_src u;
  Ivec.push t.e_inext (Ivec.get t.in_head v);
  Ivec.set t.in_head v e

let arena_rollback t u v =
  let e = t.e_dst.Ivec.n - 1 in
  Ivec.set t.out_head u (Ivec.get t.e_next e);
  Ivec.set t.in_head v (Ivec.get t.e_inext e);
  Ivec.pop t.e_dst;
  Ivec.pop t.e_next;
  Ivec.pop t.e_src;
  Ivec.pop t.e_inext

let fresh_stamp t =
  t.stamp <- t.stamp + 1;
  t.stamp

(* Forward DFS from [v] restricted to ord <= ub, collecting into [t.dfa];
   true iff [target] was reached. *)
let dfs_fwd t v ub target =
  let st = fresh_stamp t in
  t.dfa.Ivec.n <- 0;
  t.dfs_stack.Ivec.n <- 0;
  Ivec.push t.dfs_stack v;
  Ivec.set t.mark v st;
  let hit = ref false in
  while t.dfs_stack.Ivec.n > 0 && not !hit do
    let w = Ivec.last t.dfs_stack in
    Ivec.pop t.dfs_stack;
    Ivec.push t.dfa w;
    let e = ref (Ivec.get t.out_head w) in
    while !e >= 0 && not !hit do
      let s = Ivec.get t.e_dst !e in
      if s = target then hit := true
      else if Ivec.get t.ord s <= ub && Ivec.get t.mark s <> st then begin
        Ivec.set t.mark s st;
        Ivec.push t.dfs_stack s
      end;
      e := Ivec.get t.e_next !e
    done
  done;
  !hit

(* Backward DFS from [u] restricted to ord >= lb, collecting into [t.dfb]. *)
let dfs_bwd t u lb =
  let st = fresh_stamp t in
  t.dfb.Ivec.n <- 0;
  t.dfs_stack.Ivec.n <- 0;
  Ivec.push t.dfs_stack u;
  Ivec.set t.mark u st;
  while t.dfs_stack.Ivec.n > 0 do
    let w = Ivec.last t.dfs_stack in
    Ivec.pop t.dfs_stack;
    Ivec.push t.dfb w;
    let e = ref (Ivec.get t.in_head w) in
    while !e >= 0 do
      let s = Ivec.get t.e_src !e in
      if Ivec.get t.ord s >= lb && Ivec.get t.mark s <> st then begin
        Ivec.set t.mark s st;
        Ivec.push t.dfs_stack s
      end;
      e := Ivec.get t.e_inext !e
    done
  done

let reorder t =
  (* Reassign the affected region's order indices: the backward set keeps
     its relative order, then the forward set — both sorted by current
     ord — packed into the same index pool, smallest first. *)
  let nb = t.dfb.Ivec.n and nf = t.dfa.Ivec.n in
  let all = Array.make (nb + nf) 0 in
  for i = 0 to nb - 1 do
    all.(i) <- Ivec.get t.dfb i
  done;
  for i = 0 to nf - 1 do
    all.(nb + i) <- Ivec.get t.dfa i
  done;
  let by_ord a b = Int.compare (Ivec.get t.ord a) (Ivec.get t.ord b) in
  let back = Array.sub all 0 nb and fwd = Array.sub all nb nf in
  Array.sort by_ord back;
  Array.sort by_ord fwd;
  let pool = Array.map (Ivec.get t.ord) all in
  Array.sort Int.compare pool;
  let k = ref 0 in
  let place n =
    Ivec.set t.ord n pool.(!k);
    Ivec.set t.pos pool.(!k) n;
    incr k
  in
  Array.iter place back;
  Array.iter place fwd;
  Ivec.push t.lows pool.(0)

let add_edge t u v =
  if u = v then `Cycle
  else begin
    arena_add t u v;
    if Ivec.get t.ord u < Ivec.get t.ord v then `Ok
    else begin
      let lb = Ivec.get t.ord v and ub = Ivec.get t.ord u in
      if dfs_fwd t v ub u then begin
        arena_rollback t u v;
        `Cycle
      end
      else begin
        dfs_bwd t u lb;
        reorder t;
        `Ok
      end
    end
  end

let mem_edge t u v =
  let rec go e =
    e >= 0 && (Ivec.get t.e_src e = u || go (Ivec.get t.e_inext e))
  in
  go (Ivec.get t.in_head v)

(* Is there a path a ~> b?  Only possible when ord a < ord b; DFS bounded
   by b's order index. *)
let reach t a b =
  if a = b then true
  else if Ivec.get t.ord a >= Ivec.get t.ord b then false
  else begin
    let ub = Ivec.get t.ord b in
    let st = fresh_stamp t in
    t.dfs_stack.Ivec.n <- 0;
    Ivec.push t.dfs_stack a;
    Ivec.set t.mark a st;
    let hit = ref false in
    while t.dfs_stack.Ivec.n > 0 && not !hit do
      let w = Ivec.last t.dfs_stack in
      Ivec.pop t.dfs_stack;
      let e = ref (Ivec.get t.out_head w) in
      while !e >= 0 && not !hit do
        let s = Ivec.get t.e_dst !e in
        if s = b then hit := true
        else if Ivec.get t.ord s < ub && Ivec.get t.mark s <> st then begin
          Ivec.set t.mark s st;
          Ivec.push t.dfs_stack s
        end;
        e := Ivec.get t.e_next !e
      done
    done;
    !hit
  end

(* A path v ~> u, by parent-tracking DFS — used to recover the nodes of a
   counterexample cycle after [add_edge t u v] was refused (the insertion
   was rolled back, so the path still exists). *)
let find_path t v u =
  if v = u then Some [ v ]
  else begin
    let st = fresh_stamp t in
    let parent = Hashtbl.create 32 in
    t.dfs_stack.Ivec.n <- 0;
    Ivec.push t.dfs_stack v;
    Ivec.set t.mark v st;
    let hit = ref false in
    while t.dfs_stack.Ivec.n > 0 && not !hit do
      let w = Ivec.last t.dfs_stack in
      Ivec.pop t.dfs_stack;
      let e = ref (Ivec.get t.out_head w) in
      while !e >= 0 && not !hit do
        let s = Ivec.get t.e_dst !e in
        if Ivec.get t.mark s <> st then begin
          Ivec.set t.mark s st;
          Hashtbl.replace parent s w;
          if s = u then hit := true else Ivec.push t.dfs_stack s
        end;
        e := Ivec.get t.e_next !e
      done
    done;
    if not !hit then None
    else begin
      let rec build s acc =
        if s = v then s :: acc else build (Hashtbl.find parent s) (s :: acc)
      in
      Some (build u [])
    end
  end
