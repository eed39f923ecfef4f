(* Pearce–Kelly dynamic topological order over a growable DAG: the
   acyclicity engine behind the conflict-graph backend.

   Nodes are dense ids handed out by [add_node]; a new node takes the
   largest order index, so edges from existing nodes never trigger a
   reorder.  Edges live in two index-linked arena pools (out- and
   in-adjacency) plus a hash set for O(1) duplicate suppression, so
   insertion allocates nothing beyond amortised array growth.  An edge
   already respecting the maintained order is free; otherwise the affected
   region — forward reachability from the target bounded by the source's
   position, backward from the source bounded by the target's — is
   discovered and its order indices reassigned.  [`Cycle] leaves the graph
   exactly as it was. *)

(* Growable array with push/get/set; the workhorse for per-node state and
   the edge arenas (shared with the conflict-graph backend). *)
module Pvec = struct
  type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

  let create dummy = { a = Array.make 16 dummy; n = 0; dummy }

  let push v x =
    if v.n = Array.length v.a then begin
      let a' = Array.make (2 * v.n) v.dummy in
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
  ord : int Pvec.t;  (* maintained topological index *)
  (* edge arenas: logical edge e has out-list links (e_dst, e_next) from
     its source and in-list links (e_src, e_inext) from its target *)
  out_head : int Pvec.t;
  in_head : int Pvec.t;
  e_dst : int Pvec.t;
  e_next : int Pvec.t;
  e_src : int Pvec.t;
  e_inext : int Pvec.t;
  edge_set : (int * int, unit) Hashtbl.t;
  (* work areas *)
  mark : int Pvec.t;
  mutable stamp : int;
  dfs_stack : int Pvec.t;
  dfa : int Pvec.t;  (* affected-region scratch: forward set *)
  dfb : int Pvec.t;  (* backward set *)
  mutable reorders : int;
}

let create () =
  {
    ord = Pvec.create 0;
    out_head = Pvec.create (-1);
    in_head = Pvec.create (-1);
    e_dst = Pvec.create (-1);
    e_next = Pvec.create (-1);
    e_src = Pvec.create (-1);
    e_inext = Pvec.create (-1);
    edge_set = Hashtbl.create 256;
    mark = Pvec.create 0;
    stamp = 0;
    dfs_stack = Pvec.create 0;
    dfa = Pvec.create 0;
    dfb = Pvec.create 0;
    reorders = 0;
  }

let nodes t = t.ord.Pvec.n
let ord t n = Pvec.get t.ord n
let edge_count t = t.e_dst.Pvec.n
let reorders t = t.reorders

let add_node t =
  let n = nodes t in
  Pvec.push t.ord n;
  Pvec.push t.out_head (-1);
  Pvec.push t.in_head (-1);
  Pvec.push t.mark 0;
  n

let arena_add t u v =
  let e = t.e_dst.Pvec.n in
  Pvec.push t.e_dst v;
  Pvec.push t.e_next (Pvec.get t.out_head u);
  Pvec.set t.out_head u e;
  Pvec.push t.e_src u;
  Pvec.push t.e_inext (Pvec.get t.in_head v);
  Pvec.set t.in_head v e

let arena_rollback t u v =
  let e = t.e_dst.Pvec.n - 1 in
  Pvec.set t.out_head u (Pvec.get t.e_next e);
  Pvec.set t.in_head v (Pvec.get t.e_inext e);
  Pvec.pop t.e_dst;
  Pvec.pop t.e_next;
  Pvec.pop t.e_src;
  Pvec.pop t.e_inext

let fresh_stamp t =
  t.stamp <- t.stamp + 1;
  t.stamp

(* Forward DFS from [v] restricted to ord <= ub, collecting into [t.dfa];
   true iff [target] was reached. *)
let dfs_fwd t v ub target =
  let st = fresh_stamp t in
  t.dfa.Pvec.n <- 0;
  t.dfs_stack.Pvec.n <- 0;
  Pvec.push t.dfs_stack v;
  Pvec.set t.mark v st;
  let hit = ref false in
  while t.dfs_stack.Pvec.n > 0 && not !hit do
    let w = Pvec.get t.dfs_stack (t.dfs_stack.Pvec.n - 1) in
    Pvec.pop t.dfs_stack;
    Pvec.push t.dfa w;
    let e = ref (Pvec.get t.out_head w) in
    while !e >= 0 && not !hit do
      let s = Pvec.get t.e_dst !e in
      if s = target then hit := true
      else if Pvec.get t.ord s <= ub && Pvec.get t.mark s <> st then begin
        Pvec.set t.mark s st;
        Pvec.push t.dfs_stack s
      end;
      e := Pvec.get t.e_next !e
    done
  done;
  !hit

(* Backward DFS from [u] restricted to ord >= lb, collecting into [t.dfb]. *)
let dfs_bwd t u lb =
  let st = fresh_stamp t in
  t.dfb.Pvec.n <- 0;
  t.dfs_stack.Pvec.n <- 0;
  Pvec.push t.dfs_stack u;
  Pvec.set t.mark u st;
  while t.dfs_stack.Pvec.n > 0 do
    let w = Pvec.get t.dfs_stack (t.dfs_stack.Pvec.n - 1) in
    Pvec.pop t.dfs_stack;
    Pvec.push t.dfb w;
    let e = ref (Pvec.get t.in_head w) in
    while !e >= 0 do
      let s = Pvec.get t.e_src !e in
      if Pvec.get t.ord s >= lb && Pvec.get t.mark s <> st then begin
        Pvec.set t.mark s st;
        Pvec.push t.dfs_stack s
      end;
      e := Pvec.get t.e_inext !e
    done
  done

let reorder t =
  (* Reassign the affected region's order indices: the backward set keeps
     its relative order, then the forward set — both sorted by current
     ord — packed into the same index pool, smallest first. *)
  let nb = t.dfb.Pvec.n and nf = t.dfa.Pvec.n in
  let all = Array.make (nb + nf) 0 in
  for i = 0 to nb - 1 do
    all.(i) <- Pvec.get t.dfb i
  done;
  for i = 0 to nf - 1 do
    all.(nb + i) <- Pvec.get t.dfa i
  done;
  let by_ord a b = Int.compare (Pvec.get t.ord a) (Pvec.get t.ord b) in
  let back = Array.sub all 0 nb and fwd = Array.sub all nb nf in
  Array.sort by_ord back;
  Array.sort by_ord fwd;
  let pool = Array.map (Pvec.get t.ord) all in
  Array.sort Int.compare pool;
  let k = ref 0 in
  Array.iter
    (fun n ->
      Pvec.set t.ord n pool.(!k);
      incr k)
    back;
  Array.iter
    (fun n ->
      Pvec.set t.ord n pool.(!k);
      incr k)
    fwd;
  t.reorders <- t.reorders + 1

let add_edge t u v =
  if u = v then `Cycle
  else if Hashtbl.mem t.edge_set (u, v) then `Ok
  else begin
    arena_add t u v;
    if Pvec.get t.ord u < Pvec.get t.ord v then begin
      Hashtbl.replace t.edge_set (u, v) ();
      `Ok
    end
    else begin
      let lb = Pvec.get t.ord v and ub = Pvec.get t.ord u in
      if dfs_fwd t v ub u then begin
        arena_rollback t u v;
        `Cycle
      end
      else begin
        dfs_bwd t u lb;
        reorder t;
        Hashtbl.replace t.edge_set (u, v) ();
        `Ok
      end
    end
  end

(* Is there a path a ~> b?  Only possible when ord a < ord b; DFS bounded
   by b's order index. *)
let reach t a b =
  if a = b then true
  else if Pvec.get t.ord a >= Pvec.get t.ord b then false
  else begin
    let ub = Pvec.get t.ord b in
    let st = fresh_stamp t in
    t.dfs_stack.Pvec.n <- 0;
    Pvec.push t.dfs_stack a;
    Pvec.set t.mark a st;
    let hit = ref false in
    while t.dfs_stack.Pvec.n > 0 && not !hit do
      let w = Pvec.get t.dfs_stack (t.dfs_stack.Pvec.n - 1) in
      Pvec.pop t.dfs_stack;
      let e = ref (Pvec.get t.out_head w) in
      while !e >= 0 && not !hit do
        let s = Pvec.get t.e_dst !e in
        if s = b then hit := true
        else if Pvec.get t.ord s < ub && Pvec.get t.mark s <> st then begin
          Pvec.set t.mark s st;
          Pvec.push t.dfs_stack s
        end;
        e := Pvec.get t.e_next !e
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
    t.dfs_stack.Pvec.n <- 0;
    Pvec.push t.dfs_stack v;
    Pvec.set t.mark v st;
    let hit = ref false in
    while t.dfs_stack.Pvec.n > 0 && not !hit do
      let w = Pvec.get t.dfs_stack (t.dfs_stack.Pvec.n - 1) in
      Pvec.pop t.dfs_stack;
      let e = ref (Pvec.get t.out_head w) in
      while !e >= 0 && not !hit do
        let s = Pvec.get t.e_dst !e in
        if Pvec.get t.mark s <> st then begin
          Pvec.set t.mark s st;
          Hashtbl.replace parent s w;
          if s = u then hit := true else Pvec.push t.dfs_stack s
        end;
        e := Pvec.get t.e_next !e
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

let succ_iter t n f =
  let e = ref (Pvec.get t.out_head n) in
  while !e >= 0 do
    f (Pvec.get t.e_dst !e);
    e := Pvec.get t.e_next !e
  done
