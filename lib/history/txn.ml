type status =
  | Committed
  | Aborted
  | Commit_pending
  | Abort_pending
  | Live

type t = {
  id : Event.tx;
  ops : Op.t array;
  first_index : int;
  last_index : int;
  status : status;
}

let status_of_ops (ops : Op.t array) =
  let n = Array.length ops in
  if n = 0 then Live
  else
    let last = ops.(n - 1) in
    match last.Op.res with
    | Some Event.Committed -> Committed
    | Some Event.Aborted -> Aborted
    | Some (Event.Read_ok _ | Event.Write_ok) -> Live
    | None -> (
        match last.Op.inv with
        | Event.Try_commit -> Commit_pending
        | Event.Try_abort -> Abort_pending
        | Event.Read _ | Event.Write _ -> Live)

(* A summary under construction: [d_ops.(0 .. d_n - 1)] in program order,
   the rest spare capacity; the first op's invocation is the first event.
   [frozen] caches the summary until the next event, and shares [d_ops],
   trimmed to [d_n]: an event arriving while it is cached writes into a
   copy. *)
type draft = {
  mutable d_last : int;
  mutable d_ops : Op.t array;
  mutable d_n : int;
  mutable frozen : t;  (* [thawed]: none cached *)
}

let thawed = { id = 0; ops = [||]; first_index = 0; last_index = -1; status = Live }

let add d i ev =
  let shared = d.frozen != thawed in
  d.d_last <- i;
  d.frozen <- thawed;
  match ev with
  | Event.Inv (k, inv) ->
      let op = { Op.tx = k; inv; inv_index = i; res = None; res_index = None } in
      if shared || d.d_n = Array.length d.d_ops then begin
        let ops = Array.make (max 4 (2 * d.d_n)) op in
        Array.blit d.d_ops 0 ops 0 d.d_n;
        d.d_ops <- ops
      end;
      d.d_ops.(d.d_n) <- op;
      d.d_n <- d.d_n + 1
  | Event.Res (_, res) ->
      if shared then d.d_ops <- Array.copy d.d_ops;
      let last = d.d_n - 1 in
      d.d_ops.(last) <- { (d.d_ops.(last)) with Op.res = Some res; res_index = Some i }

let draft i ev =
  let d = { d_last = i; d_ops = [||]; d_n = 0; frozen = thawed } in
  add d i ev;
  d

let freeze d =
  if d.frozen == thawed then begin
    if d.d_n < Array.length d.d_ops then d.d_ops <- Array.sub d.d_ops 0 d.d_n;
    let ops = d.d_ops and first = d.d_ops.(0) in
    d.frozen <-
      { id = first.Op.tx; ops; first_index = first.Op.inv_index;
        last_index = d.d_last; status = status_of_ops ops }
  end;
  d.frozen

let is_t_complete info =
  match info.status with
  | Committed | Aborted -> true
  | Commit_pending | Abort_pending | Live -> false

let is_complete info =
  Array.for_all Op.is_complete info.ops

let tryc_inv_index info =
  Array.fold_left
    (fun acc (op : Op.t) ->
      match acc, op.Op.inv with
      | None, Event.Try_commit -> Some op.Op.inv_index
      | acc, _ -> acc)
    None info.ops

type read = {
  var : Event.tvar;
  value : Event.value;
  res_index : int;
  kind : [ `Internal of Event.value | `External ];
}

let reads info =
  (* Walk ops in program order, tracking the latest own write per variable
     to classify each read as internal or external. *)
  let buffer : (Event.tvar, Event.value) Hashtbl.t = Hashtbl.create 8 in
  let acc =
    Array.fold_left
      (fun acc (op : Op.t) ->
        match Op.read_value op, Op.write op with
        | Some (var, value), _ ->
            let res_index =
              match op.Op.res_index with
              | Some i -> i
              | None -> assert false (* read_value implies a response *)
            in
            let kind =
              match Hashtbl.find_opt buffer var with
              | Some v -> `Internal v
              | None -> `External
            in
            { var; value; res_index; kind } :: acc
        | None, Some (var, value) ->
            Hashtbl.replace buffer var value;
            acc
        | None, None -> acc)
      [] info.ops
  in
  List.rev acc

let writes info =
  let acc =
    Array.fold_left
      (fun acc op ->
        match Op.write op with Some wr -> wr :: acc | None -> acc)
      [] info.ops
  in
  List.rev acc

let final_writes info =
  let buffer : (Event.tvar, Event.value) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun (x, v) -> Hashtbl.replace buffer x v) (writes info);
  Hashtbl.fold (fun x v acc -> (x, v) :: acc) buffer []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let closing_writes info =
  (* Response index of the last successful write per variable — the
     "closing write" of the last-use-opacity decoration. *)
  let buffer : (Event.tvar, int) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (fun (op : Op.t) ->
      match Op.write op, op.Op.res_index with
      | Some (x, _), Some i -> Hashtbl.replace buffer x i
      | _, _ -> ())
    info.ops;
  Hashtbl.fold (fun x i acc -> (x, i) :: acc) buffer []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let read_set info =
  List.map (fun r -> r.var) (reads info)
  |> List.sort_uniq Int.compare

let write_set info =
  List.map fst (writes info) |> List.sort_uniq Int.compare

let commit_choices info =
  match info.status with
  | Committed -> [ true ]
  | Commit_pending -> [ true; false ]
  | Aborted | Abort_pending | Live -> [ false ]

let pp_status ppf status =
  Fmt.string ppf
    (match status with
    | Committed -> "committed"
    | Aborted -> "aborted"
    | Commit_pending -> "commit-pending"
    | Abort_pending -> "abort-pending"
    | Live -> "live")

let pp ppf info =
  Fmt.pf ppf "T%d[%a] %a" info.id pp_status info.status
    Fmt.(array ~sep:sp Op.pp)
    info.ops
