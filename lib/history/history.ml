module Int_map = Map.Make (Int)

(* Histories share their event storage, and a snapshot of length [len]
   never reads beyond [len].  Only a [Builder] appends, and only into a
   buffer it allocated itself, at the end of what it has filled: so each
   slot is written once, by its one owner, before any history that can
   read it exists.  A full buffer is never resized in place — growing
   allocates a new one.

   Construction validates with [wf_rule] alone; the first [info], [txns] or
   [infos] fills [summary] from the first [len] slots, which never change
   once the history exists.  So domains racing on the fill build equal
   immutable summaries, and a single-word store publishes a fully built one:
   the write is idempotent and safe.  A mutable [Builder] is not: it must
   stay on one domain. *)
type summary = { tbl : Txn.t Int_map.t; rev_order : Event.tx list }

type t = { arr : Event.t array; len : int; mutable summary : summary option }

type error = { index : int; event : Event.t; reason : string }

let pp_error ppf e =
  Fmt.pf ppf "ill-formed history at event %d (%a): %s" e.index Event.pp
    e.event e.reason

let wf_rule prev ev =
  match prev, ev with
  | _, _ when Event.tx_of ev <= 0 ->
      Some "transaction identifiers must be positive (0 is T0)"
  | (None | Some (Event.Res (_, (Event.Read_ok _ | Event.Write_ok)))), Event.Inv _ -> None
  | Some (Event.Res (_, (Event.Committed | Event.Aborted))), Event.Inv _ ->
      Some "event after the transaction committed or aborted"
  | Some (Event.Inv _), Event.Inv _ ->
      Some "invocation while the previous operation is pending"
  | None, Event.Res _ -> Some "response without a participating transaction"
  | Some (Event.Res _), Event.Res _ -> Some "response without a pending invocation"
  | Some (Event.Inv (_, inv)), Event.Res (_, res) ->
      if Event.matches inv res then None
      else Some "response does not match the pending invocation"

(* Admit [ev] at [i] after its transaction's last event, held in the
   transaction's cell in [last]: one lookup per event, and an insertion
   only for a transaction's first event. *)
let admit last i ev =
  let k = Event.tx_of ev in
  let reject reason = Error { index = i; event = ev; reason } in
  match Int_tbl.find last k with
  | cell -> (
      match wf_rule (Some !cell) ev with
      | Some reason -> reject reason
      | None -> cell := ev; Ok ())
  | exception Not_found -> (
      match wf_rule None ev with
      | Some reason -> reject reason
      | None -> Int_tbl.add last k (ref ev); Ok ())

(* The summary of the well-formed events [arr.(0 .. len - 1)], in one pass. *)
let build_summary arr len =
  let drafts = Int_tbl.create 64 and rev_order = ref [] in
  for i = 0 to len - 1 do
    let ev = arr.(i) in
    let k = Event.tx_of ev in
    match Int_tbl.find_opt drafts k with
    | Some d -> Txn.add d i ev
    | None ->
        rev_order := k :: !rev_order;
        Int_tbl.add drafts k (Txn.draft i ev)
  done;
  let freeze k d tbl = Int_map.add k (Txn.freeze d) tbl in
  { tbl = Int_tbl.fold freeze drafts Int_map.empty; rev_order = !rev_order }

let summary h =
  match h.summary with
  | Some s -> s
  | None -> let s = build_summary h.arr h.len in h.summary <- Some s; s

let of_array arr len = { arr; len; summary = None }

(* The first event of [arr.(0 .. len - 1)] that [wf_rule] rejects. *)
let validate arr len =
  let last = Int_tbl.create 64 in
  let rec go i =
    if i >= len then Ok ()
    else match admit last i arr.(i) with Ok () -> go (i + 1) | Error _ as e -> e
  in
  go 0

let of_event_array arr =
  let len = Array.length arr in
  Result.map (fun () -> of_array arr len) (validate arr len)

let of_events events = of_event_array (Array.of_list events)

let of_events_exn events =
  match of_events events with
  | Ok h -> h
  | Error e -> Fmt.invalid_arg "History.of_events_exn: %a" pp_error e

let of_events_prefix events =
  let arr = Array.of_list events in
  let len = Array.length arr in
  match validate arr len with
  | Ok () -> (of_array arr len, [])
  | Error { index = keep; _ } ->
      (* [wf_rule] reads only earlier events, so the events before the
         first rejected one are a well-formed history. *)
      (of_array arr keep, Array.to_list (Array.sub arr keep (len - keep)))

let empty = of_array [||] 0

let length h = h.len

let get h i =
  if i < 0 || i >= h.len then invalid_arg "History.get: index out of bounds";
  h.arr.(i)

let to_list h = Array.to_list (Array.sub h.arr 0 h.len)

let txns h = List.rev (summary h).rev_order

let info h k =
  match Int_map.find_opt k (summary h).tbl with
  | Some txn -> txn
  | None -> raise Not_found

let infos h =
  let s = summary h in
  List.rev_map (fun k -> Int_map.find k s.tbl) s.rev_order

let filter_txns p h = List.filter_map
    (fun txn -> if p txn.Txn.status then Some txn.Txn.id else None)
    (infos h)

let committed h = filter_txns (function Txn.Committed -> true | _ -> false) h
let aborted h = filter_txns (function Txn.Aborted -> true | _ -> false) h

let commit_pending h =
  filter_txns (function Txn.Commit_pending -> true | _ -> false) h

let unique_writes h =
  let owner : (Event.tvar * Event.value, Event.tx) Hashtbl.t =
    Hashtbl.create 64
  in
  List.for_all
    (fun (txn : Txn.t) ->
      List.for_all
        (fun xv ->
          match Hashtbl.find_opt owner xv with
          | Some k -> k = txn.Txn.id
          | None ->
              Hashtbl.replace owner xv txn.Txn.id;
              true)
        (Txn.writes txn))
    (infos h)

let is_complete h = List.for_all Txn.is_complete (infos h)
let is_t_complete h = List.for_all Txn.is_t_complete (infos h)

let rt_precedes h k m =
  let ik = info h k and im = info h m in
  Txn.is_t_complete ik && ik.Txn.last_index < im.Txn.first_index

let overlap h k m = (not (rt_precedes h k m)) && not (rt_precedes h m k)

let live_set h k =
  let ik = info h k in
  List.filter_map
    (fun txn ->
      let disjoint =
        txn.Txn.last_index < ik.Txn.first_index
        || ik.Txn.last_index < txn.Txn.first_index
      in
      if disjoint then None else Some txn.Txn.id)
    (infos h)

let ls_precedes h k m =
  let im = info h m in
  List.for_all
    (fun id ->
      let txn = info h id in
      Txn.is_complete txn && txn.Txn.last_index < im.Txn.first_index)
    (live_set h k)

let is_t_sequential h =
  let ts = txns h in
  List.for_all
    (fun k ->
      List.for_all (fun m -> k = m || rt_precedes h k m || rt_precedes h m k) ts)
    ts

let is_sequential h =
  let ok = ref true in
  for i = 0 to h.len - 2 do
    match h.arr.(i) with
    | Event.Inv (k, inv) -> (
        match h.arr.(i + 1) with
        | Event.Res (k', res) when k = k' && Event.matches inv res -> ()
        | Event.Res _ | Event.Inv _ -> ok := false)
    | Event.Res _ -> ()
  done;
  !ok

let prefix h i =
  if i < 0 || i > h.len then invalid_arg "History.prefix: bad length";
  if i = h.len then h else { arr = h.arr; len = i; summary = None }

let is_prefix h ~of_:g =
  h.len <= g.len
  && (h.arr == g.arr
     ||
     let rec go i =
       i >= h.len || (Event.equal h.arr.(i) g.arr.(i) && go (i + 1))
     in
     go 0)

let project h ~keep =
  let events =
    List.filter (fun ev -> keep (Event.tx_of ev)) (to_list h)
  in
  of_events_exn events

let equivalent h h' =
  let same (a : Op.t) (b : Op.t) =
    Event.equal_invocation a.Op.inv b.Op.inv
    && Option.equal Event.equal_response a.Op.res b.Op.res
  in
  let sorted h = List.sort Int.compare (txns h) in
  let ts = sorted h in
  List.equal Int.equal ts (sorted h')
  && List.for_all
       (fun k ->
         let a = (info h k).Txn.ops and b = (info h' k).Txn.ops in
         Array.length a = Array.length b && Array.for_all2 same a b)
       ts

let response_indices h =
  let acc = ref [] in
  for i = h.len downto 1 do
    if Event.is_res h.arr.(i - 1) then acc := i :: !acc
  done;
  !acc

let boundaries h =
  let n = h.len in
  if n = 0 || Event.is_res h.arr.(n - 1) then response_indices h
  else response_indices h @ [ n ]

let pp ppf h =
  let pp_item ppf (i, ev) = Fmt.pf ppf "%3d  %a" i Event.pp ev in
  let items = List.mapi (fun i ev -> (i, ev)) (to_list h) in
  Fmt.(list ~sep:(any "@\n") pp_item) ppf items

let pp_inline ppf h = Fmt.(list ~sep:sp Event.pp) ppf (to_list h)

(* Grown buffers are filled with a static constant, not the new event:
   [Array.make] of a major-heap length with a young fill forces a minor GC. *)
let filler = Event.Res (0, Event.Aborted)

module Builder = struct
  type history = t
  type t = { mutable h : history; last : Event.t ref Int_tbl.t }

  let create () = { h = empty; last = Int_tbl.create 16 }
  let length b = b.h.len
  let to_list b = to_list b.h
  let history b = b.h

  (* [b.h] followed by [ev].  The buffer past [b.h.len] is this builder's
     alone (see [t]): it allocated it, and nothing else appends. *)
  let append b ev =
    let { arr; len; _ } = b.h in
    let arr =
      if len < Array.length arr then arr
      else begin
        let grown = Array.make (max 8 (2 * len)) filler in
        Array.blit arr 0 grown 0 len;
        grown
      end
    in
    arr.(len) <- ev;
    b.h <- { arr; len = len + 1; summary = None }

  let add b ev =
    match admit b.last b.h.len ev with
    | Ok () -> Ok (append b ev)
    | Error _ as e -> e
end
