module Int_map = Map.Make (Int)

(* Histories share their event storage, and a snapshot of length [len]
   never reads beyond [len].  [used] marks how far the buffer has been
   claimed: [extend] appends in place only when it wins the
   compare-and-set of [used] from [len] to [len + 1], so each slot is
   written once, by one domain.  Every other extension copies, and a full
   buffer is never resized in place — growing allocates a new one. *)
type buffer = { arr : Event.t array; used : int Atomic.t }

type summary = { tbl : Txn.t Int_map.t; rev_order : Event.tx list }

type t = { buf : buffer; len : int; mutable summary : summary option }

type error = { index : int; event : Event.t; reason : string }

let pp_error ppf e =
  Fmt.pf ppf "ill-formed history at event %d (%a): %s" e.index Event.pp
    e.event e.reason

let empty_summary = { tbl = Int_map.empty; rev_order = [] }

let status_of_ops (ops : Op.t array) : Txn.status =
  let n = Array.length ops in
  if n = 0 then Txn.Live
  else
    let last = ops.(n - 1) in
    match last.Op.res with
    | Some Event.Committed -> Txn.Committed
    | Some Event.Aborted -> Txn.Aborted
    | Some (Event.Read_ok _ | Event.Write_ok) -> Txn.Live
    | None -> (
        match last.Op.inv with
        | Event.Try_commit -> Txn.Commit_pending
        | Event.Try_abort -> Txn.Abort_pending
        | Event.Read _ | Event.Write _ -> Txn.Live)

let array_snoc a x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 n;
  b

(* Incorporate event [ev] at position [i] into [s], or explain why the
   extended history is ill-formed. *)
let step (s : summary) i ev : (summary, error) result =
  let err reason = Error { index = i; event = ev; reason } in
  let k = Event.tx_of ev in
  if k <= 0 then err "transaction identifiers must be positive (0 is T0)"
  else
    match ev, Int_map.find_opt k s.tbl with
    | Event.Inv (_, inv), None ->
        let op =
          { Op.tx = k; inv; inv_index = i; res = None; res_index = None }
        in
        let txn =
          {
            Txn.id = k;
            ops = [| op |];
            first_index = i;
            last_index = i;
            status = status_of_ops [| op |];
          }
        in
        Ok { tbl = Int_map.add k txn s.tbl; rev_order = k :: s.rev_order }
    | Event.Inv (_, inv), Some txn -> (
        match txn.Txn.status with
        | Txn.Committed | Txn.Aborted ->
            err "event after the transaction committed or aborted"
        | Txn.Commit_pending | Txn.Abort_pending | Txn.Live ->
            let n = Array.length txn.Txn.ops in
            if n > 0 && not (Op.is_complete txn.Txn.ops.(n - 1)) then
              err "invocation while the previous operation is pending"
            else
              let op =
                { Op.tx = k; inv; inv_index = i; res = None; res_index = None }
              in
              let ops = array_snoc txn.Txn.ops op in
              let txn =
                {
                  txn with
                  Txn.ops;
                  last_index = i;
                  status = status_of_ops ops;
                }
              in
              Ok { s with tbl = Int_map.add k txn s.tbl })
    | Event.Res (_, _), None -> err "response without a participating transaction"
    | Event.Res (_, res), Some txn ->
        let n = Array.length txn.Txn.ops in
        if n = 0 || Op.is_complete txn.Txn.ops.(n - 1) then
          err "response without a pending invocation"
        else
          let op = txn.Txn.ops.(n - 1) in
          if not (Event.matches op.Op.inv res) then
            err "response does not match the pending invocation"
          else
            let op = { op with Op.res = Some res; res_index = Some i } in
            let ops = Array.copy txn.Txn.ops in
            ops.(n - 1) <- op;
            let txn =
              { txn with Txn.ops; last_index = i; status = status_of_ops ops }
            in
            Ok { s with tbl = Int_map.add k txn s.tbl }

let compute_summary arr len : (summary, error) result =
  let rec go s i =
    if i >= len then Ok s
    else match step s i arr.(i) with Ok s -> go s (i + 1) | Error _ as e -> e
  in
  go empty_summary 0

let summary h =
  match h.summary with
  | Some s -> s
  | None -> (
      match compute_summary h.buf.arr h.len with
      | Ok s ->
          h.summary <- Some s;
          s
      | Error e ->
          (* Construction validates, so stored histories are well-formed. *)
          Fmt.invalid_arg "History.summary: %a" pp_error e)

let of_events events =
  let arr = Array.of_list events in
  let len = Array.length arr in
  match compute_summary arr len with
  | Ok s ->
      Ok { buf = { arr; used = Atomic.make len }; len; summary = Some s }
  | Error e -> Error e

let of_events_exn events =
  match of_events events with
  | Ok h -> h
  | Error e -> Fmt.invalid_arg "History.of_events_exn: %a" pp_error e

let of_events_prefix events =
  let arr = Array.of_list events in
  let len = Array.length arr in
  match compute_summary arr len with
  | Ok s -> ({ buf = { arr; used = Atomic.make len }; len; summary = Some s }, [])
  | Error e ->
      (* Validation is a left-to-right fold of [step], so the first failure
         at index [i] certifies the prefix of length [i] well-formed; one
         truncation therefore always succeeds. *)
      let keep = e.index in
      let prefix = Array.sub arr 0 keep in
      let tail = Array.to_list (Array.sub arr keep (len - keep)) in
      (match compute_summary prefix keep with
      | Ok s ->
          ( { buf = { arr = prefix; used = Atomic.make keep }; len = keep;
              summary = Some s },
            tail )
      | Error e ->
          Fmt.invalid_arg "History.of_events_prefix: prefix ill-formed: %a"
            pp_error e)

let empty =
  { buf = { arr = [||]; used = Atomic.make 0 }; len = 0;
    summary = Some empty_summary }

let length h = h.len
let is_empty h = h.len = 0

let get h i =
  if i < 0 || i >= h.len then invalid_arg "History.get: index out of bounds";
  h.buf.arr.(i)

let to_list h = Array.to_list (Array.sub h.buf.arr 0 h.len)

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
    match h.buf.arr.(i) with
    | Event.Inv (k, inv) -> (
        match h.buf.arr.(i + 1) with
        | Event.Res (k', res) when k = k' && Event.matches inv res -> ()
        | Event.Res _ | Event.Inv _ -> ok := false)
    | Event.Res _ -> ()
  done;
  !ok

let prefix h i =
  if i < 0 || i > h.len then invalid_arg "History.prefix: bad length";
  if i = h.len then h else { buf = h.buf; len = i; summary = None }

let is_prefix h ~of_:g =
  h.len <= g.len
  && (h.buf == g.buf
     ||
     let rec go i =
       i >= h.len || (Event.equal h.buf.arr.(i) g.buf.arr.(i) && go (i + 1))
     in
     go 0)

let extend h ev =
  match step (summary h) h.len ev with
  | Error _ as e -> e
  | Ok s ->
      let buf =
        if
          h.len < Array.length h.buf.arr
          && Atomic.compare_and_set h.buf.used h.len (h.len + 1)
        then begin
          h.buf.arr.(h.len) <- ev;
          h.buf
        end
        else begin
          let arr = Array.make (max 8 (2 * h.len)) ev in
          Array.blit h.buf.arr 0 arr 0 h.len;
          { arr; used = Atomic.make (h.len + 1) }
        end
      in
      Ok { buf; len = h.len + 1; summary = Some s }

let project h ~keep =
  let events =
    List.filter (fun ev -> keep (Event.tx_of ev)) (to_list h)
  in
  of_events_exn events

(* Events of each transaction in history order, newest first — one pass over
   the events instead of one full filter per transaction (O(T·n)). *)
let group_by_tx h =
  let tbl = Hashtbl.create 16 in
  for i = 0 to h.len - 1 do
    let ev = h.buf.arr.(i) in
    let k = Event.tx_of ev in
    let prev = try Hashtbl.find tbl k with Not_found -> [] in
    Hashtbl.replace tbl k (ev :: prev)
  done;
  tbl

let equivalent h h' =
  let ts = List.sort Int.compare (txns h)
  and ts' = List.sort Int.compare (txns h') in
  List.equal Int.equal ts ts'
  && (let g = group_by_tx h and g' = group_by_tx h' in
      List.for_all
        (fun k ->
          (* Reversed on both sides, so comparing the rev-order groups
             directly decides equality of the forward sequences. *)
          List.equal Event.equal (Hashtbl.find g k) (Hashtbl.find g' k))
        ts)

let response_indices h =
  let acc = ref [] in
  for i = h.len downto 1 do
    if Event.is_res h.buf.arr.(i - 1) then acc := i :: !acc
  done;
  !acc

let pp ppf h =
  let pp_item ppf (i, ev) = Fmt.pf ppf "%3d  %a" i Event.pp ev in
  let items = List.mapi (fun i ev -> (i, ev)) (to_list h) in
  Fmt.(list ~sep:(any "@\n") pp_item) ppf items

let pp_inline ppf h = Fmt.(list ~sep:sp Event.pp) ppf (to_list h)
