open Event

let inv_cell = function
  | Read var -> Fmt.str "R(%a)" pp_tvar var
  | Write (var, value) -> Fmt.str "W(%a,%d)" pp_tvar var value
  | Try_commit -> "tryC"
  | Try_abort -> "tryA"

let res_cell = function
  | Read_ok v -> Fmt.str ">%d" v
  | Write_ok -> ">ok"
  | Committed -> ">C"
  | Aborted -> ">A"

let timeline h =
  let n = History.length h in
  let infos = History.infos h in
  let rows = List.length infos in
  let cells = Array.make_matrix rows n "" in
  let label = Array.make rows "" in
  List.iteri
    (fun row (txn : Txn.t) ->
      label.(row) <- Fmt.str "T%d:" txn.Txn.id;
      for i = txn.Txn.first_index to txn.Txn.last_index do
        cells.(row).(i) <- "-"
      done;
      Array.iter
        (fun (op : Op.t) ->
          cells.(row).(op.Op.inv_index) <- inv_cell op.Op.inv;
          match op.Op.res, op.Op.res_index with
          | Some res, Some i -> cells.(row).(i) <- res_cell res
          | _, _ -> ())
        txn.Txn.ops)
    infos;
  let width = Array.make n 1 in
  for i = 0 to n - 1 do
    for row = 0 to rows - 1 do
      width.(i) <- max width.(i) (String.length cells.(row).(i))
    done
  done;
  let label_width =
    Array.fold_left (fun acc s -> max acc (String.length s)) 0 label
  in
  let pad fill s w =
    s ^ String.make (max 0 (w - String.length s)) fill
  in
  let buf = Buffer.create 256 in
  for row = 0 to rows - 1 do
    Buffer.add_string buf (pad ' ' label.(row) label_width);
    for i = 0 to n - 1 do
      Buffer.add_char buf ' ';
      let cell = cells.(row).(i) in
      let fill = if cell = "-" || cell = "" then ' ' else ' ' in
      let cell = if cell = "-" then String.make width.(i) '-' else cell in
      Buffer.add_string buf (pad fill cell width.(i))
    done;
    (* Trim trailing blanks for tidy output. *)
    let line = Buffer.contents buf in
    Buffer.clear buf;
    let len = ref (String.length line) in
    while !len > 0 && line.[!len - 1] = ' ' do
      decr len
    done;
    Buffer.add_string buf (String.sub line 0 !len);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
