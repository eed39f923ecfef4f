type finding = { file : string; line : int; rule : string; text : string }

let default_whitelist = [ "event.ml" ]

(* --- source preparation ---------------------------------------------------

   Blank out comments, string literals and character literals, preserving
   line structure and column positions, so the token scans below never fire
   inside documentation or message text.  Comments nest; double-quoted
   strings handle backslash escapes; quoted strings are matched by
   delimiter; a quote only starts a char literal for the quote-char-quote
   and quote-escape shapes (leaving type variables and primed identifiers
   alone). *)

let strip src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let is_ld c = (c >= 'a' && c <= 'z') || c = '_' in
  let i = ref 0 in
  let depth = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if !depth > 0 then begin
      (* inside a comment *)
      if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
        blank !i;
        blank (!i + 1);
        incr depth;
        i := !i + 2
      end
      else if c = '*' && !i + 1 < n && src.[!i + 1] = ')' then begin
        blank !i;
        blank (!i + 1);
        decr depth;
        i := !i + 2
      end
      else begin
        blank !i;
        incr i
      end
    end
    else if c = '(' && !i + 1 < n && src.[!i + 1] = '*' then begin
      blank !i;
      blank (!i + 1);
      depth := 1;
      i := !i + 2
    end
    else if c = '"' then begin
      blank !i;
      incr i;
      let fin = ref false in
      while (not !fin) && !i < n do
        if src.[!i] = '\\' && !i + 1 < n then begin
          blank !i;
          blank (!i + 1);
          i := !i + 2
        end
        else begin
          if src.[!i] = '"' then fin := true;
          blank !i;
          incr i
        end
      done
    end
    else if c = '{' && !i + 1 < n && (src.[!i + 1] = '|' || is_ld src.[!i + 1])
    then begin
      (* possible quoted string {id|...|id} *)
      let j = ref (!i + 1) in
      while !j < n && is_ld src.[!j] do incr j done;
      if !j < n && src.[!j] = '|' then begin
        let id = String.sub src (!i + 1) (!j - !i - 1) in
        let close = "|" ^ id ^ "}" in
        let cl = String.length close in
        let k = ref (!j + 1) in
        let stop = ref (-1) in
        while !stop < 0 && !k + cl <= n do
          if String.sub src !k cl = close then stop := !k else incr k
        done;
        let last = if !stop < 0 then n - 1 else !stop + cl - 1 in
        for p = !i to last do blank p done;
        i := last + 1
      end
      else incr i
    end
    else if c = '\'' && !i + 2 < n && src.[!i + 1] = '\\' then begin
      (* '\n' '\\' '\xNN' ... : blank through the closing quote *)
      let j = ref (!i + 2) in
      while !j < n && src.[!j] <> '\'' && src.[!j] <> '\n' do incr j done;
      for p = !i to min !j (n - 1) do blank p done;
      i := !j + 1
    end
    else if c = '\'' && !i + 2 < n && src.[!i + 2] = '\'' && src.[!i + 1] <> '\\'
    then begin
      blank !i;
      blank (!i + 1);
      blank (!i + 2);
      i := !i + 3
    end
    else incr i
  done;
  Bytes.to_string out

(* --- token helpers -------------------------------------------------------- *)

let is_ident c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let is_op c = String.contains "=<>!&$%*+-/@^|~?:." c

(* First occurrence of [w] in [s] at or after [i], or [-1]. *)
let index_sub s i w =
  let lw = String.length w and ls = String.length s in
  let rec go i =
    if i + lw > ls then -1
    else if String.sub s i lw = w then i
    else go (i + 1)
  in
  go i

let contains_sub s w = index_sub s 0 w >= 0

(* Find word [w] in [line] at a token boundary: neither side extends the
   identifier, and with [no_dot] the preceding char is not [.] (so
   [Int.compare] does not match bare [compare]) or [~] (labelled arg). *)
let find_word ?(no_dot = false) line w =
  let lw = String.length w and ll = String.length line in
  let rec go i =
    if i + lw > ll then None
    else
      match index_sub line i w with
      | -1 -> None
      | j ->
          let pre_ok =
            j = 0
            ||
            let p = line.[j - 1] in
            (not (is_ident p))
            && p <> '.'
            && not (no_dot && p = '~')
          in
          let post_ok = j + lw >= ll || not (is_ident line.[j + lw]) in
          if pre_ok && post_ok then Some j else go (j + 1)
  in
  go 0

(* Like [find_word] but a dotted path: [Hashtbl.fold] must not match inside
   [Foo.Hashtbl.fold]-style longer paths on the right ([post] must not
   extend the path with [.ident]). *)
let find_path line w =
  let lw = String.length w and ll = String.length line in
  let rec go i =
    if i + lw > ll then None
    else
      match index_sub line i w with
      | -1 -> None
      | j ->
          let pre_ok =
            j = 0 || ((not (is_ident line.[j - 1])) && line.[j - 1] <> '.')
          in
          let post_ok =
            j + lw >= ll
            || ((not (is_ident line.[j + lw])) && line.[j + lw] <> '.')
          in
          if pre_ok && post_ok then Some j else go (j + 1)
  in
  go 0

(* --- the source model ------------------------------------------------------

   Everything the rules share: the stripped text (split into lines), a
   token stream with line positions, per-line "inside a loop" flags, and
   the suppression pragmas parsed from the *raw* text (they live in
   comments, which the strip blanks). *)

module Source_model = struct
  type pragma = {
    p_line : int;  (* 1-based, the line where the comment opens *)
    p_end : int;  (* the line where the comment closes *)
    p_rules : string list;
    mutable p_used : bool;
  }

  type tok = { t_s : string; t_line : int; t_col : int }

  type t = {
    file : string;
    lines : string array;  (* stripped, 0-based; line l is lines.(l-1) *)
    tokens : tok array;
    loop : bool array;  (* 0-based per line: inside an iteration context *)
    pragmas : pragma list;
    stripped : string;
  }

  let mentions t w = find_path t.stripped w <> None

  let line t l =
    if l >= 1 && l <= Array.length t.lines then t.lines.(l - 1) else ""

  let in_loop t l = l >= 1 && l <= Array.length t.loop && t.loop.(l - 1)

  (* A window of stripped lines around [l], collapsed to one
     space-separated string — for the adjacency heuristics ("is the fold
     result sorted right after?"). *)
  let window t l ~before ~after =
    let lo = max 1 (l - before) and hi = min (Array.length t.lines) (l + after) in
    let b = Buffer.create 256 in
    for i = lo to hi do
      String.iter
        (fun c -> Buffer.add_char b (if c = '\n' then ' ' else c))
        t.lines.(i - 1);
      Buffer.add_char b ' '
    done;
    (* collapse runs of spaces so cross-line phrases like "acc ||" match *)
    let s = Buffer.contents b in
    let out = Buffer.create (String.length s) in
    let prev_sp = ref false in
    String.iter
      (fun c ->
        if c = ' ' then begin
          if not !prev_sp then Buffer.add_char out ' ';
          prev_sp := true
        end
        else begin
          prev_sp := false;
          Buffer.add_char out c
        end)
      s;
    Buffer.contents out

  (* --- tokenizer --- *)

  let tokenize stripped =
    let toks = ref [] in
    let n = String.length stripped in
    let line = ref 1 and bol = ref 0 in
    let i = ref 0 in
    while !i < n do
      let c = stripped.[!i] in
      if c = '\n' then begin
        incr line;
        incr i;
        bol := !i
      end
      else if c = ' ' || c = '\t' || c = '\r' then incr i
      else if is_ident c || (c = '.' && !i + 1 < n && is_ident stripped.[!i + 1])
      then begin
        let j = ref !i in
        while
          !j < n
          && (is_ident stripped.[!j]
             || (stripped.[!j] = '.'
                && !j + 1 < n
                && is_ident stripped.[!j + 1]))
        do
          incr j
        done;
        toks :=
          { t_s = String.sub stripped !i (!j - !i); t_line = !line;
            t_col = !i - !bol }
          :: !toks;
        i := !j
      end
      else if is_op c then begin
        let j = ref !i in
        while !j < n && is_op stripped.[!j] do incr j done;
        toks :=
          { t_s = String.sub stripped !i (!j - !i); t_line = !line;
            t_col = !i - !bol }
          :: !toks;
        i := !j
      end
      else begin
        toks :=
          { t_s = String.make 1 c; t_line = !line; t_col = !i - !bol }
          :: !toks;
        incr i
      end
    done;
    Array.of_list (List.rev !toks)

  (* --- loop regions ---

     A line is "inside a loop" when it sits in a [while]/[for]..[done]
     body, in the argument region of an iteration combinator
     ([List.iter (fun x -> ...) xs] and friends — the region lasts until
     the paren depth at the combinator token closes), or in the body of a
     [let rec] (until the next phrase at the same or shallower
     indentation, capped).  Over-approximation is fine: the consumers are
     tripwire rules whose false positives go through pragmas. *)

  let combinators =
    [
      "List.iter"; "List.iteri"; "List.map"; "List.mapi"; "List.rev_map";
      "List.fold_left"; "List.fold_right"; "List.concat_map"; "List.filter";
      "List.filter_map"; "List.exists"; "List.for_all"; "List.partition";
      "Array.iter"; "Array.iteri"; "Array.map"; "Array.mapi";
      "Array.fold_left"; "Array.exists"; "Array.for_all"; "Hashtbl.iter";
      "Hashtbl.fold"; "Seq.iter"; "Seq.fold_left"; "Seq.map"; "Queue.iter";
      "History.project";
    ]

  let rec_cap = 80
  let comb_cap = 60

  let loop_flags lines =
    let n = Array.length lines in
    let loop = Array.make n false in
    let depth = ref 0 in
    let wf = ref 0 in
    (* A combinator region stays open while the paren depth is above the
       depth at the combinator token, or — for call styles that close
       their parens per line ([List.fold_left] with each argument on its
       own line) — while subsequent lines are indented deeper than the
       combinator's line.  Capped so a tracking slip cannot paint the
       rest of the file. *)
    let combs = ref [] in
    (* (depth0, indent0, lines_left) *)
    let recs = ref [] in
    (* (indent0, lines_left) *)
    for l = 0 to n - 1 do
      let line = lines.(l) in
      let ll = String.length line in
      let indent =
        let j = ref 0 in
        while !j < ll && (line.[!j] = ' ' || line.[!j] = '\t') do incr j done;
        if !j >= ll then None else Some !j
      in
      (* close regions ended by this line's shape *)
      (match indent with
      | Some ind ->
          combs :=
            List.filter
              (fun (d0, i0, _) -> !depth > d0 || ind > i0)
              !combs;
          let starts kw =
            ind + String.length kw <= ll
            && String.sub line ind (String.length kw) = kw
          in
          if
            (starts "let " || starts "type " || starts "module "
           || starts "exception " || starts "val " || starts "open "
           || starts "include " || starts "end")
            && not (starts "let rec ")
          then recs := List.filter (fun (i, _) -> i < ind) !recs
      | None -> ());
      combs :=
        List.filter_map
          (fun (d, i, left) -> if left <= 0 then None else Some (d, i, left - 1))
          !combs;
      recs :=
        List.filter_map
          (fun (i, left) -> if left <= 0 then None else Some (i, left - 1))
          !recs;
      let active0 = !wf > 0 || !combs <> [] || !recs <> [] in
      let active_in_line = ref false in
      (* token scan of this line, tracking depth *)
      let i = ref 0 in
      while !i < ll do
        let c = line.[!i] in
        if c = '(' || c = '[' then begin
          incr depth;
          incr i
        end
        else if c = ')' || c = ']' then begin
          decr depth;
          incr i
        end
        else if is_ident c then begin
          let j = ref !i in
          while
            !j < ll
            && (is_ident line.[!j]
               || (line.[!j] = '.' && !j + 1 < ll && is_ident line.[!j + 1]))
          do
            incr j
          done;
          let w = String.sub line !i (!j - !i) in
          let boundary_ok = !i = 0 || not (is_ident line.[!i - 1]) in
          if boundary_ok then begin
            if w = "while" || w = "for" then begin
              incr wf;
              active_in_line := true
            end
            else if w = "done" then wf := max 0 (!wf - 1)
            else if List.mem w combinators then begin
              combs :=
                (!depth, Option.value indent ~default:0, comb_cap) :: !combs;
              active_in_line := true
            end
            else if w = "let" then begin
              (* [let rec]: peek the next word *)
              let k = ref !j in
              while !k < ll && line.[!k] = ' ' do incr k done;
              if
                !k + 3 <= ll
                && String.sub line !k 3 = "rec"
                && (!k + 3 = ll || not (is_ident line.[!k + 3]))
              then begin
                recs := (Option.value indent ~default:0, rec_cap) :: !recs;
                active_in_line := true
              end
            end
          end;
          i := !j
        end
        else incr i
      done;
      loop.(l) <- active0 || !active_in_line
    done;
    loop

  (* --- pragmas ---

     [(* lint: allow rule-a rule-b — optional prose *)] suppresses findings
     of the named rules on the lines the comment spans plus the one right
     below its close (so the justification may run to several lines).
     Parsed from the raw source (comments are blanked everywhere else).
     A pragma none of whose rules suppressed anything — or naming a rule
     that does not exist — is itself reported by [unused-suppression]. *)

  let pragma_marker = "(* lint: allow "

  let parse_pragmas raw =
    let acc = ref [] in
    let pos = ref 0 in
    let line_of p =
      let l = ref 1 in
      for i = 0 to p - 1 do
        if raw.[i] = '\n' then incr l
      done;
      !l
    in
    let continue = ref true in
    while !continue do
      match index_sub raw !pos pragma_marker with
      | -1 -> continue := false
      | j ->
          let stop =
            match index_sub raw j "*)" with
            | -1 -> String.length raw
            | s -> s
          in
          let body =
            String.sub raw
              (j + String.length pragma_marker)
              (stop - j - String.length pragma_marker)
          in
          (* rule names run to the first token that is not a rule-name
             shape (lowercase/dash); anything after is prose *)
          let words =
            String.split_on_char ' ' body
            |> List.concat_map (String.split_on_char '\n')
            |> List.filter (( <> ) "")
          in
          let is_rule_name w =
            w <> ""
            && String.for_all
                 (fun c -> (c >= 'a' && c <= 'z') || c = '-' || (c >= '0' && c <= '9'))
                 w
          in
          let rec take = function
            | w :: rest when is_rule_name w -> w :: take rest
            | _ -> []
          in
          let rules = take words in
          acc :=
            { p_line = line_of j; p_end = line_of stop; p_rules = rules;
              p_used = false }
            :: !acc;
          pos := j + String.length pragma_marker
    done;
    List.rev !acc

  let of_source ~file src =
    let stripped = strip src in
    let lines = Array.of_list (String.split_on_char '\n' stripped) in
    {
      file;
      lines;
      tokens = tokenize stripped;
      loop = loop_flags lines;
      pragmas = parse_pragmas src;
      stripped;
    }
end

(* --- rules ----------------------------------------------------------------- *)

type rule = {
  name : string;
  doc : string;
  check : Source_model.t -> finding list;
  positive : string;  (* self-test: must produce a [name] finding *)
  negative : string;  (* self-test near-miss: must not *)
}

let mk_finding (m : Source_model.t) line rule =
  { file = m.file; line; rule; text = String.trim (Source_model.line m line) }

(* --- ported rule: poly-hash --- *)

let check_poly_hash (m : Source_model.t) =
  let acc = ref [] in
  Array.iteri
    (fun idx line ->
      match find_path line "Hashtbl.hash" with
      | Some _ -> acc := mk_finding m (idx + 1) "poly-hash" :: !acc
      | None -> ())
    m.lines;
  List.rev !acc

(* --- ported rule: poly-compare --- *)

let check_poly_compare (m : Source_model.t) =
  let acc = ref [] in
  Array.iteri
    (fun idx line ->
      let ln = idx + 1 in
      match find_path line "Stdlib.compare" with
      | Some _ -> acc := mk_finding m ln "poly-compare" :: !acc
      | None -> (
          (* bare, unqualified [compare] used as a value — not a definition
             ([let compare], [val compare], ...) *)
          match find_word ~no_dot:true line "compare" with
          | Some j ->
              let defining =
                let p = String.trim (String.sub line 0 j) in
                let ends k =
                  let kl = String.length k and pl = String.length p in
                  pl >= kl
                  && String.sub p (pl - kl) kl = k
                  && (pl = kl || not (is_ident p.[pl - kl - 1]))
                in
                ends "let" || ends "and" || ends "rec" || ends "val"
                || ends "method" || ends "external"
              in
              if not defining then acc := mk_finding m ln "poly-compare" :: !acc
          | None -> ()))
    m.lines;
  List.rev !acc

(* --- ported rule: poly-eq --- *)

let protected_roots = [ "Event."; "History."; "Txn." ]

(* Right-hand paths that denote scalars (ints / status constructors), for
   which polymorphic comparison is fine and pervasive. *)
let allowed_paths =
  [
    "Txn.Committed";
    "Txn.Aborted";
    "Txn.Commit_pending";
    "Txn.Live";
    "Event.init_value";
  ]

let ends_with_binder prefix =
  (* [let f x], [and p], [{ field], [; field], [?(arg] or a bare field
     name before the [=]: a binding or default, not a comparison. *)
  let p = String.trim prefix in
  let lp = String.length p in
  if lp = 0 then true (* continuation line: ambiguous, stay quiet *)
  else
    (* A binder keyword with no [=] between it and our operator means the
       whole stretch is the bound pattern ([let h, torn], [let f x y]). *)
    let binder_kw =
      List.exists
        (fun k ->
          let rec hunt i =
            match find_word (String.sub p i (lp - i)) k with
            | None -> false
            | Some j ->
                let after = String.sub p (i + j) (lp - i - j) in
                (not (String.contains after '=')) || hunt (i + j + 1)
          in
          hunt 0)
        [ "let"; "and"; "val"; "method"; "external"; "type" ]
    in
    (* A prefix that is nothing but a path ([history], [Foo.field]) is a
       record-field binding in a multi-line literal. *)
    let bare_field = String.for_all (fun c -> is_ident c || c = '.') p in
    (* [{ field] / [; field]: an inline record-field binding. *)
    let field_bind =
      let j = ref lp in
      while
        !j > 0 && (is_ident p.[!j - 1] || p.[!j - 1] = '.' || p.[!j - 1] = ' ')
      do
        decr j
      done;
      !j > 0 && (p.[!j - 1] = '{' || p.[!j - 1] = ';')
    in
    binder_kw || bare_field || field_bind
    || p.[lp - 1] = '{' || p.[lp - 1] = ';' || p.[lp - 1] = '?'
    || p.[lp - 1] = '~'

let path_at line j =
  (* Read a [Module.sub.path] starting at [j]. *)
  let ll = String.length line in
  let k = ref j in
  while !k < ll && (is_ident line.[!k] || line.[!k] = '.') do incr k done;
  String.sub line j (!k - j)

let poly_eq_hits line =
  let ll = String.length line in
  let hits = ref [] in
  let i = ref 0 in
  while !i < ll do
    let c = line.[!i] in
    if is_op c then begin
      (* widest operator token starting here *)
      let j = ref !i in
      while !j < ll && is_op line.[!j] do incr j done;
      let op = String.sub line !i (!j - !i) in
      (if op = "=" || op = "<>" || op = "==" || op = "!=" then begin
         let k = ref !j in
         while !k < ll && (line.[!k] = ' ' || line.[!k] = '(') do incr k done;
         if
           List.exists
             (fun r ->
               let rl = String.length r in
               !k + rl <= ll && String.sub line !k rl = r)
             protected_roots
         then begin
           let path = path_at line !k in
           let binding = op = "=" && ends_with_binder (String.sub line 0 !i) in
           if (not binding) && not (List.mem path allowed_paths) then
             hits := !i :: !hits
         end
       end);
      i := !j
    end
    else incr i
  done;
  List.rev !hits

let check_poly_eq (m : Source_model.t) =
  let acc = ref [] in
  Array.iteri
    (fun idx line ->
      if poly_eq_hits line <> [] then
        acc := mk_finding m (idx + 1) "poly-eq" :: !acc)
    m.lines;
  List.rev !acc

(* --- rule: quadratic-hot-path ---

   Linear scans and tail-appends inside an iteration context: each is
   O(n) per step, so the enclosing loop goes quadratic — the exact
   pattern PRs 4 and 7 fixed by hand four times (Sched appends, Gen
   List.nth scheduling, membership scans in snapshot_isolation / limit /
   opacity).  Flagged only inside loop regions (see
   {!Source_model.loop_flags}); a one-shot append at top level is O(n)
   once and stays quiet. *)

let quadratic_scans =
  [ "List.nth"; "List.mem"; "List.memq"; "List.mem_assoc"; "List.assoc";
    "List.assoc_opt" ]

let check_quadratic (m : Source_model.t) =
  let acc = ref [] in
  Array.iteri
    (fun idx line ->
      let ln = idx + 1 in
      if Source_model.in_loop m ln then begin
        let scan_hit =
          List.exists (fun w -> find_path line w <> None) quadratic_scans
        in
        (* [xs @ [ x ]]: a tail-append — quadratic when iterated.  Find a
           lone [@] operator followed by [[. *)
        let append_hit =
          let ll = String.length line in
          let rec go i found =
            if found || i >= ll then found
            else if is_op line.[i] then begin
              let j = ref i in
              while !j < ll && is_op line.[!j] do incr j done;
              if String.sub line i (!j - i) = "@" then begin
                let k = ref !j in
                while !k < ll && line.[!k] = ' ' do incr k done;
                go !j (!k < ll && line.[!k] = '[')
              end
              else go !j false
            end
            else go (i + 1) false
          in
          go 0 false
        in
        if scan_hit || append_hit then
          acc := mk_finding m ln "quadratic-hot-path" :: !acc
      end)
    m.lines;
  List.rev !acc

(* --- rule: ordering-nondeterminism ---

   [Hashtbl.iter] / [Hashtbl.fold] enumerate in hash order — an arbitrary
   order that varies with the key set, the table's growth history and the
   OCaml version.  Feeding it into anything order-sensitive (a list that
   is not sorted afterwards, a "first" pick, a serialization order)
   corrupts verdicts silently.  The quiet heuristics recognize the two
   disciplined shapes: the result is sorted within a few lines, or the
   body is a commutative per-key effect (keyed store / monotonic flag /
   commutative accumulator). *)

let ordering_quiet_tokens =
  [
    "sort"; "<-"; ".set "; "Hashtbl.replace"; "Hashtbl.add"; "Hashtbl.remove";
    "Hashtbl.reset"; ":= true"; "acc ||"; "|| acc"; "ok &&"; "&& ok";
    "acc +"; "+ acc"; "max acc"; "min acc";
  ]

let check_ordering (m : Source_model.t) =
  let acc = ref [] in
  Array.iteri
    (fun idx line ->
      let ln = idx + 1 in
      if
        find_path line "Hashtbl.iter" <> None
        || find_path line "Hashtbl.fold" <> None
      then begin
        let w = Source_model.window m ln ~before:2 ~after:6 in
        if not (List.exists (contains_sub w) ordering_quiet_tokens) then
          acc := mk_finding m ln "ordering-nondeterminism" :: !acc
      end)
    m.lines;
  List.rev !acc

(* --- rule: domain-safety ---

   A module that spawns domains ([Domain.spawn]) shares its module-level
   mutable state across them.  Naked [ref] / [Hashtbl] / [Bytes] /
   [Buffer] / [Queue] bindings at the top level of such a module are
   flagged unless the module shows a synchronization discipline at all
   ([Mutex.] or [Atomic.] appears somewhere): a single unsynchronized cell
   is exactly the silent-verdict-corruption seed the dynamic [Race]
   analyzer hunts at the trace level. *)

let mutable_makers =
  [ "= ref "; "= ref("; "Hashtbl.create"; "Bytes.create"; "Bytes.make";
    "Buffer.create"; "Queue.create"; "Array.make"; "Dynarray.create" ]

let check_domain_safety (m : Source_model.t) =
  let spawns = Source_model.mentions m "Domain.spawn" in
  let disciplined =
    contains_sub m.stripped "Mutex." || contains_sub m.stripped "Atomic."
  in
  if (not spawns) || disciplined then []
  else begin
    let acc = ref [] in
    Array.iteri
      (fun idx line ->
        (* module-level bindings only: [let] at column 0 *)
        if
          String.length line > 4
          && String.sub line 0 4 = "let "
          && List.exists (fun w -> contains_sub line w) mutable_makers
        then acc := mk_finding m (idx + 1) "domain-safety" :: !acc)
      m.lines;
    List.rev !acc
  end

(* --- rule: lock-hygiene ---

   A blocking call while holding a [Mutex.t] turns backpressure into a
   lock-convoy (or a deadlock, if the unblocking party needs the same
   mutex).  Linear scan: [Mutex.lock] raises the held counter,
   [Mutex.unlock] lowers it, a top-level [let] resets it (straight-line
   approximation — lock/unlock pairs that span functions are invisible,
   as is [Fun.protect ~finally:unlock], whose unlock appears first
   textually).  [Condition.wait] is exempt: it releases the mutex. *)

let blocking_calls =
  [
    "Unix.read"; "Unix.write"; "Unix.accept"; "Unix.connect"; "Unix.select";
    "Unix.sleep"; "Unix.sleepf"; "Thread.delay"; "Thread.join"; "Domain.join";
    "Mailbox.put"; "Mailbox.take"; "Wire.send"; "Wire.send_many"; "Wire.recv";
  ]

let check_lock_hygiene (m : Source_model.t) =
  let acc = ref [] in
  let held = ref 0 in
  Array.iter
    (fun (t : Source_model.tok) ->
      if t.t_s = "let" && t.t_col = 0 then held := 0
      else if t.t_s = "Mutex.lock" then incr held
      else if t.t_s = "Mutex.unlock" then held := max 0 (!held - 1)
      else if !held > 0 && List.mem t.t_s blocking_calls then
        acc := mk_finding m t.t_line "lock-hygiene" :: !acc)
    m.tokens;
  List.rev !acc

(* --- rule: swallowed-exception ---

   [try ... with _ ->] (or a [_]-prefixed binder) eats every exception —
   including [Wire.Desync], [Codec.Error] and asynchronous ones — and
   turns a crash into a silently wrong continuation.  The try/match stack
   distinguishes the two [with]s, so [match x with _ -> ...] stays quiet;
   [| exception _ ->] is the match-form of the same trap and is flagged
   anywhere. *)

let check_swallowed (m : Source_model.t) =
  let acc = ref [] in
  let stack = ref [] in
  let toks = m.Source_model.tokens in
  let n = Array.length toks in
  let tok i = if i < n then toks.(i).Source_model.t_s else "" in
  let wildcard s =
    s <> "" && s.[0] = '_' && String.for_all is_ident s
  in
  for i = 0 to n - 1 do
    match tok i with
    | "try" -> stack := `Try :: !stack
    | "match" -> stack := `Match :: !stack
    | "with" -> (
        let top =
          match !stack with
          | t :: rest ->
              stack := rest;
              Some t
          | [] -> None
        in
        match top with
        | Some `Try ->
            let j = if tok (i + 1) = "|" then i + 2 else i + 1 in
            if wildcard (tok j) && tok (j + 1) = "->" then
              acc := mk_finding m toks.(j).Source_model.t_line "swallowed-exception" :: !acc
        | _ -> ())
    | "exception" ->
        if wildcard (tok (i + 1)) && tok (i + 2) = "->" then
          acc :=
            mk_finding m toks.(i + 1).Source_model.t_line "swallowed-exception"
            :: !acc
    | _ -> ()
  done;
  List.rev !acc

(* --- rule: unused-suppression (driver-implemented) ---

   A [(* lint: allow ... *)] pragma that suppressed nothing — or names an
   unknown rule — is reported here, so stale suppressions cannot
   accumulate and typos cannot silently disable a gate.  The check lives
   in the scan driver (it needs the other rules' post-filter findings);
   the registry entry exists so the rule can be listed, selected and
   self-tested like any other. *)

let check_unused_suppression (_ : Source_model.t) = []

(* --- registry --------------------------------------------------------------- *)

let rules =
  [
    {
      name = "poly-hash";
      doc = "Hashtbl.hash on interned history values";
      check = check_poly_hash;
      positive = "let f h = Hashtbl.hash h\n";
      negative = "let f h = Event.hash h\n";
    };
    {
      name = "poly-compare";
      doc = "Stdlib.compare or bare polymorphic compare";
      check = check_poly_compare;
      positive = "let f xs = List.sort compare xs\n";
      negative = "let compare a b = Int.compare a b\n";
    };
    {
      name = "poly-eq";
      doc = "polymorphic =/<> on Event./History./Txn. values";
      check = check_poly_eq;
      positive = "let f e ev = e = Event.Inv (1, ev)\n";
      negative = "let f t = t.status = Txn.Committed\n";
    };
    {
      name = "quadratic-hot-path";
      doc = "tail-append or linear List scan inside a loop";
      check = check_quadratic;
      positive =
        "let f items acc0 =\n\
        \  List.fold_left (fun acc x -> acc @ [ x ]) acc0 items\n";
      negative = "let f items last = items @ [ last ]\n";
    };
    {
      name = "ordering-nondeterminism";
      doc = "Hashtbl.iter/fold feeding order-sensitive computation";
      check = check_ordering;
      positive = "let f tbl =\n  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []\n";
      negative =
        "let f tbl =\n\
        \  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []\n\
        \  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)\n";
    };
    {
      name = "domain-safety";
      doc = "unsynchronized module-level mutable state in a domain-spawning module";
      check = check_domain_safety;
      positive =
        "let shared = ref 0\n\
         let go () = Domain.spawn (fun () -> incr shared)\n";
      negative =
        "let shared = Atomic.make 0\n\
         let go () = Domain.spawn (fun () -> Atomic.incr shared)\n";
    };
    {
      name = "lock-hygiene";
      doc = "blocking call while holding a Mutex";
      check = check_lock_hygiene;
      positive =
        "let f m fd buf =\n\
        \  Mutex.lock m;\n\
        \  let n = Unix.read fd buf 0 1 in\n\
        \  Mutex.unlock m;\n\
        \  n\n";
      negative =
        "let f m fd buf =\n\
        \  Mutex.lock m;\n\
        \  let n = pending m in\n\
        \  Mutex.unlock m;\n\
        \  Unix.read fd buf 0 n\n";
    };
    {
      name = "swallowed-exception";
      doc = "try ... with _ -> catch-all (or | exception _ ->)";
      check = check_swallowed;
      positive = "let f g x = try g x with _ -> 0\n";
      negative = "let f x = match x with _ -> 0\n";
    };
    {
      name = "unused-suppression";
      doc = "lint pragma that suppresses nothing (or names an unknown rule)";
      check = check_unused_suppression;
      positive = "(* lint: allow poly-hash *)\nlet x = 1\n";
      negative = "(* lint: allow poly-hash *)\nlet f h = Hashtbl.hash h\n";
    };
  ]

let rule_names = List.map (fun r -> r.name) rules
let rule_docs = List.map (fun r -> (r.name, r.doc)) rules

(* Per-rule file exemptions (by basename), each with a reviewed reason —
   the documented-whitelist arm of the false-positive policy (the other
   arm is inline pragmas; prefer those for single sites). *)
let rule_whitelist =
  [
    (* The certificate search's prefilter, the certificate validator and
       the monitor scan a transaction's commit choices (at most 2) and its
       final or closing writes (one per variable it wrote).  The DPOR
       explorer's [en]/[sleep] lists are bounded by the thread count.
       [dot.ml] renders counterexample cycles (length = cycle length,
       tiny by construction).  The lint itself scans the fixed
       rule/keyword tables inside its token loops. *)
    ("quadratic-hot-path",
     [ "search.ml"; "serialization.ml"; "monitor.ml"; "explore.ml";
       "dot.ml"; "lint.ml" ]);
    (* The lint's own rule docs and self-test fixtures spell out pragma
       markers that the raw-text pragma parser would otherwise report. *)
    ("unused-suppression", [ "lint.ml" ]);
  ]

let whitelisted rule file =
  match List.assoc_opt rule rule_whitelist with
  | Some bases -> List.mem (Filename.basename file) bases
  | None -> false

(* --- driver ---------------------------------------------------------------- *)

let unknown_rules names =
  List.filter (fun r -> not (List.mem r rule_names)) names

let scan_source ?(rules_enabled = rule_names) ~file src =
  let m = Source_model.of_source ~file src in
  let enabled r = List.mem r.name rules_enabled in
  let raw =
    List.concat_map (fun r -> if enabled r then r.check m else []) rules
    |> List.filter (fun f -> not (whitelisted f.rule file))
  in
  (* pragma suppression: a pragma covers the lines its comment spans plus
     the line directly below the close *)
  let suppressed f =
    List.exists
      (fun (p : Source_model.pragma) ->
        if
          f.line >= p.p_line
          && f.line <= p.p_end + 1
          && List.mem f.rule p.p_rules
        then begin
          p.p_used <- true;
          true
        end
        else false)
      m.pragmas
  in
  let kept = List.filter (fun f -> not (suppressed f)) raw in
  let unused =
    if
      (not (List.mem "unused-suppression" rules_enabled))
      || whitelisted "unused-suppression" file
    then []
    else
      List.filter_map
        (fun (p : Source_model.pragma) ->
          let unknown = unknown_rules p.p_rules in
          if p.p_rules = [] then
            Some
              {
                file;
                line = p.p_line;
                rule = "unused-suppression";
                text = "pragma names no rules";
              }
          else if unknown <> [] then
            Some
              {
                file;
                line = p.p_line;
                rule = "unused-suppression";
                text = "pragma names unknown rule(s): " ^ String.concat ", " unknown;
              }
          else if not p.p_used then
            Some
              {
                file;
                line = p.p_line;
                rule = "unused-suppression";
                text =
                  "pragma suppresses nothing: " ^ String.concat " " p.p_rules;
              }
          else None)
        m.pragmas
  in
  List.sort
    (fun a b ->
      match Int.compare a.line b.line with
      | 0 -> String.compare a.rule b.rule
      | c -> c)
    (kept @ unused)

let scan_files ?(whitelist = default_whitelist) ?rules_enabled files =
  List.concat_map
    (fun file ->
      if List.mem (Filename.basename file) whitelist then []
      else
        let ic = open_in_bin file in
        let len = in_channel_length ic in
        let src = really_input_string ic len in
        close_in ic;
        scan_source ?rules_enabled ~file src)
    files

let scan_roots ?whitelist ?rules_enabled roots =
  let files = ref [] in
  let rec walk dir =
    match Sys.readdir dir with
    | entries ->
        Array.sort String.compare entries;
        Array.iter
          (fun e ->
            if e <> "" && e.[0] <> '.' && e <> "_build" then
              let p = Filename.concat dir e in
              if Sys.is_directory p then walk p
              else if Filename.check_suffix e ".ml" then files := p :: !files)
          entries
    | exception Sys_error _ -> ()
  in
  List.iter (fun r -> if Sys.file_exists r then walk r) roots;
  scan_files ?whitelist ?rules_enabled (List.sort String.compare !files)

(* --- output ----------------------------------------------------------------- *)

let pp_finding ppf f =
  Fmt.pf ppf "%s:%d: [%s] %s" f.file f.line f.rule f.text

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let report_json ?(rules_run = rule_names) findings =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"rules\": [";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Fmt.str "%S" r))
    rules_run;
  Buffer.add_string b "],\n";
  Buffer.add_string b (Fmt.str "  \"count\": %d,\n" (List.length findings));
  Buffer.add_string b "  \"findings\": [";
  List.iteri
    (fun i f ->
      Buffer.add_string b (if i > 0 then ",\n    " else "\n    ");
      Buffer.add_string b
        (Fmt.str
           "{\"file\": \"%s\", \"line\": %d, \"rule\": \"%s\", \"text\": \"%s\"}"
           (json_escape f.file) f.line (json_escape f.rule) (json_escape f.text)))
    findings;
  Buffer.add_string b (if findings = [] then "]\n}\n" else "\n  ]\n}\n");
  Buffer.contents b

(* --- self-test -------------------------------------------------------------- *)

let self_test () =
  List.map
    (fun r ->
      let fires src =
        List.exists
          (fun f -> f.rule = r.name)
          (scan_source ~file:("selftest/" ^ r.name ^ ".ml") src)
      in
      (r.name, fires r.positive && not (fires r.negative)))
    rules
