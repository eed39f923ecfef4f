module Du = Tm_checker.Du_opacity
module Lu = Tm_checker.Last_use_opacity
module Conflict_graph = Tm_checker.Conflict_graph
module Monitor = Tm_checker.Monitor
module Verdict = Tm_checker.Verdict
module Serialization = Tm_checker.Serialization
module Shrink = Tm_checker.Shrink
module Clock = Tm_stm.Clock

(* --- findings ----------------------------------------------------------- *)

type finding_kind =
  | Verdict_mismatch
  | Bad_certificate
  | Prefix_violation
  | Containment_violation
  | Crash

type finding = {
  f_kind : finding_kind;
  f_path_a : string;
  f_path_b : string;
  f_detail : string;
}

let kind_to_string = function
  | Verdict_mismatch -> "verdict-mismatch"
  | Bad_certificate -> "bad-certificate"
  | Prefix_violation -> "prefix-closure-violation"
  | Containment_violation -> "containment-violation"
  | Crash -> "crash"

let pp_finding ppf f =
  Fmt.pf ppf "%s [%s/%s]: %s" (kind_to_string f.f_kind) f.f_path_a f.f_path_b
    f.f_detail

type timing = { t_path : string; t_seconds : float; t_events : int }

type lockstep_result = {
  findings : finding list;
  timings : timing list;
  unknown : bool;
  closure_gap : bool;
}

(* Every verdict source reduces to three-valued agreement.  [Unk3] (a
   budget-bounded search gave up) never counts as a discrepancy: the paths
   search differently, so their budgets exhaust differently. *)
type v3 = Ok3 | Bad3 | Unk3

let v3_name = function Ok3 -> "ok" | Bad3 -> "violation" | Unk3 -> "unknown"

let v3_of_verdict = function
  | Verdict.Sat _ -> Ok3
  | Verdict.Unsat _ -> Bad3
  | Verdict.Unknown _ -> Unk3

let v3_of_outcome = function
  | `Ok -> Ok3
  | `Violation _ -> Bad3
  | `Budget _ -> Unk3

(* --- the lockstep oracle ------------------------------------------------- *)

let lockstep ?(max_nodes = 2_000_000) ?submit h =
  let n = History.length h in
  let findings = ref [] and timings = ref [] in
  let add kind a b detail =
    findings :=
      { f_kind = kind; f_path_a = a; f_path_b = b; f_detail = detail }
      :: !findings
  in
  (* Each path runs under its own clock and its own exception barrier: a
     raising checker is itself a classified divergence, not a soak crash. *)
  let timed path f =
    let t0 = Clock.now () in
    let r = try Ok (f ()) with e -> Error e in
    timings :=
      { t_path = path; t_seconds = Clock.now () -. t0; t_events = n }
      :: !timings;
    match r with
    | Ok v -> Some v
    | Error e ->
        add Crash path "-" (Printexc.to_string e);
        None
  in
  let validate_cert path hp cert =
    match Serialization.validate ~claim:Serialization.Du_opaque hp cert with
    | Ok () -> ()
    | Error why ->
        add Bad_certificate path "-"
          (Fmt.str "prefix %d: %s" (History.length hp) why)
  in
  (* Batch path: the exact search on the full history. *)
  let batch =
    timed "batch" (fun () ->
        let v = Du.check ~max_nodes h in
        (match v with Verdict.Sat c -> validate_cert "batch" h c | _ -> ());
        v3_of_verdict v)
  in
  (* Conflict-graph backend on the full history.  [Ambiguous] maps to
     [Unk3]: after a heuristic choice led into a contradiction the graph
     soundly declines rather than guessing, and [Unk3] never counts as a
     discrepancy. *)
  let graph =
    timed "graph" (fun () ->
        match Conflict_graph.check h with
        | Conflict_graph.Sat c ->
            validate_cert "graph" h c;
            Ok3
        | Conflict_graph.Unsat _ -> Bad3
        | Conflict_graph.Ambiguous _ -> Unk3)
  in
  (* Incremental path: one [check_inc] per response boundary over a
     persistent context, stopping at the first non-ok verdict (the
     prefix-closure re-checks below cover what follows). *)
  let bs = History.boundaries h in
  let validate_prefix_certs = n <= 160 in
  let inc_first_bad = ref None in
  let inc_verdicts = ref [] in
  let inc =
    timed "inc" (fun () ->
        let inc = Du.incremental () in
        let rec go last = function
          | [] -> last
          | b :: rest -> (
              let hp = History.prefix h b in
              let v, _stats = Du.check_inc ~max_nodes inc hp in
              (match v with
              | Verdict.Sat c when validate_prefix_certs ->
                  validate_cert "inc" hp c
              | _ -> ());
              let s = v3_of_verdict v in
              inc_verdicts := (b, s) :: !inc_verdicts;
              match s with
              | Ok3 -> go s rest
              | Bad3 ->
                  inc_first_bad := Some b;
                  s
              | Unk3 -> s)
        in
        go Ok3 bs)
  in
  (* Online monitor, event by event; its per-event outcomes line up with
     the incremental path's per-boundary verdicts. *)
  let mon_by_event = Array.make (max n 1) Unk3 in
  let mon_first_bad = ref None in
  let monitor =
    timed "monitor" (fun () ->
        let m = Monitor.create ~max_nodes () in
        List.iteri
          (fun i ev -> mon_by_event.(i) <- v3_of_outcome (Monitor.push m ev))
          (History.to_list h);
        (match Monitor.status m with
        | `Ok -> (
            match Monitor.certificate m with
            | Some c -> validate_cert "monitor" h c
            | None -> add Bad_certificate "monitor" "-" "ok without certificate")
        | `Violation _ | `Budget _ -> ());
        mon_first_bad := Monitor.violation_index m;
        v3_of_outcome (Monitor.status m))
  in
  (* The same engine as the service drives it: events ingested, certified
     at a handful of intermediate boundaries and at the end — intermediate
     certifies exercise the graph's incremental state, the final one
     settles the verdict.  A batch certify the graph cannot settle replays
     its window response by response, so the designed invariant is parity
     with the monitor leg: final verdict, and first violating prefix when
     both blame one. *)
  let ses_first_bad = ref None in
  let session =
    timed "session" (fun () ->
        let m = Monitor.create ~max_nodes () in
        let certify_at =
          let stride = max 1 (List.length bs / 6) in
          List.filteri (fun i _ -> i mod stride = stride - 1) bs
        in
        List.iteri
          (fun i ev ->
            ignore (Monitor.ingest m ev);
            (* lint: allow quadratic-hot-path — certify_at has ≤ 6 points *)
            if List.mem (i + 1) certify_at then ignore (Monitor.certify m))
          (History.to_list h);
        let v = Monitor.certify m in
        Option.iter (validate_cert "session" h) (Monitor.certificate m);
        ses_first_bad := Monitor.violation_index m;
        v3_of_outcome v)
  in
  (* Last-use-opacity legs: the batch checker and the per-boundary
     incremental one.  The criterion is not prefix-closed, so the
     incremental path is exact per prefix (never sticky) and every
     boundary gets its own verdict; the verdict at the last boundary is
     the verdict on the full history, which must match the batch leg. *)
  let validate_lu_cert path hp cert =
    match Serialization.validate ~claim:Serialization.Last_use hp cert with
    | Ok () -> ()
    | Error why ->
        add Bad_certificate path "-"
          (Fmt.str "prefix %d: %s" (History.length hp) why)
  in
  let lu =
    timed "lu" (fun () ->
        let v = Lu.check ~max_nodes h in
        (match v with Verdict.Sat c -> validate_lu_cert "lu" h c | _ -> ());
        v3_of_verdict v)
  in
  let lu_inc_verdicts = ref [] in
  let lu_inc =
    timed "lu-inc" (fun () ->
        let inc = Lu.incremental () in
        List.fold_left
          (fun _ b ->
            let hp = History.prefix h b in
            let v, _stats = Lu.check_inc ~max_nodes inc hp in
            (match v with
            | Verdict.Sat c when validate_prefix_certs ->
                validate_lu_cert "lu-inc" hp c
            | _ -> ());
            let s = v3_of_verdict v in
            lu_inc_verdicts := (b, s) :: !lu_inc_verdicts;
            s)
          Ok3 bs)
  in
  (* Cross-checks.  Any two decided paths must agree. *)
  let cmp a b va vb ctx =
    match va, vb with
    | Some va, Some vb when va <> Unk3 && vb <> Unk3 && va <> vb ->
        add Verdict_mismatch a b
          (Fmt.str "%s%s=%s %s=%s" ctx a (v3_name va) b (v3_name vb))
    | _ -> ()
  in
  cmp "batch" "graph" batch graph "";
  cmp "inc" "monitor" inc monitor "";
  cmp "monitor" "session" monitor session "";
  cmp "lu" "lu-inc" lu lu_inc "";
  (* Containment as an executable theorem: du-opaque ⇒ last-use-opaque
     (optional candidate visibility makes every du witness verbatim a
     last-use witness).  Checked on the full history and, against the du
     incremental path, per boundary — the sticky du path stops at its
     first violation, so missing boundaries are simply not compared. *)
  (match batch, lu with
  | Some Ok3, Some Bad3 ->
      add Containment_violation "batch" "lu"
        "du-opaque but not last-use-opaque"
  | _ -> ());
  List.iter
    (fun (b, vl) ->
      (* lint: allow quadratic-hot-path — one verdict per certify point, ≤ 6 *)
      match List.assoc_opt b !inc_verdicts with
      | Some Ok3 when vl = Bad3 ->
          add Containment_violation "inc" "lu-inc"
            (Fmt.str "prefix %d: du-opaque but not last-use-opaque" b)
      | _ -> ())
    !lu_inc_verdicts;
  (* Per-prefix agreement: the monitor's outcome after event [b-1] is its
     verdict on the prefix of length [b], which the incremental path judged
     independently. *)
  if monitor <> None then
    List.iter
      (fun (b, vi) ->
        let vm = mon_by_event.(b - 1) in
        if vi <> Unk3 && vm <> Unk3 && vi <> vm then
          add Verdict_mismatch "inc" "monitor"
            (Fmt.str "prefix %d: inc=%s monitor=%s" b (v3_name vi)
               (v3_name vm)))
      !inc_verdicts;
  (* Both violating: they must blame the same first prefix. *)
  (match !inc_first_bad, !mon_first_bad with
  | Some i, Some j when i <> j && inc = Some Bad3 && monitor = Some Bad3 ->
      add Verdict_mismatch "inc" "monitor"
        (Fmt.str "first violating prefix: inc=%d monitor=%d" i j)
  | _ -> ());
  (match !mon_first_bad, !ses_first_bad with
  | Some i, Some j when i <> j && monitor = Some Bad3 && session = Some Bad3
    ->
      add Verdict_mismatch "monitor" "session"
        (Fmt.str "first violating prefix: monitor=%d session=%d" i j)
  | _ -> ());
  (* The sticky paths decide {e prefix} du-opacity — du-opacity of every
     response-boundary prefix, i.e. the safety closure of du-opacity.  Under
     unique writes that coincides with the batch verdict (Corollary 2); with
     duplicate written values an extension can resurrect a dead prefix
     ({!Tm_figures.Findings.corollary2_gap}, found by this harness), so a
     sticky violation against a batch acceptance is arbitrated by re-judging
     the blamed prefix from scratch:
     - the fresh check accepts it: the incremental state was wrong — finding;
     - it confirms on a unique-writes history: Corollary 2 itself is
       violated — finding;
     - it confirms with duplicate writes: a benign closure gap, reported as
       a statistic, not a discrepancy. *)
  let gap = ref false in
  let arb_unknown = ref false in
  (match !inc_first_bad, !mon_first_bad with
  | None, None -> ()
  | (Some _ as fb), _ | None, (Some _ as fb) ->
      let i = Option.get fb in
      let later =
        List.filteri (fun idx _ -> idx < 2) (List.filter (fun b -> b > i) bs)
      in
      ignore
        (timed "closure" (fun () ->
             let unique = History.unique_writes h in
             let resurrection b =
               if unique then
                 add Prefix_violation "batch" "-"
                   (Fmt.str
                      "prefix %d violates but extension %d is accepted on a \
                       unique-writes history (Corollary 2)"
                      i b)
               else gap := true
             in
             match Du.check ~max_nodes (History.prefix h i) with
             | Verdict.Sat _ ->
                 add Verdict_mismatch "closure"
                   (if !inc_first_bad <> None then "inc" else "monitor")
                   (Fmt.str
                      "prefix %d: a fresh check accepts the prefix the \
                       sticky paths blame"
                      i)
             | Verdict.Unknown _ -> arb_unknown := true
             | Verdict.Unsat _ ->
                 List.iter
                   (fun b ->
                     match Du.check ~max_nodes (History.prefix h b) with
                     | Verdict.Sat _ -> resurrection b
                     | Verdict.Unsat _ | Verdict.Unknown _ -> ())
                   later;
                 (* The batch acceptance of the full history is itself the
                    extension that outlives the dead prefix. *)
                 (match batch with
                 | Some Ok3 when i < n -> resurrection n
                 | _ -> ()))));
  (* Batch (du-opacity of the full history) against the sticky paths
     (its safety closure): a sticky acceptance with a batch violation is
     always wrong — the full history is the last prefix.  The converse
     was arbitrated above. *)
  List.iter
    (fun (name, v) ->
      match batch, v with
      | Some Bad3, Some Ok3 ->
          add Verdict_mismatch "batch" name
            (Fmt.str
               "batch=violation %s=ok (the full history is itself a prefix)"
               name)
      | _ -> ())
    [ ("inc", inc); ("monitor", monitor); ("session", session) ];
  (* Loopback service round-trip on the final verdict. *)
  (match submit with
  | None -> ()
  | Some f -> (
      match timed "serve" (fun () -> v3_of_outcome (f h)) with
      | Some vs -> cmp "monitor" "serve" monitor (Some vs) ""
      | None -> ()));
  let unknown =
    !arb_unknown
    || List.exists
         (fun v -> v = Some Unk3)
         [ batch; inc; monitor; session; lu; lu_inc ]
    || List.exists (fun (_, v) -> v = Unk3) !inc_verdicts
    || List.exists (fun (_, v) -> v = Unk3) !lu_inc_verdicts
    || Array.exists (fun v -> v = Unk3) (Array.sub mon_by_event 0 n)
  in
  {
    findings = List.rev !findings;
    timings = !timings;
    unknown;
    closure_gap = !gap;
  }

(* --- history sources ----------------------------------------------------- *)

type source = [ `Gen | `Stm of string | `Faults of string ]

let default_sources =
  [
    `Gen; `Stm "tl2"; `Gen; `Stm "norec"; `Faults "tl2"; `Gen;
    `Stm "pessimistic"; `Faults "norec"; `Stm "early-release";
    `Stm "partial-abort"; `Faults "early-release";
  ]

let source_tag = function
  | `Gen -> "gen"
  | `Stm stm -> stm
  | `Faults stm -> "faults-" ^ stm

let source_of_tag t =
  let stm_of name =
    match Tm_stm.Registry.find name with
    | Some _ -> Ok name
    | None -> Error (Fmt.str "unknown STM algorithm %S" name)
  in
  if t = "gen" then Ok `Gen
  else
    match String.index_opt t '-' with
    | Some 6 when String.sub t 0 6 = "faults" ->
        Result.map
          (fun s -> `Faults s)
          (stm_of (String.sub t 7 (String.length t - 7)))
    | _ -> Result.map (fun s -> `Stm s) (stm_of t)

(* Shape parameters are themselves drawn from the seed, so a soak sweeps
   transaction counts, concurrency degrees, value modes, contention levels
   and fault plans without any extra configuration surface. *)
let gen_params ~seed =
  let st = Random.State.make [| seed; 0x9e37 |] in
  let pick a = a.(Random.State.int st (Array.length a)) in
  {
    Gen.default with
    Gen.n_txns = 4 + Random.State.int st 9;
    n_vars = 2 + Random.State.int st 3;
    n_threads = 2 + Random.State.int st 3;
    max_ops = 2 + Random.State.int st 4;
    mode =
      (if Random.State.int st 4 = 0 then `Random_values else `Snapshot_values);
    pending_ratio = pick [| 0.0; 0.1; 0.25 |];
  }

let stm_params ~seed =
  let st = Random.State.make [| seed; 0x85eb |] in
  {
    Tm_stm.Workload.default with
    Tm_stm.Workload.n_threads = 2 + Random.State.int st 3;
    txns_per_thread = 2 + Random.State.int st 3;
    ops_per_txn = 2 + Random.State.int st 3;
    n_vars = 2 + Random.State.int st 3;
    zipf_theta = (if Random.State.int st 2 = 0 then 0.0 else 0.9);
  }

let produce src ~seed =
  match src with
  | `Gen -> Gen.run_seed (gen_params ~seed) seed
  | `Stm stm ->
      (Tm_sim.Runner.run ~stm ~params:(stm_params ~seed) ~seed ())
        .Tm_sim.Runner.history
  | `Faults stm ->
      let params = stm_params ~seed in
      let spec =
        Tm_stm.Faults.sample ~kinds:Tm_stm.Faults.all_kinds
          ~n_threads:params.Tm_stm.Workload.n_threads
          ~horizon:
            (params.Tm_stm.Workload.txns_per_thread
            * (params.Tm_stm.Workload.ops_per_txn + 1))
          ~seed ()
      in
      (Tm_sim.Runner.run ~faults:spec ~stm ~params ~seed ())
        .Tm_sim.Runner.history

(* --- the soak runner ----------------------------------------------------- *)

type discrepancy = {
  d_iter : int;
  d_seed : int;
  d_source : string;
  d_findings : finding list;
  d_history : History.t;
  d_shrunk : History.t;
  d_shrink_checks : int;
}

type config = {
  base_seed : int;
  iters : int option;
  seconds : float option;
  jobs : int;
  max_nodes : int;
  sources : source list;
  serve : Tm_service.Wire.addr option;
  corpus_dir : string option;
  log : string -> unit;
}

let config ?(base_seed = 1) ?iters ?seconds ?(jobs = 1)
    ?(max_nodes = 2_000_000) ?(sources = default_sources) ?serve ?corpus_dir
    ?(log = ignore) () =
  if jobs <= 0 then invalid_arg "Oracle.config: jobs must be positive";
  if sources = [] then invalid_arg "Oracle.config: no sources";
  (* Unbounded soaks must be asked for explicitly with [seconds]. *)
  let iters =
    match iters, seconds with None, None -> Some 200 | _ -> iters
  in
  { base_seed; iters; seconds; jobs; max_nodes; sources; serve; corpus_dir; log }

type path_stat = { p_path : string; p_seconds : float; p_events : int }

type report = {
  r_iterations : int;
  r_events : int;
  r_wall_s : float;
  r_unknowns : int;
  r_closure_gaps : int;
  r_paths : path_stat list;
  r_discrepancies : discrepancy list;
  r_shrink_checks : int;
  r_corpus_written : string list;
}

type acc = {
  mutable a_iters : int;
  mutable a_events : int;
  mutable a_unknowns : int;
  mutable a_closure_gaps : int;
  mutable a_discrepancies : discrepancy list;
  mutable a_shrink_checks : int;
  a_paths : (string, float * int) Hashtbl.t;
}

let repro_text d =
  let base = d.d_seed - d.d_iter in
  let b = Buffer.create 512 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "# tm soak discrepancy — deterministic repro";
  line "# source: %s  seed: %d  iter: %d" d.d_source d.d_seed d.d_iter;
  line "# kinds: %s"
    (String.concat ", "
       (List.sort_uniq String.compare
          (List.map (fun f -> kind_to_string f.f_kind) d.d_findings)));
  List.iter (fun f -> line "#   %s" (Fmt.str "%a" pp_finding f)) d.d_findings;
  line "# shrunk: %d events (from %d; %d lockstep checks)"
    (History.length d.d_shrunk)
    (History.length d.d_history)
    d.d_shrink_checks;
  line "# re-derive: tm soak --seed %d --iters %d" base (d.d_iter + 1);
  line "# the body below parses as a history; corpus/soak/ is replayed by `dune runtest`";
  Buffer.add_string b (Parse.to_text d.d_shrunk);
  Buffer.add_char b '\n';
  Buffer.contents b

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_corpus ~dir d =
  mkdir_p dir;
  let path = Filename.concat dir (Fmt.str "%s-s%d.repro" d.d_source d.d_seed) in
  let oc = open_out path in
  output_string oc (repro_text d);
  close_out oc;
  path

let run cfg =
  let t0 = Clock.now () in
  let deadline = Option.map (fun s -> t0 +. s) cfg.seconds in
  let next = Atomic.make 0 in
  let mu = Mutex.create () in
  let acc =
    {
      a_iters = 0;
      a_events = 0;
      a_unknowns = 0;
      a_closure_gaps = 0;
      a_discrepancies = [];
      a_shrink_checks = 0;
      a_paths = Hashtbl.create 8;
    }
  in
  let sources = Array.of_list cfg.sources in
  let n_sources = Array.length sources in
  let worker () =
    (* One loopback connection per worker: the client is not thread-safe,
       and per-worker sessions keep the server path genuinely concurrent. *)
    let client =
      match cfg.serve with
      | None -> None
      | Some addr -> (
          try Some (Tm_service.Client.connect addr)
          with e ->
            cfg.log
              (Fmt.str "soak: loopback connect failed (%s); serve path off"
                 (Printexc.to_string e));
            None)
    in
    let submit =
      Option.map
        (fun client ->
          let sid = ref 0 in
          fun h ->
            incr sid;
            match
              (Tm_service.Client.submit ~session:!sid client h)
                .Tm_service.Protocol.status
            with
            | Tm_service.Protocol.S_ok -> `Ok
            | Tm_service.Protocol.S_violation why -> `Violation why
            | Tm_service.Protocol.S_budget why -> `Budget why)
        client
    in
    let rec loop () =
      let expired =
        match deadline with Some d -> Clock.now () > d | None -> false
      in
      if not expired then begin
        let i = Atomic.fetch_and_add next 1 in
        let within = match cfg.iters with Some n -> i < n | None -> true in
        if within then begin
          let seed = cfg.base_seed + i in
          let src = sources.(i mod n_sources) in
          let tag = source_tag src in
          let h = produce src ~seed in
          let r = lockstep ~max_nodes:cfg.max_nodes ?submit h in
          let disc =
            if r.findings = [] then None
            else begin
              cfg.log
                (Fmt.str "soak: DISCREPANCY at iter %d (%s, seed %d): %s" i
                   tag seed
                   (String.concat "; "
                      (List.map (Fmt.str "%a" pp_finding) r.findings)));
              (* Minimise under "the paths still disagree" — any
                 disagreement, not necessarily the original one, so the
                 shrink can cross from a symptom to its root cause.  The
                 serve path is excluded: wire round-trips are slow and the
                 monitor path already covers the same verdict source. *)
              let checks = ref 0 in
              let bad h' =
                incr checks;
                (lockstep ~max_nodes:cfg.max_nodes h').findings <> []
              in
              let shrunk =
                match Shrink.minimal ~bad h with Some s -> s | None -> h
              in
              Some
                {
                  d_iter = i;
                  d_seed = seed;
                  d_source = tag;
                  d_findings = r.findings;
                  d_history = h;
                  d_shrunk = shrunk;
                  d_shrink_checks = !checks;
                }
            end
          in
          Mutex.lock mu;
          acc.a_iters <- acc.a_iters + 1;
          acc.a_events <- acc.a_events + History.length h;
          if r.unknown then acc.a_unknowns <- acc.a_unknowns + 1;
          if r.closure_gap then acc.a_closure_gaps <- acc.a_closure_gaps + 1;
          List.iter
            (fun t ->
              let s, e =
                try Hashtbl.find acc.a_paths t.t_path
                with Not_found -> (0., 0)
              in
              Hashtbl.replace acc.a_paths t.t_path
                (s +. t.t_seconds, e + t.t_events))
            r.timings;
          (match disc with
          | Some d ->
              acc.a_discrepancies <- d :: acc.a_discrepancies;
              acc.a_shrink_checks <- acc.a_shrink_checks + d.d_shrink_checks
          | None -> ());
          Mutex.unlock mu;
          loop ()
        end
      end
    in
    loop ();
    Option.iter Tm_service.Client.close client
  in
  if cfg.jobs = 1 then worker ()
  else
    Array.iter Domain.join (Array.init cfg.jobs (fun _ -> Domain.spawn worker));
  let discrepancies =
    List.sort (fun a b -> Int.compare a.d_iter b.d_iter) acc.a_discrepancies
  in
  let written =
    match cfg.corpus_dir with
    | None -> []
    | Some dir -> List.map (fun d -> write_corpus ~dir d) discrepancies
  in
  let paths =
    Hashtbl.fold
      (fun p (s, e) l -> { p_path = p; p_seconds = s; p_events = e } :: l)
      acc.a_paths []
    |> List.sort (fun a b -> String.compare a.p_path b.p_path)
  in
  {
    r_iterations = acc.a_iters;
    r_events = acc.a_events;
    r_wall_s = Clock.now () -. t0;
    r_unknowns = acc.a_unknowns;
    r_closure_gaps = acc.a_closure_gaps;
    r_paths = paths;
    r_discrepancies = discrepancies;
    r_shrink_checks = acc.a_shrink_checks;
    r_corpus_written = written;
  }

(* --- JSON report ---------------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 ->
          Buffer.add_string b (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let report_json cfg r =
  let per_s seconds events =
    if seconds <= 0. then 0. else float_of_int events /. seconds
  in
  let path_json p =
    Fmt.str
      {|    {"path": %S, "seconds": %.6f, "events": %d, "events_per_s": %.1f}|}
      p.p_path p.p_seconds p.p_events
      (per_s p.p_seconds p.p_events)
  in
  let disc_json d =
    Fmt.str
      {|    {"iter": %d, "seed": %d, "source": %S, "kinds": [%s],
     "events": %d, "shrunk_events": %d, "shrink_checks": %d,
     "text": "%s"}|}
      d.d_iter d.d_seed d.d_source
      (String.concat ", "
         (List.sort_uniq String.compare
            (List.map
               (fun f -> Fmt.str "%S" (kind_to_string f.f_kind))
               d.d_findings)))
      (History.length d.d_history)
      (History.length d.d_shrunk)
      d.d_shrink_checks
      (json_escape (Parse.to_text d.d_shrunk))
  in
  let opt_int = function Some i -> string_of_int i | None -> "null" in
  let opt_float = function Some f -> Fmt.str "%.1f" f | None -> "null" in
  Fmt.str
    {|{"benchmark": "soak",
 "config": {"seed": %d, "iters": %s, "seconds": %s, "jobs": %d,
            "max_nodes": %d, "serve": %b,
            "sources": [%s]},
 "iterations": %d, "events": %d, "wall_seconds": %.3f, "unknowns": %d,
 "closure_gaps": %d,
 "paths": [
%s
 ],
 "discrepancies": [
%s
 ],
 "shrink_checks": %d,
 "corpus": [%s]}
|}
    cfg.base_seed (opt_int cfg.iters) (opt_float cfg.seconds) cfg.jobs
    cfg.max_nodes
    (cfg.serve <> None)
    (String.concat ", "
       (List.map (fun s -> Fmt.str "%S" (source_tag s)) cfg.sources))
    r.r_iterations r.r_events r.r_wall_s r.r_unknowns r.r_closure_gaps
    (String.concat ",\n" (List.map path_json r.r_paths))
    (String.concat ",\n" (List.map disc_json r.r_discrepancies))
    r.r_shrink_checks
    (String.concat ", "
       (List.map (fun p -> Fmt.str "%S" p) r.r_corpus_written))
