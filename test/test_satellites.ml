(* Regression tests for the plumbing fixed alongside the soak harness:
   the scheduler's runnable queue, the monitor's pending gauge, wire-level
   EOF semantics, and History.equivalent. *)

open Tm_safety
open Helpers

(* --- seeded scheduler golden traces -------------------------------------

   The runnable set moved from an O(n²) list to a random-access structure;
   seeded schedules must stay bit-for-bit identical or every recorded
   experiment in EXPERIMENTS.md silently changes.  These texts were captured
   before the refactor. *)

let golden_tl2_42 =
  "W2(W,83)->ok R2(Y) R3(W) R1(W) ret3:0 R3(Z) ret1:0 R1(Y) ret2:0 \
   R2(X)->0 C2 ret3:0 R3(W) ret1:0 R1(Z) ret3:A ret1:0 C1->C R5(Z) ret2:C \
   R4(W) W6(Y,56)->ok R6(X) ret5:0 W5(W,59)->ok R5(W)->59 C5 ret6:0 \
   R6(X)->0 C6 ret4:A ret5:C R8(W) R7(W)->59 R7(Z) ret8:59 R8(Z) ret7:0 \
   R7(W) ret6:C W9(X,31)->ok R9(X)->31 W9(W,72)->ok C9 ret7:59 C7->C \
   ret8:0 R8(X) R10(Z)->0 R10(Y) ret8:A ret10:56 R10(W) R11(W) ret10:A \
   ret11:A R13(W) R12(Z) ret9:C R14(Z) ret13:72 R13(Z)->0 R13(X) ret12:0 \
   R12(Y) ret14:0 R14(X) ret12:56 R12(W)->72 C12->C ret14:31 W14(X,21)->ok \
   C14 R15(Y) ret13:A R16(W) ret15:56 R15(W)->72 R15(Y) ret16:72 R16(Z) \
   ret14:C ret15:56 C15->C R17(Z) ret16:0 R16(X)->21 C16->C R18(X)->21 \
   R18(Z) ret17:0 R17(Y) ret18:0 R18(W) ret17:56 W17(X,57)->ok C17 \
   ret18:72 C18->C ret17:C"

let golden_norec_7 =
  "R1(X) W4(X,54)->ok W4(Y,48)->ok C4 R3(Z) ret1:0 R1(X) ret3:0 R3(Z) \
   R2(X)->0 R2(Z) ret1:0 C1->C ret4:C W6(Z,22)->ok W6(Y,81)->ok C6->C \
   R7(Y) W5(X,68)->ok W5(X,19)->ok C5 ret3:A ret5:C R9(Z)->22 W9(X,66)->ok \
   C9 R8(Z) ret2:A R10(X) ret8:22 R8(Z) ret9:C ret8:22 C8->C ret10:66 \
   R10(Z) R11(Z) ret7:81 W7(Z,86)->ok C7 ret10:22 C10->C ret11:22 R11(Z) \
   R12(Y)->81 R12(Z) ret7:C ret11:A R13(Z)->86 R13(Z)->86 C13->C R14(Z) \
   ret12:86 C12->C ret14:86 R14(X) W15(X,89)->ok W15(Z,99)->ok C15 \
   ret14:66 C14->C ret15:C"

let record ~stm ~threads ~txns ~ops ~vars ~seed =
  let params =
    {
      Stm.Workload.default with
      n_threads = threads;
      txns_per_thread = txns;
      ops_per_txn = ops;
      n_vars = vars;
      zipf_theta = 0.0;
    }
  in
  Parse.to_text (Sim.Runner.run ~stm ~params ~seed ()).Sim.Runner.history

let test_golden_tl2 () =
  Alcotest.(check string) "tl2 seed 42" golden_tl2_42
    (record ~stm:"tl2" ~threads:3 ~txns:4 ~ops:3 ~vars:4 ~seed:42)

let test_golden_norec () =
  Alcotest.(check string) "norec seed 7" golden_norec_7
    (record ~stm:"norec" ~threads:4 ~txns:3 ~ops:2 ~vars:3 ~seed:7)

(* --- the monitor's O(1) pending gauge ------------------------------------ *)

let recompute_pending h =
  List.length
    (List.filter (fun t -> not (Txn.is_t_complete t)) (History.infos h))

let prop_pending_gauge seed =
  (* After every event, the gauge equals the count recomputed from the
     transaction table — including histories that end with pending
     operations and live transactions. *)
  let params = { Gen.default with n_txns = 8; pending_ratio = 0.25 } in
  let h = Gen.run_seed params seed in
  let m = Monitor.create ~max_nodes:200_000 () in
  List.for_all
    (fun ev ->
      ignore (Monitor.push m ev);
      Monitor.pending_txns m = recompute_pending (Monitor.history m)
      && (Monitor.snapshot m).Monitor.pending = Monitor.pending_txns m)
    (History.to_list h)

(* --- wire EOF semantics --------------------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let write_all fd bytes =
  let n = Bytes.length bytes in
  let rec go pos = if pos < n then go (pos + Unix.write fd bytes pos (n - pos)) in
  go 0

let test_eof_at_boundary_is_closed () =
  with_socketpair (fun a b ->
      Unix.close a;
      match Service.Wire.recv b with
      | _ -> Alcotest.fail "expected Closed"
      | exception Service.Wire.Closed -> ())

let test_eof_mid_body_is_desync () =
  with_socketpair (fun a b ->
      (* A header promising 100 bytes, then 10 bytes, then EOF. *)
      let header = Bytes.create 4 in
      Bytes.set_int32_be header 0 100l;
      write_all a header;
      write_all a (Bytes.make 10 'x');
      Unix.close a;
      match Service.Wire.recv b with
      | _ -> Alcotest.fail "expected Desync"
      | exception Service.Wire.Desync _ -> ()
      | exception Service.Wire.Closed ->
          Alcotest.fail "mid-frame EOF reported as a clean close")

let test_eof_mid_header_is_desync () =
  with_socketpair (fun a b ->
      write_all a (Bytes.make 2 '\000');
      Unix.close a;
      match Service.Wire.recv b with
      | _ -> Alcotest.fail "expected Desync"
      | exception Service.Wire.Desync _ -> ()
      | exception Service.Wire.Closed ->
          Alcotest.fail "mid-header EOF reported as a clean close")

(* --- History.equivalent --------------------------------------------------- *)

(* The specification, directly: same transactions, identical per-transaction
   event subsequences.  The implementation regrouped this into a single
   pass; they must coincide on arbitrary pairs. *)
let reference_equivalent h h' =
  let txs h = List.sort compare (History.txns h) in
  let per h k =
    List.filter (fun e -> Event.tx_of e = k) (History.to_list h)
  in
  List.equal Int.equal (txs h) (txs h')
  && List.for_all
       (fun k -> List.equal Event.equal (per h k) (per h' k))
       (txs h)

(* A per-transaction-order-preserving reshuffle: equivalent by construction. *)
let reshuffle seed h =
  let st = Random.State.make [| seed; 0x5eed |] in
  let queues = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let k = Event.tx_of e in
      Hashtbl.replace queues k
        (match Hashtbl.find_opt queues k with
        | Some es -> e :: es
        | None -> [ e ]))
    (History.to_list h);
  let pending = Hashtbl.fold (fun k es l -> (k, ref (List.rev es)) :: l) queues [] in
  let out = ref [] in
  let live () = List.filter (fun (_, q) -> !q <> []) pending in
  let rec drain () =
    match live () with
    | [] -> ()
    | alive ->
        let _, q = List.nth alive (Random.State.int st (List.length alive)) in
        (match !q with
        | e :: rest ->
            q := rest;
            out := e :: !out
        | [] -> assert false);
        drain ()
  in
  drain ();
  History.of_events_exn (List.rev !out)

let prop_equivalent_matches_reference seed =
  let params = { Gen.default with n_txns = 6; pending_ratio = 0.2 } in
  let h = Gen.run_seed params seed in
  let shuffled = reshuffle seed h in
  let other = Gen.run_seed params (seed + 1) in
  let shorter =
    if History.length h > 0 then History.prefix h (History.length h - 1)
    else h
  in
  List.for_all
    (fun h' ->
      History.equivalent h h' = reference_equivalent h h'
      && History.equivalent h' h = reference_equivalent h' h)
    [ h; shuffled; other; shorter ]
  && History.equivalent h shuffled

(* --- Gen's scheduler: seeded golden traces --------------------------------

   The candidate-selection loop moved from a cons-built list indexed with
   [List.nth] (O(threads) per pick, reverse thread order) to a preallocated
   array; the index maps through [k - 1 - i], so seeded histories must stay
   bit-for-bit identical.  Captured before the refactor. *)

let golden_gen_42 =
  "R1(X)->0 A1->A R2(X) W3(X,3)->ok R3(X) ret2:0 W4(Y,2)->ok W5(Y,1) \
   W4(X,2)->ok W4(Y,3)->ok ret5:ok R5(Y) R2(Y)->0 R4(X)->2 R2(Y) ret5:1 \
   R6(Z) ret2:0 R2(Z)->0 R8(Z) C2 ret8:0 R8(Z)->0 R7(Z) W8(Y,1) W9(X,2) \
   ret2:C ret8:ok W8(Y,3) R10(Y) ret8:ok C8 ret10:0 W10(Z,2)->ok R10(Z) \
   ret8:C"

let golden_gen_7 =
  "W3(Y,1) W1(Y,2)->ok ret3:ok W3(Z,2) C1->C R4(Y)->1 R4(X)->0 W2(Y,1) \
   R4(W) R5(X) ret2:ok C2 ret4:A W6(Z,1) ret2:C ret6:ok ret5:1 R6(Z) \
   W7(Z,2) R8(Z) W9(X,3) ret7:ok R7(W) W5(Y,1) ret7:1 ret9:ok ret5:ok C7 \
   W9(X,2) W10(W,2) ret9:ok C5 W9(Z,2) ret7:C ret10:ok ret9:ok W10(Z,1) \
   C9->C ret10:ok W10(Z,1)->ok R12(X)->0 W12(X,3)->ok R11(Y)->2 C10->C \
   W12(Z,1) R11(Z)->0 ret12:ok ret5:A C12->C W14(W,2) C11 R13(Z) ret11:C"

let test_golden_gen_42 () =
  let params =
    {
      Gen.default with
      n_txns = 10;
      n_vars = 3;
      n_threads = 3;
      max_ops = 4;
      pending_ratio = 0.2;
    }
  in
  Alcotest.(check string) "gen seed 42" golden_gen_42
    (Parse.to_text (Gen.run_seed params 42))

let test_golden_gen_7 () =
  let params =
    {
      Gen.default with
      n_txns = 14;
      n_vars = 4;
      n_threads = 4;
      max_ops = 3;
      mode = `Random_values;
    }
  in
  Alcotest.(check string) "gen seed 7" golden_gen_7
    (Parse.to_text (Gen.run_seed params 7))

(* --- snapshot-isolation verdicts under the conflict-matrix rewrite --------

   The DFS's write-write lower bound moved from per-candidate [List.mem]
   scans over write sets to a precomputed conflict matrix; one verdict
   character per seed, captured before the rewrite. *)

let golden_si_verdicts =
  "SSSSSSSSSSSSSSSSSUSSUSSUSSUSSSSSSSSUSSSSSUSSUSSSSSUSSUSSSSSU"

let test_golden_si () =
  let buf = Buffer.create 64 in
  for seed = 1 to 60 do
    let params =
      {
        Gen.default with
        n_txns = 6;
        n_vars = 2;
        n_threads = 3;
        mode = (if seed mod 3 = 0 then `Random_values else `Snapshot_values);
      }
    in
    let h = Gen.run_seed params seed in
    Buffer.add_char buf
      (match Snapshot_isolation.check ~max_nodes:200_000 h with
      | Verdict.Sat _ -> 'S'
      | Verdict.Unsat _ -> 'U'
      | Verdict.Unknown _ -> '?')
  done;
  Alcotest.(check string) "SI verdicts, seeds 1..60" golden_si_verdicts
    (Buffer.contents buf)

(* --- prefix-boundary helpers: semantics and scale -------------------------- *)

let serial_history ~txns =
  let events = ref [] in
  for i = txns downto 1 do
    events :=
      Event.Inv (i, Event.Write (0, i))
      :: Event.Res (i, Event.Write_ok)
      :: Event.Inv (i, Event.Try_commit)
      :: Event.Res (i, Event.Committed)
      :: !events
  done;
  History.of_events_exn !events

let test_boundary_semantics () =
  let h = serial_history ~txns:3 in
  let n = History.length h in
  let expected = [ 2; 4; 6; 8; 10; 12 ] in
  Alcotest.(check (list int)) "ends at a response" expected
    (History.boundaries h);
  let h' =
    History.of_events_exn
      (History.to_list h @ [ Event.Inv (4, Event.Read 0) ])
  in
  Alcotest.(check (list int)) "trailing invocation appended once"
    (expected @ [ n + 1 ])
    (History.boundaries h');
  let h'' =
    History.of_events_exn
      (History.to_list h
      @ [ Event.Inv (4, Event.Read 0); Event.Inv (5, Event.Read 0) ])
  in
  Alcotest.(check (list int)) "two trailing invocations: full length once"
    (expected @ [ n + 2 ])
    (History.boundaries h'');
  Alcotest.(check (list int)) "empty" [] (History.boundaries History.empty)

let test_boundary_scale () =
  (* ≥2000 responses, many calls: the helpers are a single O(n) pass with
     no per-call scan or tail append.  A reintroduced quadratic pattern
     (scan-to-last + copy per call, compounding over calls) blows the
     generous wall-clock bound; the linear version finishes in well under
     a second. *)
  let h = serial_history ~txns:1500 in
  let h' =
    History.of_events_exn
      (History.to_list h @ [ Event.Inv (2000, Event.Read 0) ])
  in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 500 do
    ignore (History.boundaries h);
    ignore (History.boundaries h')
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed > 10.0 then
    Alcotest.failf "3000-response boundary helpers took %.1fs for 500 calls"
      elapsed

let suite =
  [
    ( "scheduler: seeded golden traces",
      [
        test "tl2 seed 42 reproduces bit-for-bit" test_golden_tl2;
        test "norec seed 7 reproduces bit-for-bit" test_golden_norec;
      ] );
    ( "gen: seeded golden traces",
      [
        test "seed 42 reproduces bit-for-bit" test_golden_gen_42;
        test "seed 7 reproduces bit-for-bit" test_golden_gen_7;
      ] );
    ( "snapshot isolation: seeded golden verdicts",
      [ test "seeds 1..60 unchanged" test_golden_si ] );
    ( "prefix boundaries",
      [
        test "response/invocation endings" test_boundary_semantics;
        slow "≥2000-response timing guard" test_boundary_scale;
      ] );
    ( "monitor: pending gauge",
      [
        qtest ~count:100 "gauge = recomputed count after every event"
          QCheck2.Gen.small_nat prop_pending_gauge;
      ] );
    ( "wire: EOF semantics",
      [
        test "EOF at a frame boundary is Closed" test_eof_at_boundary_is_closed;
        test "EOF inside a body is Desync" test_eof_mid_body_is_desync;
        test "EOF inside a header is Desync" test_eof_mid_header_is_desync;
      ] );
    ( "history: equivalent",
      [
        qtest ~count:200 "single-pass grouping matches the specification"
          QCheck2.Gen.small_nat prop_equivalent_matches_reference;
      ] );
  ]
