open Tm_safety
open Helpers
open Event

let ill_formed name events =
  test name (fun () ->
      match History.of_events events with
      | Ok _ -> Alcotest.failf "%s: expected ill-formed" name
      | Error _ -> ())

let well_formed name events =
  test name (fun () ->
      match History.of_events events with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %a" name History.pp_error e)

let formation_tests =
  [
    well_formed "empty" [];
    well_formed "lone invocation" [ Inv (1, Read 0) ];
    well_formed "complete read" [ Inv (1, Read 0); Res (1, Read_ok 0) ];
    well_formed "interleaved transactions"
      [
        Inv (1, Read 0);
        Inv (2, Write (0, 1));
        Res (2, Write_ok);
        Res (1, Read_ok 0);
      ];
    ill_formed "transaction id 0 is reserved" [ Inv (0, Read 0) ];
    ill_formed "negative transaction id" [ Inv (-1, Read 0) ];
    ill_formed "response without invocation" [ Res (1, Read_ok 0) ];
    ill_formed "response for unknown transaction"
      [ Inv (1, Read 0); Res (2, Read_ok 0) ];
    ill_formed "double invocation while pending"
      [ Inv (1, Read 0); Inv (1, Read 1) ];
    ill_formed "mismatched response kind"
      [ Inv (1, Read 0); Res (1, Write_ok) ];
    ill_formed "committed response to a read"
      [ Inv (1, Read 0); Res (1, Committed) ];
    ill_formed "event after commit"
      [ Inv (1, Try_commit); Res (1, Committed); Inv (1, Read 0) ];
    ill_formed "event after abort"
      [ Inv (1, Try_abort); Res (1, Aborted); Inv (1, Read 0) ];
    ill_formed "double response"
      [ Inv (1, Read 0); Res (1, Read_ok 0); Res (1, Read_ok 0) ];
    well_formed "abort response to anything"
      [ Inv (1, Write (0, 3)); Res (1, Aborted) ];
  ]

(* A reference history used by most accessor tests:
   T1: R(X)->0 W(Y,1)->ok tryC->C       (committed)
   T2:      R(Y)->0 ................    (live, complete)
   T3:                      R(X) ...    (live, pending read)
   T4 after T1:  W(X,7)->ok tryC        (commit-pending)  *)
let h =
  History.of_events_exn
    [
      Inv (1, Read 0);
      Res (1, Read_ok 0);
      Inv (2, Read 1);
      Res (2, Read_ok 0);
      Inv (1, Write (1, 1));
      Res (1, Write_ok);
      Inv (1, Try_commit);
      Res (1, Committed);
      Inv (3, Read 0);
      Inv (4, Write (0, 7));
      Res (4, Write_ok);
      Inv (4, Try_commit);
    ]

let test_accessors () =
  Alcotest.(check int) "length" 12 (History.length h);
  Alcotest.(check (list int)) "txns" [ 1; 2; 3; 4 ] (History.txns h);
  Alcotest.(check (list int)) "committed" [ 1 ] (History.committed h);
  Alcotest.(check (list int)) "aborted" [] (History.aborted h);
  Alcotest.(check (list int)) "commit-pending" [ 4 ] (History.commit_pending h);
  Alcotest.(check bool) "not complete" false (History.is_complete h);
  Alcotest.(check bool) "not t-complete" false (History.is_t_complete h);
  Alcotest.(check event) "get" (Inv (3, Read 0)) (History.get h 8)

let test_txn_info () =
  let t1 = History.info h 1 in
  Alcotest.(check bool) "t1 t-complete" true (Txn.is_t_complete t1);
  Alcotest.(check int) "t1 first" 0 t1.Txn.first_index;
  Alcotest.(check int) "t1 last" 7 t1.Txn.last_index;
  Alcotest.(check (list int)) "t1 rset" [ 0 ] (Txn.read_set t1);
  Alcotest.(check (list int)) "t1 wset" [ 1 ] (Txn.write_set t1);
  let t2 = History.info h 2 in
  Alcotest.(check bool) "t2 complete" true (Txn.is_complete t2);
  Alcotest.(check bool) "t2 not t-complete" false (Txn.is_t_complete t2);
  let t3 = History.info h 3 in
  Alcotest.(check bool) "t3 not complete" false (Txn.is_complete t3);
  let t4 = History.info h 4 in
  Alcotest.(check bool) "t4 commit-pending" true
    (t4.Txn.status = Txn.Commit_pending);
  Alcotest.(check (option int)) "t4 tryC inv" (Some 11) (Txn.tryc_inv_index t4);
  Alcotest.(check (list bool)) "t4 choices" [ true; false ]
    (Txn.commit_choices t4);
  Alcotest.(check bool) "unknown txn" true
    (match History.info h 9 with
    | exception Not_found -> true
    | _ -> false)

let test_reads_classification () =
  let reads = Txn.reads (History.info h 1) in
  Alcotest.(check int) "t1 one read" 1 (List.length reads);
  let r = List.hd reads in
  Alcotest.(check bool) "external" true (r.Txn.kind = `External);
  Alcotest.(check int) "value" 0 r.Txn.value;
  Alcotest.(check int) "res index" 1 r.Txn.res_index;
  (* internal read *)
  let h' =
    History.of_events_exn
      [
        Inv (1, Write (0, 5));
        Res (1, Write_ok);
        Inv (1, Read 0);
        Res (1, Read_ok 5);
      ]
  in
  match Txn.reads (History.info h' 1) with
  | [ r ] -> Alcotest.(check bool) "internal of 5" true (r.Txn.kind = `Internal 5)
  | _ -> Alcotest.fail "expected one read"

let test_final_writes () =
  let h' =
    History.of_events_exn
      [
        Inv (1, Write (0, 1));
        Res (1, Write_ok);
        Inv (1, Write (0, 2));
        Res (1, Write_ok);
        Inv (1, Write (1, 9));
        Res (1, Write_ok);
        Inv (1, Write (2, 3));
        Res (1, Aborted);
      ]
  in
  let t = History.info h' 1 in
  Alcotest.(check (list (pair int int))) "final writes (aborted write ignored)"
    [ (0, 2); (1, 9) ]
    (Txn.final_writes t);
  Alcotest.(check (list (pair int int))) "all writes"
    [ (0, 1); (0, 2); (1, 9) ]
    (Txn.writes t)

let test_unique_writes () =
  let open Dsl in
  Alcotest.(check bool) "distinct written values" true
    (History.unique_writes
       (history [ w 1 x 1; c 1; r 2 x 1; w 3 x 2; c 3; r 2 y 0 ]));
  Alcotest.(check bool) "write skew, distinct values" true
    (History.unique_writes
       (history
          [ r_inv 1 x; ret 1 0; r_inv 2 y; ret 2 0; w 1 y 1; w 2 x 2;
            c_inv 1; c_inv 2; committed 1; committed 2 ]));
  Alcotest.(check bool) "fig4 variant with distinct values" true
    (History.unique_writes
       (history [ w 1 x 1; c_inv 1; r 2 x 2; w 3 x 2; c 3; aborted 1 ]));
  Alcotest.(check bool) "one transaction rewriting its value" true
    (History.unique_writes (history [ w 1 x 1; w 1 x 1; c 1 ]));
  Alcotest.(check bool) "fig1 duplicates" false
    (History.unique_writes Figures.fig1);
  Alcotest.(check bool) "fig4 duplicates" false
    (History.unique_writes Figures.fig4)

let test_real_time () =
  Alcotest.(check bool) "T1 < T4" true (History.rt_precedes h 1 4);
  Alcotest.(check bool) "not T4 < T1" false (History.rt_precedes h 4 1);
  Alcotest.(check bool) "T1 / T2 overlap" true (History.overlap h 1 2);
  (* T2 is not t-complete, so it precedes nothing even though its last event
     is early. *)
  Alcotest.(check bool) "live precedes nothing" false (History.rt_precedes h 2 4);
  Alcotest.(check bool) "overlap t2 t4" true (History.overlap h 2 4)

let test_live_sets () =
  Alcotest.(check (list int)) "Lset(T1)" [ 1; 2 ] (History.live_set h 1);
  (* T3's only event (index 8) precedes T4's first (index 9): disjoint. *)
  Alcotest.(check (list int)) "Lset(T3)" [ 3 ] (History.live_set h 3);
  (* T2's span is events 2..3, inside T1's span. *)
  Alcotest.(check (list int)) "Lset(T2)" [ 1; 2 ] (History.live_set h 2);
  Alcotest.(check bool) "T2 ≺LS T3" true (History.ls_precedes h 2 3);
  Alcotest.(check bool) "not T1 ≺LS T2" false (History.ls_precedes h 1 2)

let test_prefix () =
  let p = History.prefix h 8 in
  Alcotest.(check int) "length" 8 (History.length p);
  Alcotest.(check (list int)) "txns" [ 1; 2 ] (History.txns p);
  Alcotest.(check bool) "T1 committed in prefix" true
    (List.mem 1 (History.committed p));
  let p0 = History.prefix h 0 in
  Alcotest.(check int) "empty prefix" 0 (History.length p0);
  Alcotest.(check bool) "full prefix is same" true
    (History.equivalent h (History.prefix h (History.length h)))

(* A builder is the one appender: its snapshots keep their events as it
   grows past them, a rejected event leaves it unchanged, and it goes on
   from there. *)
let test_builder () =
  let b = History.Builder.create () in
  let add ev =
    match History.Builder.add b ev with
    | Ok () -> ()
    | Error e -> Alcotest.failf "add: %a" History.pp_error e
  in
  add (Inv (1, Read 0));
  add (Res (1, Read_ok 0));
  let h2 = History.Builder.history b in
  (match History.Builder.add b (Res (1, Read_ok 42)) with
  | Ok () -> Alcotest.fail "expected rejection"
  | Error e ->
      Alcotest.(check int) "rejected at the end" 2 e.History.index);
  Alcotest.(check int) "rejection adds nothing" 2 (History.Builder.length b);
  (* past the first buffer's capacity, so the builder grows into a new one *)
  List.iter add
    (List.concat
       (List.init 8 (fun i -> [ Inv (1, Write (0, i + 1)); Res (1, Write_ok) ])));
  let h = History.Builder.history b in
  Alcotest.(check int) "length" 18 (History.length h);
  Alcotest.(check (list event)) "old snapshot intact"
    [ Inv (1, Read 0); Res (1, Read_ok 0) ]
    (History.to_list h2);
  Alcotest.(check bool) "old snapshot is a prefix" true
    (History.is_prefix h2 ~of_:h);
  Alcotest.(check (list event)) "builder and snapshot agree"
    (History.Builder.to_list b) (History.to_list h);
  match History.Builder.add (History.Builder.create ()) (Res (1, Read_ok 0)) with
  | Ok () -> Alcotest.fail "expected rejection"
  | Error _ -> ()

let test_project () =
  let p = History.project h ~keep:(fun k -> k = 1) in
  Alcotest.(check (list int)) "txns" [ 1 ] (History.txns p);
  Alcotest.(check int) "length" 6 (History.length p)

let test_equivalent () =
  (* Same per-transaction sequences, different interleaving. *)
  let a =
    History.of_events_exn
      [ Inv (1, Read 0); Inv (2, Read 1); Res (1, Read_ok 0); Res (2, Read_ok 0) ]
  in
  let b =
    History.of_events_exn
      [ Inv (1, Read 0); Res (1, Read_ok 0); Inv (2, Read 1); Res (2, Read_ok 0) ]
  in
  Alcotest.(check bool) "equivalent" true (History.equivalent a b);
  let c =
    History.of_events_exn
      [ Inv (1, Read 0); Res (1, Read_ok 1); Inv (2, Read 1); Res (2, Read_ok 0) ]
  in
  Alcotest.(check bool) "different value" false (History.equivalent a c);
  let d = History.of_events_exn [ Inv (1, Read 0); Res (1, Read_ok 0) ] in
  Alcotest.(check bool) "different txns" false (History.equivalent a d)

let test_sequential_predicates () =
  let seq = Dsl.(seq [ (fun k -> [ r k x 0; c k ]); (fun k -> [ r k x 0; c k ]) ]) in
  Alcotest.(check bool) "t-sequential" true (History.is_t_sequential seq);
  Alcotest.(check bool) "sequential" true (History.is_sequential seq);
  Alcotest.(check bool) "h not t-sequential" false (History.is_t_sequential h);
  (* fig5 is sequential (invocations immediately answered) but transactions
     overlap, so it is not t-sequential. *)
  Alcotest.(check bool) "fig5 sequential" true (History.is_sequential Figures.fig5);
  Alcotest.(check bool) "fig5 not t-sequential" false
    (History.is_t_sequential Figures.fig5)

let test_response_indices () =
  let idx = History.response_indices h in
  Alcotest.(check (list int)) "indices" [ 2; 4; 6; 8; 11 ] idx

(* of_events_prefix: the longest well-formed prefix plus the torn tail —
   what Parallel.run uses to salvage a log cut mid-operation. *)
let test_of_events_prefix () =
  let events =
    History.to_list (Parse.of_string_exn "W1(X,1)->ok C1->C R2(X)->1 C2->C")
  in
  let full, tail = History.of_events_prefix events in
  Alcotest.(check (list event)) "full prefix" events (History.to_list full);
  Alcotest.(check (list event)) "empty tail" [] tail;
  (* a response with no pending invocation tears the log *)
  let orphan = Res (9, Committed) in
  let cut, tail = History.of_events_prefix (events @ [ orphan ]) in
  Alcotest.(check (list event)) "longest prefix" events (History.to_list cut);
  Alcotest.(check (list event)) "torn tail" [ orphan ] tail;
  (* everything from the first offence on is dropped, even events that
     would be well-formed on their own *)
  let suffix = [ orphan; Inv (3, Read 0); Res (3, Read_ok 1) ] in
  let cut, tail = History.of_events_prefix (events @ suffix) in
  Alcotest.(check (list event)) "prefix stops at offence" events
    (History.to_list cut);
  Alcotest.(check (list event)) "whole torn suffix" suffix tail;
  let empty, tail = History.of_events_prefix [ orphan ] in
  Alcotest.(check int) "empty prefix" 0 (History.length empty);
  Alcotest.(check (list event)) "all torn" [ orphan ] tail

(* One mutation of a generated history: swap two events, drop one,
   duplicate one, or move one to another transaction (ids 0 and -1
   included). *)
let mutate rng events =
  let a = Array.of_list events in
  let n = Array.length a in
  let i = Random.State.int rng n in
  match Random.State.int rng 4 with
  | 0 ->
      let j = Random.State.int rng n in
      let e = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- e;
      Array.to_list a
  | 1 -> List.filteri (fun j _ -> j <> i) events
  | 2 -> List.concat (List.mapi (fun j ev -> if j = i then [ ev; ev ] else [ ev ]) events)
  | _ ->
      let k = Random.State.int rng 12 - 1 in
      a.(i) <- (match a.(i) with Inv (_, inv) -> Inv (k, inv) | Res (_, r) -> Res (k, r));
      Array.to_list a

let fold_builder events =
  let b = History.Builder.create () in
  List.fold_left
    (fun acc ev -> Result.bind acc (fun () -> History.Builder.add b ev))
    (Ok ()) events
  |> Result.map (fun () -> History.Builder.history b)

(* Batch validation and a builder fold give one verdict on every mutated
   history, down to the error.  On accepted ones, the builder's snapshot
   summarises like the batch history, and a search context synced event
   by event, which builds its own summaries, agrees with both. *)
let test_validators_agree () =
  let rng = Random.State.make [| 24 |] in
  let accepted = ref 0 in
  for seed = 1 to 2_000 do
    let params = { Gen.default with n_txns = 2 + (seed mod 9); pending_ratio = 0.2 } in
    let events = mutate rng (History.to_list (Gen.run_seed params seed)) in
    let batch = History.of_events events and built = fold_builder events in
    (match batch, built with
    | Ok _, Ok _ -> ()
    | Error e, Error e' when e = e' -> ()
    | _ -> Alcotest.failf "seed %d: the validators disagree" seed);
    match batch, built with
    | Ok h, Ok hb ->
        incr accepted;
        let ctx = Search.ictx Search.du in
        List.iteri
          (fun i _ -> Search.sync ctx (History.prefix hb (i + 1)))
          events;
        let synced = List.map (Search.txn ctx) (History.txns h) in
        if History.txns h <> History.txns hb || History.infos h <> History.infos hb
           || synced <> History.infos h
        then Alcotest.failf "seed %d: the summaries differ" seed
    | _ -> ()
  done;
  (* both verdicts occur often *)
  Alcotest.(check bool) "accepted and rejected" true
    (!accepted > 200 && !accepted < 1_800)

(* Every history fills its summary on first use, so two domains may race
   on it.  Both, released together by a barrier each trial, force [infos]
   on one fresh history and must see the single-domain result. *)
let test_lazy_summary_across_domains () =
  let trials = 500 in
  let events = History.to_list (Gen.run_seed { Gen.default with n_txns = 40 } 7) in
  let want = History.infos (History.of_events_exn events) in
  let hs = Array.init trials (fun _ -> History.of_events_exn events) in
  let arrived = Atomic.make 0 in
  let run () =
    let wrong = ref 0 in
    for t = 0 to trials - 1 do
      Atomic.incr arrived;
      while Atomic.get arrived < 2 * (t + 1) do Domain.cpu_relax () done;
      if History.infos hs.(t) <> want then incr wrong
    done;
    !wrong
  in
  let other = Domain.spawn run in
  let mine = run () in
  let theirs = Domain.join other in
  Alcotest.(check (pair int int)) "wrong summaries per domain" (0, 0)
    (mine, theirs);
  Alcotest.(check bool) "filled once and kept" true
    (Array.for_all (fun h -> History.infos h = want) hs)

(* Transaction ids, variables and written values are client input, and
   [History]'s well-formedness check and the conflict graph look them up
   in [Int_tbl].  Ids that share their low bits (multiples of 2^20, or
   k·2^40 + 1) must not share a bucket, or one client makes every lookup
   linear; dense ids fill the buckets evenly. *)
let test_int_tbl_spreads () =
  let longest keys =
    let t = Tm_history.Int_tbl.create 16 in
    List.iter (fun k -> Tm_history.Int_tbl.replace t k ()) keys;
    (Tm_history.Int_tbl.stats t).Hashtbl.max_bucket_length
  in
  let n = 20_000 in
  let keys f = List.init n (fun i -> f (i + 1)) in
  (* the table holds up to two keys per bucket before it grows *)
  Alcotest.(check bool) "dense ids: at most two per bucket" true
    (longest (keys Fun.id) <= 2);
  List.iter
    (fun (name, f) ->
      let l = longest (keys f) in
      if l > 16 then Alcotest.failf "%s: %d keys in one bucket" name l)
    [
      ("ids i * 2^20", fun i -> i lsl 20);
      ("ids i * 2^40 + 1", fun i -> (i lsl 40) + 1);
      ("negative ids", fun i -> min_int + (i lsl 16));
    ]

let suite =
  [
    ("history: well-formedness", formation_tests);
    ( "history: accessors",
      [
        test "basic accessors" test_accessors;
        test "transaction summaries" test_txn_info;
        test "read classification" test_reads_classification;
        test "final writes" test_final_writes;
        test "unique writes" test_unique_writes;
        test "real-time order" test_real_time;
        test "live sets" test_live_sets;
        test "prefix" test_prefix;
        test "builder" test_builder;
        test "project" test_project;
        test "equivalence" test_equivalent;
        test "sequential predicates" test_sequential_predicates;
        test "response indices" test_response_indices;
        test "of_events_prefix salvages torn logs" test_of_events_prefix;
        test "batch and builder validate and summarise alike"
          test_validators_agree;
        test "lazy summary from two domains at once"
          test_lazy_summary_across_domains;
        test "client-chosen ids spread over the table's buckets"
          test_int_tbl_spreads;
      ] );
  ]
