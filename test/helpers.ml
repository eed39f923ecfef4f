(* Shared assertions and Alcotest testables. *)

open Tm_safety

let history = Alcotest.testable History.pp_inline History.equivalent

let event = Alcotest.testable Event.pp Event.equal

let check_sat name verdict =
  match verdict with
  | Verdict.Sat _ -> ()
  | Verdict.Unsat why -> Alcotest.failf "%s: expected Sat, got Unsat (%s)" name why
  | Verdict.Unknown why ->
      Alcotest.failf "%s: expected Sat, got Unknown (%s)" name why

let check_unsat name verdict =
  match verdict with
  | Verdict.Unsat _ -> ()
  | Verdict.Sat s ->
      Alcotest.failf "%s: expected Unsat, got Sat (%a)" name Serialization.pp s
  | Verdict.Unknown why ->
      Alcotest.failf "%s: expected Unsat, got Unknown (%s)" name why

let check_verdict name expected verdict =
  if expected then check_sat name verdict else check_unsat name verdict

(* Every Sat must carry a certificate the independent validator accepts. *)
let check_certified ~claim name h verdict =
  match verdict with
  | Verdict.Sat s -> (
      match Serialization.validate ~claim h s with
      | Ok () -> ()
      | Error why ->
          Alcotest.failf "%s: certificate rejected by validator: %s" name why)
  | Verdict.Unsat _ | Verdict.Unknown _ -> ()

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

let test name f = Alcotest.test_case name `Quick f

let slow name f = Alcotest.test_case name `Slow f

(* A ~3.3k-event TL2 recording (4 threads, 300 transactions, 64 variables)
   whose written values repeat: drawn from 0-99, so the conflict graph
   leaves it to the search. *)
let recording seed =
  let params =
    {
      Stm.Workload.default with
      n_threads = 4;
      txns_per_thread = 75;
      ops_per_txn = 4;
      n_vars = 64;
      values = `Range 100;
    }
  in
  (Sim.Runner.run ~stm:"tl2" ~params ~seed ()).Sim.Runner.history

(* QCheck bridge: a history generator driven by Gen.params. *)
let arb_history ?(params = Gen.default) () =
  QCheck2.Gen.map (fun seed -> Gen.run_seed params seed) QCheck2.Gen.int

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen prop)

(* [events] with transaction [k] renamed [tx_base + k] and variable [v]
   renamed [var_base + v], so a fixed pattern can share a stream with a
   recording. *)
let relabel ~tx_base ~var_base events =
  List.map
    (function
      | Event.Inv (k, Event.Read v) ->
          Event.Inv (tx_base + k, Event.Read (var_base + v))
      | Event.Inv (k, Event.Write (v, x)) ->
          Event.Inv (tx_base + k, Event.Write (var_base + v, x))
      | Event.Inv (k, i) -> Event.Inv (tx_base + k, i)
      | Event.Res (k, r) -> Event.Res (tx_base + k, r))
    events
