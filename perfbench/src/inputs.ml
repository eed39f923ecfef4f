(* Workload inputs: histories recorded from the repository's simulated
   STMs, derived only from the workload seed.  The program under test sees
   nothing but these events. *)

open Tm_safety

type stream = {
  name : string;
  events : Event.t list;
  len : int;
  history : History.t;
}

let stream name history =
  let events = History.to_list history in
  { name; events; len = List.length events; history }

(* Seed of the k-th recording of a workload seed. *)
let derive seed k = ((seed * 1_000_003) + (k * 7_919) + 17) land 0x3FFF_FFFF

let record ~stm ~threads ~txns ~ops ~vars ~values seed =
  let params =
    {
      Stm.Workload.default with
      n_threads = threads;
      txns_per_thread = (txns + threads - 1) / threads;
      ops_per_txn = ops;
      n_vars = vars;
      values;
    }
  in
  stream
    (Printf.sprintf "%s/%d" stm seed)
    (Sim.Runner.run ~stm ~params ~seed ()).Sim.Runner.history

(* Hash of the Codec-encoded histories: two runs (or two commits) with the
   same digest offered the same traffic. *)
let digest streams =
  let b = Buffer.create 4096 in
  List.iter (fun s -> Service.Codec.put_history b s.history) streams;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Short TL2 and NOrec sessions (~600 events) with unique written values. *)
let open_short seed =
  List.init 16 (fun i ->
      record
        ~stm:(if i mod 2 = 0 then "tl2" else "norec")
        ~threads:3 ~txns:66 ~ops:3 ~vars:16 ~values:`Unique (derive seed i))

(* The `tm check` inputs: a ~110k-event unique-writes TL2 history for the
   batch graph, and ~3.3k-event repeated-values ones on which the graph
   answers Ambiguous and the search decides.  (At ~1.1M or ~560k events each check allocates hundreds of MB, and page
   faults and collections move it 20-40% run to run; dozens of checks of
   a smaller history give a steady median.) *)
let check_unique seed =
  record ~stm:"tl2" ~threads:4 ~txns:10_000 ~ops:4 ~vars:64 ~values:`Unique
    (derive seed 0)

(* Sixteen of them, so one recording's search cost does not set the figure
   (it varies severalfold between recordings). *)
let check_repeated seed =
  List.init 16 (fun i ->
      record ~stm:"tl2" ~threads:4 ~txns:300 ~ops:4 ~vars:64 ~values:(`Range 100)
        (derive seed (1_000 + i)))
