(* The du-opacity checker benchmark.

     tmbench --workload NAME --seed N --seconds S --trace 0|1

   Runs from the root of a checkout (perfbench/run.py builds and starts
   it).  Each workload records its inputs from the seed, sets up five
   times (setup_s is the median; the input digests must all agree),
   measures for S seconds with every verdict checked, and prints the
   end-to-end metrics.  With --trace 1 it measures twice, untraced and
   with client spans, then replays the same inputs through every layer
   under spans and prints the per-layer metrics instead.  The last line
   of standard output is the JSON result. *)

open Tm_safety
module Tally = Serve.Tally

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let tm = ref ".bench_build/ws/_build/default/bin/tm.exe"
let server_cpus = ref ""
let generator_cpus = ref ""

(* Pin every thread of this process to [cpus] (a taskset list). *)
let pin_self cpus =
  if cpus <> "" then begin
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process "taskset"
        [| "taskset"; "-a"; "-p"; "-c"; cpus; string_of_int (Unix.getpid ()) |]
        Unix.stdin null Unix.stderr
    in
    ignore (Unix.waitpid [] pid);
    Unix.close null
  end

let scratch =
  Filename.concat ".bench_build" (Printf.sprintf "run-%d" (Unix.getpid ()))

let socket = Filename.concat scratch "tm.sock"
let line fmt = Printf.kfprintf (fun oc -> output_char oc '\n'; flush oc) stdout fmt

(* What one measurement of a workload yields. *)
type e2e = {
  events_per_s : float;  (* events verified per second *)
  sustained : float;  (* highest rate sustained within the latency limit *)
  lat_ms : float list;  (* time to verdict *)
  e2e_ns_per_event : float;  (* end-to-end time per event, for coverage *)
  lag_ms : float list;  (* open loop: how late the generator sent *)
}

type workload = {
  choose : unit -> unit;  (* once, untimed: pin this process's CPUs *)
  setup : unit -> Inputs.stream list;  (* record, start, warm up *)
  stop : unit -> unit;  (* undo the server side of [setup] *)
  prepare : unit -> unit;  (* once, untimed: ground truth, input checks *)
  measure : float -> e2e;  (* measure until the given deadline *)
  finish : unit -> float list * float;
      (* recovery samples (ms) and repeated_events_per_s; stops the server *)
  plan : unit -> Layers.plan;
}

(* Offline `tm check` with search fallback over [streams], whole passes
   for at least 0.1 s of CPU time; every verdict must be Sat.  Returns
   events per CPU second, scaled to the reference host. *)
let fallback_block (streams : Inputs.stream array) =
  let events = ref 0 and spent = ref 0. in
  while !events = 0 || !spent < 0.1 do
    let (), dt =
      Measure.scaled_cpu_time (fun () ->
          Array.iter
            (fun (s : Inputs.stream) ->
              Tally.attempt ();
              (match Conflict_graph.check_or_fallback s.Inputs.history with
              | Verdict.Sat _ -> ()
              | _ -> Tally.fail "check_or_fallback %s: not Sat" s.Inputs.name);
              events := !events + s.Inputs.len)
            streams)
    in
    spent := !spent +. dt
  done;
  float_of_int !events /. !spent

let plan ~path ~heavy ~batch = { Layers.path; heavy; batch; dir = Filename.concat scratch "layers" }

(* --- open-short --------------------------------------------------------- *)

(* The latency figures come from fixed offered rates, events/s, that do not
   depend on the pool, the session count or the server. *)
let latency_rates = [ 50_000.; 100_000. ]
let limit_ms = 25.
let lag_limit_ms = 10.

let print_step (st : Serve.step) =
  let tail, pct, _, _ = Measure.block_tail st.Serve.lat_ms in
  line "  offered %7.0f events/s: p50 %.2f ms, p%.1f %.2f ms (%d sessions) %s" st.Serve.rate
    (Measure.median st.Serve.lat_ms) pct tail (List.length st.Serve.lat_ms)
    (if st.Serve.passed then "ok" else st.Serve.why)

let open_short () =
  let cfg = { Serve.tm = !tm; cpus = !server_cpus; socket } in
  let pool = ref [||] and srv = ref None and want = ref [||] in
  let restart_cfg = { cfg with Serve.socket = Filename.concat scratch "restart.sock" } in
  (* after each step, while the server idles: a block of `tm check` over
     the pool in the generator's process, and eight cold starts of a
     second `tm serve` *)
  let fallback = ref [] and recov = ref [] in
  let between_steps () =
    fallback := fallback_block !pool :: !fallback;
    for _ = 1 to 8 do
      recov := Serve.cold_start_ms restart_cfg !pool.(0) :: !recov
    done
  in
  {
    (* the generator keeps to its own CPU *)
    choose = (fun () -> pin_self !generator_cpus);
    setup =
      (fun () ->
        let p = Array.of_list (Inputs.open_short !seed) in
        pool := p;
        let sv = Serve.start cfg in
        srv := Some sv;
        Array.iter (Serve.probe (Serve.addr cfg)) (Array.sub p 0 4);
        Array.to_list p);
    stop = (fun () -> Option.iter Serve.stop !srv);
    prepare =
      (fun () ->
        want := Array.map Serve.expected !pool;
        ignore (fallback_block !pool));
    measure =
      (fun deadline ->
        let total = deadline -. Measure.now () in
        let lp = Serve.connect_loop ~addr:(Serve.addr cfg) ~pool:!pool ~want:!want in
        (* two fifths of the run: latency at the fixed rates *)
        let fixed =
          List.map
            (fun rate ->
              let st = Serve.step lp ~rate ~span:(0.2 *. total) ~limit_ms in
              between_steps ();
              st)
            latency_rates
        in
        List.iter print_step fixed;
        (* the rest alternates a short saturation window, 32 sessions
           always outstanding, whose answered rate is the server's
           capacity, with an open-loop step that bisects the highest rate
           the server sustains within the latency limit, between nothing
           and 1.25 x the first window's capacity: a step that overloads
           fails, and the next one offers less.  Alternating spreads both
           figures over the run, so a few slow seconds of the host move
           them less. *)
        let sat_span = 0.03 *. total and span = 0.05 *. total in
        let rec alternate lo hi caps acc =
          if caps <> [] && Measure.now () +. sat_span +. span > deadline then (lo, caps, acc)
          else begin
            let cap = Serve.saturate lp ~window:32 ~span:sat_span in
            line "  saturated: %.0f events/s answered" cap;
            let hi = if caps = [] then 1.25 *. cap else hi in
            let st = Serve.step lp ~rate:((lo +. hi) /. 2.) ~span ~limit_ms in
            print_step st;
            between_steps ();
            if st.Serve.passed then alternate st.Serve.rate hi (cap :: caps) (st :: acc)
            else alternate lo st.Serve.rate (cap :: caps) (st :: acc)
          end
        in
        let sustained, caps, searched = alternate 0. nan [] [] in
        let capacity = Measure.median caps in
        Serve.close_loop lp;
        let lat_all = List.concat_map (fun st -> st.Serve.lat_ms) fixed in
        {
          events_per_s = capacity;
          sustained;
          lat_ms = lat_all;
          e2e_ns_per_event = 1e6 *. Measure.median lat_all /. Serve.mean_len lp;
          (* the generator's lateness where the server kept up; in an
             overloaded step the socket pushes back on the sender *)
          lag_ms =
            List.concat_map
              (fun st -> if st.Serve.passed then st.Serve.lag_ms else [])
              (fixed @ searched);
        });
    finish =
      (fun () ->
        Option.iter Serve.stop !srv;
        srv := None;
        (!recov, Measure.median !fallback));
    plan =
      (fun () ->
        let p = Array.to_list !pool in
        plan ~path:p ~heavy:!pool.(0) ~batch:p);
  }

(* --- check-offline ------------------------------------------------------ *)

(* The checks run in this process on one thread and are timed in its CPU
   time, so time the thread spends descheduled does not count. *)
let check_offline () =
  let hu = ref None and hr = ref [] in
  let unique () = Option.get !hu in
  let recovery = ref [] and repeated_rate = ref nan in
  {
    choose =
      (fun () ->
        (* no server here: the checks take the CPUs `tm serve` gets
           elsewhere, away from the first, which the kernel's own work
           favours *)
        pin_self !server_cpus);
    setup =
      (fun () ->
        hu := None;
        hr := [];
        Gc.full_major ();
        hu := Some (Inputs.check_unique !seed);
        hr := Inputs.check_repeated !seed;
        unique () :: !hr);
    stop = ignore;
    prepare =
      (fun () ->
        (* the validator is quadratic, so the graph's Sat certificate is
           re-validated on a prefix, which is Sat too under unique writes *)
        let h = History.prefix (unique ()).Inputs.history 8_000 in
        Tally.attempt ();
        match Conflict_graph.check h with
        | Conflict_graph.Sat s -> (
            match Serialization.validate h s with
            | Ok () -> ()
            | Error e -> Tally.fail "graph certificate rejected: %s" e)
        | _ -> Tally.fail "graph check of the 8000-event prefix: not Sat");
    measure =
      (fun deadline ->
        let u = unique () and reps = Array.of_list !hr in
        let bin = Service.Codec.history_to_string u.Inputs.history in
        let timed f =
          Tally.attempt ();
          Span.run "client.check" (fun () -> Measure.scaled_cpu_time (fun () -> Measure.time f))
        in
        (* one untimed check first, so the heap has grown to its size:
           collecting between checks hands memory back to the kernel and
           the next check pays page faults whose cost swings run to run *)
        ignore (Conflict_graph.check u.Inputs.history);
        (* Rounds until the deadline.  Each checks the unique-writes history
           with the graph and the next repeated-values history in turn with
           the search fallback; every fourth also restarts `tm check`:
           decodes the recorded unique-writes history and checks it.
           Interleaving spreads every figure over the whole run, so a few
           slow seconds of the host move them less.  The repeated-values
           figure is the median per-check rate, since the search's cost
           varies severalfold between recordings. *)
        let lat = ref [] and walls = ref [] and rates = ref [] and recov = ref [] in
        let round = ref 0 in
        while !round = 0 || Measure.now () < deadline do
          let (v, wall), dt = timed (fun () -> Conflict_graph.check u.Inputs.history) in
          lat := (dt *. 1e3) :: !lat;
          walls := wall :: !walls;
          (match v with
          | Conflict_graph.Sat _ -> ()
          | _ -> Tally.fail "graph check %s: not Sat" u.Inputs.name);
          let r = reps.(!round mod Array.length reps) in
          let (v, _), dt = timed (fun () -> Conflict_graph.check_or_fallback r.Inputs.history) in
          rates := (float_of_int r.Inputs.len /. dt) :: !rates;
          (match v with
          | Verdict.Sat s when !round = 0 -> (
              match Serialization.validate r.Inputs.history s with
              | Ok () -> ()
              | Error e -> Tally.fail "search certificate rejected: %s" e)
          | Verdict.Sat _ -> ()
          | _ -> Tally.fail "check_or_fallback %s: not Sat" r.Inputs.name);
          if !round mod 4 = 3 then begin
            let (ok, _), dt =
              timed (fun () ->
                  match Service.Codec.history_of_string bin with
                  | Ok h -> (
                      match Conflict_graph.check h with
                      | Conflict_graph.Sat _ -> true
                      | _ -> false)
                  | Error _ -> false)
            in
            if not ok then Tally.fail "the recorded history does not decode and check";
            recov := (dt *. 1e3) :: !recov
          end;
          incr round
        done;
        recovery := !recov;
        repeated_rate := Measure.median !rates;
        let eps = float_of_int u.Inputs.len /. (Measure.median !lat /. 1e3) in
        (* a batch check cannot build a backlog: its rate is sustained *)
        { events_per_s = eps; sustained = eps; lat_ms = List.rev !lat;
          e2e_ns_per_event = 1e9 *. Measure.median !walls /. float_of_int u.Inputs.len;
          lag_ms = [] });
    finish = (fun () -> (!recovery, !repeated_rate));
    plan =
      (fun () ->
        let u = unique () in
        let prefix = Inputs.stream "unique-prefix" (History.prefix u.Inputs.history 100_000) in
        let r0 = List.hd !hr in
        plan ~path:[ prefix; r0 ] ~heavy:r0 ~batch:(u :: !hr));
  }

(* --- output ------------------------------------------------------------- *)

let json_number x =
  if not (Float.is_finite x) then "0"
  else if Float.is_integer x then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let print_result metrics =
  List.iter (fun (name, v, unit) -> line "%-40s %.6g %s" name v unit) metrics;
  let attempted = max 1 !Tally.attempted and failed = !Tally.failed in
  line "failed_frac %.6g (%d of %d attempted)" (float_of_int failed /. float_of_int attempted)
    failed attempted;
  List.iter (line "  failure: %s") (List.rev !Tally.notes);
  let m =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (json_number v) unit)
         metrics)
  in
  line {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} (failed = 0)
    attempted failed m

(* Set up five times, or three when set-up is slow. *)
let setup_reps ~elapsed i = i < 3 || (i < 5 && elapsed < 4.)

let run (w : workload) =
  w.choose ();
  let t0 = Measure.now () in
  let rec setups i acc =
    if i > 0 then w.stop ();
    let streams, dt = Measure.time w.setup in
    let acc = (dt, Inputs.digest streams) :: acc in
    if setup_reps ~elapsed:(Measure.now () -. t0) (i + 1) then setups (i + 1) acc
    else (acc, streams)
  in
  let setups, streams = setups 0 [] in
  let digest = snd (List.hd setups) in
  if List.exists (fun (_, d) -> d <> digest) setups then
    Tally.fail "the same seed recorded different inputs";
  line "workload %s seed %d: %d histories, %d events, inputs md5 %s (%d set-ups)" !workload
    !seed (List.length streams)
    (List.fold_left (fun a s -> a + s.Inputs.len) 0 streams)
    digest (List.length setups);
  let setup_s = Measure.median (List.map fst setups) in
  w.prepare ();
  (* from here on the peak is the checking's own, not the recordings' *)
  Gc.compact ();
  Measure.reset_peak_rss ();
  let measure () = w.measure (Measure.now () +. float_of_int !seconds) in
  let e = measure () in
  (* the checking's own peak, before [finish] adds its decodes *)
  let own_peak_mb = Measure.peak_rss_mb () in
  let traced =
    if !trace = 1 then begin
      Span.enabled := true;
      let t = measure () in
      Span.enabled := false;
      Some t
    end
    else None
  in
  let recov, repeated = w.finish () in
  line "host probe: %.3f ms now, %.3f ms on the reference host"
    (Measure.median (List.init 25 (fun _ -> Measure.host_probe_ms ())))
    Measure.reference_probe_ms;
  let lag_tail, _, _, _ = Measure.block_tail e.lag_ms in
  if e.lag_ms <> [] && lag_tail > lag_limit_ms then
    Tally.fail "generator fell behind: lag tail %.2f ms (limit %.0f); run invalid" lag_tail
      lag_limit_ms;
  let tail, pct, block, blocks = Measure.block_tail e.lat_ms in
  line "verdict_tail_ms is the median over %d block(s) of %d samples of each block's p%.2f (%d samples beyond it); %d samples"
    blocks block pct (if block > 10 then 10 else 0) (List.length e.lat_ms);
  let attempted = max 1 !Tally.attempted in
  let ok_frac = float_of_int (attempted - !Tally.failed) /. float_of_int attempted in
  match traced with
  | None ->
      print_result
        [
          ("setup_s", setup_s, "s");
          (* the server's, where there is one *)
          ( "peak_rss_mb",
            (if !Serve.server_peak_mb > 0. then !Serve.server_peak_mb else own_peak_mb),
            "MB" );
          ("ok_frac", ok_frac, "ratio");
          ("events_per_s", e.events_per_s, "1/s");
          ("sustained_events_per_s", e.sustained, "1/s");
          ("verdict_p50_ms", Measure.median e.lat_ms, "ms");
          ("verdict_tail_ms", tail, "ms");
          ("recovery_p50_ms", Measure.median recov, "ms");
          ("repeated_events_per_s", repeated, "1/s");
        ]
  | Some t ->
      let plan = w.plan () in
      Span.enabled := true;
      let layers =
        try Some (Layers.run plan)
        with e ->
          Tally.fail "layer replay: %s" (Printexc.to_string e);
          None
      in
      Span.enabled := false;
      let attributed =
        match !workload with
        | "check-offline" -> (
            (* the layer's own time on the unique-writes history (the first
               batch stream): one replayed check swings with the heap the
               other replays left, so the median of three more *)
            match plan.Layers.batch with
            | u :: _ ->
                let once () = snd (Measure.time (fun () -> Conflict_graph.check u.Inputs.history)) in
                1e9 *. Measure.median (List.init 3 (fun _ -> once ())) /. float_of_int u.Inputs.len
            | [] -> nan)
        | _ -> (
            match layers with
            | Some l -> Layers.path_ns_per_event l
            | None -> nan)
      in
      Measure.mkdir_p (Filename.concat ".bench_build" "traces");
      Span.write
        (Filename.concat ".bench_build"
           (Printf.sprintf "traces/%s-seed%d.tsv" !workload !seed));
      let per_layer = match layers with Some l -> Layers.metrics l | None -> [] in
      print_result
        (per_layer
        @ [
            ("server.unattributed_ns_per_event", e.e2e_ns_per_event -. attributed, "ns");
            ("server.throttles", float_of_int !Tally.throttles, "count");
            ("server.sheds", float_of_int !Tally.sheds, "count");
            ("client.gen_lag_tail_ms", (if e.lag_ms = [] then 0. else lag_tail), "ms");
            ("trace.coverage", attributed /. e.e2e_ns_per_event, "ratio");
            ("trace.overhead_frac", (t.e2e_ns_per_event /. e.e2e_ns_per_event) -. 1., "ratio");
          ])

let () =
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME open-short | check-offline");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--tm", Arg.Set_string tm, "PATH the tm executable whose `tm serve` is measured");
      ("--server-cpus", Arg.Set_string server_cpus, "LIST taskset CPU list for tm serve");
      ("--generator-cpus", Arg.Set_string generator_cpus, "LIST taskset CPU list for the open-loop generator");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad a)) "tmbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match !workload with
    | "open-short" -> open_short ()
    | "check-offline" -> check_offline ()
    | other ->
        Printf.eprintf "tmbench: unknown workload %S\n" other;
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "tmbench: --seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  (* The benchmark process is the load generator and the offline checker;
     a 16 MB minor heap keeps its own collections from stalling it at
     random.  The `tm serve` processes run with the runtime's defaults. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 2 * 1024 * 1024 };
  Measure.mkdir_p scratch;
  let ok = Fun.protect ~finally:(fun () -> Measure.rm_rf scratch) (fun () -> run w; !Tally.failed = 0) in
  exit (if ok then 0 else 1)
