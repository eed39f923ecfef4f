type result = {
  history : History.t;
  stats : Tm_stm.Harness.stats;
  trace : Tm_stm.Trace.t option;
}

let deferred_update_loc = -1
let real_time_loc = -2

let setup ?max_retries ?retry ?(faults = Tm_stm.Faults.none)
    ?(trace = false) ?(notes = false) ~stm ~params ~seed () =
  let retry =
    match retry, max_retries with
    | Some r, _ -> r
    | None, Some n -> Tm_stm.Faults.retry_fixed n
    | None, None -> Tm_stm.Faults.retry_fixed 50
  in
  let sink =
    if trace then begin
      let s = Tm_stm.Trace.sink () in
      Tm_stm.Trace.install s;
      Some s
    end
    else None
  in
  let (module A : Tm_stm.Tm_intf.ALGORITHM) = Tm_stm.Registry.find_exn stm in
  let module T = A (Sim_mem) in
  let instance =
    Tm_stm.Tm_intf.instantiate
      (module T)
      ~n_vars:params.Tm_stm.Workload.n_vars
  in
  let programs =
    Tm_stm.Workload.generate params (Random.State.make [| seed |])
  in
  let injector =
    Tm_stm.Faults.injector ~n_threads:params.Tm_stm.Workload.n_threads faults
  in
  let pause n =
    for _ = 1 to n do
      Sched.yield ()
    done
  in
  let log = ref [] in
  (* du-opacity reads two event orders that memory need not fix: a read's
     response against a tryC invocation (Definition 3's deferred-update
     filter) and a commit/abort response against a first invocation (real
     time).  Events note their side on a pseudo-location (negative: no
     memory cell's), so an explorer reorders exactly such pairs. *)
  let started = Hashtbl.create 16 in
  let note ev =
    let open Tm_stm.Trace in
    match ev with
    | Event.Inv (k, inv) ->
        if not (Hashtbl.mem started k) then begin
          Hashtbl.replace started k ();
          Sched.note ~loc:real_time_loc Read
        end;
        if Event.equal_invocation inv Event.Try_commit then
          Sched.note ~loc:deferred_update_loc Write
    | Event.Res (_, Event.Read_ok _) -> Sched.note ~loc:deferred_update_loc Read
    | Event.Res (_, (Event.Committed | Event.Aborted)) ->
        Sched.note ~loc:real_time_loc Write
    | Event.Res (_, Event.Write_ok) -> ()
  in
  let emit ev =
    if notes then note ev;
    log := ev :: !log
  in
  (* With a recorder installed, mirror transaction-attempt boundaries into
     the trace so analyzers can attribute each access to the attempt that
     performed it: [Began] at the attempt's first invocation (the accesses
     of [begin_txn] precede it and are attributed to the same attempt),
     [Committed]/[Aborted] at the response that ends the attempt. *)
  let emit_marked thread =
    match sink with
    | None -> emit
    | Some _ ->
        let live = ref (-1) in
        fun ev ->
          (match ev with
          | Event.Inv (id, _) ->
              if !live <> id then begin
                live := id;
                Tm_stm.Trace.record_mark ~fiber:thread ~txn:id
                  Tm_stm.Trace.Began
              end
          | Event.Res (id, Event.Committed) ->
              live := -1;
              Tm_stm.Trace.record_mark ~fiber:thread ~txn:id
                Tm_stm.Trace.Committed
          | Event.Res (id, Event.Aborted) ->
              live := -1;
              Tm_stm.Trace.record_mark ~fiber:thread ~txn:id
                Tm_stm.Trace.Aborted
          | Event.Res (_, _) -> ());
          emit ev
  in
  let ids = ref 1 in
  let next_id () =
    let id = !ids in
    incr ids;
    id
  in
  let stats = Tm_stm.Harness.empty_stats () in
  let fibers =
    List.mapi
      (fun thread thread_prog () ->
        Tm_stm.Harness.run_thread instance ~emit:(emit_marked thread)
          ~next_id ~stats ~faults:injector ~pause ~retry ~thread thread_prog)
      programs
  in
  let extract () =
    let events = Tm_stm.Faults.truncate faults (List.rev !log) in
    let trace =
      Option.map
        (fun s ->
          Tm_stm.Trace.uninstall ();
          Tm_stm.Trace.entries s)
        sink
    in
    { history = History.of_events_exn events; stats; trace }
  in
  (fibers, extract)

let run ?max_retries ?retry ?faults ?trace ~stm ~params ~seed () =
  let fibers, extract =
    setup ?max_retries ?retry ?faults ?trace ~stm ~params ~seed ()
  in
  Sched.run_seeded ~seed:(seed + 0x5eed) fibers;
  extract ()
