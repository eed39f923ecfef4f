type outcome = {
  runs : int;
  exhaustive : bool;
  schedules_pruned : int;
  reduction_factor : float;
}

type algo = [ `Dpor | `Naive ]

let dependent a b =
  match a, b with
  | Sched.Access a1, Sched.Access a2 ->
      a1.loc = a2.loc
      && (Tm_stm.Trace.is_write a1.kind || Tm_stm.Trace.is_write a2.kind)
  | _, _ -> false

(* A transition's footprint: its announced access, then the notes its
   slice made ({!Sched.note}), in order. *)
let footprint annot notes =
  match annot with
  | Sched.Access _ -> annot :: notes
  | Sched.Start | Sched.Pause -> notes

let conflicting fp fp' = List.exists (fun a -> List.exists (dependent a) fp') fp

let is_write_annot = function
  | Sched.Access { kind; _ } -> Tm_stm.Trace.is_write kind
  | Sched.Start | Sched.Pause -> false

(* Abandon the current execution from inside the chooser.  The dropped
   continuations are simply discarded; simulated programs hold no external
   resources. *)
exception Abandon of [ `Sleep_blocked | `Steps ]

(* --- the execution engine ------------------------------------------------

   Both explorers enumerate schedules of the same transition system: the
   annotated scheduler with {e pause parking}.  A fiber that yields through
   [pause] (a spin-wait / backoff hint, {!Tm_stm.Mem_intf.MEM.pause}) is
   parked — removed from the choice set — until some fiber performs a
   shared-memory write, the only thing that can change what the spin loop
   observes.  Spin bodies are pure between accesses (each access is its own
   transition, {!Sim_mem} yields before it), so parking only collapses
   stuttering; it is what keeps the schedule space finite in the presence
   of unbounded spin loops (global-lock acquisition, NOrec's [wait_even],
   ...), which branch-everywhere enumeration cannot even terminate on.
   When every runnable fiber is parked the parking is dropped for one step,
   so progress is never lost. *)

(* Run one schedule.  [script step enabled] returns the {e fiber id} to run
   at [step], chosen among [enabled] (queue order, parked fibers already
   filtered out).  Returns [Some result] when every fiber finished, [None]
   when the script abandoned the execution with {!Abandon} [`Steps]. *)
let execute_schedule ?on_note ~make ~script () =
  let fibers, extract = make () in
  let parked : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let prev = ref None in
  let step = ref 0 in
  let choose (infos : Sched.fiber_info array) =
    (match !prev with
    | Some (id, annot) ->
        (* A write wakes every parked spinner; a fiber that just yielded
           through [pause] parks.  In this order: the waking write precedes
           the pause in program order when both are the same fiber's. *)
        if is_write_annot annot then Hashtbl.reset parked;
        Array.iter
          (fun (fi : Sched.fiber_info) ->
            if fi.Sched.id = id && fi.Sched.annot = Sched.Pause then
              Hashtbl.replace parked id ())
          infos
    | None -> ());
    let enabled =
      let live =
        Array.to_list infos
        |> List.filter (fun (fi : Sched.fiber_info) ->
               not (Hashtbl.mem parked fi.Sched.id))
      in
      if live = [] then begin
        (* Everyone is spinning: drop the parking for one step. *)
        Hashtbl.reset parked;
        infos
      end
      else Array.of_list live
    in
    let id = script !step enabled in
    let fi =
      match
        Array.to_list enabled
        |> List.find_opt (fun (fi : Sched.fiber_info) -> fi.Sched.id = id)
      with
      | Some fi -> fi
      | None -> invalid_arg "Explore: script chose a non-enabled fiber"
    in
    prev := Some (fi.Sched.id, fi.Sched.annot);
    incr step;
    (* Map the fiber id back to its index in the full runnable queue. *)
    let rec find i =
      if i >= Array.length infos then
        invalid_arg "Explore: chosen fiber is not runnable"
      else if infos.(i).Sched.id = id then i
      else find (i + 1)
    in
    find 0
  in
  match Sched.run_info ?on_note ~choose fibers with
  | () -> Some (extract ())
  | exception Abandon `Steps -> None

let default_max_steps = 200_000

(* --- naive DFS -----------------------------------------------------------

   Branch at every scheduling point, one child per alternative enabled
   fiber: every schedule of the (parked) transition system, exactly once.
   Kept as the ground truth the DPOR explorer is differentially tested
   against, and as the baseline its reduction factor is measured from. *)

let run_naive ?(max_runs = 10_000) ?(max_steps = default_max_steps) ~make
    ~on_result () =
  (* Stable location ids across re-executions (see {!Tm_stm.Trace.loc_reset}):
     recorded traces of different schedules name the same cell the same
     way. *)
  let mark = Tm_stm.Trace.loc_mark () in
  let make () =
    Tm_stm.Trace.loc_reset mark;
    make ()
  in
  let stack = ref [ [||] ] in
  let runs = ref 0 in
  let cut = ref false in
  let rec loop () =
    match !stack with
    | [] -> ()
    | _ when !cut -> ()
    | prefix :: rest ->
        stack := rest;
        if !runs >= max_runs then cut := true
        else begin
          let factors = ref [] in
          let script s (enabled : Sched.fiber_info array) =
            if s >= max_steps then raise (Abandon `Steps);
            let n = Array.length enabled in
            factors := n :: !factors;
            let i =
              if s < Array.length prefix then begin
                let i = prefix.(s) in
                if i < 0 || i >= n then
                  invalid_arg
                    (Printf.sprintf
                       "Explore: schedule step %d chooses enabled fiber \
                        #%d but only %d fiber%s enabled"
                       s i n
                       (if n = 1 then " is" else "s are"));
                i
              end
              else 0
            in
            enabled.(i).Sched.id
          in
          (match execute_schedule ~make ~script () with
          | Some result ->
              incr runs;
              on_result result;
              (* Branch at every scheduling point at or after the prefix
                 end, pushing deeper branch points first (DFS order). *)
              let factors = Array.of_list (List.rev !factors) in
              for pos = Array.length factors - 1 downto Array.length prefix
              do
                for choice = factors.(pos) - 1 downto 1 do
                  let child = Array.make (pos + 1) 0 in
                  Array.blit prefix 0 child 0 (Array.length prefix)
                  (* positions [length prefix .. pos-1] stay 0 *);
                  child.(pos) <- choice;
                  stack := child :: !stack
                done
              done
          | None ->
              (* Livelocked schedule (crashed lock holder, ...): the bound
                 cut it short, so the enumeration is not exhaustive and
                 continuing would branch from a truncated run. *)
              cut := true);
          loop ()
        end
  in
  loop ();
  {
    runs = !runs;
    exhaustive = not !cut;
    schedules_pruned = 0;
    reduction_factor = 1.0;
  }

(* --- DPOR ----------------------------------------------------------------

   Dynamic partial-order reduction (Flanagan–Godefroid 2005) with sleep
   sets.  One execution per explored schedule; as each transition executes,
   the dependency relation between shared-memory accesses (same location,
   at least one write) decides which earlier scheduling points must be
   revisited with a different fiber — backtrack sets, computed with
   per-fiber vector clocks — and sleep sets prune schedules that only
   reorder independent steps of an already-explored one.  Because
   {!Sim_mem} announces each access {e at the yield before it}, every
   runnable fiber's next transition is known without executing it, which
   is what makes the sleep-set independence checks exact.

   A transition's footprint is its access plus the notes its slice makes
   ({!Sched.note}), known only once it has run: its clock, races and child
   sleep set are settled at the next choice (or the end).  A sleeping
   transition keeps the footprint it was explored with; only independent
   steps run while it sleeps, so it is the same transition.

   State is re-executed, not checkpointed: to branch, the retained stack of
   frames is replayed from the start (the program is deterministic, which
   replay asserts by comparing enabled sets). *)

module Iset = Set.Make (Int)

type frame = {
  f_enabled : Sched.fiber_info array;  (* choice set at this state *)
  mutable f_chosen : int;  (* fiber id executed from this state *)
  mutable f_annot : Sched.annot;  (* its transition *)
  mutable f_clock : int array;  (* vector clock of that transition *)
  mutable f_backtrack : Iset.t;  (* fiber ids that must also be tried *)
  mutable f_done : Iset.t;  (* fiber ids already tried (or slept over) *)
  mutable f_notes : Sched.annot list;  (* its slice's notes *)
  mutable f_sleep : (int * Sched.annot list) list;
      (* sleeping on entry, each with its footprint *)
}

(* Per-location access memory for one execution: the last write and the
   reads since, each with the clock of the transition that performed it. *)
type loc_state = {
  mutable l_write : (int * int * int array) option;  (* step, fiber, clock *)
  mutable l_reads : (int * int * int array) list;
}

let enabled_ids (e : Sched.fiber_info array) =
  Array.to_list e |> List.map (fun (fi : Sched.fiber_info) -> fi.Sched.id)

let annot_of (e : Sched.fiber_info array) id =
  let rec go i =
    if i >= Array.length e then Sched.Start
    else if e.(i).Sched.id = id then e.(i).Sched.annot
    else go (i + 1)
  in
  go 0

(* [clock c ≤ clock c'] restricted to [owner]'s component — the standard
   happens-before test when [c] is the clock of a transition [owner]
   performed. *)
let vc_leq_at c c' owner = c.(owner) <= c'.(owner)

let run ?(max_runs = 10_000) ?(max_steps = default_max_steps) ~make
    ~on_result () =
  (* Stable location ids across re-executions: a cell created by the k-th
     allocation gets the same id in every execution, which is what lets
     sleep-set annotations and backtrack bookkeeping recorded in one
     execution apply to the next (see {!Tm_stm.Trace.loc_reset}). *)
  let mark = Tm_stm.Trace.loc_mark () in
  let make () =
    Tm_stm.Trace.loc_reset mark;
    make ()
  in
  let frames : frame array ref = ref [||] in
  let n_frames = ref 0 in
  let runs = ref 0 in
  let cut = ref false in
  let pruned = ref 0 in
  let push_frame f =
    if !n_frames = Array.length !frames then begin
      let a = Array.make (max 64 (2 * Array.length !frames)) f in
      Array.blit !frames 0 a 0 !n_frames;
      frames := a
    end;
    !frames.(!n_frames) <- f;
    incr n_frames
  in
  (* One execution: replay the retained frames' choices, then follow the
     default policy (first enabled fiber not asleep), updating clocks and
     backtrack sets as every transition is appended. *)
  let execute_once () =
    (* Every fiber is enabled, with its [Start], at the first choice: that
       sizes the clock matrix. *)
    let vcs = ref [||] in
    let locs : (int, loc_state) Hashtbl.t = Hashtbl.create 64 in
    let sleep_now = ref [] in
    (* The transition chosen last, still running or awaiting [settle]. *)
    let running = ref None in
    let notes = ref [] in
    let on_note ~loc kind = notes := Sched.Access { loc; kind } :: !notes in
    (* Clocks, races and the child sleep set of transition [s], once its
       slice has run and its footprint is known. *)
    let settle () =
      match !running with
      | None -> ()
      | Some (s, (frame : frame)) ->
          running := None;
          frame.f_notes <- List.rev !notes;
          notes := [];
          let p = frame.f_chosen and cp = !vcs.(frame.f_chosen) in
          let fp = footprint frame.f_annot frame.f_notes in
          let state loc =
            match Hashtbl.find_opt locs loc with
            | Some st -> st
            | None ->
                let st = { l_write = None; l_reads = [] } in
                Hashtbl.add locs loc st;
                st
          in
          (* Per access, the most recent dependent transitions: the clock
             joins them all, and those not already ordered before [p]'s
             clock as it was before this transition race with it. *)
          let clock = Array.copy cp and races = ref [] in
          List.iter
            (function
              | Sched.Access { loc; kind } ->
                  let st = state loc in
                  let w = Option.to_list st.l_write in
                  let dep =
                    if Tm_stm.Trace.is_write kind then w @ st.l_reads else w
                  in
                  List.iter
                    (fun ((_, f, c) as t) ->
                      Array.iteri (fun i v -> clock.(i) <- max clock.(i) v) c;
                      if f <> p && not (vc_leq_at c cp f) then
                        races := t :: !races)
                    dep
              | Sched.Start | Sched.Pause -> ())
            fp;
          clock.(p) <- clock.(p) + 1;
          (* Backtrack (Flanagan–Godefroid): for each race at state [i],
             request [p] there if enabled, otherwise a fiber whose explored
             transition happens-before this one (it stands proxy for [p]),
             otherwise conservatively everything enabled. *)
          List.iter
            (fun (i, _, _) ->
              let fi = !frames.(i) in
              let en = enabled_ids fi.f_enabled in
              let considered = Iset.union fi.f_backtrack fi.f_done in
              let add q =
                if not (Iset.mem q considered) then
                  fi.f_backtrack <- Iset.add q fi.f_backtrack
              in
              if List.mem p en then add p
              else begin
                let rec proxy j =
                  if j >= s then None
                  else
                    let fj = !frames.(j) in
                    if
                      List.mem fj.f_chosen en
                      && vc_leq_at fj.f_clock clock fj.f_chosen
                    then Some fj.f_chosen
                    else proxy (j + 1)
                in
                match proxy (i + 1) with
                | Some q -> add q
                | None -> List.iter add en
              end)
            !races;
          List.iter
            (function
              | Sched.Access { loc; kind } ->
                  let st = state loc in
                  if Tm_stm.Trace.is_write kind then begin
                    st.l_write <- Some (s, p, clock);
                    st.l_reads <- []
                  end
                  else st.l_reads <- (s, p, clock) :: st.l_reads
              | Sched.Start | Sched.Pause -> ())
            fp;
          !vcs.(p) <- clock;
          frame.f_clock <- clock;
          (* The child state's sleep set: survivors independent of it. *)
          sleep_now :=
            List.filter (fun (_, fp') -> not (conflicting fp' fp)) frame.f_sleep
    in
    let script s (enabled : Sched.fiber_info array) =
      settle ();
      if s = 0 then begin
        let n = Array.length enabled in
        vcs := Array.init n (fun _ -> Array.make n 0)
      end;
      if s >= max_steps then raise (Abandon `Steps);
      let frame =
        if s < !n_frames then begin
          let f = !frames.(s) in
          if enabled_ids f.f_enabled <> enabled_ids enabled then
            invalid_arg
              (Printf.sprintf
                 "Explore: non-deterministic program (step %d enabled \
                  set changed between executions)"
                 s);
          sleep_now := f.f_sleep;
          f
        end
        else begin
          (* Fresh state.  If every enabled fiber is asleep, any completion
             of this schedule only reorders independent steps of an
             already-explored one: abandon. *)
          let sleeping id = List.mem_assoc id !sleep_now in
          let chosen =
            let rec go i =
              if i >= Array.length enabled then
                raise (Abandon `Sleep_blocked)
              else
                let id = enabled.(i).Sched.id in
                if sleeping id then go (i + 1) else id
            in
            go 0
          in
          let f =
            {
              f_enabled = Array.copy enabled;
              f_chosen = chosen;
              f_annot = annot_of enabled chosen;
              f_clock = [||];
              f_backtrack = Iset.empty;
              f_done = Iset.singleton chosen;
              f_notes = [];
              f_sleep = !sleep_now;
            }
          in
          push_frame f;
          f
        end
      in
      frame.f_annot <- annot_of enabled frame.f_chosen;
      running := Some (s, frame);
      frame.f_chosen
    in
    let result = execute_schedule ~on_note ~make ~script () in
    settle ();
    result
  in
  let rec explore () =
    if !runs >= max_runs then cut := true
    else begin
      (match execute_once () with
      | Some result ->
          incr runs;
          on_result result
      | None -> cut := true
      | exception Abandon `Sleep_blocked -> incr pruned);
      (* Backtrack to the deepest state with an unserved request; the
         branch we leave goes to sleep there (its subtree is covered). *)
      let rec backtrack () =
        if !n_frames = 0 then false
        else begin
          let f = !frames.(!n_frames - 1) in
          let rec pick () =
            match Iset.min_elt_opt (Iset.diff f.f_backtrack f.f_done) with
            | None -> None
            | Some q ->
                f.f_done <- Iset.add q f.f_done;
                if List.mem_assoc q f.f_sleep then begin
                  (* Already covered by a sibling's subtree. *)
                  incr pruned;
                  pick ()
                end
                else Some q
          in
          match pick () with
          | Some q ->
              f.f_sleep <-
                (f.f_chosen, footprint f.f_annot f.f_notes) :: f.f_sleep;
              f.f_chosen <- q;
              f.f_annot <- annot_of f.f_enabled q;
              true
          | None ->
              pruned :=
                !pruned
                + max 0 (Array.length f.f_enabled - Iset.cardinal f.f_done);
              decr n_frames;
              backtrack ()
        end
      in
      if (not !cut) && backtrack () then explore ()
    end
  in
  explore ();
  let runs' = max 1 !runs in
  {
    runs = !runs;
    exhaustive = not !cut;
    schedules_pruned = !pruned;
    reduction_factor = float_of_int (runs' + !pruned) /. float_of_int runs';
  }

(* --- STM workload front ends --------------------------------------------- *)

let run_algo = function `Dpor -> run | `Naive -> run_naive

let explore_stm_results ?(algo = `Dpor) ?max_runs ?max_steps ?max_retries
    ?retry ?faults ?trace ~stm ~params ~seed ~on_result () =
  let make () =
    Runner.setup ?max_retries ?retry ?faults ?trace ~notes:(algo = `Dpor) ~stm
      ~params ~seed ()
  in
  let outcome = run_algo algo ?max_runs ?max_steps ~make ~on_result () in
  (* Abandoned executions never reach the extractor, which is what
     uninstalls the per-execution recorder. *)
  if trace = Some true then Tm_stm.Trace.uninstall ();
  outcome

let explore_stm ?algo ?max_runs ?max_steps ?max_retries ?retry ?faults ~stm
    ~params ~seed ~on_history () =
  explore_stm_results ?algo ?max_runs ?max_steps ?max_retries ?retry ?faults
    ~stm ~params ~seed
    ~on_result:(fun (r : Runner.result) -> on_history r.Runner.history)
    ()
