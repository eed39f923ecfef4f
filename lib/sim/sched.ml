type annot =
  | Start
  | Pause
  | Access of { loc : int; kind : Tm_stm.Trace.kind }

type _ Effect.t += Yield : annot -> unit Effect.t

let yield_annot a =
  try Effect.perform (Yield a)
  with Effect.Unhandled _ ->
    failwith "Sched.yield: no scheduler is running"

let yield () = yield_annot Pause
let yield_access ~loc kind = yield_annot (Access { loc; kind })

type _ Effect.t += Note : int * Tm_stm.Trace.kind -> unit Effect.t

let note ~loc kind =
  try Effect.perform (Note (loc, kind)) with Effect.Unhandled _ -> ()

(* The fiber whose slice is currently executing; [-1] outside [run].
   Everything is single-domain, so a plain ref suffices. *)
(* lint: allow domain-safety — the simulator's scheduler and every fiber it
   runs share one domain; no other domain reads or writes this cell *)
let current_id = ref (-1)
let current_fiber () = if !current_id < 0 then None else Some !current_id

type fiber_info = { id : int; annot : annot }

(* The runnable set, indexed exactly like the FIFO list it replaces: slot 0
   is the oldest enqueued fiber, [push] appends after the newest, and
   [remove i] closes the gap while preserving the relative order of the
   survivors.  [choose] therefore sees the same [n] and the same meaning of
   every index as before, so seeded schedules are bit-for-bit unchanged —
   but enqueue is O(1) amortised and removal one [Array.blit] instead of
   the former O(n) append + O(n) nth + O(n) filteri per slice. *)
module Dynarray = struct
  type 'a t = { mutable arr : 'a option array; mutable len : int }

  let create () = { arr = Array.make 8 None; len = 0 }

  let push q x =
    let cap = Array.length q.arr in
    if q.len = cap then begin
      let arr = Array.make (2 * cap) None in
      Array.blit q.arr 0 arr 0 q.len;
      q.arr <- arr
    end;
    q.arr.(q.len) <- Some x;
    q.len <- q.len + 1

  let length q = q.len

  let get q i =
    match q.arr.(i) with
    | Some x -> x
    | None -> invalid_arg "Sched: empty runnable slot"

  let remove q i =
    Array.blit q.arr (i + 1) q.arr i (q.len - i - 1);
    q.len <- q.len - 1;
    q.arr.(q.len) <- None
end

let run_info ?(on_note = fun ~loc:_ _ -> ()) ~choose fibers =
  (* Runnable fibers: id, pending annotation (what the fiber will do when
     resumed), and the thunk advancing it one slice. *)
  let runnable : (fiber_info * (unit -> unit)) Dynarray.t =
    Dynarray.create ()
  in
  let enqueue info t = Dynarray.push runnable (info, t) in
  let handler : (unit, unit) Effect.Deep.handler =
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield annot ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  let id = !current_id in
                  enqueue { id; annot } (fun () ->
                      Effect.Deep.continue k ()))
          | Note (loc, kind) ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  on_note ~loc kind;
                  Effect.Deep.continue k ())
          | _ -> None);
    }
  in
  List.iteri
    (fun id fiber ->
      enqueue { id; annot = Start } (fun () ->
          Effect.Deep.match_with fiber () handler))
    fibers;
  let rec loop () =
    let n = Dynarray.length runnable in
    if n > 0 then begin
      let infos = Array.init n (fun i -> fst (Dynarray.get runnable i)) in
      let i = choose infos in
      if i < 0 || i >= n then invalid_arg "Sched.run: chooser out of range";
      let info, fiber = Dynarray.get runnable i in
      Dynarray.remove runnable i;
      current_id := info.id;
      fiber ();
      current_id := -1;
      loop ()
    end
  in
  (try loop ()
   with e ->
     current_id := -1;
     raise e);
  current_id := -1

let run ~choose fibers =
  run_info ~choose:(fun infos -> choose (Array.length infos)) fibers

let run_random rng fibers =
  run ~choose:(fun n -> Random.State.int rng n) fibers

let run_seeded ~seed fibers = run_random (Random.State.make [| seed |]) fibers
