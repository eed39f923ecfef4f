type point = { thread : int; step : int }

type kind = [ `Crash | `Stall | `Spurious | `Omission ]

let all_kinds : kind list = [ `Crash; `Stall; `Spurious; `Omission ]

let kind_to_string = function
  | `Crash -> "crash"
  | `Stall -> "stall"
  | `Spurious -> "abort"
  | `Omission -> "omission"

type spec = {
  crash : point option;
  stall : point option;
  spurious : point list;
  omission : int option;
}

let none = { crash = None; stall = None; spurious = []; omission = None }

let is_none s = s = none

let pp_point ppf p = Fmt.pf ppf "t%d.%d" p.thread p.step

let pp_spec ppf s =
  if is_none s then Fmt.string ppf "-"
  else begin
    let parts =
      List.concat
        [
          (match s.crash with
          | Some p -> [ Fmt.str "crash@%a" pp_point p ]
          | None -> []);
          (match s.stall with
          | Some p -> [ Fmt.str "stall@%a" pp_point p ]
          | None -> []);
          (match s.spurious with
          | [] -> []
          | ps ->
              [
                Fmt.str "abort@%s"
                  (String.concat "," (List.map (Fmt.str "%a" pp_point) ps));
              ]);
          (match s.omission with
          | Some k -> [ Fmt.str "omit@%d" k ]
          | None -> []);
        ]
    in
    Fmt.string ppf (String.concat " " parts)
  end

let sample ?(kinds = ([ `Crash; `Stall; `Spurious ] : kind list)) ~n_threads
    ~horizon ~seed () =
  let rng = Random.State.make [| 0xfa17; seed |] in
  let n_threads = max 1 n_threads and horizon = max 1 horizon in
  let point () =
    {
      thread = Random.State.int rng n_threads;
      step = Random.State.int rng horizon;
    }
  in
  let has k = List.mem k kinds in
  (* Draw every component unconditionally so the plan for a given seed only
     depends on the seed, not on which kinds are enabled. *)
  let crash_p = point () and crash_on = Random.State.int rng 2 = 0 in
  let stall_p = point () and stall_on = Random.State.int rng 2 = 0 in
  let spurious_ps =
    let n = Random.State.int rng 3 in
    List.init 2 (fun _ -> point ()) |> List.filteri (fun i _ -> i < n)
  in
  let omit =
    max 1 (Random.State.int rng (max 2 (3 * n_threads * horizon)))
  and omit_on = Random.State.int rng 2 = 0 in
  {
    crash = (if has `Crash && crash_on then Some crash_p else None);
    stall = (if has `Stall && stall_on then Some stall_p else None);
    spurious = (if has `Spurious then spurious_ps else []);
    omission = (if has `Omission && omit_on then Some omit else None);
  }

let truncate spec events =
  match spec.omission with
  | None -> events
  | Some k -> List.filteri (fun i _ -> i < k) events

(* --- injection ---------------------------------------------------------- *)

type action = Proceed | Crash | Stall | Spurious

type t = {
  spec : spec;
  trivial : bool;  (* no boundary fault can ever fire: skip the counters *)
  cursor : int array;  (* next boundary index, one slot per thread *)
  mutable stall_fired : bool;
}

let injector ~n_threads spec =
  {
    spec;
    trivial = spec.crash = None && spec.stall = None && spec.spurious = [];
    cursor = Array.make (max 1 n_threads) 0;
    stall_fired = false;
  }

let decide t ~thread ~tryc =
  if t.trivial || thread < 0 || thread >= Array.length t.cursor then Proceed
  else begin
    let step = t.cursor.(thread) in
    t.cursor.(thread) <- step + 1;
    let at p = p.thread = thread && p.step = step in
    match t.spec.crash with
    | Some p when at p -> Crash
    | _ -> (
        match t.spec.stall with
        | Some p
          when tryc && (not t.stall_fired) && p.thread = thread
               && step >= p.step ->
            (* [stall_fired] is only ever written by the plan's target
               thread, so this is race-free even on real domains. *)
            t.stall_fired <- true;
            Stall
        | _ -> if List.exists at t.spec.spurious then Spurious else Proceed)
  end

(* --- retry policies ----------------------------------------------------- *)

type retry = { max_attempts : int; backoff : int -> int }

let retry_fixed max_attempts = { max_attempts; backoff = (fun _ -> 0) }

let retry_backoff ?(base = 1) ?(cap = 64) max_attempts =
  {
    max_attempts;
    backoff =
      (fun failures ->
        let e = min (max 0 (failures - 1)) 16 in
        min cap (base * (1 lsl e)));
  }
