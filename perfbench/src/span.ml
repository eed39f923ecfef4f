(* In-memory spans recorded by the benchmark around its calls into each
   layer.  A span is (name, start, end, parent, session); spans of one
   session share the session id.  Nothing is recorded unless [enabled] is
   set, so the untraced run pays one branch per call site.  Spans are
   written out when the run ends, and a layer's self time is its spans'
   durations minus the part their child spans cover. *)

type t = {
  id : int;
  parent : int;  (* -1 for a root span *)
  name : string;
  session : int;
  start : float;
  mutable stop : float;
}

let enabled = ref false
let lock = Mutex.create ()
let spans : t list ref = ref []
let next_id = ref 0

(* Innermost open span per thread, for parent links. *)
let current : (int, int) Hashtbl.t = Hashtbl.create 8

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let enter name session =
  let tid = Thread.id (Thread.self ()) in
  with_lock (fun () ->
      let parent = Option.value (Hashtbl.find_opt current tid) ~default:(-1) in
      let s =
        { id = !next_id; parent; name; session; start = Measure.now (); stop = nan }
      in
      incr next_id;
      spans := s :: !spans;
      Hashtbl.replace current tid s.id;
      s)

let leave s =
  let tid = Thread.id (Thread.self ()) in
  s.stop <- Measure.now ();
  with_lock (fun () -> Hashtbl.replace current tid s.parent)

let run ?(session = 0) name f =
  if not !enabled then f ()
  else begin
    let s = enter name session in
    Fun.protect ~finally:(fun () -> leave s) f
  end

let all () = List.rev !spans

(* Seconds of each span not covered by its children.  Children of one
   span are sequential calls on the span's own thread, so their durations
   add up without overlap. *)
let self_times () =
  let spans = all () in
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s.stop -. s.start
          +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.))
    spans;
  List.map
    (fun s ->
      let covered = Option.value (Hashtbl.find_opt children s.id) ~default:0. in
      (s, s.stop -. s.start -. covered))
    spans

(* Total self seconds and span count per name. *)
let by_name () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let t, n = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0., 0) in
      Hashtbl.replace tbl s.name (t +. self, n + 1))
    (self_times ());
  tbl

let self_s name =
  match Hashtbl.find_opt (by_name ()) name with Some (t, _) -> t | None -> 0.

let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
    (all ())

let write path =
  let oc = open_out path in
  Printf.fprintf oc "id\tparent\tname\tsession\tstart_s\tend_s\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%s\t%d\t%.9f\t%.9f\n" s.id s.parent s.name
        s.session s.start s.stop)
    (all ());
  close_out oc
