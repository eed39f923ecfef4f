(* Timing and summary statistics shared by every workload. *)

let now = Tm_safety.Stm.Clock.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* [time], in this process's CPU time (user + system, every thread). *)
let cpu_time f =
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let t0 = cpu () in
  let r = f () in
  (r, cpu () -. t0)

(* The host's speed moves within a run: on the 2-vCPU VM this benchmark
   was tuned on, a fixed loop takes 12 ms one second and 19 ms the next,
   and whole runs of a check came out 20-40% apart.  [host_probe_ms] times
   a fixed, cache-resident reference loop (hash-table inserts and a walk
   over a 512 KB array) in CPU time. *)
let probe_walk = Array.init 65536 (fun i -> (i * 7919) land 65535)

let host_probe_ms () =
  let (), dt =
    cpu_time (fun () ->
        let t = Hashtbl.create 16 in
        for i = 0 to 5_000 do Hashtbl.replace t (i * 31) i done;
        let j = ref 0 in
        for _ = 0 to 400_000 do j := probe_walk.((!j + 12345) land 65535) done;
        ignore (Sys.opaque_identity !j))
  in
  dt *. 1e3

(* The probe's time on the reference host. *)
let reference_probe_ms = 4.

(* [cpu_time f], scaled to the reference host by the probe run just
   before: a CPU-bound time measured on a host momentarily 30% slower
   reads as on the reference host.  Only work on this process's thread is
   scaled; the probe tracks the CPU it runs on. *)
let scaled_cpu_time f =
  let p = host_probe_ms () in
  let r, dt = cpu_time f in
  (r, dt *. reference_probe_ms /. p)

let sorted l = Array.of_list (List.sort compare l)

(* Linear-interpolated quantile of a sorted array, [q] in [0, 1]. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile (sorted l) 0.5

(* The highest percentile with at least ten samples beyond it: the value at
   rank n - 11, which is the (n - 10)/n quantile.  Below eleven samples no
   percentile qualifies and the maximum is reported instead.  Returns
   (value, percentile, samples beyond it). *)
let tail l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then (nan, nan, 0)
  else if n <= 10 then (a.(n - 1), 100., 0)
  else (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n, 10)

(* [tail] of each consecutive block of [block] samples (in arrival
   order), and the median of those: one burst of outliers moves one block,
   not the figure.  Below two blocks it is [tail] of all samples.  Returns
   (value, percentile within a block, block size, blocks). *)
let block_tail ?(block = 100) l =
  let n = List.length l in
  if n < 2 * block then
    let v, pct, _ = tail l in
    (v, pct, n, 1)
  else
    let blocks = Array.make (n / block) [] in
    List.iteri (fun i x -> if i / block < n / block then blocks.(i / block) <- x :: blocks.(i / block)) l;
    let tails = Array.to_list (Array.map (fun b -> let v, _, _ = tail b in v) blocks) in
    let _, pct, _ = tail blocks.(0) in
    (median tails, pct, block, n / block)

(* Peak resident set size (VmHWM) of a process, "self" by default, in MB. *)
let peak_rss_mb ?(pid = "self") () =
  match open_in ("/proc/" ^ pid ^ "/status") with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
            | kb -> float_of_int kb /. 1024.
            | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
                scan ())
      in
      let v = scan () in
      close_in ic;
      v

(* Reset this process's VmHWM to its current resident size, so a later
   [peak_rss_mb] covers only what runs after. *)
let reset_peak_rss () =
  match open_out "/proc/self/clear_refs" with
  | oc ->
      output_string oc "5";
      close_out_noerr oc
  | exception Sys_error _ -> ()

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun nm -> rm_rf (Filename.concat path nm))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* [chunks n l] splits [l] into consecutive lists of at most [n]. *)
let chunks n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: tl ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 tl
        else go acc (x :: cur) (k + 1) tl
  in
  go [] [] 0 l

let take n l = List.filteri (fun i _ -> i < n) l
