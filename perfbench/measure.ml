(* Clocks, seeded randomness, summary statistics and the in-memory span
   recorder shared by every workload. *)

let now = Unix.gettimeofday
let process_start = now ()

(* splitmix64: one stream per (seed, purpose) pair, so adding a draw in
   one place never shifts the inputs drawn elsewhere. *)
let splitmix64 x =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let stream ~seed ~salt =
  let state = ref (splitmix64 (Int64.of_int ((seed * 7919) + salt))) in
  fun bound ->
    state := splitmix64 !state;
    Int64.to_int (Int64.unsigned_rem !state (Int64.of_int bound))

let shuffle rand a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = rand (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* --- statistics --------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile; [p] in (0, 1]. *)
let rank ~p n = max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n))))

let percentile p xs =
  let a = sorted xs in
  if Array.length a = 0 then nan else a.(rank ~p (Array.length a) - 1)

let median xs = percentile 0.5 xs

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0. xs

(* Group [(key, value)] pairs by key, keys in first-seen order. *)
let group pairs =
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some l -> Hashtbl.replace tbl k (v :: l)
      | None ->
          order := k :: !order;
          Hashtbl.add tbl k [ v ])
    pairs;
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find tbl k))) !order

(* --- host and process probes -------------------------------------------- *)

(* A fixed integer loop: its time tells a run that landed on a slow host
   phase apart from a slow program. *)
let calibrate () =
  let t0 = now () in
  let x = ref 0x2545F491 in
  for _ = 1 to 30_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  ignore (Sys.opaque_identity !x);
  (now () -. t0) *. 1000.

(* --- host-speed normalization --------------------------------------------

   The 2-vCPU VMs this benchmark was proven on switch between a fast and
   a slow state, up to 1.7x apart, that last from seconds to minutes.
   A probe of fixed floating-point and integer work, none of it from
   lib/, runs after every timed op.  Each pass's op times are divided by its host
   factor: the pass's median probe time over [probe_reference_ms].  A
   program change moves the normalized times; a host state change mostly
   does not.  [probe_reference_ms] is about the probe's fast-state time
   on the proof host (Xeon 4th gen, 2 vCPUs), so normalized figures read
   as milliseconds on that host in its fast state. *)

(* Half floating-point, half integer work: 10 products of a dense
   matrix the size of c17's assembled layout (362 sites) with a vector,
   then a xorshift loop of about the same time.  In the slow state the
   float loop slows by up to 2x and the integer loop by about 1.1x; the
   flow and quicksim ops slow by about 1.5x, between the two.  A
   float-only probe over-corrected and an integer-heavy one
   under-corrected.  The probe allocates nothing, so its time does not
   depend on the program's heap. *)
let matvec_n = 362
let matrix = Array.init (matvec_n * matvec_n) (fun i -> float_of_int (i mod 97) *. 0.01)
let vector = Array.make matvec_n 1.0
let product = Array.make matvec_n 0.0

let probe () =
  for _ = 1 to 10 do
    for i = 0 to matvec_n - 1 do
      let s = ref 0.0 in
      for j = 0 to matvec_n - 1 do
        s := !s +. (matrix.((i * matvec_n) + j) *. vector.(j))
      done;
      product.(i) <- !s
    done
  done;
  ignore (Sys.opaque_identity product);
  let x = ref 0x2545F491 in
  for _ = 1 to 600_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  ignore (Sys.opaque_identity !x)

let probe_reference_ms = 5.0

(* Wall time of the probe run on [domains] domains at once, one per
   vCPU the ops use. *)
let probe_ms ?(domains = 1) () =
  let t0 = now () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn probe) in
  probe ();
  List.iter Domain.join others;
  (now () -. t0) *. 1000.

(* Median probe time over the reference, from [n] probes in a row. *)
let host_factor ?domains n =
  median (List.init n (fun _ -> probe_ms ?domains ())) /. probe_reference_ms

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* --- spans --------------------------------------------------------------- *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** -1 for a root span *)
  t0 : float;
  t1 : float;
  words : float;  (** words allocated by the calling domain inside the span *)
  counters : (string * float) list;
}

let spans : span list ref = ref []
let next_id = ref 0
let open_span = ref (-1)

let ms s = (s.t1 -. s.t0) *. 1000.

(* Time [f] as a span of [op], nested under the innermost open span.
   Spans stay in memory until {!write_spans}. *)
let span ?(counters = fun _ -> []) ~op name f =
  let id = !next_id in
  incr next_id;
  let parent = !open_span in
  open_span := id;
  let w0 = allocated_words () in
  let t0 = now () in
  let finish result_counters =
    let t1 = now () in
    let words = allocated_words () -. w0 in
    open_span := parent;
    spans :=
      { id; name; op; parent; t0; t1; words; counters = result_counters }
      :: !spans
  in
  match f () with
  | r ->
      finish (counters r);
      r
  | exception e ->
      finish [ ("raised", 1.) ];
      raise e

let spans_named name = List.filter (fun s -> s.name = name) (List.rev !spans)

let counter name s = Option.value (List.assoc_opt name s.counters) ~default:0.

(* Milliseconds of each span covered by its direct children (children
   run sequentially on one domain, so their durations do not overlap). *)
let child_ms () =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace tbl s.parent
          (ms s +. Option.value (Hashtbl.find_opt tbl s.parent) ~default:0.))
    !spans;
  fun id -> Option.value (Hashtbl.find_opt tbl id) ~default:0.

(* One JSON object per span: name, op id, parent, start/end relative to
   [origin], self time (duration minus child coverage), counters. *)
let write_spans ~origin path =
  let covered = child_ms () in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start_ms\":%.4f,\"end_ms\":%.4f,\"self_ms\":%.4f,\"words\":%.0f%s}\n"
        s.id s.name s.op s.parent
        ((s.t0 -. origin) *. 1000.)
        ((s.t1 -. origin) *. 1000.)
        (ms s -. covered s.id)
        s.words
        (String.concat ""
           (List.map
              (fun (k, v) -> Printf.sprintf ",%S:%.17g" k v)
              s.counters)))
    (List.sort (fun a b -> compare a.id b.id) !spans);
  close_out oc
