(* The repository benchmark (see BENCHMARK.json).

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --emit-expected gates|energies

   Run from the checkout root (perfbench/run.py builds and starts it).
   The last stdout line is the result object; the line before it is the
   run record (seed, host probe, pass and tail-sample counts).  With
   --trace 1 the spans are also written to .bench_out/. *)

open Workloads

let workloads = [ "table1_flow"; "layout_sim"; "gate_domains"; "serve_session" ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       bench.exe --emit-expected gates|energies\n\
     workloads: table1_flow layout_sim gate_domains serve_session";
  exit 2

let parse_args () =
  let rec go acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] (List.tl (Array.to_list Sys.argv))


let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float m.value) m.unit_)
          metrics))

let print_record fields =
  Printf.printf "{\"run\": {%s}}\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields))

(* Layers the replay reaches only indirectly, with the reason. *)
let indirect =
  [
    ( "layout.supertile_ms, bestagon.library_ms",
      "taken from the table1_flow replay: on serve_session hits they run inside Handlers.run_job, \
       which has no hook between its flow calls" );
    ( "sidb.ground_state_share",
      "operational_at exposes no hook around its solves; its charge-system builds and pruned \
       solves are repeated from outside on sampled points" );
    ( "serve.memo_hit_rate, serve.failed_or_retried",
      "read from the server's stats response, not from spans" );
  ]

let timed_run name ~seed ~seconds =
  match name with
  | "table1_flow" -> Table1.run ~seed ~seconds
  | "layout_sim" -> Layout_sim.run ~seed ~seconds
  | "gate_domains" -> Gate_domains.run ~seed ~seconds
  | _ -> Serve_session.run ~seed ~seconds

(* One traced run replays every workload (so every per-layer metric is
   measured in it), in rounds starting with [first], until the next
   round would overrun [seconds]; at least one round. *)
let traced_run first ~seed ~seconds =
  let table1 = Table1.traced ~seed in
  let layout_sim = Layout_sim.traced ~seed in
  let gate_domains = Gate_domains.traced ~seed in
  let serve = Serve_session.traced ~seed in
  let all =
    [ ("table1_flow", table1); ("layout_sim", layout_sim); ("gate_domains", gate_domains);
      ("serve_session", serve) ]
  in
  let rec rotate = function
    | (n, _) :: _ as l when n = first -> l
    | x :: rest -> rotate (rest @ [ x ])
    | [] -> []
  in
  let order = List.map snd (rotate all) in
  let t0 = Measure.now () in
  let rounds = ref 0 and last = ref 0. in
  while !rounds = 0 || Measure.now () -. t0 +. !last <= seconds do
    let r0 = Measure.now () in
    List.iter (fun w -> w.round !rounds) order;
    last := Measure.now () -. r0;
    incr rounds
  done;
  let metrics = List.concat_map (fun (_, w) -> w.layer_metrics ()) all in
  (metrics, !rounds)

let emit_expected = function
  | "gates" ->
      let gates = Gate_domains.prepare () in
      print_endline "# gate  operational points of the 32x32 grid sweep (mu_minus x epsilon_r)";
      List.iter
        (fun g ->
          let d =
            Sidb.Operational_domain.sweep ~jobs:Gate_domains.jobs ~x_axis:Gate_domains.x_axis
              ~y_axis:Gate_domains.y_axis g.Gate_domains.structure ~spec:g.Gate_domains.spec
          in
          Printf.printf "%s %d\n%!" g.Gate_domains.gate
            (Gate_domains.operational_points (Gate_domains.classes d)))
        gates
  | "energies" ->
      print_endline "# circuit  input bits (PI order)  best whole-layout ground-state energy (eV)";
      List.iter
        (fun d ->
          List.iter
            (fun bits ->
              match
                Core.Flow.simulate_layout ~inputs:(Layout_sim.inputs d bits) d.Layout_sim.result
              with
              | Ok s -> Printf.printf "%s %s %.17g\n%!" d.Layout_sim.circuit bits s.Core.Flow.sim_energy
              | Error e -> failwith e)
            (Layout_sim.all_bits (Array.length d.Layout_sim.pis)))
        (Layout_sim.prepare ())
  | _ -> usage ()

let () =
  let args = parse_args () in
  match List.assoc_opt "emit-expected" args with
  | Some what -> emit_expected what
  | None ->
      let get key = match List.assoc_opt key args with Some v -> v | None -> usage () in
      let int_arg key = match int_of_string_opt (get key) with Some v -> v | None -> usage () in
      let workload = get "workload" in
      if not (List.mem workload workloads) then usage ();
      let seed = int_arg "seed" and seconds = float_of_int (int_arg "seconds") in
      let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
      if seconds <= 0. then usage ();
      let calib_start = Measure.calibrate () in
      let metrics, attempted, failed, record =
        if trace then begin
          let metrics, rounds = traced_run workload ~seed ~seconds in
          let path = Printf.sprintf ".bench_out/trace-%s-seed%d.jsonl" workload seed in
          if not (Sys.file_exists ".bench_out") then Sys.mkdir ".bench_out" 0o755;
          Measure.write_spans ~origin:Measure.process_start path;
          ( metrics,
            !Workloads.replayed,
            !Workloads.failures,
            [
              ("rounds", string_of_int rounds);
              ("spans", Printf.sprintf "%S" path);
              ( "indirect",
                "["
                ^ String.concat ", "
                    (List.map (fun (m, why) -> Printf.sprintf "{\"metrics\": %S, \"reason\": %S}" m why) indirect)
                ^ "]" );
            ] )
        end
        else
          let r = timed_run workload ~seed ~seconds in
          ( r.metrics,
            r.attempted,
            r.failed,
            r.info )
      in
      let calib_end = Measure.calibrate () in
      let calib = (calib_start +. calib_end) /. 2. in
      let metrics =
        if trace then metric "host.calib_ms" "ms" calib :: metrics else metrics
      in
      let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
      print_record
        ([
           ("workload", Printf.sprintf "%S" workload);
           ("seed", string_of_int seed);
           ("trace", string_of_bool trace);
           ("host.calib_ms", Printf.sprintf "{\"start\": %s, \"end\": %s}" (json_float calib_start) (json_float calib_end));
           ("jobs", string_of_int (if workload = "gate_domains" then Gate_domains.jobs else Parallel.Pool.default_jobs ()));
         ]
        @ record);
      print_result ~correct:(failed = 0 && finite) ~attempted ~failed metrics
