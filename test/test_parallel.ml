(* Tests for the Domain pool and the serial-vs-parallel determinism
   contract of the simulation outer loops. *)

module Pool = Parallel.Pool
module D = Hexlib.Direction
module M = Logic.Mapped

(* --- pool ----------------------------------------------------------------- *)

(* [~adaptive:false] below forces the requested worker count so the
   pool machinery itself is exercised even on a single-core host, where
   the adaptive dispatcher would (correctly) fall back to serial. *)

let test_map_matches_serial () =
  List.iter
    (fun n ->
      let expected = Array.init n (fun i -> (i * i) + 1) in
      List.iter
        (fun jobs ->
          Alcotest.(check (array int))
            (Printf.sprintf "map n=%d jobs=%d" n jobs)
            expected
            (Pool.map ~adaptive:false ~jobs n (fun i -> (i * i) + 1)))
        [ 1; 2; 4; 8 ])
    [ 0; 1; 3; 17; 1000 ]

let test_map_jobs_exceed_range () =
  Alcotest.(check (array int)) "jobs > n" [| 0; 10; 20 |]
    (Pool.map ~adaptive:false ~jobs:16 3 (fun i -> 10 * i))

let test_adaptive_matches_forced () =
  (* The adaptive dispatcher (core cap + serial warm-up prefix) must be
     invisible in the results: same arrays as the forced-parallel and
     serial paths, for both instant items and items slow enough to
     out-last the warm-up cutoff and reach the parallel tail. *)
  let busy i =
    let acc = ref 0 in
    for k = 0 to 20_000 do
      acc := (!acc + (i * k)) land max_int
    done;
    !acc
  in
  List.iter
    (fun (label, n, f) ->
      let expected = Array.init n f in
      List.iter
        (fun jobs ->
          Alcotest.(check (array int))
            (Printf.sprintf "%s adaptive jobs=%d" label jobs)
            expected
            (Pool.map ~jobs n f);
          Alcotest.(check (array int))
            (Printf.sprintf "%s forced jobs=%d" label jobs)
            expected
            (Pool.map ~adaptive:false ~jobs n f))
        [ 1; 2; 4 ])
    [ ("instant", 200, fun i -> (i * 3) + 1); ("busy", 64, busy) ]

let test_map_reduce_ordered () =
  (* String concatenation is non-commutative: only an in-order merge
     gives this result. *)
  let s =
    Pool.map_reduce ~jobs:4 ~n:26 ~init:""
      ~map:(fun i -> String.make 1 (Char.chr (Char.code 'a' + i)))
      ~reduce:( ^ )
  in
  Alcotest.(check string) "ordered fold" "abcdefghijklmnopqrstuvwxyz" s

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "raise at jobs=%d" jobs)
        (Failure "boom")
        (fun () -> ignore (Pool.map ~adaptive:false ~jobs 1000 (fun i ->
             if i = 617 then failwith "boom" else i))))
    [ 1; 2; 4 ]

exception Tagged of int

let test_lowest_index_exception_wins () =
  (* Several indices raise; the contract pins the propagated exception
     to the lowest-indexed raising job, at every worker count. *)
  List.iter
    (fun jobs ->
      for _ = 1 to 20 do
        match Pool.map ~adaptive:false ~jobs 500 (fun i ->
            if i mod 83 = 7 then raise (Tagged i) else i)
        with
        | _ -> Alcotest.fail "expected an exception"
        | exception Tagged i ->
            Alcotest.(check int)
              (Printf.sprintf "lowest raising index (jobs=%d)" jobs)
              7 i
      done)
    [ 1; 2; 4; 8 ]

let test_nested_map () =
  (* The server dispatches flow jobs onto the pool while flows call
     Pool.map internally; waiters must help instead of blocking, or
     this deadlocks when every worker is stuck in an outer wait. *)
  List.iter
    (fun jobs ->
      let outer =
        Pool.map ~adaptive:false ~jobs 8 (fun i ->
            Array.fold_left ( + ) 0
              (Pool.map ~adaptive:false ~jobs 16 (fun j -> (i * 100) + j)))
      in
      let expected =
        Array.init 8 (fun i ->
            let acc = ref 0 in
            for j = 0 to 15 do
              acc := !acc + (i * 100) + j
            done;
            !acc)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "nested map (jobs=%d)" jobs)
        expected outer)
    [ 1; 2; 4 ]

let test_env_and_override () =
  Unix.putenv "FICTIONETTE_JOBS" "3";
  Alcotest.(check int) "env var read" 3 (Pool.default_jobs ());
  Unix.putenv "FICTIONETTE_JOBS" "not-a-number";
  Alcotest.(check bool) "garbage env ignored" true (Pool.default_jobs () >= 1);
  Pool.set_default_jobs 2;
  Unix.putenv "FICTIONETTE_JOBS" "7";
  Alcotest.(check int) "override beats env" 2 (Pool.default_jobs ());
  Alcotest.check_raises "non-positive rejected"
    (Invalid_argument "Parallel.Pool.set_default_jobs: jobs must be >= 1")
    (fun () -> Pool.set_default_jobs 0)

(* --- operational-domain sweep determinism --------------------------------- *)

let or_structure () =
  let tile =
    Layout.Tile.Gate
      { fn = M.Or2; ins = [ D.North_west; D.North_east ]; outs = [ D.South_east ] }
  in
  match
    ( Bestagon.Library.validation_structure tile,
      Bestagon.Library.tile_spec tile )
  with
  | Some s, Some spec -> (s, spec)
  | _ -> Alcotest.fail "no OR structure in the Bestagon library"

let small_axes () =
  ( { Sidb.Operational_domain.parameter = Sidb.Operational_domain.Mu_minus;
      from_value = -0.40; to_value = -0.24; steps = 5 },
    { Sidb.Operational_domain.parameter = Sidb.Operational_domain.Lambda_tf;
      from_value = 4.0; to_value = 6.0; steps = 3 } )

let test_sweep_serial_parallel_identical () =
  let s, spec = or_structure () in
  let x_axis, y_axis = small_axes () in
  let serial = Sidb.Operational_domain.sweep ~jobs:1 ~x_axis ~y_axis s ~spec in
  List.iter
    (fun jobs ->
      let par = Sidb.Operational_domain.sweep ~jobs ~x_axis ~y_axis s ~spec in
      Alcotest.(check bool)
        (Printf.sprintf "samples identical at jobs=%d" jobs)
        true
        (par.Sidb.Operational_domain.samples
        = serial.Sidb.Operational_domain.samples);
      Alcotest.(check (float 0.0)) "fraction identical"
        serial.Sidb.Operational_domain.operational_fraction
        par.Sidb.Operational_domain.operational_fraction)
    [ 2; 4 ]

let test_sweep_algorithms_jobs_identical () =
  (* Flood fill and contour tracing batch their evaluations through the
     pool in deterministic waves: the whole result record — samples,
     evaluated flags, fraction, and stats — must be identical at jobs
     1, 2, and 4. *)
  let s, spec = or_structure () in
  let x_axis, y_axis = small_axes () in
  List.iter
    (fun algorithm ->
      let config =
        { Sidb.Operational_domain.default_config with
          Sidb.Operational_domain.algorithm;
          samples = 6;
        }
      in
      let serial =
        Sidb.Operational_domain.sweep ~jobs:1 ~config ~x_axis ~y_axis s ~spec
      in
      List.iter
        (fun jobs ->
          let par =
            Sidb.Operational_domain.sweep ~jobs ~config ~x_axis ~y_axis s ~spec
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s identical at jobs=%d"
               (Sidb.Operational_domain.algorithm_name algorithm)
               jobs)
            true (par = serial))
        [ 2; 4 ])
    [
      Sidb.Operational_domain.Grid;
      Sidb.Operational_domain.Flood_fill;
      Sidb.Operational_domain.Contour_tracing;
    ]

(* --- defect-yield determinism --------------------------------------------- *)

let xor2_layout () =
  let options =
    {
      Core.Flow.default_options with
      check_equivalence = false;
      apply_library = false;
    }
  in
  match Core.Flow.run_benchmark ~options "xor2" with
  | Ok r -> r.Core.Flow.gate_layout
  | Error f -> Alcotest.fail (Core.Flow.error_message f)

let test_yield_serial_parallel_identical () =
  let layout = xor2_layout () in
  let params =
    { Sidb.Defects.default_params with Sidb.Defects.trials = 10; seed = 7 }
  in
  let serial = Bestagon.Yield.of_layout ~jobs:1 ~params layout in
  Alcotest.(check bool) "some tiles simulated" true
    (serial.Bestagon.Yield.simulated_tiles > 0);
  List.iter
    (fun jobs ->
      let par = Bestagon.Yield.of_layout ~jobs ~params layout in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "layout yield identical at jobs=%d" jobs)
        serial.Bestagon.Yield.layout_yield par.Bestagon.Yield.layout_yield;
      Alcotest.(check bool)
        (Printf.sprintf "per-tile reports identical at jobs=%d" jobs)
        true
        (par.Bestagon.Yield.per_tile = serial.Bestagon.Yield.per_tile))
    [ 2; 4 ]

let test_yield_pruned_engine_agrees () =
  (* The default (pruned) engine and the exhaustive oracle give the same
     trial-by-trial verdicts. *)
  let layout = xor2_layout () in
  let params =
    { Sidb.Defects.default_params with Sidb.Defects.trials = 8; seed = 11 }
  in
  let pruned = Bestagon.Yield.of_layout ~params layout in
  let oracle =
    Bestagon.Yield.of_layout ~engine:Sidb.Bdl.Exhaustive ~params layout
  in
  Alcotest.(check (float 0.0)) "same layout yield"
    oracle.Bestagon.Yield.layout_yield pruned.Bestagon.Yield.layout_yield

(* --- equivalence determinism ----------------------------------------------- *)

let two_pi_network gate =
  let ntk = Logic.Network.create () in
  let a = Logic.Network.pi ntk "a" and b = Logic.Network.pi ntk "b" in
  Logic.Network.po ntk "y" (gate ntk a b);
  ntk

let test_equivalence_serial_parallel_identical () =
  let spec = Logic.Benchmarks.par_check () in
  let same = Logic.Benchmarks.par_check () in
  let serial = Verify.Equivalence.check_brute_force ~jobs:1 spec same in
  Alcotest.(check bool) "equivalent" true
    (serial = Verify.Equivalence.Equivalent);
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "verdict identical at jobs=%d" jobs)
        true
        (Verify.Equivalence.check_brute_force ~jobs spec same = serial))
    [ 2; 4 ];
  (* Counterexamples are the lowest differing row at every job count. *)
  let and2 = two_pi_network Logic.Network.and_ in
  let or2 = two_pi_network Logic.Network.or_ in
  let expected =
    Verify.Equivalence.Counterexample [ ("a", true); ("b", false) ]
  in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "lowest-row counterexample at jobs=%d" jobs)
        true
        (Verify.Equivalence.check_brute_force ~jobs and2 or2 = expected))
    [ 1; 2; 4 ]

let test_brute_force_agrees_with_sat () =
  List.iter
    (fun name ->
      let b = Logic.Benchmarks.find name in
      let ntk = b.Logic.Benchmarks.build () in
      let rewritten = Logic.Rewrite.rewrite_to_fixpoint (b.Logic.Benchmarks.build ()) in
      let brute = Verify.Equivalence.check_brute_force ntk rewritten in
      let sat = Verify.Equivalence.check ntk rewritten in
      Alcotest.(check bool)
        (Printf.sprintf "%s: brute force agrees with SAT" name)
        true
        (brute = Verify.Equivalence.Equivalent
        && sat = Verify.Equivalence.Equivalent))
    [ "xor2"; "mux21"; "c17" ]

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "env + override" `Quick test_env_and_override;
          Alcotest.test_case "map = serial" `Quick test_map_matches_serial;
          Alcotest.test_case "jobs > n" `Quick test_map_jobs_exceed_range;
          Alcotest.test_case "adaptive = forced = serial" `Quick
            test_adaptive_matches_forced;
          Alcotest.test_case "ordered map_reduce" `Quick test_map_reduce_ordered;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates;
          Alcotest.test_case "lowest-index exception wins" `Quick
            test_lowest_index_exception_wins;
          Alcotest.test_case "nested map (reentrancy)" `Quick test_nested_map;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "sweep jobs=1/2/4" `Slow
            test_sweep_serial_parallel_identical;
          Alcotest.test_case "sweep algorithms jobs=1/2/4" `Slow
            test_sweep_algorithms_jobs_identical;
          Alcotest.test_case "yield jobs=1/2/4" `Slow
            test_yield_serial_parallel_identical;
          Alcotest.test_case "yield pruned engine" `Slow
            test_yield_pruned_engine_agrees;
          Alcotest.test_case "equivalence jobs=1/2/4" `Quick
            test_equivalence_serial_parallel_identical;
          Alcotest.test_case "brute force vs SAT" `Quick
            test_brute_force_agrees_with_sat;
        ] );
    ]
