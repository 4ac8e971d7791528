(* Tests for netlist preparation and both physical-design engines. *)

module NL = Physdesign.Netlist
module Ex = Physdesign.Exact
module Sc = Physdesign.Scalable
module M = Logic.Mapped
module N = Logic.Network
module T = Logic.Truth_table
module GL = Layout.Gate_layout
module DR = Layout.Design_rules

let mapped_of name =
  let b = Logic.Benchmarks.find name in
  fst (Logic.Tech_map.map (b.Logic.Benchmarks.build ()))

(* --- netlist ------------------------------------------------------------ *)

let test_netlist_counts () =
  let nl = NL.of_mapped (mapped_of "par_check") in
  Alcotest.(check int) "pis" 4 (List.length (NL.pis nl));
  Alcotest.(check int) "pos" 1 (List.length (NL.pos nl));
  Alcotest.(check bool) "has gates" true (NL.gates_and_fanouts nl <> [])

let test_fanout_decomposition () =
  (* One source with three consumers needs two fan-out nodes. *)
  let m = M.create () in
  let a = M.add_input m "a" and b = M.add_input m "b" in
  let g = M.add_gate m M.And2 [ a; b ] in
  M.add_output m "y1" g;
  M.add_output m "y2" g;
  M.add_output m "y3" g;
  let nl = NL.of_mapped m in
  Alcotest.(check int) "fanout nodes" 2 (NL.fanout_nodes_added nl);
  (* Every output port now drives exactly one edge. *)
  for node = 0 to NL.num_nodes nl - 1 do
    Alcotest.(check bool) "out-degree bounded" true
      (List.length (NL.out_edges nl node) <= NL.num_out_ports nl node)
  done

let test_netlist_roundtrip () =
  List.iter
    (fun name ->
      let mapped = mapped_of name in
      let nl = NL.of_mapped mapped in
      let back = NL.to_mapped nl in
      let s1 = M.simulate mapped and s2 = M.simulate back in
      Alcotest.(check bool) (name ^ " preserved") true
        (Array.for_all2 T.equal s1 s2))
    [ "xor2"; "c17"; "cm82a_5" ]

let test_min_bounds () =
  let nl = NL.of_mapped (mapped_of "c17") in
  Alcotest.(check bool) "height >= depth" true (NL.min_height nl >= 3);
  Alcotest.(check int) "width >= pis" 5 (NL.min_width nl)

(* --- engines: both produce clean, verified layouts ------------------------ *)

let check_layout name ntk layout =
  let violations = DR.check layout in
  List.iter (fun v -> Format.printf "%a@." DR.pp_violation v) violations;
  Alcotest.(check int) (name ^ " drc") 0 (List.length violations);
  match Verify.Equivalence.check_layout ntk layout with
  | Ok Verify.Equivalence.Equivalent -> ()
  | Ok (Verify.Equivalence.Counterexample cex) ->
      Alcotest.fail
        (Printf.sprintf "%s differs on %s" name
           (String.concat ","
              (List.map (fun (n, v) -> Printf.sprintf "%s=%b" n v) cex)))
  | Ok (Verify.Equivalence.Interface_mismatch m) ->
      Alcotest.fail (name ^ " interface: " ^ m)
  | Ok (Verify.Equivalence.Undecided r) ->
      Alcotest.fail (name ^ " undecided: " ^ Sat.Budget.reason_to_string r)
  | Error e -> Alcotest.fail (name ^ " extraction: " ^ e)

let exact_names = [ "xor2"; "par_gen"; "mux21"; "par_check"; "c17" ]

let test_exact_small () =
  List.iter
    (fun name ->
      let b = Logic.Benchmarks.find name in
      let ntk = b.Logic.Benchmarks.build () in
      let mapped, _ = Logic.Tech_map.map ntk in
      let nl = NL.of_mapped mapped in
      match Ex.place_and_route nl with
      | Error e -> Alcotest.fail (name ^ ": " ^ Ex.failure_message e)
      | Ok r -> check_layout name ntk r.Ex.layout)
    exact_names

let test_exact_matches_paper_dimensions () =
  (* These circuits reproduce Table 1's aspect ratios exactly. *)
  List.iter
    (fun (name, w, h) ->
      let b = Logic.Benchmarks.find name in
      let ntk = Logic.Rewrite.rewrite_to_fixpoint (b.Logic.Benchmarks.build ()) in
      let mapped, _ = Logic.Tech_map.map ntk in
      let nl = NL.of_mapped mapped in
      match Ex.place_and_route nl with
      | Error e -> Alcotest.fail (name ^ ": " ^ Ex.failure_message e)
      | Ok r ->
          Alcotest.(check (pair int int))
            (name ^ " dimensions")
            (w, h) (r.Ex.width, r.Ex.height))
    [ ("xor2", 2, 3); ("xnor2", 2, 3); ("par_gen", 3, 4) ]

let test_exact_solve_fixed () =
  let nl = NL.of_mapped (mapped_of "xor2") in
  (* 2x3 is feasible; 1x3 cannot host two input pads. *)
  Alcotest.(check bool) "2x3 feasible" true
    (Ex.solve_fixed ~width:2 ~height:3 nl <> None);
  Alcotest.(check bool) "1x3 infeasible" true
    (Ex.solve_fixed ~width:1 ~height:3 nl = None)

let test_exact_budget () =
  let nl = NL.of_mapped (mapped_of "par_check") in
  let config =
    { Ex.default_config with conflict_budget = Some 1 }
  in
  (* With an absurd budget the search either degrades gracefully or
     still finds an instance quickly; it must not raise. *)
  match Ex.place_and_route ~config nl with
  | Ok _ | Error _ -> ()

let test_exact_global_conflict_budget () =
  let nl = NL.of_mapped (mapped_of "par_check") in
  (* The deterministic solver needs 2 conflicts for the first (already
     satisfiable) candidate; a global budget of 1 must end in a
     structured Out_of_budget, never an exception — at any job count,
     and after the same number of candidate solves. *)
  let attempts =
    List.map
      (fun jobs ->
        let config = { Ex.default_config with jobs } in
        match
          Ex.place_and_route ~config ~budget:(Sat.Budget.of_conflicts 1) nl
        with
        | Error
            (Ex.Out_of_budget { reason = Sat.Budget.Conflicts; attempts; _ }) ->
            attempts
        | Error f ->
            Alcotest.fail ("unexpected failure: " ^ Ex.failure_message f)
        | Ok _ -> Alcotest.fail "1 conflict cannot route par_check")
      [ None; Some 1; Some 4 ]
  in
  Alcotest.(check (list int)) "attempts at jobs default, 1, 4" [ 1; 1; 1 ]
    attempts;
  (* An already-expired deadline trips before any solving. *)
  match
    Ex.place_and_route
      ~budget:
        {
          Sat.Budget.unlimited with
          Sat.Budget.deadline = Some (Unix.gettimeofday () -. 1.);
        }
      nl
  with
  | Error (Ex.Out_of_budget { reason = Sat.Budget.Deadline; _ }) -> ()
  | Error f -> Alcotest.fail ("unexpected failure: " ^ Ex.failure_message f)
  | Ok _ -> Alcotest.fail "expired deadline still routed"

let test_exact_speculative_solves () =
  (* xor2's smallest candidate is already satisfiable.  A 2-wide wave
     also solves the next size, but only the winner counts as an attempt
     and feeds the statistics: the result matches the serial run, and
     the extra solve is reported on its own. *)
  let nl = NL.of_mapped (mapped_of "xor2") in
  let run jobs =
    let config = { Ex.default_config with jobs = Some jobs } in
    match Ex.place_and_route ~config nl with
    | Ok r -> r
    | Error e -> Alcotest.fail (Ex.failure_message e)
  in
  let untimed (r : Ex.result) =
    { r.Ex.stats with Sat.Solver.solve_time_s = 0. }
  in
  let serial = run 1 and wave = run 2 in
  Alcotest.(check int) "one attempt" 1 serial.Ex.attempts;
  Alcotest.(check int) "same attempts" serial.Ex.attempts wave.Ex.attempts;
  Alcotest.(check int) "no speculation at jobs 1" 0
    serial.Ex.speculative_solves;
  Alcotest.(check int) "next size speculated at jobs 2" 1
    wave.Ex.speculative_solves;
  Alcotest.(check bool) "same statistics" true (untimed serial = untimed wave)

let test_exact_admission_jobs_invariant () =
  (* The unrewritten majority netlist refutes three candidate sizes
     before its 3x8 winner.  With only two instances allowed open, a
     wider wave must be solved before the next size is admitted, just as
     the one-at-a-time search would: the whole result is the same at
     any job count. *)
  let nl = NL.of_mapped (mapped_of "majority") in
  let run jobs =
    let config =
      { Ex.default_config with jobs = Some jobs; max_open_instances = 2 }
    in
    match Ex.place_and_route ~config nl with
    | Ok r -> r
    | Error e -> Alcotest.fail (Ex.failure_message e)
  in
  let summary (r : Ex.result) =
    ( (r.Ex.attempts, r.Ex.rounds),
      { r.Ex.stats with Sat.Solver.solve_time_s = 0. },
      GL.fold r.Ex.layout ~init:[] ~f:(fun acc c t -> (c, t) :: acc) )
  in
  let serial = run 1 in
  Alcotest.(check bool) "three refutations first" true
    (serial.Ex.attempts >= 4);
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d matches jobs 1" jobs)
        true
        (summary (run jobs) = summary serial))
    [ 2; 4 ]

let test_exact_escalation_reaches_layout () =
  (* Escalating rounds over a modest per-round allowance still reach a
     layout for a small circuit. *)
  let nl = NL.of_mapped (mapped_of "xor2") in
  let config =
    { Ex.default_config with conflict_budget = Some 50; max_rounds = 16 }
  in
  match Ex.place_and_route ~config nl with
  | Ok r ->
      Alcotest.(check (pair int int)) "dimensions" (2, 3) (r.Ex.width, r.Ex.height)
  | Error f -> Alcotest.fail (Ex.failure_message f)

(* Reference implementation of level assignment: the pre-overhaul
   repeated-sweep fixpoint.  The single-pass Kahn version must assign
   exactly the same levels. *)
let levels_fixpoint nl =
  let n = NL.num_nodes nl in
  let lev = Array.make n 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun e ->
        if lev.(e.NL.dst) < lev.(e.NL.src) + 1 then begin
          lev.(e.NL.dst) <- lev.(e.NL.src) + 1;
          changed := true
        end)
      (NL.edges nl)
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      match NL.kind nl i with
      | NL.N_fanout ->
          let slack =
            List.fold_left
              (fun acc e -> min acc (lev.((NL.edges nl).(e).NL.dst) - 1))
              max_int (NL.out_edges nl i)
          in
          if slack > lev.(i) && slack < max_int then begin
            lev.(i) <- slack;
            changed := true
          end
      | NL.N_pi _ | NL.N_po _ | NL.N_gate _ -> ()
    done
  done;
  lev

let test_levels_match_fixpoint () =
  List.iter
    (fun b ->
      let mapped = mapped_of b.Logic.Benchmarks.name in
      let nl = NL.of_mapped mapped in
      Alcotest.(check (array int))
        (b.Logic.Benchmarks.name ^ " levels")
        (levels_fixpoint nl) (Sc.compute_levels nl))
    Logic.Benchmarks.all

let test_scalable_all_benchmarks () =
  (* As in the flow, rewriting runs first; the heuristic router is
     documented to handle the optimized (moderate-depth) netlists the
     flow feeds it. *)
  List.iter
    (fun b ->
      let ntk = b.Logic.Benchmarks.build () in
      let rewritten = Logic.Rewrite.rewrite_to_fixpoint ntk in
      let mapped, _ = Logic.Tech_map.map rewritten in
      let nl = NL.of_mapped mapped in
      match Sc.place_and_route nl with
      | Error e -> Alcotest.fail (b.Logic.Benchmarks.name ^ ": " ^ e)
      | Ok r -> check_layout b.Logic.Benchmarks.name ntk r.Sc.layout)
    Logic.Benchmarks.all

let test_scalable_not_smaller_than_exact () =
  (* The heuristic may not beat the exact minimum area. *)
  let nl = NL.of_mapped (mapped_of "par_gen") in
  match (Ex.place_and_route nl, Sc.place_and_route nl) with
  | Ok e, Ok s ->
      let es = GL.stats e.Ex.layout and ss = GL.stats s.Sc.layout in
      Alcotest.(check bool) "exact minimal" true
        (es.GL.area_tiles <= ss.GL.area_tiles)
  | Error f, _ -> Alcotest.fail (Ex.failure_message f)
  | _, Error m -> Alcotest.fail m

let () =
  Alcotest.run "physdesign"
    [
      ( "netlist",
        [
          Alcotest.test_case "counts" `Quick test_netlist_counts;
          Alcotest.test_case "fanout decomposition" `Quick test_fanout_decomposition;
          Alcotest.test_case "roundtrip" `Quick test_netlist_roundtrip;
          Alcotest.test_case "bounds" `Quick test_min_bounds;
        ] );
      ( "exact",
        [
          Alcotest.test_case "small benchmarks" `Slow test_exact_small;
          Alcotest.test_case "paper dimensions" `Slow
            test_exact_matches_paper_dimensions;
          Alcotest.test_case "fixed size" `Quick test_exact_solve_fixed;
          Alcotest.test_case "budget handling" `Quick test_exact_budget;
          Alcotest.test_case "global budget" `Quick
            test_exact_global_conflict_budget;
          Alcotest.test_case "speculative solves" `Quick
            test_exact_speculative_solves;
          Alcotest.test_case "admission jobs-invariant" `Quick
            test_exact_admission_jobs_invariant;
          Alcotest.test_case "escalation" `Quick
            test_exact_escalation_reaches_layout;
        ] );
      ( "scalable",
        [
          Alcotest.test_case "levels = fixpoint" `Quick
            test_levels_match_fixpoint;
          Alcotest.test_case "all benchmarks" `Slow test_scalable_all_benchmarks;
          Alcotest.test_case "exact is minimal" `Slow
            test_scalable_not_smaller_than_exact;
        ] );
    ]
