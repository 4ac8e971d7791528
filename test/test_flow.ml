(* End-to-end tests of the complete design flow (all eight steps). *)

module F = Core.Flow
module T1 = Core.Table1
module GL = Layout.Gate_layout
module E = Verify.Equivalence

let run_ok ?options ?budget name =
  match F.run_benchmark ?options ?budget name with
  | Ok r -> r
  | Error f -> Alcotest.fail (name ^ ": " ^ F.error_message f)

let test_xor2_end_to_end () =
  let r = run_ok "xor2" in
  Alcotest.(check int) "drc clean" 0 (List.length r.F.drc_violations);
  Alcotest.(check bool) "equivalent" true (r.F.equivalence = Some E.Equivalent);
  let stats = GL.stats r.F.gate_layout in
  Alcotest.(check (pair int int)) "paper dimensions" (2, 3)
    (stats.GL.bounding_width, stats.GL.bounding_height);
  (match r.F.sidb with
  | Some sidb ->
      Alcotest.(check (float 0.01)) "paper area" 2403.98 sidb.Bestagon.Library.area_nm2;
      Alcotest.(check bool) "dot count in paper's ballpark" true
        (sidb.Bestagon.Library.sidb_count >= 40
        && sidb.Bestagon.Library.sidb_count <= 80)
  | None -> Alcotest.fail "no sidb layout");
  (* Step 6: the super-tiled layout groups three rows per electrode. *)
  match GL.clocking r.F.supertiled with
  | GL.Expanded (Layout.Clocking.Row, 3) -> ()
  | _ -> Alcotest.fail "expected super-tile expansion"

(* --- whole-layout assembly and simulation --------------------------------- *)

let test_assembly_matches_library () =
  (* The assembler and the fabrication exporter flatten the same layout:
     one site per library DB, nothing dropped, every site zoned. *)
  let r = run_ok "xor2" in
  match Bestagon.Assembly.assemble r.F.supertiled with
  | Error e -> Alcotest.fail e
  | Ok a ->
      (match r.F.sidb with
      | Some sidb ->
          Alcotest.(check int) "site count = exported dot count"
            sidb.Bestagon.Library.sidb_count a.Bestagon.Assembly.site_count
      | None -> Alcotest.fail "no sidb layout");
      Alcotest.(check int) "nothing dropped" 0
        a.Bestagon.Assembly.duplicates_dropped;
      Alcotest.(check int) "zones aligned" a.Bestagon.Assembly.site_count
        (Array.length a.Bestagon.Assembly.zones);
      Alcotest.(check bool) "tiles assembled" true
        (a.Bestagon.Assembly.tile_count > 0);
      Alcotest.(check bool) "canvases validated" true
        a.Bestagon.Assembly.all_validated;
      (* A clock bias enters through v_ext: biasing every zone by +0.2 eV
         raises any single-electron configuration's energy by 0.2 eV. *)
      let n = a.Bestagon.Assembly.site_count in
      let occ = Array.init n (fun i -> i = 0) in
      let e0 = Sidb.Charge_system.energy a.Bestagon.Assembly.system occ in
      let biased = Bestagon.Assembly.with_clock_bias a [| 0.2 |] in
      let e1 = Sidb.Charge_system.energy biased.Bestagon.Assembly.system occ in
      Alcotest.(check (float 1e-9)) "bias shifts energy" 0.2 (e1 -. e0)

let test_simulate_layout_quicksim () =
  (* xor2's supertiled layout is ~54 DBs — past the exact-engine limit,
     so auto selection must pick quicksim and finish with valid states. *)
  let r = run_ok "xor2" in
  match F.simulate_layout r with
  | Error e -> Alcotest.fail e
  | Ok s ->
      Alcotest.(check string) "auto picks quicksim" "quicksim" s.F.sim_engine;
      Alcotest.(check bool) "flagged heuristic" false s.F.sim_exact;
      Alcotest.(check bool) "past the exact limit" true
        (s.F.sim_sites > F.exact_site_limit);
      Alcotest.(check bool) "physically valid" true s.F.sim_valid;
      Alcotest.(check bool) "energy negative" true (s.F.sim_energy < 0.);
      Alcotest.(check bool) "degenerate or unique" true (s.F.sim_degeneracy >= 1);
      Alcotest.(check bool) "spectrum non-empty" true
        (s.F.sim_spectrum_states >= 1);
      Alcotest.(check bool) "critical temperature in range" true
        (s.F.sim_critical_temperature_k >= 0.
        && s.F.sim_critical_temperature_k <= 400.)

let test_simulate_layout_exact_refusal () =
  (* An explicitly requested exact engine on an oversized system is a
     structured refusal, never an unbounded search. *)
  let r = run_ok "xor2" in
  List.iter
    (fun engine ->
      match F.simulate_layout ~engine r with
      | Ok _ -> Alcotest.fail "expected a refusal"
      | Error e ->
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i =
              i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "mentions the refusal" true
            (contains e "refused"))
    [ Sidb.Bdl.Exhaustive; Sidb.Bdl.Pruned ]

let test_domain_of_layout_quicksim () =
  (* Whole-layout operational domain on the heuristic engine: a tiny
     grid must come back structurally sound and bit-identical at any job
     count.  (The fraction itself is honestly 0 today: individually
     validated tiles do not yet cascade through an unclocked multi-tile
     layout — see EXPERIMENTS.md.) *)
  let r = run_ok "xor2" in
  let module OD = Sidb.Operational_domain in
  let x_axis =
    { F.default_domain_x_axis with OD.steps = 3 }
  and y_axis =
    { F.default_domain_y_axis with OD.steps = 3 }
  in
  let engine = Sidb.Bdl.Quicksim Sidb.Ground_state.default_quicksim in
  match F.domain_of_layout ~engine ~jobs:1 ~x_axis ~y_axis r with
  | Error e -> Alcotest.fail e
  | Ok d ->
      Alcotest.(check string) "quicksim engine" "quicksim" d.F.dom_engine;
      Alcotest.(check bool) "flagged heuristic" false d.F.dom_exact;
      Alcotest.(check bool) "past the exact limit" true
        (d.F.dom_sites > F.exact_site_limit);
      Alcotest.(check int) "two inputs" 2 d.F.dom_inputs;
      Alcotest.(check int) "one output" 1 d.F.dom_outputs;
      Alcotest.(check int) "grid covered" 9
        d.F.dom_domain.OD.stats.OD.total_points;
      Alcotest.(check bool) "fraction in range" true
        (d.F.dom_domain.OD.operational_fraction >= 0.
        && d.F.dom_domain.OD.operational_fraction <= 1.);
      (match F.domain_of_layout ~engine ~jobs:4 ~x_axis ~y_axis r with
      | Error e -> Alcotest.fail e
      | Ok d4 ->
          Alcotest.(check bool) "jobs=4 bit-identical" true
            (d4.F.dom_domain = d.F.dom_domain))

let test_domain_of_layout_exact_refusal () =
  (* The exact engines refuse whole-layout sweeps past the site limit,
     exactly as simulate_layout does. *)
  let r = run_ok "xor2" in
  match F.domain_of_layout ~engine:Sidb.Bdl.Pruned r with
  | Ok _ -> Alcotest.fail "expected a refusal"
  | Error e ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "mentions the refusal" true
        (contains e "refused")

let small_benchmarks = [ "xor2"; "xnor2"; "par_gen"; "mux21"; "par_check"; "c17" ]

let test_small_benchmarks_verified () =
  List.iter
    (fun name ->
      let r = run_ok name in
      Alcotest.(check int) (name ^ " drc") 0 (List.length r.F.drc_violations);
      Alcotest.(check bool) (name ^ " equivalent") true
        (r.F.equivalence = Some E.Equivalent))
    small_benchmarks

let test_scalable_engine () =
  List.iter
    (fun name ->
      let options = { F.default_options with engine = F.Scalable } in
      let r = run_ok ~options name in
      Alcotest.(check int) (name ^ " drc") 0 (List.length r.F.drc_violations);
      Alcotest.(check bool) (name ^ " equivalent") true
        (r.F.equivalence = Some E.Equivalent))
    (small_benchmarks @ [ "t"; "newtag"; "cm82a_5"; "majority_5_r1" ])

let test_no_rewrite_option () =
  let options = { F.default_options with rewrite = false } in
  let r = run_ok ~options "majority" in
  Alcotest.(check bool) "still equivalent" true
    (r.F.equivalence = Some E.Equivalent)

let test_verilog_entry () =
  let source =
    {|
module half_adder (a, b, s, c);
  input a, b;
  output s, c;
  assign s = a ^ b;
  assign c = a & b;
endmodule
|}
  in
  match F.run_verilog source with
  | Error f -> Alcotest.fail (F.error_message f)
  | Ok r ->
      Alcotest.(check bool) "equivalent" true
        (r.F.equivalence = Some E.Equivalent);
      Alcotest.(check int) "drc" 0 (List.length r.F.drc_violations)

let test_verilog_parse_error_reported () =
  match F.run_verilog "module broken (" with
  | Error f ->
      Alcotest.(check bool) "failed while parsing" true
        (f.F.failed_step = F.Parsing);
      Alcotest.(check bool) "mentions parse" true
        (String.length (F.error_message f) > 0)
  | Ok _ -> Alcotest.fail "expected parse failure"

let test_unknown_benchmark () =
  match F.run_benchmark "nonexistent" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let test_fallback_under_deadline () =
  (* The acceptance scenario: a 1-second deadline on mux21 with the
     fallback engine must never raise and still deliver a DRC-clean,
     equivalence-verified layout, produced by the scalable engine, with
     the degradation named in the diagnostics. *)
  let options =
    {
      F.default_options with
      engine = F.Exact_with_fallback Physdesign.Exact.default_config;
    }
  in
  match
    F.run_benchmark ~options ~budget:(Core.Budget.of_seconds 1.0) "mux21"
  with
  | Error f -> Alcotest.fail ("must not fail: " ^ F.error_message f)
  | Ok r -> (
      Alcotest.(check int) "drc clean" 0 (List.length r.F.drc_violations);
      Alcotest.(check bool) "equivalence verified" true
        (r.F.equivalence = Some E.Equivalent);
      match r.F.diagnostics.F.engine_used with
      | Some F.Used_scalable ->
          Alcotest.(check bool) "degradation named" true
            (List.exists
               (fun d ->
                 let has sub =
                   let n = String.length sub in
                   let rec go i =
                     i + n <= String.length d
                     && (String.sub d i n = sub || go (i + 1))
                   in
                   go 0
                 in
                 has "scalable")
               r.F.diagnostics.F.degradations)
      | Some F.Used_exact ->
          (* Exact finished inside its share: legal, but then there is
             nothing to degrade. *)
          Alcotest.(check bool) "no degradation" true
            (r.F.diagnostics.F.degradations = [])
      | None -> Alcotest.fail "engine not recorded")

let test_fallback_millisecond_deadline () =
  (* An even harsher deadline forces the degradation deterministically:
     the budget runs on a step clock that advances 0.4 ms per reading,
     so the 1 ms deadline survives the check before physical design and
     trips at the exact engine's first check — whatever the host's
     speed and however cold its caches. *)
  let options =
    {
      F.default_options with
      engine = F.Exact_with_fallback Physdesign.Exact.default_config;
    }
  in
  let now = ref 0. in
  let clock () =
    let t = !now in
    now := t +. 0.0004;
    t
  in
  match
    F.run_benchmark ~options ~budget:(Core.Budget.of_seconds ~clock 0.001)
      "mux21"
  with
  | Error f -> Alcotest.fail ("must not fail: " ^ F.error_message f)
  | Ok r ->
      Alcotest.(check bool) "scalable engine used" true
        (r.F.diagnostics.F.engine_used = Some F.Used_scalable);
      Alcotest.(check bool) "degradation recorded" true
        (r.F.diagnostics.F.degradations <> []);
      Alcotest.(check int) "drc clean" 0 (List.length r.F.drc_violations);
      (* Verification still ran under the grace budget. *)
      Alcotest.(check bool) "equivalence verified" true
        (r.F.equivalence = Some E.Equivalent)

let test_cancelled_budget () =
  let budget =
    { Core.Budget.unlimited with Core.Budget.cancelled = (fun () -> true) }
  in
  match F.run_benchmark ~budget "xor2" with
  | Error f ->
      Alcotest.(check bool) "cancellation reported" true
        (f.F.budget_reason = Some Core.Budget.Cancelled);
      Alcotest.(check bool) "mapped netlist preserved" true
        (f.F.partial.F.partial_mapped <> None)
  | Ok _ -> Alcotest.fail "expected cancellation failure"

let test_sqd_export () =
  let r = run_ok "xor2" in
  let path = Filename.temp_file "fictionette" ".sqd" in
  (match F.export_sqd r ~path () with
  | Ok () ->
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove path;
      Alcotest.(check bool) "sqd content" true
        (String.length text > 200)
  | Error e ->
      Sys.remove path;
      Alcotest.fail e)

(* Paranoid mode: every stage boundary cross-checked. *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let paranoid_checks =
  [
    "rewrite re-simulation";
    "mapping re-simulation";
    "post-route DRC audit";
    "equivalence certificate replay";
    "super-tiled DRC audit";
    "DB spacing";
  ]

let test_paranoid_benchmarks () =
  let total_certified = ref 0 in
  List.iter
    (fun name ->
      match F.run_benchmark ~paranoid:true name with
      | Error f -> Alcotest.fail (name ^ ": " ^ F.error_message f)
      | Ok r ->
          Alcotest.(check bool) (name ^ " equivalent") true
            (r.F.equivalence = Some E.Equivalent);
          Alcotest.(check bool) (name ^ " has certificate") true
            (r.F.certificate <> None);
          (match r.F.certificate with
          | Some c ->
              Alcotest.(check bool) (name ^ " certificate replays") true
                (E.replay c = Ok ())
          | None -> ());
          List.iter
            (fun c ->
              Alcotest.(check bool) (name ^ ": " ^ c) true
                (List.mem c r.F.checks))
            paranoid_checks;
          (* Complete (unbudgeted) exact solves refute every candidate
             size smaller than the winner, and paranoid mode must have
             proof-checked each refutation. *)
          Alcotest.(check int) (name ^ " all refutations certified")
            (r.F.diagnostics.F.exact_attempts - 1)
            r.F.diagnostics.F.certified_refutations;
          total_certified :=
            !total_certified + r.F.diagnostics.F.certified_refutations)
    [ "xor2"; "xnor2"; "par_gen"; "t" ];
  (* At least one benchmark ("t") needs a candidate size refuted before
     the winner, so the DRAT-checked refutation path really ran. *)
  Alcotest.(check bool) "some refutation was proof-checked" true
    (!total_certified > 0)

(* Diagnostics are the same at every job count: a parallel exact wave
   may solve larger candidates speculatively, but only the candidates up
   to the winner count as attempts and feed the solver statistics.  Only
   wall-clock fields may differ. *)
let test_diagnostics_jobs_invariant () =
  let at_jobs jobs f =
    let saved = Parallel.Pool.default_jobs () in
    Parallel.Pool.set_default_jobs jobs;
    Fun.protect ~finally:(fun () -> Parallel.Pool.set_default_jobs saved) f
  in
  let diagnostics ~paranoid jobs =
    match at_jobs jobs (fun () -> F.run_benchmark ~paranoid "xor2") with
    | Error f -> Alcotest.fail (F.error_message f)
    | Ok r ->
        let d = r.F.diagnostics in
        {
          d with
          F.elapsed_s = 0.;
          solver_stats = { d.F.solver_stats with Sat.Solver.solve_time_s = 0. };
        }
  in
  let rec untimed = function
    | Serve.Json.Obj fields ->
        Serve.Json.Obj
          (List.filter_map
             (fun (k, v) ->
               if k = "elapsed_s" || k = "latency_ms" then None
               else Some (k, untimed v))
             fields)
    | Serve.Json.List l -> Serve.Json.List (List.map untimed l)
    | j -> j
  in
  let json kind jobs =
    let line =
      Printf.sprintf
        {|{"fictionette-serve":1,"kind":"%s","id":1,"benchmark":"xor2"}|} kind
    in
    at_jobs jobs (fun () ->
        Serve.Server.handle_line (Serve.Server.create ()) line
        |> List.map (fun l ->
               match Serve.Json.parse l with
               | Ok j -> Serve.Json.to_string (untimed j)
               | Error e -> Alcotest.fail e))
  in
  List.iter
    (fun paranoid ->
      let d1 = diagnostics ~paranoid 1 in
      Alcotest.(check int) "one candidate solve" 1 d1.F.exact_attempts;
      Alcotest.(check bool)
        (Printf.sprintf "paranoid=%b diagnostics identical at jobs 1 and 2"
           paranoid)
        true
        (d1 = diagnostics ~paranoid 2))
    [ true; false ];
  List.iter
    (fun kind ->
      Alcotest.(check (list string))
        (kind ^ " --json identical at jobs 1 and 2")
        (json kind 1) (json kind 2))
    [ "check"; "design" ]

(* Rebuild the mapped netlist with the function of its first gate
   swapped for a behaviorally different one. *)
let corrupt_one_gate m =
  let module M = Logic.Mapped in
  let m' = M.create () in
  let flipped = ref false in
  let flip fn =
    if !flipped then fn
    else
      match fn with
      | M.Ha -> M.Ha
      | fn ->
          flipped := true;
          (match fn with
          | M.And2 -> M.Or2
          | M.Or2 -> M.And2
          | M.Nand2 -> M.Nor2
          | M.Nor2 -> M.Nand2
          | M.Xor2 -> M.Xnor2
          | M.Xnor2 -> M.Xor2
          | M.Inv -> M.Buf
          | M.Buf -> M.Inv
          | M.Ha -> M.Ha)
  in
  for i = 0 to M.num_nodes m - 1 do
    match M.node m i with
    | M.Input (_, name) -> ignore (M.add_input m' name)
    | M.Gate (fn, srcs) ->
        ignore (M.add_gate m' (flip fn) (Array.to_list srcs))
  done;
  List.iter (fun (name, src) -> M.add_output m' name src) (M.outputs m);
  m'

let test_paranoid_catches_injected_corruption () =
  List.iter
    (fun name ->
      let spec = (Logic.Benchmarks.find name).Logic.Benchmarks.build () in
      match F.run ~paranoid:true ~corrupt_mapped:corrupt_one_gate spec with
      | Ok _ -> Alcotest.fail (name ^ ": corrupted mapping not caught")
      | Error f ->
          (* The mapping cross-check itself must catch it — not DRC,
             not the downstream equivalence check. *)
          Alcotest.(check bool) (name ^ " caught at certification") true
            (f.F.failed_step = F.Certification);
          Alcotest.(check bool) (name ^ " blames tech mapping") true
            (contains f.F.message "technology mapping changed behavior"))
    [ "xor2"; "mux21" ]

let test_paranoid_undecided_is_soft () =
  (* A cancelled budget trips before physical design; paranoid mode must
     not turn budget exhaustion into a certification failure. *)
  let budget =
    { Core.Budget.unlimited with Core.Budget.cancelled = (fun () -> true) }
  in
  match F.run_benchmark ~paranoid:true ~budget "xor2" with
  | Error f ->
      Alcotest.(check bool) "budget, not certification" true
        (f.F.failed_step = F.Physical_design
        && f.F.budget_reason = Some Core.Budget.Cancelled)
  | Ok _ -> Alcotest.fail "expected budget failure"

let test_table1_subset () =
  let rows = T1.generate ~names:[ "xor2"; "par_gen" ] () in
  match rows with
  | [ Ok r1; Ok r2 ] ->
      Alcotest.(check string) "first" "xor2" r1.T1.name;
      Alcotest.(check bool) "both equivalent" true
        (r1.T1.equivalent && r2.T1.equivalent);
      Alcotest.(check int) "xor2 tiles" 6 r1.T1.area_tiles;
      Alcotest.(check int) "par_gen tiles" 12 r2.T1.area_tiles;
      Alcotest.(check bool) "sidbs counted" true (r1.T1.sidbs > 0)
  | _ -> Alcotest.fail "expected two rows"

(* EXPERIMENTS.md Table 1 "ours": area in tiles and SiDB count per
   circuit, for all but the two circuits that take tens of seconds
   (majority_5_r1, cm82a_5).  Any change to synthesis (including the
   exact-synthesis chains behind rewriting), mapping or P&R shows here. *)
let table1_ours =
  [
    ("xor2", 6, 54); ("xnor2", 6, 54); ("par_gen", 12, 95);
    ("mux21", 18, 179); ("par_check", 20, 147); ("xor5_r1", 30, 219);
    ("xor5_majority", 30, 210); ("t", 50, 602); ("t_5", 50, 602);
    ("c17", 40, 362); ("majority", 24, 258); ("newtag", 80, 560);
  ]

let test_table1_pinned () =
  List.iter
    (fun (name, area, sidbs) ->
      let spec = (Logic.Benchmarks.find name).Logic.Benchmarks.build () in
      match F.run spec with
      | Error f -> Alcotest.fail (name ^ ": " ^ F.error_message f)
      | Ok r ->
          Alcotest.(check int) (name ^ " tiles") area
            (GL.stats r.F.gate_layout).GL.area_tiles;
          Alcotest.(check int) (name ^ " sidbs") sidbs
            (match r.F.sidb with
            | Some s -> s.Bestagon.Library.sidb_count
            | None -> -1);
          Alcotest.(check bool) (name ^ " equivalent") true
            (r.F.equivalence = Some E.Equivalent))
    table1_ours

let test_paper_rows_complete () =
  Alcotest.(check int) "14 benchmarks" 14 (List.length T1.paper_rows);
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) (name ^ " exists") true
        (List.mem name Logic.Benchmarks.names))
    T1.paper_rows

let () =
  Alcotest.run "flow"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "xor2 complete" `Quick test_xor2_end_to_end;
          Alcotest.test_case "whole-layout assembly" `Quick
            test_assembly_matches_library;
          Alcotest.test_case "whole-layout quicksim" `Quick
            test_simulate_layout_quicksim;
          Alcotest.test_case "exact-engine refusal" `Quick
            test_simulate_layout_exact_refusal;
          Alcotest.test_case "whole-layout domain" `Quick
            test_domain_of_layout_quicksim;
          Alcotest.test_case "domain exact-engine refusal" `Quick
            test_domain_of_layout_exact_refusal;
          Alcotest.test_case "small benchmarks" `Slow
            test_small_benchmarks_verified;
          Alcotest.test_case "scalable engine" `Slow test_scalable_engine;
          Alcotest.test_case "no-rewrite option" `Quick test_no_rewrite_option;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "fallback under 1s deadline" `Quick
            test_fallback_under_deadline;
          Alcotest.test_case "fallback under 1ms deadline" `Quick
            test_fallback_millisecond_deadline;
          Alcotest.test_case "cancelled budget" `Quick test_cancelled_budget;
        ] );
      ( "entry-points",
        [
          Alcotest.test_case "verilog" `Quick test_verilog_entry;
          Alcotest.test_case "verilog error" `Quick test_verilog_parse_error_reported;
          Alcotest.test_case "unknown benchmark" `Quick test_unknown_benchmark;
          Alcotest.test_case "sqd export" `Quick test_sqd_export;
        ] );
      ( "paranoid",
        [
          Alcotest.test_case "benchmarks certified" `Slow
            test_paranoid_benchmarks;
          Alcotest.test_case "injected corruption caught" `Quick
            test_paranoid_catches_injected_corruption;
          Alcotest.test_case "diagnostics jobs-invariant" `Quick
            test_diagnostics_jobs_invariant;
          Alcotest.test_case "budget stays soft" `Quick
            test_paranoid_undecided_is_soft;
        ] );
      ( "table1",
        [
          Alcotest.test_case "subset" `Slow test_table1_subset;
          Alcotest.test_case "pinned areas and SiDBs" `Slow test_table1_pinned;
          Alcotest.test_case "paper data" `Quick test_paper_rows_complete;
        ] );
    ]
