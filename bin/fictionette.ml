(* fictionette — command-line driver for the SiDB design-automation
   flow. *)

open Cmdliner

let engine_conv =
  let parse = function
    | "exact" -> Ok (Core.Flow.Exact Physdesign.Exact.default_config)
    | "scalable" -> Ok Core.Flow.Scalable
    | "fallback" ->
        Ok (Core.Flow.Exact_with_fallback Physdesign.Exact.default_config)
    | s -> Error (`Msg (Printf.sprintf "unknown engine %S" s))
  in
  let print ppf = function
    | Core.Flow.Exact _ -> Format.pp_print_string ppf "exact"
    | Core.Flow.Scalable -> Format.pp_print_string ppf "scalable"
    | Core.Flow.Exact_with_fallback _ -> Format.pp_print_string ppf "fallback"
  in
  Arg.conv (parse, print)

let engine_arg =
  let doc =
    "Physical design engine: $(b,exact), $(b,scalable), or $(b,fallback) \
     (exact under a budget share, degrading to scalable)."
  in
  Arg.(
    value
    & opt engine_conv (Core.Flow.Exact Physdesign.Exact.default_config)
    & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc)

(* Validated at parse time so a bad value is a usage error, not an
   [Invalid_argument] out of [Core.Budget.of_seconds] mid-run. *)
let deadline_conv =
  let parse s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f >= 0. -> Ok f
    | Some f ->
        Error
          (`Msg
            (Printf.sprintf "deadline must be finite and non-negative (got %g)" f))
    | None -> Error (`Msg (Printf.sprintf "invalid deadline %S" s))
  in
  Arg.conv (parse, fun ppf f -> Format.fprintf ppf "%g" f)

let deadline_arg =
  let doc = "Wall-clock budget for the whole flow, in seconds." in
  Arg.(
    value
    & opt (some deadline_conv) None
    & info [ "d"; "deadline" ] ~docv:"SECONDS" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel simulation loops (operational-domain \
     sweeps, defect-yield Monte Carlo, brute-force equivalence).  Defaults \
     to $(b,FICTIONETTE_JOBS) or the host's recommended domain count; \
     $(b,1) forces the serial code path.  Results are bit-identical at \
     every job count."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let sat_portfolio_arg =
  let doc =
    "Width of the SAT solver portfolio racing each hard instance (exact \
     P&R candidates, equivalence miters).  Defaults to \
     $(b,FICTIONETTE_SAT_PORTFOLIO) or $(b,1); $(b,1) keeps the plain \
     single-solver path.  Verdicts, certificates and results are \
     identical at every width."
  in
  Arg.(
    value & opt (some int) None & info [ "sat-portfolio" ] ~docv:"K" ~doc)

(* --jobs and --sat-portfolio travel together so every command that
   takes one takes the other without widening its signature. *)
let jobs_arg =
  Cmdliner.Term.(const (fun j k -> (j, k)) $ jobs_arg $ sat_portfolio_arg)

(* Applies --jobs / --sat-portfolio (when given) and reports the
   effective worker count on stderr, so runs are attributable to a
   parallelism level. *)
let apply_jobs (jobs, portfolio) =
  (match jobs with Some j -> Parallel.Pool.set_default_jobs j | None -> ());
  (match portfolio with
  | Some k -> Sat.Portfolio.set_default_k k
  | None -> ());
  Format.eprintf "fictionette: simulation workers: %d (host cores: %d)@."
    (Parallel.Pool.default_jobs ())
    (Domain.recommended_domain_count ());
  let k = Sat.Portfolio.default_k () in
  if k > 1 then Format.eprintf "fictionette: SAT portfolio width: %d@." k

let conflict_budget_arg =
  let doc = "Total CDCL-conflict budget for the SAT-based steps." in
  Arg.(
    value
    & opt (some int) None
    & info [ "conflict-budget" ] ~docv:"N" ~doc)

let budget_of deadline conflicts =
  match (deadline, conflicts) with
  | None, None -> Core.Budget.unlimited
  | Some s, c -> Core.Budget.of_seconds ?conflicts:c s
  | None, Some c -> Core.Budget.of_conflicts c

let paranoid_arg =
  Arg.(
    value & flag
    & info [ "paranoid" ]
        ~doc:
          "Cross-check every stage boundary: re-simulate rewriting and \
           mapping, proof-check every candidate refutation of the exact \
           engine, audit the routed layout, and replay the equivalence \
           certificate through the independent checker.")

let no_rewrite_arg =
  Arg.(value & flag & info [ "no-rewrite" ] ~doc:"Skip logic rewriting (step 2).")

let no_ha_arg =
  Arg.(value & flag & info [ "no-half-adders" ] ~doc:"Disable half-adder fusion.")

let sqd_arg =
  let doc = "Write the resulting SiDB layout as a SiQAD design file." in
  Arg.(value & opt (some string) None & info [ "o"; "sqd" ] ~docv:"FILE" ~doc)

let show_layout_arg =
  Arg.(value & flag & info [ "l"; "layout" ] ~doc:"Print the gate-level layout.")

let zones_arg =
  Arg.(value & flag & info [ "z"; "zones" ] ~doc:"Annotate tiles with clock numbers.")

let options_of engine no_rewrite no_ha =
  {
    Core.Flow.default_options with
    engine;
    rewrite = not no_rewrite;
    fuse_half_adders = not no_ha;
  }

let defects_doc =
  "Surface defect map file (textual $(b,sidb-defect-map v1) format).  \
   Physical design avoids the tiles the map blocks, the layout stays in \
   the map's absolute lattice frame, and the routed result is replayed \
   under the same map (a replay failure is a soft check failure, exit 2)."

let defects_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "defects" ] ~docv:"FILE" ~doc:defects_doc)

let defects_req_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "defects" ] ~docv:"FILE" ~doc:defects_doc)

let load_defect_map = function
  | None -> Ok None
  | Some path -> (
      match Sidb.Defect_map.load path with
      | Ok m -> Ok (Some m)
      | Error e -> Error e)

(* The user's ground-state engine — an explicit flag, else
   FICTIONETTE_SIM_ENGINE — resolved once per command and passed down. *)
let sim_engine ?flag () =
  Sidb.Bdl.resolve_engine ~flag ~env:(Sys.getenv_opt Sidb.Bdl.engine_env_var)

(* Replay a fixed defect map over the routed (absolute-frame) layout;
   prints the per-tile report and returns the soft check failures. *)
let replay_defects defect_map (result : Core.Flow.result) =
  match defect_map with
  | None -> []
  | Some map ->
      let r =
        Bestagon.Yield.under_map ?engine:(sim_engine ()) map
          result.Core.Flow.gate_layout
      in
      Format.printf "%a" Bestagon.Yield.pp_map_report r;
      if r.Bestagon.Yield.failed_tiles = 0 then []
      else
        [
          Printf.sprintf "defect replay: %d/%d tile(s) not operational"
            r.Bestagon.Yield.failed_tiles r.Bestagon.Yield.map_simulated;
        ]

(* Soft check failures: the flow produced a layout, but a result-level
   check did not come back green.  Reported on stderr, exit code 2 —
   distinct from hard failures (exit 1). *)
let check_failures (r : Core.Flow.result) =
  let fails = ref [] in
  (match r.Core.Flow.equivalence with
  | None | Some Verify.Equivalence.Equivalent -> ()
  | Some (Verify.Equivalence.Undecided reason) ->
      fails :=
        Printf.sprintf "equivalence undecided (%s)"
          (Core.Budget.reason_to_string reason)
        :: !fails
  | Some v ->
      fails :=
        ("equivalence: " ^ Verify.Equivalence.verdict_to_string v) :: !fails);
  (match r.Core.Flow.drc_violations with
  | [] -> ()
  | vs -> fails := Printf.sprintf "%d DRC violation(s)" (List.length vs) :: !fails);
  List.rev !fails

let report ?(extra_checks = []) result sqd show_layout zones =
  Format.printf "%a" Core.Flow.pp_summary result;
  if show_layout then
    Format.printf "@.%s@."
      (Layout.Render.layout ~show_zones:zones result.Core.Flow.supertiled);
  let sqd_code =
    match sqd with
    | None -> 0
    | Some path -> (
        match Core.Flow.export_sqd result ~path () with
        | Ok () ->
            Format.printf "wrote %s@." path;
            0
        | Error e ->
            Format.eprintf "sqd export failed: %s@." e;
            1)
  in
  match check_failures result @ extra_checks with
  | [] -> sqd_code
  | fails ->
      List.iter (fun m -> Format.eprintf "check failed: %s@." m) fails;
      if sqd_code <> 0 then sqd_code else 2

let report_failure f =
  Format.eprintf "error: %a" Core.Flow.pp_failure f;
  1

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit one structured JSON response on stdout, in exactly the \
           schema of the design server's $(b,design)/$(b,check) responses \
           (the same execution path serves both).  Incompatible with \
           $(b,--defects), $(b,--sqd), and $(b,--layout).  Exit codes: 0 \
           clean, 2 on degradation or a failed check, 1 on a hard error.")

(* One-shot JSON mode: build the same job the server would decode and
   run it through [Serve.Handlers.run_job] — schema identity with the
   resident server is by construction, not by parallel maintenance. *)
let run_json ~paranoid ~source ~engine ~deadline ~conflicts ~no_rewrite ~no_ha
    =
  let json_engine = function
    | Core.Flow.Exact _ -> Serve.Protocol.Engine_exact
    | Core.Flow.Scalable -> Serve.Protocol.Engine_scalable
    | Core.Flow.Exact_with_fallback _ -> Serve.Protocol.Engine_fallback
  in
  let params =
    {
      Serve.Protocol.source;
      engine = json_engine engine;
      timeout_ms = Option.map (fun s -> s *. 1000.) deadline;
      conflict_budget = conflicts;
      rewrite = not no_rewrite;
      half_adders = not no_ha;
      equivalence = true;
      library = true;
      chaos = None;
    }
  in
  let job =
    if paranoid then Serve.Protocol.Check params
    else Serve.Protocol.Design params
  in
  let ctx =
    {
      (Serve.Handlers.default_ctx ()) with
      (* One-shot mode: the caller's deadline is the ceiling (1 h when
         none) — never silently clamped by the server default. *)
      Serve.Handlers.max_timeout_ms =
        (match deadline with Some s -> s *. 1000. | None -> 3_600_000.);
    }
  in
  let response = Serve.Handlers.run_job ctx ~id:Serve.Json.Null job in
  print_endline (Serve.Json.to_string response);
  match Serve.Protocol.response_status response with
  | Some "ok" -> (
      match Serve.Json.mem "degradation" response with
      | Some (Serve.Json.List (_ :: _)) -> 2
      | _ -> 0)
  | _ -> (
      let error_kind =
        Option.bind (Serve.Json.mem "error" response) (fun e ->
            Option.bind (Serve.Json.mem "kind" e) Serve.Json.str)
      in
      match error_kind with
      | Some ("check_failed" | "budget") -> 2
      | _ -> 1)

(* [--json] bypasses the textual reporting path entirely, so the flags
   that only make sense there are rejected loudly instead of ignored. *)
let json_incompatible ~defects ~sqd ~show_layout =
  if defects <> None then Some "--defects"
  else if sqd <> None then Some "--sqd"
  else if show_layout then Some "--layout"
  else None

let run_cmd =
  let bench_arg =
    let doc = "Benchmark name (see $(b,fictionette list))." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc)
  in
  let action name engine deadline conflicts jobs paranoid no_rewrite no_ha sqd
      show_layout zones defects json =
    apply_jobs jobs;
    if json then
      match json_incompatible ~defects ~sqd ~show_layout with
      | Some flag ->
          Format.eprintf "error: --json cannot be combined with %s@." flag;
          1
      | None ->
          run_json ~paranoid ~source:(Serve.Protocol.Benchmark name) ~engine
            ~deadline ~conflicts ~no_rewrite ~no_ha
    else
      match load_defect_map defects with
      | Error e ->
          Format.eprintf "error: %s@." e;
          1
      | Ok defect_map -> (
          match
            Core.Flow.run_benchmark
              ~options:(options_of engine no_rewrite no_ha)
              ~paranoid ?defect_map
              ~budget:(budget_of deadline conflicts)
              name
          with
          | Ok result ->
              report ~extra_checks:(replay_defects defect_map result) result
                sqd show_layout zones
          | Error f -> report_failure f)
  in
  let term =
    Term.(
      const action $ bench_arg $ engine_arg $ deadline_arg
      $ conflict_budget_arg $ jobs_arg $ paranoid_arg $ no_rewrite_arg
      $ no_ha_arg $ sqd_arg $ show_layout_arg $ zones_arg $ defects_arg
      $ json_arg)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run the full flow on a built-in benchmark.")
    term

let verilog_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.v")
  in
  let action path engine deadline conflicts jobs paranoid no_rewrite no_ha sqd
      show_layout zones defects json =
    apply_jobs jobs;
    let ic = open_in path in
    let source = really_input_string ic (in_channel_length ic) in
    close_in ic;
    if json then
      match json_incompatible ~defects ~sqd ~show_layout with
      | Some flag ->
          Format.eprintf "error: --json cannot be combined with %s@." flag;
          1
      | None ->
          run_json ~paranoid ~source:(Serve.Protocol.Verilog source) ~engine
            ~deadline ~conflicts ~no_rewrite ~no_ha
    else
      match load_defect_map defects with
      | Error e ->
          Format.eprintf "error: %s@." e;
          1
      | Ok defect_map -> (
          match
            Core.Flow.run_verilog
              ~options:(options_of engine no_rewrite no_ha)
              ~paranoid ?defect_map
              ~budget:(budget_of deadline conflicts)
              source
          with
          | Ok result ->
              report ~extra_checks:(replay_defects defect_map result) result
                sqd show_layout zones
          | Error f -> report_failure f)
  in
  let term =
    Term.(
      const action $ file_arg $ engine_arg $ deadline_arg $ conflict_budget_arg
      $ jobs_arg $ paranoid_arg $ no_rewrite_arg $ no_ha_arg $ sqd_arg
      $ show_layout_arg $ zones_arg $ defects_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "verilog" ~doc:"Run the full flow on a gate-level Verilog file.")
    term

let list_cmd =
  let action () =
    List.iter
      (fun b ->
        Printf.printf "%-16s (%s)\n" b.Logic.Benchmarks.name
          b.Logic.Benchmarks.source)
      Logic.Benchmarks.all;
    0
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the built-in benchmark circuits.")
    Term.(const action $ const ())

let table1_cmd =
  let action engine deadline conflicts jobs =
    apply_jobs jobs;
    let options = { Core.Flow.default_options with engine } in
    let rows =
      Core.Table1.generate ~options ~budget:(budget_of deadline conflicts) ()
    in
    Format.printf "%a" Core.Table1.pp_table rows;
    if List.for_all Result.is_ok rows then 0 else 1
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Regenerate the paper's Table 1.")
    Term.(
      const action $ engine_arg $ deadline_arg $ conflict_budget_arg
      $ jobs_arg)

let gates_cmd =
  let action () =
    let tiles =
      [
        ("wire (NW->SE)",
         Layout.Tile.Wire
           { segments = [ (Hexlib.Direction.North_west, Hexlib.Direction.South_east) ] });
        ("inverter",
         Layout.Tile.Gate
           {
             fn = Logic.Mapped.Inv;
             ins = [ Hexlib.Direction.North_west ];
             outs = [ Hexlib.Direction.South_east ];
           });
      ]
      @ List.map
          (fun fn ->
            ( Logic.Mapped.fn_name fn,
              Layout.Tile.Gate
                {
                  fn;
                  ins =
                    [ Hexlib.Direction.North_west; Hexlib.Direction.North_east ];
                  outs = [ Hexlib.Direction.South_east ];
                } ))
          [
            Logic.Mapped.Or2; Logic.Mapped.And2; Logic.Mapped.Nor2;
            Logic.Mapped.Nand2; Logic.Mapped.Xor2; Logic.Mapped.Xnor2;
          ]
    in
    List.iter
      (fun (name, tile) ->
        match Bestagon.Library.validation_structure tile with
        | None -> Printf.printf "%-14s (no structure)\n" name
        | Some s -> (
            match Bestagon.Library.tile_spec tile with
            | None -> Printf.printf "%-14s (no spec)\n" name
            | Some spec ->
                let report = Sidb.Bdl.check s ~spec in
                Printf.printf "%-14s %s\n%!" name
                  (if report.Sidb.Bdl.functional then "operational"
                   else "NOT OPERATIONAL")))
      tiles;
    0
  in
  Cmd.v
    (Cmd.info "gates"
       ~doc:"Validate the Bestagon gate designs by exact simulation (Fig. 5).")
    Term.(const action $ const ())

let sim_engine_conv =
  let parse s =
    match Sidb.Bdl.engine_of_string s with
    | Ok e -> Ok e
    | Error m -> Error (`Msg m)
  in
  Arg.conv
    (parse, fun ppf e -> Format.pp_print_string ppf (Sidb.Bdl.engine_name e))

let simulate_cmd =
  let name_arg =
    let doc =
      "Gate name ($(b,wire), $(b,inverter), $(b,or2), $(b,and2), $(b,nor2), \
       $(b,nand2), $(b,xor2), $(b,xnor2)) or, with $(b,--layout), a \
       benchmark name (see $(b,fictionette list))."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc)
  in
  let layout_arg =
    Arg.(
      value & flag
      & info [ "layout" ]
          ~doc:
            "Simulate the complete placed-and-routed benchmark as $(i,one) \
             charge system: whole-layout ground state and critical \
             temperature (the workload the exact engines cannot touch \
             beyond a few tiles).")
  in
  let sim_engine_arg =
    let doc =
      "Ground-state engine: $(b,exhaustive), $(b,pruned), or \
       $(b,quicksim).  Overrides $(b,FICTIONETTE_SIM_ENGINE); with \
       neither, a gate uses exact pruned search and $(b,--layout) \
       selects automatically (pruned on small systems, quicksim above \
       the exact-engine site limit)."
    in
    Arg.(
      value & opt (some sim_engine_conv) None
      & info [ "engine" ] ~docv:"ENGINE" ~doc)
  in
  let confidence_arg =
    Arg.(
      value & opt float 0.9
      & info [ "confidence" ] ~docv:"P"
          ~doc:
            "Ground-manifold Boltzmann weight defining the critical \
             temperature.")
  in
  let domain_arg =
    Arg.(
      value & flag
      & info [ "domain" ]
          ~doc:
            "Compute an operational domain (μ₋ × ε_r at λ_TF = 5 nm) instead \
             of a single \
             simulation: per-gate with the exact engine, or — with \
             $(b,--layout) — for the whole placed-and-routed benchmark \
             (quicksim scales where no exact engine can).")
  in
  let domain_algorithm_conv =
    let parse s =
      match Sidb.Operational_domain.algorithm_of_string s with
      | Some a -> Ok a
      | None ->
          Error
            (`Msg
              (Printf.sprintf
                 "unknown algorithm %S (want grid, flood-fill, or contour)" s))
    in
    Arg.conv
      ( parse,
        fun ppf a ->
          Format.pp_print_string ppf (Sidb.Operational_domain.algorithm_name a)
      )
  in
  let domain_algorithm_arg =
    Arg.(
      value
      & opt domain_algorithm_conv Sidb.Operational_domain.Flood_fill
      & info [ "domain-algorithm" ] ~docv:"ALGO"
          ~doc:
            "Domain algorithm: $(b,grid) classifies every point, \
             $(b,flood-fill) grows operational regions from random probes, \
             $(b,contour) traces region boundaries and infers the interior.")
  in
  let domain_steps_arg =
    Arg.(
      value & opt int 0
      & info [ "domain-steps" ] ~docv:"N"
          ~doc:
            "Grid resolution per axis (default: 16 per gate, 8 per \
             layout).")
  in
  let domain_samples_arg =
    Arg.(
      value & opt int 0
      & info [ "domain-samples" ] ~docv:"N"
          ~doc:
            "Random probes seeding flood fill / contour tracing (default: \
             an eighth of the grid).")
  in
  let domain_csv_arg =
    Arg.(
      value & opt (some string) None
      & info [ "domain-csv" ] ~docv:"FILE"
          ~doc:"Also write the swept domain as CSV to $(docv).")
  in
  let domain_config ~algorithm ~samples ~total =
    {
      Sidb.Operational_domain.default_config with
      Sidb.Operational_domain.algorithm;
      samples = (if samples > 0 then samples else max 4 (total / 8));
    }
  in
  let print_domain ~title ~engine ~exact ~csv dom =
    Format.printf "operational domain: %s@." title;
    Format.printf "  engine: %s (%s)@." engine
      (if exact then "exact" else "heuristic");
    print_string (Sidb.Operational_domain.to_ascii dom);
    let st = dom.Sidb.Operational_domain.stats in
    Format.printf
      "  operational fraction%s: %.4f (%d evaluated of %d points, %d \
       solver calls saved)@."
      (if exact then "" else " (estimate)")
      dom.Sidb.Operational_domain.operational_fraction
      st.Sidb.Operational_domain.points_evaluated
      st.Sidb.Operational_domain.total_points
      st.Sidb.Operational_domain.solver_calls_saved;
    match csv with
    | None -> 0
    | Some path -> (
        try
          let oc = open_out path in
          output_string oc (Sidb.Operational_domain.to_csv dom);
          close_out oc;
          Format.printf "  csv: %s@." path;
          0
        with Sys_error e ->
          Format.eprintf "error: %s@." e;
          1)
  in
  let bits b =
    String.concat ""
      (List.map (fun x -> if x then "1" else "0") (Array.to_list b))
  in
  let run_gate name engine ~domain ~algorithm ~steps ~samples ~csv =
    let tiles =
      [
        ("wire",
         Layout.Tile.Wire
           {
             segments =
               [ (Hexlib.Direction.North_west, Hexlib.Direction.South_east) ];
           });
        ("inverter",
         Layout.Tile.Gate
           {
             fn = Logic.Mapped.Inv;
             ins = [ Hexlib.Direction.North_west ];
             outs = [ Hexlib.Direction.South_east ];
           });
      ]
      @ List.map
          (fun (n, fn) ->
            ( n,
              Layout.Tile.Gate
                {
                  fn;
                  ins =
                    [ Hexlib.Direction.North_west; Hexlib.Direction.North_east ];
                  outs = [ Hexlib.Direction.South_east ];
                } ))
          [
            ("or2", Logic.Mapped.Or2); ("and2", Logic.Mapped.And2);
            ("nor2", Logic.Mapped.Nor2); ("nand2", Logic.Mapped.Nand2);
            ("xor2", Logic.Mapped.Xor2); ("xnor2", Logic.Mapped.Xnor2);
          ]
    in
    match List.assoc_opt (String.lowercase_ascii name) tiles with
    | None ->
        Format.eprintf "error: unknown gate %S (want one of: %s)@." name
          (String.concat ", " (List.map fst tiles));
        1
    | Some tile -> (
        match
          (Bestagon.Library.validation_structure tile,
           Bestagon.Library.tile_spec tile)
        with
        | None, _ | _, None ->
            Format.eprintf "error: no validation harness for %S@." name;
            1
        | Some structure, Some spec when domain ->
            let engine = Option.value engine ~default:Sidb.Bdl.Pruned in
            let steps = if steps > 0 then steps else 16 in
            let x_axis =
              { Core.Flow.default_domain_x_axis with Sidb.Operational_domain.steps }
            in
            let y_axis =
              { Core.Flow.default_domain_y_axis with Sidb.Operational_domain.steps }
            in
            let config = domain_config ~algorithm ~samples ~total:(steps * steps) in
            let dom =
              Sidb.Operational_domain.sweep ~engine ~config ~x_axis ~y_axis
                structure ~spec
            in
            print_domain
              ~title:(String.lowercase_ascii name)
              ~engine:(Sidb.Bdl.engine_name engine)
              ~exact:(Sidb.Bdl.engine_exact engine)
              ~csv dom
        | Some structure, Some spec ->
            let engine = Option.value engine ~default:Sidb.Bdl.Pruned in
            let report = Sidb.Bdl.check ~engine structure ~spec in
            Format.printf "%s: engine %s (%s)@."
              (String.lowercase_ascii name)
              (Sidb.Bdl.engine_name engine)
              (if Sidb.Bdl.engine_exact engine then "exact" else "heuristic");
            List.iter
              (fun (r : Sidb.Bdl.row_result) ->
                Format.printf "  %s -> %s  E0 = %+.6f eV  %s@."
                  (bits r.Sidb.Bdl.assignment)
                  (bits r.Sidb.Bdl.expected)
                  r.Sidb.Bdl.ground_energy
                  (if r.Sidb.Bdl.ok then "ok" else "MISMATCH"))
              report.Sidb.Bdl.rows;
            Format.printf "%s: %s@."
              (String.lowercase_ascii name)
              (if report.Sidb.Bdl.functional then "operational"
               else "NOT OPERATIONAL");
            if report.Sidb.Bdl.functional then 0 else 2)
  in
  let run_layout name engine deadline conflicts confidence ~domain ~algorithm
      ~steps ~samples ~csv =
    let options =
      {
        Core.Flow.default_options with
        Core.Flow.engine =
          Core.Flow.Exact_with_fallback Physdesign.Exact.default_config;
        check_equivalence = false;
        apply_library = false;
      }
    in
    match
      Core.Flow.run_benchmark ~options
        ~budget:(budget_of deadline conflicts)
        name
    with
    | Error f -> report_failure f
    | Ok result when domain -> (
        let steps = if steps > 0 then steps else 8 in
        let x_axis =
          { Core.Flow.default_domain_x_axis with Sidb.Operational_domain.steps }
        in
        let y_axis =
          { Core.Flow.default_domain_y_axis with Sidb.Operational_domain.steps }
        in
        let config = domain_config ~algorithm ~samples ~total:(steps * steps) in
        match Core.Flow.domain_of_layout ?engine ~config ~x_axis ~y_axis result with
        | Error e ->
            Format.eprintf "error: %s@." e;
            1
        | Ok d ->
            Format.printf "whole-layout operational domain: %s@." name;
            Format.printf
              "  system: %d SiDB(s) across %d tile(s), %d input(s), %d \
               output(s)@."
              d.Core.Flow.dom_sites d.Core.Flow.dom_tiles
              d.Core.Flow.dom_inputs d.Core.Flow.dom_outputs;
            let code =
              print_domain ~title:name ~engine:d.Core.Flow.dom_engine
                ~exact:d.Core.Flow.dom_exact ~csv d.Core.Flow.dom_domain
            in
            Format.printf "  sweep time: %.3f s@." d.Core.Flow.dom_seconds;
            code)
    | Ok result -> (
        match Core.Flow.simulate_layout ?engine ~confidence result with
        | Error e ->
            Format.eprintf "error: %s@." e;
            1
        | Ok s ->
            Format.printf "whole-layout simulation: %s@." name;
            Format.printf "  engine: %s (%s)@." s.Core.Flow.sim_engine
              (if s.Core.Flow.sim_exact then "exact" else "heuristic");
            Format.printf "  system: %d SiDB(s) across %d tile(s)%s@."
              s.Core.Flow.sim_sites s.Core.Flow.sim_tiles
              (if s.Core.Flow.sim_duplicates_dropped > 0 then
                 Printf.sprintf " (%d shared boundary site(s) merged)"
                   s.Core.Flow.sim_duplicates_dropped
               else "");
            Format.printf "  ground state: %.6f eV, degeneracy %d, %s@."
              s.Core.Flow.sim_energy s.Core.Flow.sim_degeneracy
              (if s.Core.Flow.sim_valid then "physically valid"
               else "NOT physically valid");
            Format.printf
              "  critical temperature%s: %.1f K (confidence %.2f, %d \
               spectrum state(s))@."
              (if s.Core.Flow.sim_exact then "" else " (upper estimate)")
              s.Core.Flow.sim_critical_temperature_k confidence
              s.Core.Flow.sim_spectrum_states;
            Format.printf "  simulation time: %.3f s@." s.Core.Flow.sim_seconds;
            if s.Core.Flow.sim_valid then 0 else 2)
  in
  let action name layout engine deadline conflicts jobs confidence domain
      algorithm steps samples csv =
    apply_jobs jobs;
    let engine = sim_engine ?flag:engine () in
    if layout then
      run_layout name engine deadline conflicts confidence ~domain ~algorithm
        ~steps ~samples ~csv
    else run_gate name engine ~domain ~algorithm ~steps ~samples ~csv
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Ground-state simulation: validate one Bestagon gate on all input \
          rows, or — with $(b,--layout) — flatten a whole placed-and-routed \
          benchmark into a single charge system and report its ground state \
          and critical temperature.  $(b,--engine quicksim) scales to \
          hundreds of DBs; exact engines refuse oversized systems with a \
          structured error instead of searching unboundedly.  Exit codes: \
          0 ok, 2 non-functional gate or invalid states, 1 hard error.")
    Term.(
      const action $ name_arg $ layout_arg $ sim_engine_arg $ deadline_arg
      $ conflict_budget_arg $ jobs_arg $ confidence_arg $ domain_arg
      $ domain_algorithm_arg $ domain_steps_arg $ domain_samples_arg
      $ domain_csv_arg)

let yield_cmd =
  let bench_arg =
    let doc = "Benchmark name (see $(b,fictionette list))." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc)
  in
  let trials_arg =
    Arg.(
      value & opt int Sidb.Defects.default_params.Sidb.Defects.trials
      & info [ "trials" ] ~docv:"N" ~doc:"Fabrication trials per tile.")
  in
  let seed_arg =
    Arg.(
      value & opt int Sidb.Defects.default_params.Sidb.Defects.seed
      & info [ "seed" ] ~docv:"N" ~doc:"RNG seed (results are reproducible).")
  in
  let missing_arg =
    Arg.(
      value & opt int Sidb.Defects.default_params.Sidb.Defects.missing
      & info [ "missing" ] ~docv:"N" ~doc:"Missing-DB defects per trial.")
  in
  let extra_arg =
    Arg.(
      value & opt int Sidb.Defects.default_params.Sidb.Defects.extra
      & info [ "extra" ] ~docv:"N" ~doc:"Stray-DB defects per trial.")
  in
  let charged_arg =
    Arg.(
      value & opt int Sidb.Defects.default_params.Sidb.Defects.charged
      & info [ "charged" ] ~docv:"N" ~doc:"Charged point defects per trial.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one structured JSON object ($(b,fictionette-yield/1)) on \
             stdout instead of the textual report (also on hard errors).")
  in
  let min_yield_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-yield" ] ~docv:"Y"
          ~doc:
            "Yield threshold for the exit code: below it the command exits \
             2 (degraded), like $(b,check).  Defaults to 1.0 when replaying \
             a fixed $(b,--defects) map and 0.0 for Monte-Carlo estimation.")
  in
  let json_escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  in
  let action name engine deadline conflicts jobs trials seed missing extra
      charged defects json min_yield =
    apply_jobs jobs;
    let emit_error msg =
      if json then
        Printf.printf
          "{ \"schema\": \"fictionette-yield/1\", \"benchmark\": \"%s\", \
           \"error\": \"%s\" }\n"
          (json_escape name) (json_escape msg)
    in
    match load_defect_map defects with
    | Error e ->
        emit_error e;
        Format.eprintf "error: %s@." e;
        1
    | Ok defect_map -> (
        match
          Core.Flow.run_benchmark
            ~options:
              {
                (options_of engine false false) with
                Core.Flow.check_equivalence = false;
                apply_library = false;
              }
            ?defect_map
            ~budget:(budget_of deadline conflicts)
            name
        with
        | Error f ->
            emit_error (Core.Flow.error_message f);
            report_failure f
        | Ok result -> (
            match defect_map with
            | Some map ->
                (* Fixed-map replay: the defect-aware flow kept the layout
                   in the map's absolute lattice frame. *)
                let r =
                  Bestagon.Yield.under_map ?engine:(sim_engine ()) map
                    result.Core.Flow.gate_layout
                in
                let threshold = Option.value min_yield ~default:1.0 in
                let ok = r.Bestagon.Yield.map_yield >= threshold in
                if json then
                  Printf.printf
                    "{ \"schema\": \"fictionette-yield/1\", \"benchmark\": \
                     \"%s\", \"mode\": \"replay\", \"defects\": %d, \
                     \"simulated_tiles\": %d, \"skipped_tiles\": %d, \
                     \"failed_tiles\": %d, \"yield\": %.6f, \"min_yield\": \
                     %.6f, \"ok\": %b }\n"
                    (json_escape name)
                    (Sidb.Defect_map.size map)
                    r.Bestagon.Yield.map_simulated r.Bestagon.Yield.map_skipped
                    r.Bestagon.Yield.failed_tiles r.Bestagon.Yield.map_yield
                    threshold ok
                else Format.printf "%a" Bestagon.Yield.pp_map_report r;
                if ok then 0 else 2
            | None ->
                let params =
                  { Sidb.Defects.missing; extra; charged; trials; seed }
                in
                let y =
                  Bestagon.Yield.of_layout ?engine:(sim_engine ()) ~params
                    result.Core.Flow.gate_layout
                in
                let threshold = Option.value min_yield ~default:0.0 in
                let ok = y.Bestagon.Yield.layout_yield >= threshold in
                if json then
                  Printf.printf
                    "{ \"schema\": \"fictionette-yield/1\", \"benchmark\": \
                     \"%s\", \"mode\": \"monte-carlo\", \"trials\": %d, \
                     \"seed\": %d, \"simulated_tiles\": %d, \
                     \"skipped_tiles\": %d, \"yield\": %.6f, \"min_yield\": \
                     %.6f, \"ok\": %b }\n"
                    (json_escape name) trials seed y.Bestagon.Yield.simulated_tiles
                    y.Bestagon.Yield.skipped_tiles y.Bestagon.Yield.layout_yield
                    threshold ok
                else Format.printf "%a" Bestagon.Yield.pp y;
                if ok then 0 else 2))
  in
  let term =
    Term.(
      const action $ bench_arg $ engine_arg $ deadline_arg
      $ conflict_budget_arg $ jobs_arg $ trials_arg $ seed_arg $ missing_arg
      $ extra_arg $ charged_arg $ defects_arg $ json_arg $ min_yield_arg)
  in
  Cmd.v
    (Cmd.info "yield"
       ~doc:
         "Estimate per-gate and layout operational yield under randomized \
          atomic defects (missing/stray DBs, charged point defects), or — \
          with $(b,--defects) — replay one fixed scanned defect map over a \
          layout designed for that surface.  Exit codes match $(b,check): \
          0 ok, 2 degraded yield, 1 hard error.")
    term

let design_cmd =
  let bench_arg =
    let doc = "Benchmark name (see $(b,fictionette list))." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc)
  in
  let action name engine deadline conflicts jobs paranoid no_rewrite no_ha sqd
      show_layout zones defects_path =
    apply_jobs jobs;
    match Sidb.Defect_map.load defects_path with
    | Error e ->
        Format.eprintf "error: %s@." e;
        1
    | Ok map -> (
        let options = options_of engine no_rewrite no_ha in
        let sim = sim_engine () in
        let run ?defect_map () =
          Core.Flow.run_benchmark ~options ~paranoid ?defect_map
            ~budget:(budget_of deadline conflicts)
            name
        in
        Format.printf "defect map: %d defect(s) (%d charged)@."
          (Sidb.Defect_map.size map)
          (List.length (Sidb.Defect_map.charged_sites map));
        (* Reference point: the same flow ignoring the map, replayed on
           the dirty surface. *)
        let oblivious_yield =
          match run () with
          | Error f ->
              Format.printf "oblivious design failed: %s@."
                (Core.Flow.error_message f);
              None
          | Ok r ->
              let rep =
                Bestagon.Yield.under_map ?engine:sim map r.Core.Flow.gate_layout
              in
              Format.printf
                "oblivious: %d/%d tile(s) operational under the map \
                 (yield %.3f)@."
                (rep.Bestagon.Yield.map_simulated
                - rep.Bestagon.Yield.failed_tiles)
                rep.Bestagon.Yield.map_simulated rep.Bestagon.Yield.map_yield;
              Some rep.Bestagon.Yield.map_yield
        in
        match run ~defect_map:map () with
        | Error f -> report_failure f
        | Ok result ->
            let rep =
              Bestagon.Yield.under_map ?engine:sim map
                result.Core.Flow.gate_layout
            in
            Format.printf
              "defect-aware: %d/%d tile(s) operational under the map \
               (yield %.3f)@."
              (rep.Bestagon.Yield.map_simulated
              - rep.Bestagon.Yield.failed_tiles)
              rep.Bestagon.Yield.map_simulated rep.Bestagon.Yield.map_yield;
            (match oblivious_yield with
            | Some oy ->
                Format.printf "aware vs oblivious yield: %.3f vs %.3f (%s)@."
                  rep.Bestagon.Yield.map_yield oy
                  (if rep.Bestagon.Yield.map_yield > oy then "improved"
                   else if rep.Bestagon.Yield.map_yield >= oy then "no worse"
                   else "WORSE")
            | None -> ());
            let extra_checks =
              if rep.Bestagon.Yield.failed_tiles = 0 then []
              else
                [
                  Printf.sprintf
                    "defect replay: %d/%d tile(s) not operational"
                    rep.Bestagon.Yield.failed_tiles
                    rep.Bestagon.Yield.map_simulated;
                ]
            in
            report ~extra_checks result sqd show_layout zones)
  in
  let term =
    Term.(
      const action $ bench_arg $ engine_arg $ deadline_arg
      $ conflict_budget_arg $ jobs_arg $ paranoid_arg $ no_rewrite_arg
      $ no_ha_arg $ sqd_arg $ show_layout_arg $ zones_arg $ defects_req_arg)
  in
  Cmd.v
    (Cmd.info "design"
       ~doc:
         "Defect-aware physical design on a scanned surface: run the flow \
          avoiding the tiles blocked by the $(b,--defects) map, replay the \
          map over the result, and compare against the defect-oblivious \
          layout on the same surface.  Exits 0 when the aware layout is \
          fully operational under the map, 2 on degraded yield, 1 when no \
          feasible placement exists.")
    term

let synth_cmd =
  let bench_arg =
    let doc = "Benchmark name (see $(b,fictionette list))." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc)
  in
  let stats_arg =
    let doc =
      "Print the aggregated synthesis statistics (cut enumeration, \
       rewriting, NPN cache hit rates, technology mapping) to stderr as \
       one stable line."
    in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let exhaustive_arg =
    let doc =
      "Use the pre-overhaul exhaustive cut enumeration instead of \
       priority cuts (the mapped netlist is identical; see $(b,bench \
       logic))."
    in
    Arg.(value & flag & info [ "exhaustive" ] ~doc)
  in
  let action name stats exhaustive =
    match Logic.Benchmarks.find name with
    | exception Not_found ->
        Format.eprintf "error: unknown benchmark %S@." name;
        1
    | b ->
        let config =
          if exhaustive then Logic.Cuts.exhaustive_config
          else Logic.Cuts.default_config
        in
        let db = Logic.Npn_db.create () in
        let ntk = b.Logic.Benchmarks.build () in
        let cut_stats =
          Logic.Cuts.stats (Logic.Cuts.enumerate ~config ntk)
        in
        (* Accumulate per-round rewrite statistics over the same fixpoint
           iteration the flow performs. *)
        let rec fixpoint ntk acc rounds =
          if rounds = 0 then (ntk, acc)
          else
            let ntk', s = Logic.Rewrite.rewrite ~cut_config:config ~db ntk in
            let acc =
              {
                s with
                Logic.Rewrite.candidates =
                  acc.Logic.Rewrite.candidates + s.Logic.Rewrite.candidates;
                replaced = acc.Logic.Rewrite.replaced + s.Logic.Rewrite.replaced;
                size_before = acc.Logic.Rewrite.size_before;
              }
            in
            if s.Logic.Rewrite.size_after >= s.Logic.Rewrite.size_before then
              (ntk', acc)
            else fixpoint ntk' acc (rounds - 1)
        in
        let size0 = Logic.Network.num_gates ntk in
        let rewritten, rw =
          fixpoint ntk
            {
              Logic.Rewrite.candidates = 0;
              replaced = 0;
              size_before = size0;
              size_after = size0;
            }
            4
        in
        let mapped, map_stats = Logic.Tech_map.map rewritten in
        let l1, l2, misses = Logic.Npn.cache_stats () in
        if stats then
          Format.eprintf
            "synth %s: cuts %a | rewrite %a | npn l1=%d l2=%d miss=%d | map %a@."
            name Logic.Cuts.pp_stats cut_stats Logic.Rewrite.pp_stats rw l1 l2
            misses Logic.Tech_map.pp_stats map_stats;
        Format.printf "%s: %d gates -> %d mapped nodes@." name
          (Logic.Network.num_gates ntk)
          (Logic.Mapped.num_nodes mapped);
        0
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "Run logic synthesis only (cut rewriting to fixpoint, then \
          technology mapping) on a built-in benchmark.  With $(b,--stats) \
          the cut-enumeration, rewriting, NPN-cache and mapping counters \
          are printed to stderr as one stable line.")
    Term.(const action $ bench_arg $ stats_arg $ exhaustive_arg)

let check_cmd =
  let bench_arg =
    let doc = "Benchmark name (see $(b,fictionette list))." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc)
  in
  let stats_arg =
    let doc =
      "Print the aggregated SAT solver statistics (conflicts, \
       propagations, restarts, learned/deleted clauses, mean LBD, \
       simplify subsumed/strengthened/eliminated/vivified counters) to \
       stderr as one stable line."
    in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let action name engine deadline conflicts jobs stats json =
    apply_jobs jobs;
    if json then
      run_json ~paranoid:true ~source:(Serve.Protocol.Benchmark name) ~engine
        ~deadline ~conflicts ~no_rewrite:false ~no_ha:false
    else
    match
      Core.Flow.run_benchmark
        ~options:{ Core.Flow.default_options with engine }
        ~paranoid:true
        ~budget:(budget_of deadline conflicts)
        name
    with
    | Error f -> report_failure f
    | Ok result -> (
        if stats then
          Format.eprintf "solver %s: %a@." name Sat.Solver.pp_stats
            result.Core.Flow.diagnostics.Core.Flow.solver_stats;
        Format.printf "%a" Core.Flow.pp_summary result;
        List.iter
          (fun c -> Format.printf "check passed: %s@." c)
          result.Core.Flow.checks;
        match check_failures result with
        | [] ->
            Format.printf "all checks passed@.";
            0
        | fails ->
            List.iter (fun m -> Format.eprintf "check failed: %s@." m) fails;
            2)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the flow in paranoid mode: every stage boundary is \
          cross-checked, every exact-engine refutation is proof-checked, \
          and the equivalence certificate is replayed through the \
          independent DRAT checker.  Exits 0 only when every check \
          passes (2 on a soft check failure, 1 on a hard one).")
    Term.(
      const action $ bench_arg $ engine_arg $ deadline_arg
      $ conflict_budget_arg $ jobs_arg $ stats_arg $ json_arg)

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve on a Unix-domain socket at $(docv) (connections \
             handled sequentially) instead of stdin/stdout.")
  in
  let chaos_arg =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Accept $(b,chaos) fault-injection fields in requests \
             (injected worker crashes and mid-request cancellations).  \
             For testing the server's fault isolation; never enable in \
             real service.")
  in
  let ceiling_arg =
    Arg.(
      value
      & opt deadline_conv 60.
      & info [ "timeout-ceiling" ] ~docv:"SECONDS"
          ~doc:
            "Server-wide budget ceiling: every request's $(b,timeout_ms) \
             is clamped to this (also the default when absent).")
  in
  let max_batch_arg =
    Arg.(
      value & opt int 64
      & info [ "max-batch" ] ~docv:"N"
          ~doc:"Batch jobs beyond $(docv) are shed as $(b,overloaded).")
  in
  let max_retries_arg =
    Arg.(
      value & opt int 2
      & info [ "max-retries" ] ~docv:"N"
          ~doc:
            "Transient-failure retries per job (each steps down the \
             engine degradation ladder).")
  in
  let action socket chaos ceiling max_batch max_retries jp =
    if max_batch < 1 || max_retries < 0 then begin
      Format.eprintf "error: --max-batch must be >= 1, --max-retries >= 0@.";
      1
    end
    else begin
      apply_jobs jp;
      let jobs, _ = jp in
      let config =
        {
          Serve.Server.default_config with
          Serve.Server.chaos;
          max_timeout_ms = ceiling *. 1000.;
          max_batch;
          max_retries;
          jobs;
        }
      in
      let server = Serve.Server.create ~config () in
      (match socket with
      | None -> Serve.Server.serve_channels server stdin stdout
      | Some path ->
          Format.eprintf "fictionette: serving on %s@." path;
          Serve.Server.serve_socket server ~path);
      0
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident design server: a JSON-lines service (one \
          request object per line on stdin, one response per line on \
          stdout; see DESIGN.md section 13) accepting $(b,design), \
          $(b,check), $(b,simulate), $(b,yield), $(b,domain), \
          $(b,batch), $(b,stats), $(b,ping), and $(b,shutdown) \
          requests.  Every request runs \
          under its own budget; worker crashes become structured errors; \
          batches are admission-controlled; results are memoized across \
          requests.")
    Term.(
      const action $ socket_arg $ chaos_arg $ ceiling_arg $ max_batch_arg
      $ max_retries_arg $ jobs_arg)

let main =
  let doc = "Design automation for silicon dangling bond logic" in
  Cmd.group
    (Cmd.info "fictionette" ~version:"0.1" ~doc)
    [ run_cmd; verilog_cmd; design_cmd; check_cmd; synth_cmd; list_cmd;
      table1_cmd; gates_cmd; simulate_cmd; yield_cmd; serve_cmd ]

let () = exit (Cmd.eval' main)
