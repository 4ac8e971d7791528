type ctx = {
  memo : Core.Flow.Memo.t;
  metrics : Metrics.t;
  max_timeout_ms : float;
  max_retries : int;
  backoff_base_ms : float;
  backoff_cap_ms : float;
  sleep : float -> unit;
  sim_engine : Sidb.Bdl.engine option;
}

let default_ctx () =
  {
    memo = Core.Flow.Memo.create ();
    metrics = Metrics.create ();
    max_timeout_ms = 60_000.;
    max_retries = 2;
    backoff_base_ms = 10.;
    backoff_cap_ms = 200.;
    sleep = Unix.sleepf;
    sim_engine =
      Sidb.Bdl.resolve_engine ~flag:None
        ~env:(Sys.getenv_opt Sidb.Bdl.engine_env_var);
  }

exception Injected_fault of string
(* Chaos_raise: simulated worker death.  Raised mid-job so it exercises
   the same conversion path as a genuine bug in a stage. *)

let maybe_die = function
  | Some Protocol.Chaos_raise -> raise (Injected_fault "injected worker fault")
  | _ -> ()

(* A Chaos_cancel budget flips its cancellation flag after a few solver
   polls — mid-request, not at admission. *)
let budget_for ?conflicts ~chaos seconds =
  match chaos with
  | Some Protocol.Chaos_cancel ->
      let polls = Atomic.make 0 in
      Core.Budget.of_seconds ?conflicts
        ~cancelled:(fun () -> Atomic.fetch_and_add polls 1 >= 3)
        seconds
  | _ -> Core.Budget.of_seconds ?conflicts seconds

(* --- the engine ladder -------------------------------------------------- *)

type rung = Rung_exact | Rung_fallback | Rung_scalable

let ladder = function
  | Protocol.Engine_exact -> [ Rung_exact; Rung_fallback; Rung_scalable ]
  | Protocol.Engine_fallback -> [ Rung_fallback; Rung_scalable ]
  | Protocol.Engine_scalable -> [ Rung_scalable ]

let flow_engine = function
  | Rung_exact -> Core.Flow.Exact Physdesign.Exact.default_config
  | Rung_fallback -> Core.Flow.Exact_with_fallback Physdesign.Exact.default_config
  | Rung_scalable -> Core.Flow.Scalable

let rung_name = function
  | Rung_exact -> "exact"
  | Rung_fallback -> "exact-with-fallback"
  | Rung_scalable -> "scalable"

type attempt_error =
  | Flow_failure of Core.Flow.failure
  | Hard of string * string * string option  (* kind, message, reason *)

(* Run [attempt rung budget] down the ladder.  Transient = the flow
   tripping on deadline or conflicts (never cancellation); each retry
   runs under the wall clock still remaining to the request, after a
   capped exponential backoff. *)
let with_retries ctx ~chaos ~timeout_ms ~conflicts ~rungs ~attempt =
  let eff_ms =
    Float.min (Option.value timeout_ms ~default:ctx.max_timeout_ms) ctx.max_timeout_ms
  in
  let t_end = Unix.gettimeofday () +. (eff_ms /. 1000.) in
  let rec go rungs retry degradation =
    let rung = List.hd rungs in
    let remaining_s = Float.max 0. (t_end -. Unix.gettimeofday ()) in
    let budget = budget_for ?conflicts ~chaos remaining_s in
    match attempt rung budget with
    | Ok (payload, flow_degradation) ->
        Ok (payload, degradation @ flow_degradation, retry)
    | Error err ->
        let transient =
          match err with
          | Flow_failure { Core.Flow.budget_reason = Some reason; _ } -> (
              match reason with
              | Core.Budget.Deadline | Core.Budget.Conflicts -> Some reason
              | Core.Budget.Cancelled -> None)
          | _ -> None
        in
        let lower = match rungs with _ :: (_ :: _ as r) -> Some r | _ -> None in
        let wall_left = t_end -. Unix.gettimeofday () in
        (match (transient, lower) with
        | Some reason, Some lower when retry < ctx.max_retries && wall_left > 0.005
          ->
            Metrics.incr_retries ctx.metrics;
            Metrics.incr_degraded ctx.metrics;
            let next = List.hd lower in
            let step =
              Printf.sprintf "retry %d: %s on %s; degraded to %s" (retry + 1)
                (Core.Budget.reason_to_string reason)
                (rung_name rung) (rung_name next)
            in
            let backoff_ms =
              Float.min ctx.backoff_cap_ms
                (ctx.backoff_base_ms *. (2. ** float_of_int retry))
            in
            let backoff_s =
              Float.min (backoff_ms /. 1000.)
                (Float.max 0. (t_end -. Unix.gettimeofday ()))
            in
            if backoff_s > 0. then ctx.sleep backoff_s;
            go lower (retry + 1) (degradation @ [ step ])
        | _ -> Error (err, degradation, retry))
  in
  go rungs 0 []

(* --- payloads ----------------------------------------------------------- *)

let layout_json l =
  let s = Layout.Gate_layout.stats l in
  Json.Obj
    [
      ("width", Json.Num (float_of_int s.Layout.Gate_layout.bounding_width));
      ("height", Json.Num (float_of_int s.Layout.Gate_layout.bounding_height));
      ("area_tiles", Json.Num (float_of_int s.Layout.Gate_layout.area_tiles));
      ("gate_tiles", Json.Num (float_of_int s.Layout.Gate_layout.gate_tiles));
      ("wire_tiles", Json.Num (float_of_int s.Layout.Gate_layout.wire_tiles));
      ( "crossing_tiles",
        Json.Num (float_of_int s.Layout.Gate_layout.crossing_tiles) );
      ("fanout_tiles", Json.Num (float_of_int s.Layout.Gate_layout.fanout_tiles));
    ]

let design_payload (r : Core.Flow.result) =
  let d = r.Core.Flow.diagnostics in
  let fields =
    [
      ("inputs", Json.Num (float_of_int (Logic.Mapped.num_inputs r.Core.Flow.mapped)));
      ("outputs", Json.Num (float_of_int (Logic.Mapped.num_outputs r.Core.Flow.mapped)));
      ("gates", Json.Num (float_of_int (Logic.Mapped.num_gates r.Core.Flow.mapped)));
      ("layout", layout_json r.Core.Flow.gate_layout);
      ( "engine_used",
        match d.Core.Flow.engine_used with
        | Some e -> Json.Str (Core.Flow.engine_used_to_string e)
        | None -> Json.Null );
      ( "equivalence",
        match r.Core.Flow.equivalence with
        | Some v -> Json.Str (Verify.Equivalence.verdict_to_string v)
        | None -> Json.Null );
      ( "drc_violations",
        Json.Num (float_of_int (List.length r.Core.Flow.drc_violations)) );
      ( "checks",
        Json.List (List.map (fun c -> Json.Str c) r.Core.Flow.checks) );
      ( "sidb",
        match r.Core.Flow.sidb with
        | None -> Json.Null
        | Some s ->
            Json.Obj
              [
                ("count", Json.Num (float_of_int s.Bestagon.Library.sidb_count));
                ("area_nm2", Json.Num s.Bestagon.Library.area_nm2);
                ("validated", Json.Bool s.Bestagon.Library.all_validated);
              ] );
      ("elapsed_s", Json.Num d.Core.Flow.elapsed_s);
    ]
  in
  Json.Obj fields

let source_key = function
  | Protocol.Benchmark b -> "bench:" ^ b
  | Protocol.Verilog src -> "v:" ^ Digest.to_hex (Digest.string src)

let flow_options ~engine (p : Protocol.design_params) =
  {
    Core.Flow.default_options with
    engine;
    rewrite = p.rewrite;
    fuse_half_adders = p.half_adders;
    check_equivalence = p.equivalence;
    apply_library = p.library;
  }

let run_flow ctx ~options ~paranoid ~budget source =
  let memo = (source_key source, ctx.memo) in
  let r =
    match source with
    | Protocol.Benchmark b ->
        Core.Flow.run_benchmark ~options ~paranoid ~memo ~budget b
    | Protocol.Verilog src ->
        Core.Flow.run_verilog ~options ~paranoid ~memo ~budget src
  in
  (match r with
  | Ok res ->
      Metrics.record_solver ctx.metrics
        res.Core.Flow.diagnostics.Core.Flow.solver_stats
  | Error _ -> ());
  r

let error_parts_of_failure (f : Core.Flow.failure) =
  match f.Core.Flow.budget_reason with
  | Some r -> ("budget", Some (Core.Budget.reason_to_string r))
  | None -> (
      match f.Core.Flow.failed_step with
      | Core.Flow.Parsing -> ("invalid_request", None)
      | Core.Flow.Certification | Core.Flow.Design_rule_check
      | Core.Flow.Verification ->
          ("check_failed", None)
      | _ -> ("infeasible", None))

let design_attempt ctx ~paranoid (p : Protocol.design_params) rung budget =
  maybe_die p.Protocol.chaos;
  let options = flow_options ~engine:(flow_engine rung) p in
  match run_flow ctx ~options ~paranoid ~budget p.Protocol.source with
  | Error f -> Error (Flow_failure f)
  | Ok r -> (
      match r.Core.Flow.equivalence with
      | Some (Verify.Equivalence.Counterexample cex) ->
          let inputs =
            String.concat ", "
              (List.map (fun (n, v) -> Printf.sprintf "%s=%b" n v) cex)
          in
          Error
            (Hard
               ( "check_failed",
                 "equivalence check found a counterexample: " ^ inputs,
                 None ))
      | Some (Verify.Equivalence.Interface_mismatch m) ->
          Error (Hard ("check_failed", "interface mismatch: " ^ m, None))
      | _ ->
          Ok (design_payload r, r.Core.Flow.diagnostics.Core.Flow.degradations))

let yield_attempt ctx (p : Protocol.yield_params) rung budget =
  maybe_die p.Protocol.y_chaos;
  let options =
    {
      Core.Flow.default_options with
      engine = flow_engine rung;
      check_equivalence = false;
      apply_library = false;
    }
  in
  match run_flow ctx ~options ~paranoid:false ~budget p.Protocol.y_source with
  | Error f -> Error (Flow_failure f)
  | Ok r ->
      let params =
        {
          Sidb.Defects.missing = p.Protocol.missing;
          extra = p.Protocol.extra;
          charged = p.Protocol.charged;
          trials = p.Protocol.trials;
          seed = p.Protocol.seed;
        }
      in
      let y =
        Bestagon.Yield.of_layout ?engine:ctx.sim_engine ~params
          r.Core.Flow.gate_layout
      in
      let payload =
        Json.Obj
          [
            ("trials", Json.Num (float_of_int p.Protocol.trials));
            ("seed", Json.Num (float_of_int p.Protocol.seed));
            ( "simulated_tiles",
              Json.Num (float_of_int y.Bestagon.Yield.simulated_tiles) );
            ( "skipped_tiles",
              Json.Num (float_of_int y.Bestagon.Yield.skipped_tiles) );
            ("yield", Json.Num y.Bestagon.Yield.layout_yield);
          ]
      in
      Ok (payload, r.Core.Flow.diagnostics.Core.Flow.degradations)

(* --- simulate (gate validation, no budget) ------------------------------ *)

let gate_tiles =
  [
    ( "wire",
      Layout.Tile.Wire
        {
          segments =
            [ (Hexlib.Direction.North_west, Hexlib.Direction.South_east) ];
        } );
    ( "inverter",
      Layout.Tile.Gate
        {
          fn = Logic.Mapped.Inv;
          ins = [ Hexlib.Direction.North_west ];
          outs = [ Hexlib.Direction.South_east ];
        } );
  ]
  @ List.map
      (fun (name, fn) ->
        ( name,
          Layout.Tile.Gate
            {
              fn;
              ins = [ Hexlib.Direction.North_west; Hexlib.Direction.North_east ];
              outs = [ Hexlib.Direction.South_east ];
            } ))
      [
        ("or2", Logic.Mapped.Or2); ("and2", Logic.Mapped.And2);
        ("nor2", Logic.Mapped.Nor2); ("nand2", Logic.Mapped.Nand2);
        ("xor2", Logic.Mapped.Xor2); ("xnor2", Logic.Mapped.Xnor2);
      ]

let gate_names = List.map fst gate_tiles

(* Protocol engine names map onto the simulation stack here, so the
   protocol module stays independent of it.  An omitted engine means the
   server's own preference ([ctx.sim_engine], resolved from the
   environment when the context was created), if any. *)
let sim_engine_of_protocol ctx = function
  | None -> ctx.sim_engine
  | Some Protocol.Sim_exhaustive -> Some Sidb.Bdl.Exhaustive
  | Some Protocol.Sim_pruned -> Some Sidb.Bdl.Pruned
  | Some Protocol.Sim_quicksim ->
      Some (Sidb.Bdl.Quicksim Sidb.Ground_state.default_quicksim)

(* Gate-sized systems default to the exact engine. *)
let gate_engine ctx engine =
  Option.value (sim_engine_of_protocol ctx engine) ~default:Sidb.Bdl.Pruned

let simulate ctx ~gate ~engine ~chaos =
  maybe_die chaos;
  match List.assoc_opt (String.lowercase_ascii gate) gate_tiles with
  | None ->
      Error
        ( "invalid_request",
          Printf.sprintf "unknown gate %S (want one of: %s)" gate
            (String.concat ", " gate_names) )
  | Some tile -> (
      match Bestagon.Library.validation_structure tile with
      | None -> Error ("infeasible", "no validation structure for " ^ gate)
      | Some s -> (
          match Bestagon.Library.tile_spec tile with
          | None -> Error ("infeasible", "no specification for " ^ gate)
          | Some spec ->
              let engine = gate_engine ctx engine in
              let report = Sidb.Bdl.check ~engine s ~spec in
              Ok
                (Json.Obj
                   [
                     ("gate", Json.Str (String.lowercase_ascii gate));
                     ("engine", Json.Str (Sidb.Bdl.engine_name engine));
                     ("exact", Json.Bool (Sidb.Bdl.engine_exact engine));
                     ("functional", Json.Bool report.Sidb.Bdl.functional);
                     ( "rows",
                       Json.Num
                         (float_of_int (List.length report.Sidb.Bdl.rows)) );
                   ])))

(* --- operational domains ------------------------------------------------ *)

let domain_algorithm_of_protocol = function
  | Protocol.Dom_grid -> Sidb.Operational_domain.Grid
  | Protocol.Dom_flood_fill -> Sidb.Operational_domain.Flood_fill
  | Protocol.Dom_contour -> Sidb.Operational_domain.Contour_tracing

let domain_config (p : Protocol.domain_params) =
  let total = p.Protocol.d_steps * p.Protocol.d_steps in
  {
    Sidb.Operational_domain.default_config with
    Sidb.Operational_domain.algorithm =
      domain_algorithm_of_protocol p.Protocol.d_algorithm;
    samples =
      (if p.Protocol.d_samples > 0 then p.Protocol.d_samples
       else max 4 (total / 8));
  }

let domain_axes (p : Protocol.domain_params) =
  ( { Core.Flow.default_domain_x_axis with
      Sidb.Operational_domain.steps = p.Protocol.d_steps },
    { Core.Flow.default_domain_y_axis with
      Sidb.Operational_domain.steps = p.Protocol.d_steps } )

let domain_payload ?extra (dom : Sidb.Operational_domain.t) =
  let st = dom.Sidb.Operational_domain.stats in
  Json.Obj
    (Option.value extra ~default:[]
    @ [
        ( "algorithm",
          Json.Str
            (Sidb.Operational_domain.algorithm_name
               dom.Sidb.Operational_domain.algorithm) );
        ( "operational_fraction",
          Json.Num dom.Sidb.Operational_domain.operational_fraction );
        ( "total_points",
          Json.Num (float_of_int st.Sidb.Operational_domain.total_points) );
        ( "points_evaluated",
          Json.Num (float_of_int st.Sidb.Operational_domain.points_evaluated) );
        ( "seed_probes",
          Json.Num (float_of_int st.Sidb.Operational_domain.seed_probes) );
        ( "solver_calls_saved",
          Json.Num (float_of_int st.Sidb.Operational_domain.solver_calls_saved)
        );
      ])

let domain_gate ctx ~gate (p : Protocol.domain_params) =
  maybe_die p.Protocol.d_chaos;
  match List.assoc_opt (String.lowercase_ascii gate) gate_tiles with
  | None ->
      Error
        ( "invalid_request",
          Printf.sprintf "unknown gate %S (want one of: %s)" gate
            (String.concat ", " gate_names) )
  | Some tile -> (
      match
        (Bestagon.Library.validation_structure tile, Bestagon.Library.tile_spec tile)
      with
      | Some s, Some spec -> (
          let engine = gate_engine ctx p.Protocol.d_engine in
          let x_axis, y_axis = domain_axes p in
          match
            Sidb.Operational_domain.sweep ~engine ~config:(domain_config p)
              ~x_axis ~y_axis s ~spec
          with
          | dom ->
              let extra =
                [
                  ("gate", Json.Str (String.lowercase_ascii gate));
                  ("engine", Json.Str (Sidb.Bdl.engine_name engine));
                  ("exact", Json.Bool (Sidb.Bdl.engine_exact engine));
                ]
              in
              Ok (domain_payload ~extra dom)
          | exception Invalid_argument m -> Error ("infeasible", m))
      | _ -> Error ("infeasible", "no validation structure for " ^ gate))

let domain_attempt ctx (p : Protocol.domain_params) source rung budget =
  maybe_die p.Protocol.d_chaos;
  let options =
    {
      Core.Flow.default_options with
      engine = flow_engine rung;
      check_equivalence = false;
      apply_library = false;
    }
  in
  match run_flow ctx ~options ~paranoid:false ~budget source with
  | Error f -> Error (Flow_failure f)
  | Ok r -> (
      let engine = sim_engine_of_protocol ctx p.Protocol.d_engine in
      let x_axis, y_axis = domain_axes p in
      match
        Core.Flow.domain_of_layout ?engine ~config:(domain_config p) ~x_axis
          ~y_axis r
      with
      | Error m -> Error (Hard ("infeasible", m, None))
      | Ok d ->
          let extra =
            [
              ("engine", Json.Str d.Core.Flow.dom_engine);
              ("exact", Json.Bool d.Core.Flow.dom_exact);
              ("sites", Json.Num (float_of_int d.Core.Flow.dom_sites));
              ("tiles", Json.Num (float_of_int d.Core.Flow.dom_tiles));
              ("sweep_s", Json.Num d.Core.Flow.dom_seconds);
            ]
          in
          Ok
            ( domain_payload ~extra d.Core.Flow.dom_domain,
              r.Core.Flow.diagnostics.Core.Flow.degradations ))

(* --- dispatch ----------------------------------------------------------- *)

(* Each branch does all the work and returns a final formatter taking
   the measured latency, so the [run_job] catch-all sees every
   exception a job can raise. *)
let dispatch ctx ~id job =
  let kind = Protocol.job_kind job in
  let finish_retries = function
    | Ok (payload, degradation, retries) ->
        fun ~latency_ms ->
          Protocol.ok_response ~id ~kind ~degradation ~retries ~latency_ms
            payload
    | Error (err, _degradation, _retries) ->
        let error_kind, message, reason =
          match err with
          | Flow_failure f ->
              let k, reason = error_parts_of_failure f in
              (k, Core.Flow.error_message f, reason)
          | Hard (k, m, reason) -> (k, m, reason)
        in
        fun ~latency_ms ->
          Protocol.error_response ~id ~kind ~error_kind ?reason ~latency_ms
            message
  in
  match job with
  | Protocol.Design p ->
      finish_retries
        (with_retries ctx ~chaos:p.Protocol.chaos
           ~timeout_ms:p.Protocol.timeout_ms
           ~conflicts:p.Protocol.conflict_budget
           ~rungs:(ladder p.Protocol.engine)
           ~attempt:(design_attempt ctx ~paranoid:false p))
  | Protocol.Check p ->
      finish_retries
        (with_retries ctx ~chaos:p.Protocol.chaos
           ~timeout_ms:p.Protocol.timeout_ms
           ~conflicts:p.Protocol.conflict_budget
           ~rungs:(ladder p.Protocol.engine)
           ~attempt:(design_attempt ctx ~paranoid:true p))
  | Protocol.Yield p ->
      finish_retries
        (with_retries ctx ~chaos:p.Protocol.y_chaos
           ~timeout_ms:p.Protocol.y_timeout_ms ~conflicts:None
           ~rungs:[ Rung_fallback; Rung_scalable ]
           ~attempt:(yield_attempt ctx p))
  | Protocol.Simulate { gate; sim_engine; sim_chaos } -> (
      match simulate ctx ~gate ~engine:sim_engine ~chaos:sim_chaos with
      | Ok payload -> fun ~latency_ms -> Protocol.ok_response ~id ~kind ~latency_ms payload
      | Error (error_kind, message) ->
          fun ~latency_ms ->
            Protocol.error_response ~id ~kind ~error_kind ~latency_ms message)
  | Protocol.Domain ({ Protocol.d_target = Protocol.Dom_gate gate; _ } as p)
    -> (
      match
        match domain_gate ctx ~gate p with
        | r -> r
        | exception Invalid_argument m -> Error ("infeasible", m)
      with
      | Ok payload ->
          fun ~latency_ms -> Protocol.ok_response ~id ~kind ~latency_ms payload
      | Error (error_kind, message) ->
          fun ~latency_ms ->
            Protocol.error_response ~id ~kind ~error_kind ~latency_ms message)
  | Protocol.Domain ({ Protocol.d_target = Protocol.Dom_layout source; _ } as p)
    ->
      finish_retries
        (with_retries ctx ~chaos:p.Protocol.d_chaos
           ~timeout_ms:p.Protocol.d_timeout_ms ~conflicts:None
           ~rungs:[ Rung_fallback; Rung_scalable ]
           ~attempt:(domain_attempt ctx p source))

let run_job ctx ~id job =
  let kind = Protocol.job_kind job in
  let t0 = Unix.gettimeofday () in
  let finish =
    try dispatch ctx ~id job
    with e ->
      let message =
        match e with
        | Injected_fault m -> "worker crashed: " ^ m
        | e -> "worker crashed: " ^ Printexc.to_string e
      in
      fun ~latency_ms ->
        Protocol.error_response ~id ~kind ~error_kind:"crash" ~latency_ms
          message
  in
  let latency_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let response = finish ~latency_ms in
  let status = Option.value (Protocol.response_status response) ~default:"error" in
  Metrics.record ctx.metrics ~kind ~status ~latency_ms;
  response
