type engine =
  | Exact of Physdesign.Exact.config
  | Scalable
  | Exact_with_fallback of Physdesign.Exact.config

type options = {
  rewrite : bool;
  fuse_half_adders : bool;
  engine : engine;
  check_equivalence : bool;
  expand_supertiles : bool;
  apply_library : bool;
}

let default_options =
  {
    rewrite = true;
    fuse_half_adders = true;
    engine = Exact Physdesign.Exact.default_config;
    check_equivalence = true;
    expand_supertiles = true;
    apply_library = true;
  }

type step =
  | Parsing
  | Synthesis
  | Physical_design
  | Verification
  | Supertiling
  | Library_application
  | Design_rule_check
  | Certification

let step_to_string = function
  | Parsing -> "parsing"
  | Synthesis -> "synthesis"
  | Physical_design -> "physical design"
  | Verification -> "verification"
  | Supertiling -> "super-tiling"
  | Library_application -> "library application"
  | Design_rule_check -> "design-rule check"
  | Certification -> "certification"

type engine_used = Used_exact | Used_scalable

let engine_used_to_string = function
  | Used_exact -> "exact"
  | Used_scalable -> "scalable"

type diagnostics = {
  engine_used : engine_used option;
  degradations : string list;
  exact_attempts : int;
  exact_rounds : int;
  certified_refutations : int;
  solver_stats : Sat.Solver.stats;
  elapsed_s : float;
}

type timing = {
  synthesis_s : float;
  physical_design_s : float;
  verification_s : float;
  library_s : float;
}

type result = {
  specification : Logic.Network.t;
  optimized : Logic.Network.t;
  mapped : Logic.Mapped.t;
  gate_layout : Layout.Gate_layout.t;
  supertiled : Layout.Gate_layout.t;
  drc_violations : Layout.Design_rules.violation list;
  equivalence : Verify.Equivalence.verdict option;
  certificate : Verify.Equivalence.certificate option;
  sidb : Bestagon.Library.sidb_layout option;
  checks : string list;
  timing : timing;
  diagnostics : diagnostics;
}

type partial = {
  partial_optimized : Logic.Network.t option;
  partial_mapped : Logic.Mapped.t option;
  partial_layout : Layout.Gate_layout.t option;
}

type failure = {
  failed_step : step;
  message : string;
  budget_reason : Budget.reason option;
  partial : partial;
  diagnostics : diagnostics;
}

let error_message f =
  Printf.sprintf "%s: %s" (step_to_string f.failed_step) f.message

let no_partial =
  { partial_optimized = None; partial_mapped = None; partial_layout = None }

let empty_diagnostics =
  {
    engine_used = None;
    degradations = [];
    exact_attempts = 0;
    exact_rounds = 0;
    certified_refutations = 0;
    solver_stats = Sat.Solver.empty_stats;
    elapsed_s = 0.;
  }

let pp_failure ppf f =
  Format.fprintf ppf "failed at %s: %s@." (step_to_string f.failed_step)
    f.message;
  (match f.budget_reason with
  | Some r -> Format.fprintf ppf "budget: %a@." Budget.pp_reason r
  | None -> ());
  List.iter
    (fun d -> Format.fprintf ppf "degradation: %s@." d)
    f.diagnostics.degradations;
  let got =
    List.filter_map
      (fun (name, present) -> if present then Some name else None)
      [
        ("optimized network", f.partial.partial_optimized <> None);
        ("mapped netlist", f.partial.partial_mapped <> None);
        ("gate layout", f.partial.partial_layout <> None);
      ]
  in
  (match got with
  | [] -> ()
  | _ ->
      Format.fprintf ppf "partial artifacts: %s@." (String.concat ", " got));
  Format.fprintf ppf "elapsed: %.3fs@." f.diagnostics.elapsed_s

(* --- cross-request memo ------------------------------------------------ *)

module Memo = struct
  type layout_entry = {
    me_layout : Layout.Gate_layout.t;
    me_engine_used : engine_used;
    me_attempts : int;
    me_rounds : int;
  }

  type stats = {
    synth_hits : int;
    synth_misses : int;
    layout_hits : int;
    layout_misses : int;
    verdict_hits : int;
    verdict_misses : int;
  }

  type t = {
    mutex : Mutex.t;
    synth : (string, Logic.Network.t * Logic.Mapped.t) Hashtbl.t;
    layouts : (string, layout_entry) Hashtbl.t;
    verdicts : (string, Verify.Equivalence.verdict) Hashtbl.t;
    mutable s : stats;
  }

  let empty_stats =
    {
      synth_hits = 0;
      synth_misses = 0;
      layout_hits = 0;
      layout_misses = 0;
      verdict_hits = 0;
      verdict_misses = 0;
    }

  let create () =
    {
      mutex = Mutex.create ();
      synth = Hashtbl.create 64;
      layouts = Hashtbl.create 64;
      verdicts = Hashtbl.create 64;
      s = empty_stats;
    }

  let stats m =
    Mutex.lock m.mutex;
    let s = m.s in
    Mutex.unlock m.mutex;
    s

  let hit_rate ~hits ~misses =
    let total = hits + misses in
    if total = 0 then 0. else float_of_int hits /. float_of_int total

  (* Generic guarded lookup: [compute] runs OUTSIDE the lock (it can be
     a whole physical-design run); a racing duplicate computation is
     possible and harmless (last store wins, results are deterministic),
     while holding the lock across [compute] would serialize the pool. *)
  let find m table key =
    Mutex.lock m.mutex;
    let r = Hashtbl.find_opt table key in
    Mutex.unlock m.mutex;
    r

  let store m table key v =
    Mutex.lock m.mutex;
    Hashtbl.replace table key v;
    Mutex.unlock m.mutex

  let bump m f =
    Mutex.lock m.mutex;
    m.s <- f m.s;
    Mutex.unlock m.mutex
end

let now = Sys.time

exception Fail of failure

let engine_desc = function
  | Exact c -> Printf.sprintf "exact:%x" (Hashtbl.hash c)
  | Scalable -> "scalable"
  | Exact_with_fallback c -> Printf.sprintf "fallback:%x" (Hashtbl.hash c)

let run ?(options = default_options) ?(paranoid = false) ?corrupt_mapped
    ?defect_map ?memo ?(budget = Budget.unlimited) specification =
  (* The memo is usable only when its key determines the artifact: the
     [corrupt_mapped] test hook and a defect map (whose identity is not
     part of the key) disable it outright; paranoid runs re-derive and
     re-check physical design and verification, so they only share the
     synthesis tables. *)
  let memo =
    match (memo, corrupt_mapped) with
    | Some _, Some _ | None, _ -> None
    | Some (key, m), None -> Some (key, m)
  in
  (* One memoized surface view per run: the exact engine's candidate
     sweep and the scalable engine's retries then share blocked-tile
     verdicts, and only tiles near charged defects ever pay for a
     ground-state recheck. *)
  let surface = Option.map Bestagon.Surface.create defect_map in
  let blocked =
    Option.map (fun s c -> Bestagon.Surface.blocked s c) surface
  in
  let t_start = Unix.gettimeofday () in
  let degradations = ref [] in
  let degrade msg = degradations := msg :: !degradations in
  let checks = ref [] in
  let pass name = checks := name :: !checks in
  let certified = ref 0 in
  let diag ?engine_used ?(attempts = 0) ?(rounds = 0)
      ?(stats = Sat.Solver.empty_stats) () =
    {
      engine_used;
      degradations = List.rev !degradations;
      exact_attempts = attempts;
      exact_rounds = rounds;
      certified_refutations = !certified;
      solver_stats = stats;
      elapsed_s = Unix.gettimeofday () -. t_start;
    }
  in
  let fail ?budget_reason ?(diagnostics = None) failed_step partial message =
    let diagnostics =
      match diagnostics with Some d -> d | None -> diag ()
    in
    raise (Fail { failed_step; message; budget_reason; partial; diagnostics })
  in
  try
    (* Steps 2 + 3: logic rewriting and technology mapping, memoized as
       a pair under the caller's structural key (the two artifacts are
       produced and consumed together). *)
    let t0 = now () in
    let synth_key =
      Option.map
        (fun (key, m) ->
          ( Printf.sprintf "%s|rw=%b|ha=%b" key options.rewrite
              options.fuse_half_adders,
            m ))
        memo
    in
    let compute_synth () =
      let optimized =
        if options.rewrite then Logic.Rewrite.rewrite_to_fixpoint specification
        else Logic.Network.cleanup specification
      in
      let mapped, _map_stats =
        Logic.Tech_map.map ~fuse_half_adders:options.fuse_half_adders optimized
      in
      (optimized, mapped)
    in
    let optimized, mapped =
      match synth_key with
      | None -> compute_synth ()
      | Some (k, m) -> (
          match Memo.find m m.Memo.synth k with
          | Some pair ->
              Memo.bump m (fun s ->
                  { s with Memo.synth_hits = s.Memo.synth_hits + 1 });
              pair
          | None ->
              let pair = compute_synth () in
              Memo.store m m.Memo.synth k pair;
              Memo.bump m (fun s ->
                  { s with Memo.synth_misses = s.Memo.synth_misses + 1 });
              pair)
    in
    (* Paranoid: re-simulate the optimized network against the source
       specification — do not trust the rewriter (nor, on a memo hit,
       the cached artifact). *)
    if paranoid then begin
      (match Verify.Resim.check_rewrite ~specification ~optimized with
      | Ok () -> pass "rewrite re-simulation"
      | Error msg ->
          fail Certification
            { no_partial with partial_optimized = Some optimized }
            msg)
    end;
    (* Test hook: inject a corruption after mapping, before the paranoid
       cross-check — lets tests prove the check (not some downstream
       accident) catches a wrong mapping.  (The memo is disabled when the
       hook is present.) *)
    let mapped =
      match corrupt_mapped with None -> mapped | Some f -> f mapped
    in
    let partial_synth =
      {
        partial_optimized = Some optimized;
        partial_mapped = Some mapped;
        partial_layout = None;
      }
    in
    (* Paranoid: re-simulate the mapped netlist against the source. *)
    if paranoid then begin
      (match Verify.Resim.check_mapping ~specification ~mapped with
      | Ok () -> pass "mapping re-simulation"
      | Error msg -> fail Certification partial_synth msg)
    end;
    let synthesis_s = now () -. t0 in
    (* Step 4: physical design, under (a share of) the budget. *)
    let t1 = now () in
    (match Budget.check budget with
    | Some r ->
        fail ~budget_reason:r Physical_design partial_synth
          (Printf.sprintf "budget exhausted before physical design (%s)"
             (Budget.reason_to_string r))
    | None -> ());
    let netlist = Physdesign.Netlist.of_mapped mapped in
    let run_scalable () =
      Physdesign.Scalable.place_and_route ?blocked netlist
    in
    (* Paranoid runs force proof-checked refutations in the exact
       engine: the minimality claim then rests on certified UNSATs. *)
    let certify_config c =
      if paranoid then { c with Physdesign.Exact.certify = true } else c
    in
    let describe_exact_failure = function
      | Physdesign.Exact.No_layout { attempts; _ } ->
          ( attempts,
            0,
            None,
            Printf.sprintf
              "proved no layout within its search bounds (%d candidate(s))"
              attempts )
      | Physdesign.Exact.Out_of_budget { reason; attempts; rounds; _ } ->
          ( attempts,
            rounds,
            Some reason,
            Printf.sprintf
              "ran out of budget (%s) after %d candidate solve(s), %d \
               escalation round(s)"
              (Budget.reason_to_string reason)
              attempts rounds )
      | Physdesign.Exact.Certification_failed { message; _ } ->
          (0, 0, None, "certification failed: " ^ message)
    in
    let record_exact (r : Physdesign.Exact.result) =
      certified := !certified + r.Physdesign.Exact.certified_refutations;
      if r.Physdesign.Exact.certified_refutations > 0 then
        pass "candidate refutation proofs"
    in
    let compute_pd () =
      match options.engine with
      | Scalable -> (
          match run_scalable () with
          | Ok r ->
              Ok
                ( r.Physdesign.Scalable.layout,
                  Used_scalable,
                  0,
                  0,
                  Sat.Solver.empty_stats )
          | Error e -> Error ("scalable physical design: " ^ e, None, 0, 0))
      | Exact config -> (
          let config = certify_config config in
          match
            Physdesign.Exact.place_and_route ~config ~budget ?blocked netlist
          with
          | Ok r ->
              record_exact r;
              Ok
                ( r.Physdesign.Exact.layout,
                  Used_exact,
                  r.Physdesign.Exact.attempts,
                  r.Physdesign.Exact.rounds,
                  r.Physdesign.Exact.stats )
          | Error f ->
              let attempts, rounds, reason, why = describe_exact_failure f in
              Error
                ("exact physical design " ^ why, reason, attempts, rounds))
      | Exact_with_fallback config -> (
          let config = certify_config config in
          let exact_budget =
            if budget.Budget.deadline = None then budget
            else Budget.fraction 0.7 budget
          in
          match
            Physdesign.Exact.place_and_route ~config ~budget:exact_budget
              ?blocked netlist
          with
          | Ok r ->
              record_exact r;
              Ok
                ( r.Physdesign.Exact.layout,
                  Used_exact,
                  r.Physdesign.Exact.attempts,
                  r.Physdesign.Exact.rounds,
                  r.Physdesign.Exact.stats )
          | Error (Physdesign.Exact.Certification_failed _ as f) ->
              (* A rejected proof means the solver cannot be trusted on
                 this run — falling back would hide that, so abort. *)
              let attempts, rounds, reason, why = describe_exact_failure f in
              Error
                ("exact physical design " ^ why, reason, attempts, rounds)
          | Error f -> (
              let attempts, rounds, reason, why = describe_exact_failure f in
              degrade
                (Printf.sprintf
                   "physical design: exact engine %s; degraded to the \
                    scalable engine"
                   why);
              match run_scalable () with
              | Ok r ->
                  Ok
                    ( r.Physdesign.Scalable.layout,
                      Used_scalable,
                      attempts,
                      rounds,
                      Sat.Solver.empty_stats )
              | Error e ->
                  Error
                    ( "scalable fallback after exact engine also failed: " ^ e,
                      reason,
                      attempts,
                      rounds )))
    in
    (* Placement memo: only clean, defect-free, non-paranoid runs.  A
       result produced after a budget-driven degradation is not stored —
       it reflects this run's budget history, not the engine's answer,
       and a later, better-funded request must not inherit it. *)
    let pd_key =
      match synth_key with
      | Some (k, m) when (not paranoid) && defect_map = None ->
          (* The effective portfolio width changes which engine actually
             solved the instance, so it is part of the key. *)
          Some
            ( Printf.sprintf "%s|pd=%s|pk=%d" k
                (engine_desc options.engine)
                (Sat.Portfolio.default_k ()),
              m )
      | _ -> None
    in
    let pd =
      match pd_key with
      | None -> compute_pd ()
      | Some (k, m) -> (
          match Memo.find m m.Memo.layouts k with
          | Some e ->
              Memo.bump m (fun s ->
                  { s with Memo.layout_hits = s.Memo.layout_hits + 1 });
              Ok
                ( e.Memo.me_layout,
                  e.Memo.me_engine_used,
                  e.Memo.me_attempts,
                  e.Memo.me_rounds,
                  Sat.Solver.empty_stats )
          | None ->
              Memo.bump m (fun s ->
                  { s with Memo.layout_misses = s.Memo.layout_misses + 1 });
              let degr_before = List.length !degradations in
              let r = compute_pd () in
              (match r with
              | Ok (layout, engine_used, attempts, rounds, _)
                when List.length !degradations = degr_before ->
                  Memo.store m m.Memo.layouts k
                    {
                      Memo.me_layout = layout;
                      me_engine_used = engine_used;
                      me_attempts = attempts;
                      me_rounds = rounds;
                    }
              | _ -> ());
              r)
    in
    match pd with
    | Error (message, budget_reason, attempts, rounds) ->
        fail ?budget_reason Physical_design partial_synth
          ~diagnostics:(Some (diag ~attempts ~rounds ()))
          message
    | Ok (gate_layout, engine_used, attempts, rounds, stats) ->
        let physical_design_s = now () -. t1 in
        let partial_pd =
          { partial_synth with partial_layout = Some gate_layout }
        in
        let full_diag () = Some (diag ~engine_used ~attempts ~rounds ~stats ()) in
        (* Post-route DRC: the quick check normally, the whole-layout
           audit in paranoid mode — where any violation is fatal. *)
        let drc_violations =
          if paranoid then Layout.Design_rules.audit gate_layout
          else Layout.Design_rules.check gate_layout
        in
        if paranoid then begin
          match drc_violations with
          | [] -> pass "post-route DRC audit"
          | v :: _ ->
              fail Design_rule_check partial_pd
                ~diagnostics:(full_diag ())
                (Printf.sprintf "%d violation(s), first: %s"
                   (List.length drc_violations)
                   (Format.asprintf "%a" Layout.Design_rules.pp_violation v))
        end;
        (* Paranoid + defect map: do not trust the engines' blocked-tile
           avoidance — re-check that no placed tile sits on a tile the
           surface blocks. *)
        (match surface with
        | None -> ()
        | Some s when paranoid ->
            let bad = ref [] in
            Layout.Gate_layout.iter gate_layout (fun c tile ->
                if
                  (not (Layout.Tile.is_empty tile))
                  && Bestagon.Surface.blocked s c
                then bad := c :: !bad);
            (match !bad with
            | [] -> pass "defect avoidance"
            | c :: _ ->
                fail Design_rule_check partial_pd ~diagnostics:(full_diag ())
                  (Printf.sprintf
                     "%d tile(s) placed on defect-blocked coordinates, first: \
                      (%d,%d)"
                     (List.length !bad) c.Hexlib.Coord.col c.Hexlib.Coord.row))
        | Some _ -> ());
        (* Step 5: formal verification under the grace budget: even when
           physical design spent the deadline, the layout is still
           checked (conflict-capped, cancellation honored).  Paranoid
           runs always verify, with certificates, and replay every
           certificate through the independent checker. *)
        let t2 = now () in
        let verify_budget = Budget.verification_grace budget in
        let equivalence, certificate =
          if paranoid then begin
            match
              Verify.Equivalence.check_layout_certified ~budget:verify_budget
                specification gate_layout
            with
            | Error msg ->
                fail Verification partial_pd ~diagnostics:(full_diag ())
                  ("extraction: " ^ msg)
            | Ok (verdict, cert) -> (
                (match cert with
                | None -> ()
                | Some c -> (
                    match Verify.Equivalence.replay c with
                    | Ok () -> pass "equivalence certificate replay"
                    | Error msg ->
                        fail Certification partial_pd
                          ~diagnostics:(full_diag ())
                          ("certificate replay rejected: " ^ msg)));
                match verdict with
                | Verify.Equivalence.Equivalent -> (Some verdict, cert)
                | Verify.Equivalence.Undecided r ->
                    degrade
                      (Printf.sprintf
                         "verification: miter solve undecided (%s)"
                         (Budget.reason_to_string r));
                    (Some verdict, cert)
                | Verify.Equivalence.Counterexample _ ->
                    fail Verification partial_pd ~diagnostics:(full_diag ())
                      (Verify.Equivalence.verdict_to_string verdict)
                | Verify.Equivalence.Interface_mismatch _ ->
                    fail Verification partial_pd ~diagnostics:(full_diag ())
                      (Verify.Equivalence.verdict_to_string verdict))
          end
          else if options.check_equivalence then begin
            (* Verdict memo: keyed like the placement (same layout ⇒
               same miter).  Undecided verdicts are never stored — they
               describe a budget, not the design. *)
            let vkey =
              Option.map
                (fun (k, m) -> (Printf.sprintf "%s|eq" k, m))
                pd_key
            in
            match
              Option.bind vkey (fun (k, m) ->
                  match Memo.find m m.Memo.verdicts k with
                  | Some v ->
                      Memo.bump m (fun s ->
                          { s with Memo.verdict_hits = s.Memo.verdict_hits + 1 });
                      Some v
                  | None ->
                      Memo.bump m (fun s ->
                          {
                            s with
                            Memo.verdict_misses = s.Memo.verdict_misses + 1;
                          });
                      None)
            with
            | Some verdict -> (Some verdict, None)
            | None -> (
                match
                  Verify.Equivalence.check_layout ~budget:verify_budget
                    specification gate_layout
                with
                | Ok (Verify.Equivalence.Undecided r as verdict) ->
                    degrade
                      (Printf.sprintf
                         "verification: miter solve undecided (%s)"
                         (Budget.reason_to_string r));
                    (Some verdict, None)
                | Ok verdict ->
                    (match vkey with
                    | Some (k, m) -> Memo.store m m.Memo.verdicts k verdict
                    | None -> ());
                    (Some verdict, None)
                | Error msg ->
                    ( Some
                        (Verify.Equivalence.Interface_mismatch
                           ("extraction: " ^ msg)),
                      None ))
          end
          else (None, None)
        in
        let verification_s = now () -. t2 in
        (* Step 6: super-tile formation. *)
        let supertiled =
          if options.expand_supertiles then Layout.Supertile.expand gate_layout
          else gate_layout
        in
        if paranoid && options.expand_supertiles then begin
          match Layout.Design_rules.audit supertiled with
          | [] -> pass "super-tiled DRC audit"
          | v :: rest ->
              fail Design_rule_check partial_pd ~diagnostics:(full_diag ())
                (Printf.sprintf "super-tiled layout: %d violation(s), first: %s"
                   (List.length (v :: rest))
                   (Format.asprintf "%a" Layout.Design_rules.pp_violation v))
        end;
        (* Step 7: Bestagon library application. *)
        let t3 = now () in
        let sidb =
          if options.apply_library then
            match Bestagon.Library.apply supertiled with
            | Ok l -> Some l
            | Error e ->
                if paranoid then
                  fail Library_application partial_pd
                    ~diagnostics:(full_diag ()) e
                else None
          else None
        in
        (* Paranoid: whole-layout dangling-bond spacing check on the
           final dot placement. *)
        if paranoid then begin
          match sidb with
          | None -> ()
          | Some l -> (
              match
                Bestagon.Geometry.spacing_violations l.Bestagon.Library.sites
              with
              | [] -> pass "DB spacing"
              | (a, b, d) :: rest ->
                  fail Design_rule_check partial_pd
                    ~diagnostics:(full_diag ())
                    (Printf.sprintf
                       "%d dangling-bond pair(s) closer than %.2f A; first: \
                        (%d,%d,%d)-(%d,%d,%d) at %.2f A"
                       (List.length ((a, b, d) :: rest))
                       Bestagon.Geometry.min_db_spacing a.Sidb.Lattice.n
                       a.Sidb.Lattice.m a.Sidb.Lattice.l b.Sidb.Lattice.n
                       b.Sidb.Lattice.m b.Sidb.Lattice.l d))
        end;
        let library_s = now () -. t3 in
        Ok
          {
            specification;
            optimized;
            mapped;
            gate_layout;
            supertiled;
            drc_violations;
            equivalence;
            certificate;
            sidb;
            checks = List.rev !checks;
            timing =
              { synthesis_s; physical_design_s; verification_s; library_s };
            diagnostics = diag ~engine_used ~attempts ~rounds ~stats ();
          }
  with Fail f -> Error f

let parse_failure message =
  {
    failed_step = Parsing;
    message;
    budget_reason = None;
    partial = no_partial;
    diagnostics = empty_diagnostics;
  }

let run_verilog ?options ?paranoid ?defect_map ?memo ?budget source =
  match Logic.Verilog.parse source with
  | exception Logic.Verilog.Parse_error msg ->
      Error (parse_failure ("parse: " ^ msg))
  | network -> run ?options ?paranoid ?defect_map ?memo ?budget network

let run_benchmark ?options ?paranoid ?defect_map ?memo ?budget name =
  match Logic.Benchmarks.find name with
  | exception Not_found ->
      Error (parse_failure (Printf.sprintf "unknown benchmark %S" name))
  | b ->
      run ?options ?paranoid ?defect_map ?memo ?budget
        (b.Logic.Benchmarks.build ())

(* --- whole-layout simulation ------------------------------------------- *)

type layout_sim = {
  sim_engine : string;
  sim_exact : bool;
  sim_sites : int;
  sim_tiles : int;
  sim_energy : float;
  sim_degeneracy : int;
  sim_valid : bool;
  sim_spectrum_states : int;
  sim_critical_temperature_k : float;
  sim_duplicates_dropped : int;
  sim_seconds : float;
}

(* Beyond this the exact engines are hopeless on layout-shaped systems
   (exhaustive hard-refuses at 24 sites anyway, and the branching
   engines' worst case is exponential).  Auto engine selection switches
   to quicksim here; an exact engine requested explicitly gets a
   structured refusal instead of an unbounded search. *)
let exact_site_limit = 40

(* The engine for an [n]-site system: the caller's choice, else exact
   pruned search up to [exact_site_limit] and quicksim beyond it. *)
let layout_engine ?engine n =
  let engine =
    match engine with
    | Some e -> e
    | None ->
        if n <= exact_site_limit then Sidb.Bdl.Pruned
        else Sidb.Bdl.Quicksim Sidb.Ground_state.default_quicksim
  in
  if Sidb.Bdl.engine_exact engine && n > exact_site_limit then
    Error
      (Printf.sprintf
         "engine %s refused: %d sites exceed the %d-site exact-engine limit \
          (use --engine quicksim)"
         (Sidb.Bdl.engine_name engine) n exact_site_limit)
  else Ok engine

let simulate_layout ?engine ?(inputs = []) ?clock_bias ?confidence ?t_max
    result =
  match
    Bestagon.Assembly.assemble ~inputs ?clock_bias result.supertiled
  with
  | Error e -> Error e
  | Ok asm -> (
      let n = asm.Bestagon.Assembly.site_count in
      match layout_engine ?engine n with
      | Error e -> Error e
      | Ok engine ->
          let exact = Sidb.Bdl.engine_exact engine in
          let sys = asm.Bestagon.Assembly.system in
          let t0 = Unix.gettimeofday () in
          match
            match engine with
            | Sidb.Bdl.Quicksim config ->
                (* One sample pool serves both the ground state and the
                   finite-temperature spectrum. *)
                let spectrum =
                  Sidb.Ground_state.quicksim_spectrum ~config sys
                in
                let e0 =
                  match spectrum with (_, e) :: _ -> e | [] -> infinity
                in
                let states =
                  List.filter_map
                    (fun (occ, e) ->
                      if
                        Float.abs (e -. e0) <= 1e-9
                        && Sidb.Charge_system.physically_valid sys occ
                      then Some occ
                      else None)
                    spectrum
                in
                ({ Sidb.Ground_state.energy = e0; states }, spectrum)
            | e ->
                let gs = Sidb.Bdl.solve e sys in
                let spectrum =
                  Sidb.Ground_state.spectrum ~max_states:4096
                    ~window:Sidb.Temperature.default_window sys
                in
                (gs, spectrum)
          with
          | exception Invalid_argument msg ->
              Error
                (Printf.sprintf "engine %s refused the %d-site system: %s"
                   (Sidb.Bdl.engine_name engine) n msg)
          | gs, spectrum ->
              let elapsed = Unix.gettimeofday () -. t0 in
              let valid =
                gs.Sidb.Ground_state.states <> []
                && List.for_all
                     (Sidb.Charge_system.physically_valid sys)
                     gs.Sidb.Ground_state.states
              in
              Ok
                {
                  sim_engine = Sidb.Bdl.engine_name engine;
                  sim_exact = exact;
                  sim_sites = n;
                  sim_tiles = asm.Bestagon.Assembly.tile_count;
                  sim_energy = gs.Sidb.Ground_state.energy;
                  sim_degeneracy = List.length gs.Sidb.Ground_state.states;
                  sim_valid = valid;
                  sim_spectrum_states = List.length spectrum;
                  sim_critical_temperature_k =
                    Sidb.Temperature.critical_temperature_of_spectrum
                      ?confidence ?t_max spectrum;
                  sim_duplicates_dropped =
                    asm.Bestagon.Assembly.duplicates_dropped;
                  sim_seconds = elapsed;
                })

type layout_domain = {
  dom_engine : string;
  dom_exact : bool;
  dom_sites : int;
  dom_tiles : int;
  dom_inputs : int;
  dom_outputs : int;
  dom_domain : Sidb.Operational_domain.t;
  dom_seconds : float;
}

(* 2^arity ground-state solves per evaluated grid point: beyond this the
   truth table itself is the bottleneck, independent of engine. *)
let domain_input_limit = 8

(* The (μ₋, ε_r) plane at the paper's λ_TF = 5 nm: the library's domains
   are razor-thin bands in λ_TF (a sparse λ sweep that misses 5.0 exactly
   reads empty), whereas this slice holds a genuine connected 2-D region
   — a diagonal band where a deeper μ₋ compensates a weaker-screening
   ε_r.  The wide window keeps that region a minority of the grid, which
   is what makes flood-fill/contour worthwhile. *)
let default_domain_x_axis =
  {
    Sidb.Operational_domain.parameter = Sidb.Operational_domain.Mu_minus;
    from_value = -1.2;
    to_value = 0.0;
    steps = 8;
  }

let default_domain_y_axis =
  {
    Sidb.Operational_domain.parameter = Sidb.Operational_domain.Epsilon_r;
    from_value = 1.0;
    to_value = 14.0;
    steps = 8;
  }

(* Reorder the layout's pads to the specification network's PI/PO order
   so the network itself is the truth-table oracle. *)
let permute_to_network names items ~count ~name_of ~what =
  let arr = Array.of_list items in
  let names = Array.of_list names in
  if Array.length arr <> count then
    Error
      (Printf.sprintf "layout has %d %ss but the specification has %d"
         (Array.length arr) what count)
  else
    let rec build i acc =
      if i = count then Ok (Array.of_list (List.rev acc))
      else
        let wanted = name_of i in
        match Array.find_index (fun n -> n = wanted) names with
        | Some j -> build (i + 1) (arr.(j) :: acc)
        | None ->
            Error
              (Printf.sprintf "specification %s %s has no pad in the layout"
                 what wanted)
    in
    build 0 []

let domain_of_layout ?engine ?jobs ?config
    ?(x_axis = default_domain_x_axis) ?(y_axis = default_domain_y_axis) result
    =
  match
    Bestagon.Assembly.structure_of_layout result.supertiled
  with
  | Error e -> Error e
  | Ok ls -> (
      let spec_net = result.specification in
      let npis = Logic.Network.num_pis spec_net
      and npos = Logic.Network.num_pos spec_net in
      let inputs =
        permute_to_network ls.Bestagon.Assembly.pi_names
          (Array.to_list ls.Bestagon.Assembly.structure.Sidb.Bdl.inputs)
          ~count:npis
          ~name_of:(Logic.Network.pi_name spec_net)
          ~what:"input"
      in
      let outputs =
        permute_to_network ls.Bestagon.Assembly.po_names
          (Array.to_list ls.Bestagon.Assembly.structure.Sidb.Bdl.outputs)
          ~count:npos
          ~name_of:(Logic.Network.po_name spec_net)
          ~what:"output"
      in
      match (inputs, outputs) with
      | Error e, _ | _, Error e -> Error e
      | Ok inputs, Ok outputs ->
          if npis > domain_input_limit then
            Error
              (Printf.sprintf
                 "operational domain refused: %d inputs mean %d truth-table \
                  rows per grid point (limit %d)"
                 npis (1 lsl npis) domain_input_limit)
          else
            let structure =
              {
                ls.Bestagon.Assembly.structure with
                Sidb.Bdl.inputs;
                Sidb.Bdl.outputs;
              }
            in
            (* Worst-case row system: every input at its larger driver. *)
            let n =
              List.length structure.Sidb.Bdl.fixed
              + Array.fold_left
                  (fun acc (d : Sidb.Bdl.input_driver) ->
                    acc
                    + max (List.length d.Sidb.Bdl.near)
                        (List.length d.Sidb.Bdl.far))
                  0 inputs
            in
            match layout_engine ?engine n with
            | Error e -> Error e
            | Ok engine -> (
              let spec a = Logic.Network.eval spec_net a in
              let t0 = Unix.gettimeofday () in
              match
                Sidb.Operational_domain.sweep ?jobs ~engine ?config ~x_axis
                  ~y_axis structure ~spec
              with
              | exception Invalid_argument msg ->
                  Error
                    (Printf.sprintf "engine %s refused the %d-site system: %s"
                       (Sidb.Bdl.engine_name engine) n msg)
              | domain ->
                  Ok
                    {
                      dom_engine = Sidb.Bdl.engine_name engine;
                      dom_exact = Sidb.Bdl.engine_exact engine;
                      dom_sites = n;
                      dom_tiles = ls.Bestagon.Assembly.struct_tile_count;
                      dom_inputs = npis;
                      dom_outputs = npos;
                      dom_domain = domain;
                      dom_seconds = Unix.gettimeofday () -. t0;
                    }))

let export_sqd result ?(inputs = []) ~path () =
  match Bestagon.Library.apply ~inputs result.supertiled with
  | Error e -> Error e
  | Ok l ->
      Bestagon.Sqd.write_file ~path l.Bestagon.Library.sites;
      Ok ()

let pp_summary ppf r =
  let stats = Layout.Gate_layout.stats r.gate_layout in
  Format.fprintf ppf "spec: %a@." Logic.Network.pp_stats r.specification;
  Format.fprintf ppf "optimized: %a@." Logic.Network.pp_stats r.optimized;
  Format.fprintf ppf "mapped: %a@." Logic.Mapped.pp_stats r.mapped;
  Format.fprintf ppf "layout: %dx%d = %d tiles (%d gates, %d wires, %d crossings, %d fan-outs)@."
    stats.Layout.Gate_layout.bounding_width
    stats.Layout.Gate_layout.bounding_height
    stats.Layout.Gate_layout.area_tiles stats.Layout.Gate_layout.gate_tiles
    stats.Layout.Gate_layout.wire_tiles
    stats.Layout.Gate_layout.crossing_tiles
    stats.Layout.Gate_layout.fanout_tiles;
  (match r.diagnostics.engine_used with
  | Some e ->
      Format.fprintf ppf "engine: %s (%d candidate solve(s), %d round(s); %a)@."
        (engine_used_to_string e) r.diagnostics.exact_attempts
        r.diagnostics.exact_rounds Sat.Solver.pp_stats
        r.diagnostics.solver_stats
  | None -> ());
  List.iter
    (fun d -> Format.fprintf ppf "degradation: %s@." d)
    r.diagnostics.degradations;
  (match r.checks with
  | [] -> ()
  | checks ->
      Format.fprintf ppf "checks passed: %s@." (String.concat ", " checks));
  if r.diagnostics.certified_refutations > 0 then
    Format.fprintf ppf "certified refutations: %d@."
      r.diagnostics.certified_refutations;
  Format.fprintf ppf "drc: %d violation(s)@." (List.length r.drc_violations);
  (match r.equivalence with
  | None -> ()
  | Some (Verify.Equivalence.Counterexample _ as v) ->
      Format.fprintf ppf "verification: COUNTEREXAMPLE — %s@."
        (Verify.Equivalence.verdict_to_string v)
  | Some v ->
      Format.fprintf ppf "verification: %s@."
        (Verify.Equivalence.verdict_to_string v));
  (match r.certificate with
  | None -> ()
  | Some c ->
      Format.fprintf ppf "certificate: %s@."
        (match c.Verify.Equivalence.evidence with
        | Verify.Equivalence.Unsat_proof p ->
            Printf.sprintf "miter UNSAT proof, %d step(s), replayed OK"
              (Sat.Drat.num_steps p)
        | Verify.Equivalence.Sat_model _ -> "miter model"));
  (match r.sidb with
  | None -> ()
  | Some l ->
      Format.fprintf ppf "sidb: %d dots, %.2f nm^2%s@."
        l.Bestagon.Library.sidb_count l.Bestagon.Library.area_nm2
        (if l.Bestagon.Library.all_validated then ""
         else " (some tiles unvalidated)"));
  Format.fprintf ppf
    "time: synth %.3fs, physical %.3fs, verify %.3fs, library %.3fs@."
    r.timing.synthesis_s r.timing.physical_design_s r.timing.verification_s
    r.timing.library_s
