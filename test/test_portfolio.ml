(* Sat.Simplify and Sat.Portfolio: preprocessing soundness, DRAT traces
   through the simplify+solve path, portfolio verdicts, the determinism
   contract at several worker counts, and the cancelled-losing-member
   regression (racing must not poison any member for later reuse). *)

module S = Sat.Solver
module Sp = Sat.Simplify
module P = Sat.Portfolio

let php_formula pigeons holes =
  let var p h = (p * holes) + h + 1 in
  let clauses = ref [] in
  for p = 0 to pigeons - 1 do
    clauses := List.init holes (var p) :: !clauses
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        clauses := [ -var p1 h; -var p2 h ] :: !clauses
      done
    done
  done;
  (pigeons * holes, List.rev !clauses)

let solver_of ?(proof = false) nvars clauses =
  let s = S.create () in
  for _ = 1 to nvars do
    ignore (S.new_var s)
  done;
  if proof then S.enable_proof s;
  List.iter (S.add_clause s) clauses;
  s

let random_3sat st nvars nclauses =
  List.init nclauses (fun _ ->
      List.init 3 (fun _ ->
          let v = 1 + Random.State.int st nvars in
          if Random.State.bool st then v else -v))

let lit_true model l =
  let v = model.(abs l - 1) in
  if l > 0 then v else not v

let satisfies model clauses =
  List.for_all (fun c -> List.exists (lit_true model) c) clauses

(* --- Simplify ---------------------------------------------------------- *)

let test_simplify_subsumption () =
  let r = Sp.run ~nvars:3 [ [ 1; 2 ]; [ 1; 2; 3 ] ] in
  Alcotest.(check int) "subsumed" 1 r.Sp.counters.Sp.subsumed;
  Alcotest.(check bool)
    "superset gone" false
    (List.mem [ 1; 2; 3 ] r.Sp.clauses)

let test_simplify_self_subsumption () =
  (* [1;2] resolves with [-1;2;3] on 1 to [2;3] ⊂ [-1;2;3]. *)
  let r = Sp.run ~nvars:3 [ [ 1; 2 ]; [ -1; 2; 3 ] ] in
  Alcotest.(check bool)
    "strengthened or eliminated" true
    (r.Sp.counters.Sp.strengthened >= 1
    || r.Sp.counters.Sp.eliminated_vars >= 1)

let test_simplify_unit_strengthens () =
  (* The unit [1] removes -1 from the second clause and subsumes the
     third outright. *)
  let r = Sp.run ~nvars:3 [ [ 1 ]; [ -1; 2 ]; [ 1; 3 ] ] in
  Alcotest.(check bool) "unsat not derived" false (List.mem [] r.Sp.clauses);
  Alcotest.(check bool)
    "units applied" true
    (r.Sp.counters.Sp.strengthened + r.Sp.counters.Sp.subsumed
     + r.Sp.counters.Sp.eliminated_vars
    >= 2)

let test_simplify_pure_literal () =
  (* 3 occurs only positively: eliminated with zero resolvents. *)
  let original = [ [ 1; 3 ]; [ 2; 3 ]; [ -1; -2 ] ] in
  let r = Sp.run ~nvars:3 original in
  Alcotest.(check bool)
    "some variable eliminated" true
    (r.Sp.counters.Sp.eliminated_vars >= 1);
  (* A model of the simplified set must reconstruct to one of the
     original (all-false satisfies the remainder after 3 vanishes). *)
  let s = solver_of 3 r.Sp.clauses in
  (match S.solve s with
  | S.Sat ->
      let m = r.Sp.reconstruct (S.model s) in
      Alcotest.(check bool) "reconstructed model" true (satisfies m original)
  | _ -> Alcotest.fail "simplified pure-literal formula must be Sat");
  Alcotest.(check bool)
    "eliminated list sorted" true
    (List.sort compare r.Sp.eliminated = r.Sp.eliminated)

let test_simplify_refutes () =
  let r = Sp.run ~nvars:2 [ [ 1 ]; [ -1 ] ] in
  Alcotest.(check bool) "refuted" true (List.mem [] r.Sp.clauses);
  match Sat.Drat.check ~nvars:2 ~clauses:[ [ 1 ]; [ -1 ] ] r.Sp.proof with
  | Sat.Drat.Valid -> ()
  | Sat.Drat.Invalid _ -> Alcotest.fail "refutation trace rejected"

let test_simplify_proof_checks () =
  (* Simplify php(6,5), refute the simplified set with a proof-logging
     solver, and check the concatenated trace against the ORIGINAL
     clauses with the independent checker. *)
  let nvars, clauses = php_formula 6 5 in
  let r = Sp.run ~nvars clauses in
  let s = solver_of ~proof:true nvars r.Sp.clauses in
  (match S.solve s with
  | S.Unsat -> ()
  | _ -> Alcotest.fail "php(6,5) must stay Unsat after preprocessing");
  match Sat.Drat.check ~nvars ~clauses (r.Sp.proof @ S.proof s) with
  | Sat.Drat.Valid -> ()
  | Sat.Drat.Invalid { step; reason } ->
      Alcotest.fail
        (Printf.sprintf "combined proof rejected at step %d: %s" step reason)

let test_simplify_deterministic () =
  let st = Random.State.make [| 0xD5 |] in
  let clauses = random_3sat st 20 80 in
  let a = Sp.run ~nvars:20 clauses and b = Sp.run ~nvars:20 clauses in
  Alcotest.(check bool) "same clauses" true (a.Sp.clauses = b.Sp.clauses);
  Alcotest.(check bool) "same proof" true (a.Sp.proof = b.Sp.proof);
  Alcotest.(check bool) "same counters" true (a.Sp.counters = b.Sp.counters)

let test_simplify_frozen () =
  (* Frozen variables survive even when pure. *)
  let r = Sp.run ~frozen:[ 3 ] ~nvars:3 [ [ 1; 3 ]; [ 2; 3 ]; [ -1; -2 ] ] in
  Alcotest.(check bool) "3 not eliminated" false (List.mem 3 r.Sp.eliminated)

(* --- Portfolio --------------------------------------------------------- *)

let test_portfolio_sat () =
  let nvars, clauses = php_formula 5 5 in
  let p = P.create ~k:4 ~nvars clauses in
  (match P.solve p with
  | S.Sat -> ()
  | _ -> Alcotest.fail "php(5,5) must be Sat");
  Alcotest.(check bool) "model satisfies" true (satisfies (P.model p) clauses);
  Alcotest.(check bool) "winner set" true (P.winner p <> None)

let test_portfolio_unsat_proof () =
  let nvars, clauses = php_formula 6 5 in
  let p = P.create ~k:4 ~certify:true ~nvars clauses in
  (match P.solve p with
  | S.Unsat -> ()
  | _ -> Alcotest.fail "php(6,5) must be Unsat");
  match Sat.Drat.check ~nvars ~clauses (P.proof p) with
  | Sat.Drat.Valid -> ()
  | Sat.Drat.Invalid { step; reason } ->
      Alcotest.fail
        (Printf.sprintf "portfolio proof rejected at step %d: %s" step reason)

let test_portfolio_matches_single () =
  let st = Random.State.make [| 0xBEEF |] in
  for _ = 1 to 12 do
    let nvars = 20 + Random.State.int st 10 in
    let nclauses = int_of_float (4.26 *. float_of_int nvars) in
    let clauses = random_3sat st nvars nclauses in
    let expected = S.solve (solver_of nvars clauses) in
    let p = P.create ~k:(1 + Random.State.int st 5) ~nvars clauses in
    Alcotest.(check bool) "verdict matches" true (P.solve p = expected)
  done

let test_portfolio_deterministic_across_jobs () =
  (* The contract pinned by DESIGN.md §14: fixed (instance, K) gives a
     bit-identical (verdict, winner, model/proof) at every worker
     count. *)
  let st = Random.State.make [| 0xD17E |] in
  let nvars = 40 in
  let nclauses = int_of_float (4.26 *. float_of_int nvars) in
  let clauses = random_3sat st nvars nclauses in
  let outcome jobs =
    Parallel.Pool.set_default_jobs jobs;
    let p = P.create ~k:4 ~certify:true ~nvars clauses in
    let v = P.solve p in
    let extra =
      match v with S.Sat -> `Model (P.model p) | _ -> `Proof (P.proof p)
    in
    (v, P.winner p, extra)
  in
  let r1 = outcome 1 in
  let r2 = outcome 2 in
  let r4 = outcome 4 in
  Parallel.Pool.set_default_jobs 1;
  Alcotest.(check bool) "jobs 1 = jobs 2" true (r1 = r2);
  Alcotest.(check bool) "jobs 1 = jobs 4" true (r1 = r4)

let test_portfolio_budget_resume () =
  let nvars, clauses = php_formula 9 8 in
  let p = P.create ~k:3 ~nvars clauses in
  (match P.solve ~budget:(Sat.Budget.of_conflicts 50) p with
  | S.Unknown Sat.Budget.Conflicts -> ()
  | _ -> Alcotest.fail "expected Unknown (conflict budget)");
  Alcotest.(check bool) "resumes to Unsat" true (P.solve p = S.Unsat)

let test_portfolio_external_cancel_resume () =
  (* Cancelling the whole portfolio must leave it resumable — and no
     member may be poisoned by the aborted race. *)
  let nvars, clauses = php_formula 8 7 in
  let p = P.create ~k:3 ~nvars clauses in
  let cancel = ref true in
  let budget =
    {
      Sat.Budget.unlimited with
      conflicts = None;
      cancelled = (fun () -> !cancel);
    }
  in
  (match P.solve ~budget p with
  | S.Sat -> Alcotest.fail "cancelled portfolio answered Sat"
  | S.Unknown _ | S.Unsat -> ());
  cancel := false;
  Alcotest.(check bool) "resumes to Unsat" true (P.solve p = S.Unsat)

let test_losing_members_stay_usable () =
  (* Regression for the race: a losing member is cancelled through its
     Budget mid-solve (or skipped outright).  Either way its instance
     must remain resumable and sound for callers that reuse it. *)
  Parallel.Pool.set_default_jobs 4;
  let check_members nvars clauses expected =
    let p = P.create ~k:4 ~nvars clauses in
    (match P.solve p with
    | r when r = expected -> ()
    | _ -> Alcotest.fail "portfolio verdict wrong");
    for i = 0 to 3 do
      let s = P.member_solver p i in
      Alcotest.(check bool)
        (Printf.sprintf "member %d resumes to the true verdict" i)
        true
        (S.solve s = expected)
    done
  in
  let nvars_s, clauses_s = php_formula 5 5 in
  check_members nvars_s clauses_s S.Sat;
  let nvars_u, clauses_u = php_formula 7 6 in
  check_members nvars_u clauses_u S.Unsat;
  Parallel.Pool.set_default_jobs 1

let test_portfolio_k1_is_baseline () =
  let nvars, clauses = php_formula 6 5 in
  let p = P.create ~k:1 ~nvars clauses in
  Alcotest.(check bool) "k=1 verdict" true (P.solve p = S.Unsat);
  Alcotest.(check int) "one member" 1 (P.k p)

let test_portfolio_stats_expose_simplify () =
  let nvars, clauses = php_formula 6 5 in
  let p = P.create ~k:2 ~nvars clauses in
  ignore (P.solve p);
  let st = P.stats p in
  let c = P.counters p in
  Alcotest.(check int) "subsumed" c.Sp.subsumed st.S.simplify_subsumed;
  Alcotest.(check int)
    "strengthened" c.Sp.strengthened st.S.simplify_strengthened;
  Alcotest.(check int)
    "eliminated" c.Sp.eliminated_vars st.S.simplify_eliminated;
  Alcotest.(check int) "vivified" c.Sp.vivified st.S.simplify_vivified

let test_default_k_resolution () =
  Alcotest.(check bool) "default >= 1" true (P.default_k () >= 1);
  P.set_default_k 3;
  Alcotest.(check int) "override" 3 (P.default_k ());
  P.set_default_k 1;
  Alcotest.(check int) "reset" 1 (P.default_k ());
  Alcotest.(check bool) "rejects zero" true
    (match P.set_default_k 0 with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_exact_portfolio_agrees () =
  (* The exact engine with a portfolio must find the same minimum area
     as the single-solver engine, and certify its refutations. *)
  let netlist =
    let b = Logic.Benchmarks.find "xor2" in
    Physdesign.Netlist.of_mapped
      (fst (Logic.Tech_map.map (b.Logic.Benchmarks.build ())))
  in
  let base =
    Physdesign.Exact.place_and_route
      ~config:{ Physdesign.Exact.default_config with portfolio = Some 1 }
      netlist
  in
  let port =
    Physdesign.Exact.place_and_route
      ~config:
        {
          Physdesign.Exact.default_config with
          portfolio = Some 3;
          certify = true;
        }
      netlist
  in
  match (base, port) with
  | Ok b, Ok p ->
      Alcotest.(check int) "same width" b.Physdesign.Exact.width
        p.Physdesign.Exact.width;
      Alcotest.(check int) "same height" b.Physdesign.Exact.height
        p.Physdesign.Exact.height
      (* certify:true means any refuted candidate already had its proof
         checked — Certification_failed would have surfaced as Error. *)
  | _ -> Alcotest.fail "exact P&R failed"

let () =
  Alcotest.run "portfolio"
    [
      ( "simplify",
        [
          Alcotest.test_case "subsumption" `Quick test_simplify_subsumption;
          Alcotest.test_case "self-subsumption" `Quick
            test_simplify_self_subsumption;
          Alcotest.test_case "unit strengthening" `Quick
            test_simplify_unit_strengthens;
          Alcotest.test_case "pure literal + reconstruct" `Quick
            test_simplify_pure_literal;
          Alcotest.test_case "refutes at preprocessing" `Quick
            test_simplify_refutes;
          Alcotest.test_case "proof prefix checks" `Quick
            test_simplify_proof_checks;
          Alcotest.test_case "deterministic" `Quick
            test_simplify_deterministic;
          Alcotest.test_case "frozen vars kept" `Quick test_simplify_frozen;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "sat with model" `Quick test_portfolio_sat;
          Alcotest.test_case "unsat with proof" `Quick
            test_portfolio_unsat_proof;
          Alcotest.test_case "matches single solver" `Quick
            test_portfolio_matches_single;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_portfolio_deterministic_across_jobs;
          Alcotest.test_case "budget resume" `Quick
            test_portfolio_budget_resume;
          Alcotest.test_case "external cancel then resume" `Quick
            test_portfolio_external_cancel_resume;
          Alcotest.test_case "losing members stay usable" `Quick
            test_losing_members_stay_usable;
          Alcotest.test_case "k=1 is the baseline" `Quick
            test_portfolio_k1_is_baseline;
          Alcotest.test_case "stats expose simplify" `Quick
            test_portfolio_stats_expose_simplify;
          Alcotest.test_case "default-k resolution" `Quick
            test_default_k_resolution;
          Alcotest.test_case "exact engine agrees" `Slow
            test_exact_portfolio_agrees;
        ] );
    ]
