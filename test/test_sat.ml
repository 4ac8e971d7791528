(* Tests for the CDCL solver, CNF layer, and DIMACS support. *)

module S = Sat.Solver
module C = Sat.Cnf

let test_empty_formula () =
  let s = S.create () in
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat)

let test_unit_propagation () =
  let s = S.create () in
  let a = S.new_var s and b = S.new_var s and c = S.new_var s in
  S.add_clause s [ a ];
  S.add_clause s [ -a; b ];
  S.add_clause s [ -b; c ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "a" true (S.value s a);
  Alcotest.(check bool) "b" true (S.value s b);
  Alcotest.(check bool) "c" true (S.value s c)

let test_empty_clause () =
  let s = S.create () in
  ignore (S.new_var s);
  S.add_clause s [];
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat)

let test_contradiction () =
  let s = S.create () in
  let a = S.new_var s in
  S.add_clause s [ a ];
  S.add_clause s [ -a ];
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat)

let test_tautology_dropped () =
  let s = S.create () in
  let a = S.new_var s in
  S.add_clause s [ a; -a ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat)

let php_formula pigeons holes =
  (* Pigeonhole: unsat iff pigeons > holes. *)
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

let php_clauses pigeons holes =
  let nvars, clauses = php_formula pigeons holes in
  solver_of nvars clauses

let test_pigeonhole_unsat () =
  Alcotest.(check bool) "php(6,5)" true (S.solve (php_clauses 6 5) = S.Unsat)

let test_pigeonhole_sat () =
  Alcotest.(check bool) "php(5,5)" true (S.solve (php_clauses 5 5) = S.Sat)

let test_assumptions () =
  let s = S.create () in
  let a = S.new_var s and b = S.new_var s in
  S.add_clause s [ -a; b ];
  Alcotest.(check bool) "a & !b unsat" true
    (S.solve ~assumptions:[ a; -b ] s = S.Unsat);
  Alcotest.(check bool) "a sat" true (S.solve ~assumptions:[ a ] s = S.Sat);
  Alcotest.(check bool) "b forced" true (S.value s b);
  (* The solver stays usable after an unsat-under-assumptions call. *)
  Alcotest.(check bool) "no assumptions sat" true (S.solve s = S.Sat)

let test_incremental () =
  let s = S.create () in
  let a = S.new_var s and b = S.new_var s in
  S.add_clause s [ a; b ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  S.add_clause s [ -a ];
  Alcotest.(check bool) "still sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "b true" true (S.value s b);
  S.add_clause s [ -b ];
  Alcotest.(check bool) "now unsat" true (S.solve s = S.Unsat)

let test_budget () =
  let s = php_clauses 9 8 in
  (match S.solve ~budget:(Sat.Budget.of_conflicts 50) s with
  | S.Unknown Sat.Budget.Conflicts -> ()
  | _ -> Alcotest.fail "expected Unknown (conflict budget)");
  (* An unbudgeted call resumes the same solver to completion. *)
  Alcotest.(check bool) "unsat after budget removed" true (S.solve s = S.Unsat)

let test_budget_deadline () =
  let s = php_clauses 9 8 in
  let budget =
    {
      Sat.Budget.unlimited with
      Sat.Budget.deadline = Some (Unix.gettimeofday () -. 1.);
    }
  in
  (match S.solve ~budget s with
  | S.Unknown Sat.Budget.Deadline -> ()
  | _ -> Alcotest.fail "expected Unknown (deadline)");
  Alcotest.(check bool) "resumable" true (S.solve s = S.Unsat)

let test_budget_cancelled () =
  let s = php_clauses 9 8 in
  let budget =
    { Sat.Budget.unlimited with Sat.Budget.cancelled = (fun () -> true) }
  in
  match S.solve ~budget s with
  | S.Unknown Sat.Budget.Cancelled -> ()
  | _ -> Alcotest.fail "expected Unknown (cancelled)"

let test_budget_resume_escalation () =
  (* Luby-style resume: keep doubling the allowance of the SAME solver
     until it reaches a verdict; must agree with an unbudgeted solve. *)
  let s = php_clauses 9 8 in
  let rec go allowance guard =
    if guard = 0 then Alcotest.fail "escalation did not converge"
    else
      match S.solve ~budget:(Sat.Budget.of_conflicts allowance) s with
      | S.Unknown Sat.Budget.Conflicts -> go (2 * allowance) (guard - 1)
      | r -> r
  in
  Alcotest.(check bool) "escalated verdict" true (go 20 40 = S.Unsat)

let random_3sat st nvars nclauses =
  List.init nclauses (fun _ ->
      List.init 3 (fun _ ->
          let v = 1 + Random.State.int st nvars in
          if Random.State.bool st then v else -v))

let test_budget_resume_random_3sat () =
  (* Seeded random 3-SAT near the phase transition: a budgeted solve
     resumed with larger and larger allowances must reach the same
     verdict as an unbudgeted solve of a fresh solver. *)
  let st = Random.State.make [| 0x5eed |] in
  for _ = 1 to 15 do
    let nvars = 25 + Random.State.int st 15 in
    let nclauses = int_of_float (4.26 *. float_of_int nvars) in
    let clauses = random_3sat st nvars nclauses in
    let mk () =
      let s = S.create () in
      for _ = 1 to nvars do
        ignore (S.new_var s)
      done;
      List.iter (S.add_clause s) clauses;
      s
    in
    let reference = S.solve (mk ()) in
    let s = mk () in
    let rec go allowance =
      match S.solve ~budget:(Sat.Budget.of_conflicts allowance) s with
      | S.Unknown _ -> go (2 * allowance)
      | r -> r
    in
    Alcotest.(check bool) "budgeted resume agrees" true (go 3 = reference)
  done

let test_budget_resume_same_instance () =
  (* The satellite contract: an [Unknown] under a small conflict
     allowance resumes on the SAME solver instance with a larger
     allowance and reaches the verdict an unbudgeted solve reaches. *)
  let nvars, clauses = php_formula 8 7 in
  let reference = S.solve (solver_of nvars clauses) in
  Alcotest.(check bool) "reference is unsat" true (reference = S.Unsat);
  let s = solver_of nvars clauses in
  (match S.solve ~budget:(Sat.Budget.of_conflicts 10) s with
  | S.Unknown Sat.Budget.Conflicts -> ()
  | S.Unknown _ -> Alcotest.fail "wrong budget reason"
  | S.Sat | S.Unsat -> Alcotest.fail "allowance unexpectedly sufficient");
  let verdict = S.solve ~budget:(Sat.Budget.of_conflicts 1_000_000) s in
  Alcotest.(check bool) "resumed verdict agrees" true (verdict = reference)

(* --- DRAT proof logging and checking ---------------------------------- *)

let test_drat_php_proof () =
  let nvars, clauses = php_formula 6 5 in
  let s = solver_of ~proof:true nvars clauses in
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat);
  let proof = S.proof s in
  Alcotest.(check bool) "proof nonempty" true
    (Sat.Drat.num_additions proof > 0);
  Alcotest.(check bool) "checker accepts" true
    (Sat.Drat.is_valid ~nvars ~clauses proof)

let test_drat_mutated_proof_rejected () =
  let nvars, clauses = php_formula 6 5 in
  let s = solver_of ~proof:true nvars clauses in
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat);
  let proof = S.proof s in
  (* Soundness: the same proof cannot refute a satisfiable formula. *)
  let sat_nvars, sat_clauses = php_formula 6 6 in
  Alcotest.(check bool) "proof vs satisfiable formula rejected" false
    (Sat.Drat.is_valid ~nvars:sat_nvars ~clauses:sat_clauses proof);
  (* Stripping every clause addition leaves nothing to conflict on. *)
  let deletions_only =
    List.filter (function Sat.Drat.Delete _ -> true | _ -> false) proof
  in
  Alcotest.(check bool) "additions stripped rejected" false
    (Sat.Drat.is_valid ~nvars ~clauses deletions_only);
  (* Claiming the empty clause up front is not a RUP consequence. *)
  Alcotest.(check bool) "bare empty clause rejected" false
    (Sat.Drat.is_valid ~nvars ~clauses [ Sat.Drat.Add [] ])

let test_drat_text_roundtrip () =
  let nvars, clauses = php_formula 6 5 in
  let s = solver_of ~proof:true nvars clauses in
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat);
  let proof = S.proof s in
  let parsed = Sat.Drat.of_string (Sat.Drat.to_string proof) in
  Alcotest.(check bool) "roundtrip preserves steps" true (parsed = proof);
  Alcotest.(check bool) "parsed proof checks" true
    (Sat.Drat.is_valid ~nvars ~clauses parsed)

let test_drat_trivial_formulas () =
  (* A root-level contradiction needs no proof steps at all. *)
  Alcotest.(check bool) "x & !x" true
    (Sat.Drat.is_valid ~nvars:1 ~clauses:[ [ 1 ]; [ -1 ] ] []);
  (* A satisfiable formula admits no refutation. *)
  Alcotest.(check bool) "sat formula" false
    (Sat.Drat.is_valid ~nvars:1 ~clauses:[ [ 1 ] ] [])

let test_drat_across_resume () =
  (* Proof steps accumulate across budgeted resumes of one instance. *)
  let nvars, clauses = php_formula 7 6 in
  let s = solver_of ~proof:true nvars clauses in
  let rec go allowance =
    match S.solve ~budget:(Sat.Budget.of_conflicts allowance) s with
    | S.Unknown _ -> go (2 * allowance)
    | r -> r
  in
  Alcotest.(check bool) "unsat" true (go 10 = S.Unsat);
  Alcotest.(check bool) "accumulated proof checks" true
    (Sat.Drat.is_valid ~nvars ~clauses (S.proof s))

let test_stats () =
  let s = php_clauses 7 6 in
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat);
  let st = S.stats s in
  Alcotest.(check bool) "conflicts counted" true (st.S.conflicts > 0);
  Alcotest.(check bool) "decisions counted" true (st.S.decisions > 0);
  Alcotest.(check bool) "propagations counted" true (st.S.propagations > 0);
  let sum = S.add_stats st S.empty_stats in
  Alcotest.(check int) "add_stats neutral" st.S.conflicts sum.S.conflicts;
  Alcotest.(check bool) "pp_stats renders" true
    (String.length (Format.asprintf "%a" S.pp_stats st) > 0)

(* --- binary-clause specialization -------------------------------------- *)

let test_binary_learned_in_proof () =
  (* Learned binaries live in the implication lists, but they must still
     be logged: the DRAT checker sees every clause the solver reasons
     with, and flipping a literal in a learned binary breaks the RUP
     chain. *)
  let nvars, clauses = php_formula 6 5 in
  let s = solver_of ~proof:true nvars clauses in
  Alcotest.(check bool) "binaries specialized" true
    (S.num_binary_clauses s > 0);
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat);
  let proof = S.proof s in
  let is_binary_add = function
    | Sat.Drat.Add [ _; _ ] -> true
    | _ -> false
  in
  Alcotest.(check bool) "proof contains a learned binary" true
    (List.exists is_binary_add proof);
  Alcotest.(check bool) "proof accepted" true
    (Sat.Drat.is_valid ~nvars ~clauses proof);
  let mutated =
    let flipped = ref false in
    List.map
      (function
        | Sat.Drat.Add [ a; b ] when not !flipped ->
            flipped := true;
            Sat.Drat.Add [ -a; b ]
        | step -> step)
      proof
  in
  Alcotest.(check bool) "mutated binary rejected" false
    (Sat.Drat.is_valid ~nvars ~clauses mutated)

let test_binary_lists_across_resume () =
  (* A budgeted [Unknown] must not lose the implication lists: the
     problem binaries and any learned ones carry over into the resumed
     solve. *)
  let nvars, clauses = php_formula 9 8 in
  let problem_binaries =
    List.length (List.filter (fun c -> List.length c = 2) clauses)
  in
  let s = solver_of nvars clauses in
  Alcotest.(check int) "problem binaries specialized" problem_binaries
    (S.num_binary_clauses s);
  (match S.solve ~budget:(Sat.Budget.of_conflicts 50) s with
  | S.Unknown Sat.Budget.Conflicts -> ()
  | _ -> Alcotest.fail "expected Unknown (conflict budget)");
  let after_budget = S.num_binary_clauses s in
  Alcotest.(check bool) "lists survive the interrupt" true
    (after_budget >= problem_binaries);
  Alcotest.(check bool) "resumed verdict" true (S.solve s = S.Unsat);
  Alcotest.(check bool) "lists only grow" true
    (S.num_binary_clauses s >= after_budget)

let test_cancelled_then_resumed_allowance () =
  (* A solve interrupted by cancellation, then resumed, must still
     honor the per-call conflict allowance of the budget it resumes
     under — cancellation must not leak a stale (already-consumed)
     limit into the next call. *)
  let allowance = 40 in
  let nvars, clauses = php_formula 9 8 in
  let s = solver_of nvars clauses in
  let cancel = ref false in
  let budget =
    {
      Sat.Budget.unlimited with
      conflicts = Some allowance;
      cancelled = (fun () -> !cancel);
    }
  in
  cancel := true;
  (match S.solve ~budget s with
  | S.Unknown Sat.Budget.Cancelled -> ()
  | _ -> Alcotest.fail "expected Unknown (cancelled)");
  cancel := false;
  let before = (S.stats s).S.conflicts in
  (match S.solve ~budget s with
  | S.Unknown Sat.Budget.Conflicts -> ()
  | S.Unsat -> Alcotest.fail "php(9,8) under 40 conflicts cannot finish"
  | _ -> Alcotest.fail "expected Unknown (conflict budget)");
  let spent = (S.stats s).S.conflicts - before in
  Alcotest.(check bool)
    (Printf.sprintf "resume spent %d <= allowance+1" spent)
    true
    (spent >= 1 && spent <= allowance + 1);
  (* And with the budget lifted the instance is still sound. *)
  Alcotest.(check bool) "final verdict" true (S.solve s = S.Unsat)

let test_cancelled_resume_never_sat_when_poisoned () =
  (* The root-conflict regression crossed with cancellation: cancel the
     very first solve on the poisoned formula, then resume with and
     without assumptions.  No call may ever answer Sat. *)
  [
    { S.default_config with binary_specialization = false }; S.default_config;
  ]
  |> List.iter (fun config ->
         let s = S.create ~config () in
         for _ = 1 to 7 do
           ignore (S.new_var s)
         done;
         List.iter (S.add_clause s)
           [ [ 2; -7 ]; [ 2; 7 ]; [ -7; -2 ]; [ -2; 7 ] ];
         let cancel = ref true in
         let budget =
           {
             Sat.Budget.unlimited with
             conflicts = None;
             cancelled = (fun () -> !cancel);
           }
         in
         (match S.solve ~budget s with
         | S.Sat -> Alcotest.fail "cancelled solve answered Sat"
         | S.Unknown _ | S.Unsat -> ());
         cancel := false;
         for mask = 0 to 3 do
           let assumptions =
             List.init 7 (fun i ->
                 if mask land (1 lsl i) <> 0 then i + 1 else -(i + 1))
           in
           Alcotest.(check bool)
             (Printf.sprintf "resumed mask %d unsat" mask)
             true
             (S.solve ~assumptions s = S.Unsat)
         done;
         Alcotest.(check bool) "resumed unconditional unsat" true
           (S.solve s = S.Unsat))

let test_root_conflict_poisons_solver () =
  (* Regression (found by the amo-encodings fuzz property): these four
     binaries resolve to both [2] and [-2], so the formula is unsat
     outright.  The first solve refutes it at the root and leaves the
     root trail only partially propagated; any later call — whatever the
     assumptions — must keep answering Unsat rather than accept that
     inconsistent trail as a model. *)
  [
    { S.default_config with binary_specialization = false }; S.default_config;
  ]
  |> List.iter (fun config ->
         let s = S.create ~config () in
         for _ = 1 to 7 do
           ignore (S.new_var s)
         done;
         List.iter (S.add_clause s)
           [ [ 2; -7 ]; [ 2; 7 ]; [ -7; -2 ]; [ -2; 7 ] ];
         for mask = 0 to 3 do
           let assumptions =
             List.init 7 (fun i ->
                 if mask land (1 lsl i) <> 0 then i + 1 else -(i + 1))
           in
           Alcotest.(check bool)
             (Printf.sprintf "mask %d unsat" mask)
             true
             (S.solve ~assumptions s = S.Unsat)
         done;
         Alcotest.(check bool) "unconditionally unsat" true
           (S.solve s = S.Unsat))

(* Random instances cross-checked against the DPLL oracle. *)
let arbitrary_cnf =
  let open QCheck.Gen in
  let clause =
    list_size (int_range 1 3)
      (map
         (fun (v, sign) -> if sign then v + 1 else -(v + 1))
         (pair (int_range 0 7) bool))
  in
  list_size (int_range 1 35) clause

let prop_matches_dpll =
  QCheck.Test.make ~name:"CDCL matches DPLL oracle" ~count:300
    (QCheck.make arbitrary_cnf) (fun clauses ->
      let s = S.create () in
      for _ = 1 to 8 do
        ignore (S.new_var s)
      done;
      List.iter (S.add_clause s) clauses;
      let cdcl = S.solve s = S.Sat in
      let dpll = Sat.Dpll.solve ~nvars:8 clauses <> None in
      if cdcl <> dpll then false
      else if cdcl then
        (* The model must satisfy every clause. *)
        List.for_all (fun c -> List.exists (fun l -> S.value s l) c) clauses
      else true)

let prop_model_under_assumptions =
  QCheck.Test.make ~name:"assumptions hold in model" ~count:200
    (QCheck.pair (QCheck.make arbitrary_cnf)
       (QCheck.list_of_size (QCheck.Gen.return 2) (QCheck.int_range 1 8)))
    (fun (clauses, assumed_vars) ->
      let s = S.create () in
      for _ = 1 to 8 do
        ignore (S.new_var s)
      done;
      List.iter (S.add_clause s) clauses;
      let assumptions = List.map (fun v -> v) assumed_vars in
      match S.solve ~assumptions s with
      | S.Sat -> List.for_all (fun l -> S.value s l) assumptions
      | S.Unsat -> true
      | S.Unknown _ -> false)

let prop_drat_random_cnf =
  QCheck.Test.make ~name:"random CNF: UNSAT proofs check, SAT models eval"
    ~count:300 (QCheck.make arbitrary_cnf) (fun clauses ->
      let s = solver_of ~proof:true 8 clauses in
      match S.solve s with
      | S.Unsat -> Sat.Drat.is_valid ~nvars:8 ~clauses (S.proof s)
      | S.Sat ->
          List.for_all (fun c -> List.exists (fun l -> S.value s l) c) clauses
      | S.Unknown _ -> false)

(* --- CNF layer -------------------------------------------------------------- *)

let exhaust f inputs check =
  (* Force every assignment of the inputs via assumptions and check the
     model against the gate definition. *)
  let solver = C.solver f in
  let n = List.length inputs in
  let ok = ref true in
  for row = 0 to (1 lsl n) - 1 do
    let assumptions =
      List.mapi
        (fun i l -> if (row lsr i) land 1 = 1 then l else -l)
        inputs
    in
    match S.solve ~assumptions solver with
    | S.Sat -> if not (check (fun l -> S.value solver l)) then ok := false
    | S.Unsat | S.Unknown _ -> ok := false
  done;
  !ok

let test_tseitin_and () =
  let f = C.create () in
  let a = C.fresh f and b = C.fresh f in
  let y = C.and_ f a b in
  Alcotest.(check bool) "and gate" true
    (exhaust f [ a; b ] (fun v -> v y = (v a && v b)))

let test_tseitin_xor_ite () =
  let f = C.create () in
  let a = C.fresh f and b = C.fresh f and c = C.fresh f in
  let x = C.xor_ f a b in
  let m = C.ite f c a b in
  Alcotest.(check bool) "xor and ite" true
    (exhaust f [ a; b; c ] (fun v ->
         v x = (v a <> v b) && v m = if v c then v a else v b))

let test_or_and_lists () =
  let f = C.create () in
  let inputs = Array.to_list (C.fresh_many f 4) in
  let ol = C.or_list f inputs and al = C.and_list f inputs in
  Alcotest.(check bool) "or/and lists" true
    (exhaust f inputs (fun v ->
         v ol = List.exists v inputs && v al = List.for_all v inputs))

let count_true solver lits =
  List.length (List.filter (fun l -> S.value solver l) lits)

let test_at_most_one () =
  let f = C.create () in
  let lits = Array.to_list (C.fresh_many f 9) in
  C.at_most_one f lits;
  C.at_least_one f lits;
  let solver = C.solver f in
  Alcotest.(check bool) "sat" true (S.solve solver = S.Sat);
  Alcotest.(check int) "exactly one" 1 (count_true solver lits);
  (* Forcing two distinct literals must be unsat. *)
  Alcotest.(check bool) "two forced unsat" true
    (S.solve ~assumptions:[ List.nth lits 0; List.nth lits 8 ] solver
    = S.Unsat)

let test_at_most_k () =
  let f = C.create () in
  let lits = Array.to_list (C.fresh_many f 6) in
  C.at_most_k f lits 3;
  let solver = C.solver f in
  (* Forcing four of them violates the bound. *)
  let four = [ List.nth lits 0; List.nth lits 1; List.nth lits 2; List.nth lits 3 ] in
  Alcotest.(check bool) "4 > 3 unsat" true
    (S.solve ~assumptions:four solver = S.Unsat);
  let three = [ List.nth lits 0; List.nth lits 2; List.nth lits 4 ] in
  Alcotest.(check bool) "3 ok" true (S.solve ~assumptions:three solver = S.Sat)

let test_at_least_k () =
  let f = C.create () in
  let lits = Array.to_list (C.fresh_many f 5) in
  C.at_least_k f lits 4;
  let solver = C.solver f in
  Alcotest.(check bool) "sat" true (S.solve solver = S.Sat);
  Alcotest.(check bool) ">= 4 true" true (count_true solver lits >= 4);
  let two_false = [ -List.nth lits 0; -List.nth lits 1 ] in
  Alcotest.(check bool) "two false unsat" true
    (S.solve ~assumptions:two_false solver = S.Unsat)

let test_dimacs_roundtrip () =
  let f = C.create () in
  let a = C.fresh f and b = C.fresh f in
  C.add_clause f [ a; -b ];
  C.add_clause f [ -a; b ];
  let text = C.to_dimacs f in
  let solver, nvars = C.parse_dimacs text in
  Alcotest.(check int) "vars" 2 nvars;
  Alcotest.(check bool) "solves" true (S.solve solver = S.Sat)

let test_dimacs_parse_errors () =
  Alcotest.check_raises "bad header" (Failure "Cnf.parse_dimacs: bad header")
    (fun () -> ignore (C.parse_dimacs "p cnf x 1\n1 0\n"))

let () =
  let qt = List.map (QCheck_alcotest.to_alcotest ~verbose:false) in
  Alcotest.run "sat"
    [
      ( "solver",
        [
          Alcotest.test_case "empty formula" `Quick test_empty_formula;
          Alcotest.test_case "unit propagation" `Quick test_unit_propagation;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "contradiction" `Quick test_contradiction;
          Alcotest.test_case "tautology" `Quick test_tautology_dropped;
          Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
          Alcotest.test_case "pigeonhole sat" `Quick test_pigeonhole_sat;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "incremental" `Quick test_incremental;
          Alcotest.test_case "budget" `Quick test_budget;
          Alcotest.test_case "budget deadline" `Quick test_budget_deadline;
          Alcotest.test_case "budget cancelled" `Quick test_budget_cancelled;
          Alcotest.test_case "budget escalation" `Quick
            test_budget_resume_escalation;
          Alcotest.test_case "budget resume random 3-SAT" `Quick
            test_budget_resume_random_3sat;
          Alcotest.test_case "budget resume same instance" `Quick
            test_budget_resume_same_instance;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "binary learned in proof" `Quick
            test_binary_learned_in_proof;
          Alcotest.test_case "binary lists across resume" `Quick
            test_binary_lists_across_resume;
          Alcotest.test_case "root conflict poisons solver" `Quick
            test_root_conflict_poisons_solver;
          Alcotest.test_case "cancelled-then-resumed allowance" `Quick
            test_cancelled_then_resumed_allowance;
          Alcotest.test_case "cancelled resume never Sat when poisoned" `Quick
            test_cancelled_resume_never_sat_when_poisoned;
        ] );
      ( "drat",
        [
          Alcotest.test_case "pigeonhole proof" `Quick test_drat_php_proof;
          Alcotest.test_case "mutated proof rejected" `Quick
            test_drat_mutated_proof_rejected;
          Alcotest.test_case "text roundtrip" `Quick test_drat_text_roundtrip;
          Alcotest.test_case "trivial formulas" `Quick
            test_drat_trivial_formulas;
          Alcotest.test_case "proof across resume" `Quick
            test_drat_across_resume;
        ] );
      ( "oracle",
        qt
          [
            prop_matches_dpll; prop_model_under_assumptions;
            prop_drat_random_cnf;
          ] );
      ( "cnf",
        [
          Alcotest.test_case "tseitin and" `Quick test_tseitin_and;
          Alcotest.test_case "tseitin xor/ite" `Quick test_tseitin_xor_ite;
          Alcotest.test_case "or/and lists" `Quick test_or_and_lists;
          Alcotest.test_case "at most one" `Quick test_at_most_one;
          Alcotest.test_case "at most k" `Quick test_at_most_k;
          Alcotest.test_case "at least k" `Quick test_at_least_k;
          Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "dimacs errors" `Quick test_dimacs_parse_errors;
        ] );
    ]
