(* Tests for the SiDB physical simulation substrate. *)

module L = Sidb.Lattice
module Mo = Sidb.Model
module CS = Sidb.Charge_system
module GS = Sidb.Ground_state
module B = Sidb.Bdl

let feq = Alcotest.(float 1e-9)

(* --- lattice ------------------------------------------------------------ *)

let test_positions () =
  let x, y = L.position (L.site 0 0 0) in
  Alcotest.(check feq) "origin x" 0. x;
  Alcotest.(check feq) "origin y" 0. y;
  let x, y = L.position (L.site 2 1 1) in
  Alcotest.(check feq) "x" 7.68 x;
  Alcotest.(check feq) "y" 9.93 y

let test_distance () =
  Alcotest.(check feq) "dimer gap" 2.25
    (L.distance (L.site 0 0 0) (L.site 0 0 1));
  Alcotest.(check feq) "column pitch" 3.84
    (L.distance (L.site 0 0 0) (L.site 1 0 0));
  Alcotest.(check feq) "nm conversion" 0.384
    (L.distance_nm (L.site 0 0 0) (L.site 1 0 0))

let test_site_validation () =
  Alcotest.(check bool) "bad l" true
    (try
       ignore (L.site 0 0 2);
       false
     with Invalid_argument _ -> true)

let test_transforms () =
  let s = L.site 10 4 1 in
  Alcotest.(check bool) "translate" true
    (L.equal (L.translate s ~dn:5 ~dm:(-2)) (L.site 15 2 1));
  Alcotest.(check bool) "mirror" true
    (L.equal (L.mirror_x s ~about_n2:60) (L.site 50 4 1));
  Alcotest.(check bool) "mirror involution" true
    (L.equal (L.mirror_x (L.mirror_x s ~about_n2:60) ~about_n2:60) s)

(* --- model ---------------------------------------------------------------- *)

let test_potential_monotone () =
  let m = Mo.default in
  Alcotest.(check bool) "decreasing" true
    (Mo.potential m 5. > Mo.potential m 10.
    && Mo.potential m 10. > Mo.potential m 50.);
  Alcotest.(check bool) "screening beats bare coulomb" true
    (Mo.potential m 50. < Mo.coulomb_k /. m.Mo.epsilon_r /. 50.)

let test_potential_values () =
  (* V(7.68 A) at eps_r = 5.6, lambda = 5 nm:
     14.3996 / 5.6 / 7.68 * exp(-7.68/50) = 0.28709... *)
  Alcotest.(check (float 1e-4)) "pair interaction" 0.2871
    (Mo.potential Mo.default 7.68)

let test_interaction_matrix () =
  let sites = [| L.site 0 0 0; L.site 2 0 0; L.site 0 2 0 |] in
  let m = Mo.interaction_matrix Mo.default sites in
  Alcotest.(check feq) "diagonal zero" 0. m.(1).(1);
  Alcotest.(check feq) "symmetric" m.(0).(2) m.(2).(0);
  Alcotest.(check bool) "positive" true (m.(0).(1) > 0.)

(* --- charge systems --------------------------------------------------------- *)

let pair_system () =
  CS.create Mo.default [| L.site 0 0 0; L.site 0 1 0 |]

let test_energy_empty_and_single () =
  let sys = pair_system () in
  Alcotest.(check feq) "empty" 0. (CS.energy sys [| false; false |]);
  Alcotest.(check feq) "single" (-0.32) (CS.energy sys [| true; false |])

let test_energy_double () =
  let sys = pair_system () in
  let v = Mo.interaction Mo.default (L.site 0 0 0) (L.site 0 1 0) in
  Alcotest.(check feq) "double occupation" ((2. *. -0.32) +. v)
    (CS.energy sys [| true; true |])

let test_duplicate_sites_rejected () =
  Alcotest.(check bool) "duplicate" true
    (try
       ignore (CS.create Mo.default [| L.site 0 0 0; L.site 0 0 0 |]);
       false
     with Invalid_argument _ -> true)

let test_v_ext () =
  let sys =
    CS.create ~v_ext:[| 0.5; 0. |] Mo.default [| L.site 0 0 0; L.site 9 9 0 |]
  in
  (* +0.5 eV external potential makes occupation of site 0 unfavorable. *)
  let r = GS.exhaustive sys in
  Alcotest.(check bool) "site 0 empty in ground state" true
    (List.for_all (fun occ -> not occ.(0)) r.GS.states);
  Alcotest.(check bool) "site 1 occupied" true
    (List.for_all (fun occ -> occ.(1)) r.GS.states)

let test_stability_criteria () =
  (* A single isolated SiDB is negatively charged in its ground state
     (mu_minus < 0); that configuration is physically valid and the
     neutral one is population-unstable. *)
  let sys = CS.create Mo.default [| L.site 0 0 0 |] in
  Alcotest.(check bool) "charged valid" true (CS.physically_valid sys [| true |]);
  Alcotest.(check bool) "neutral invalid" false
    (CS.population_stable sys [| false |])

(* --- ground-state engines ----------------------------------------------------- *)

let random_system seed n =
  let rng = Random.State.make [| seed |] in
  let rec fresh_sites acc k =
    if k = 0 then acc
    else
      let s =
        L.site (Random.State.int rng 14) (Random.State.int rng 7)
          (Random.State.int rng 2)
      in
      if List.exists (L.equal s) acc then fresh_sites acc k
      else fresh_sites (s :: acc) (k - 1)
  in
  CS.create Mo.default (Array.of_list (fresh_sites [] n))

let prop_pruned_matches_exhaustive =
  QCheck.Test.make ~name:"pruned = exhaustive" ~count:40
    (QCheck.pair (QCheck.int_range 1 10000) (QCheck.int_range 2 12))
    (fun (seed, n) ->
      let sys = random_system seed n in
      let e1 = (GS.exhaustive sys).GS.energy in
      let e2 = (GS.pruned sys).GS.energy in
      Float.abs (e1 -. e2) < 1e-9)

let prop_ground_state_is_valid =
  QCheck.Test.make ~name:"ground states are physically valid" ~count:30
    (QCheck.pair (QCheck.int_range 1 10000) (QCheck.int_range 2 10))
    (fun (seed, n) ->
      let sys = random_system seed n in
      let r = GS.pruned sys in
      List.for_all (CS.physically_valid sys) r.GS.states)

let test_degenerate_states_reported () =
  (* Two tightly-bound pairs stacked vertically: each holds one
     electron, and the two anti-aligned configurations (left-right and
     right-left) are exactly degenerate by mirror symmetry. *)
  let sys =
    CS.create Mo.default
      [| L.site 0 0 0; L.site 1 0 0; L.site 0 6 0; L.site 1 6 0 |]
  in
  let r = GS.exhaustive sys in
  Alcotest.(check int) "twofold degeneracy" 2 (GS.degeneracy r);
  (* Each degenerate state has exactly one electron per pair. *)
  List.iter
    (fun occ ->
      Alcotest.(check bool) "one per pair" true
        (Bool.to_int occ.(0) + Bool.to_int occ.(1) = 1
        && Bool.to_int occ.(2) + Bool.to_int occ.(3) = 1))
    r.GS.states

let test_empty_system () =
  let sys = CS.create Mo.default [||] in
  Alcotest.(check feq) "empty energy" 0. (GS.exhaustive sys).GS.energy;
  Alcotest.(check feq) "pruned empty" 0. (GS.pruned sys).GS.energy

(* --- BDL ------------------------------------------------------------------------ *)

let wire_structure () =
  (* The validated 3-pair vertical BDL wire. *)
  let at m = L.site 0 m 0 in
  let pairs = [ (at 0, at 1); (at 4, at 5); (at 8, at 9) ] in
  let fixed = List.concat_map (fun (a, b) -> [ a; b ]) pairs @ [ at 12 ] in
  {
    B.name = "wire";
    inputs = [| { B.near = [ at (-2) ]; far = [ at (-6) ] } |];
    outputs = [| { B.zero = at 8; one = at 9 } |];
    fixed;
  }

let test_wire_operational () =
  let report = B.check (wire_structure ()) ~spec:(fun i -> [| i.(0) |]) in
  Alcotest.(check bool) "wire works" true (B.operational report);
  List.iter
    (fun row ->
      Alcotest.(check bool) "row ok" true row.B.ok;
      Alcotest.(check bool) "energy negative" true (row.B.ground_energy < 0.))
    report.B.rows

let test_wire_engines_agree () =
  let s = wire_structure () in
  let spec i = [| i.(0) |] in
  let r1 = B.check ~engine:B.Exhaustive s ~spec in
  let r2 = B.check ~engine:B.Pruned s ~spec in
  Alcotest.(check bool) "exhaustive ok" true (B.operational r1);
  Alcotest.(check bool) "pruned ok" true (B.operational r2);
  List.iter2
    (fun a b ->
      Alcotest.(check feq) "same ground energy" a.B.ground_energy
        b.B.ground_energy)
    r1.B.rows r2.B.rows

let test_read_pair () =
  let sites = [| L.site 0 0 0; L.site 0 1 0 |] in
  let pair = { B.zero = L.site 0 0 0; one = L.site 0 1 0 } in
  Alcotest.(check (option bool)) "one" (Some true)
    (B.read_pair sites [| false; true |] pair);
  Alcotest.(check (option bool)) "zero" (Some false)
    (B.read_pair sites [| true; false |] pair);
  Alcotest.(check (option bool)) "unpolarized" None
    (B.read_pair sites [| true; true |] pair);
  Alcotest.(check (option bool)) "vacant" None
    (B.read_pair sites [| false; false |] pair)

let test_sites_for_selects_perturbers () =
  let s = wire_structure () in
  let sites0 = B.sites_for s [| false |] and sites1 = B.sites_for s [| true |] in
  Alcotest.(check bool) "far in 0" true
    (Array.exists (L.equal (L.site 0 (-6) 0)) sites0);
  Alcotest.(check bool) "near in 1" true
    (Array.exists (L.equal (L.site 0 (-2) 0)) sites1);
  Alcotest.(check bool) "near not in 0" false
    (Array.exists (L.equal (L.site 0 (-2) 0)) sites0)

(* --- low-energy spectrum, temperature, operational domain ---------------- *)

let test_spectrum_sorted_and_complete () =
  let sys = random_system 7 10 in
  let spectrum = GS.spectrum ~window:0.15 sys in
  let energies = List.map snd spectrum in
  (* Sorted ascending and starting at the exact ground state. *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-12 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted energies);
  Alcotest.(check feq) "starts at ground energy"
    (GS.pruned sys).GS.energy (List.hd energies);
  (* Every reported state's energy is consistent with the system. *)
  List.iter
    (fun (occ, e) ->
      Alcotest.(check feq) "energy recomputes" (CS.energy sys occ) e)
    spectrum;
  (* Cross-check completeness against brute force. *)
  let e0 = List.hd energies in
  let n = CS.size sys in
  let brute = ref 0 in
  for v = 0 to (1 lsl n) - 1 do
    let occ = Array.init n (fun i -> (v lsr i) land 1 = 1) in
    if CS.energy sys occ <= e0 +. 0.15 +. 1e-9 then incr brute
  done;
  Alcotest.(check int) "complete" !brute (List.length spectrum)

let test_boltzmann_probabilities () =
  let sys = pair_system () in
  let probs = Sidb.Temperature.state_probabilities sys ~temperature_k:300. ~max_states:64 in
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0. probs in
  Alcotest.(check (float 1e-6)) "normalized" 1.0 total;
  (* Probabilities decrease with energy. *)
  let rec decreasing = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b -. 1e-12 && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (decreasing probs)

let test_correctness_probability_limits () =
  let s = wire_structure () in
  let spec i = [| i.(0) |] in
  let cold = Sidb.Temperature.correctness_probability s ~spec ~temperature_k:1. () in
  let hot = Sidb.Temperature.correctness_probability s ~spec ~temperature_k:4000. () in
  Alcotest.(check bool) "certain when cold" true (cold > 0.99);
  Alcotest.(check bool) "cold at least as reliable as hot" true
    (cold >= hot -. 1e-9)

let test_critical_temperature_wire () =
  let s = wire_structure () in
  let spec i = [| i.(0) |] in
  let ct = Sidb.Temperature.critical_temperature ~t_max:300. s ~spec in
  Alcotest.(check bool) "wire has a positive critical temperature" true
    (ct > 0.)

let test_operational_domain () =
  let s = wire_structure () in
  let spec i = [| i.(0) |] in
  let dom =
    Sidb.Operational_domain.sweep
      ~x_axis:{ Sidb.Operational_domain.parameter = Sidb.Operational_domain.Mu_minus;
                from_value = -0.40; to_value = -0.24; steps = 5 }
      ~y_axis:{ Sidb.Operational_domain.parameter = Sidb.Operational_domain.Lambda_tf;
                from_value = 4.0; to_value = 6.0; steps = 3 }
      s ~spec
  in
  Alcotest.(check int) "sample count" 15 (List.length dom.Sidb.Operational_domain.samples);
  Alcotest.(check bool) "fraction within [0,1]" true
    (dom.Sidb.Operational_domain.operational_fraction >= 0.
    && dom.Sidb.Operational_domain.operational_fraction <= 1.);
  (* The default parameters lie inside the wire's domain. *)
  let at_default =
    List.exists
      (fun sm ->
        Float.abs (sm.Sidb.Operational_domain.x_value +. 0.32) < 1e-9
        && Float.abs (sm.Sidb.Operational_domain.y_value -. 5.0) < 1e-9
        && sm.Sidb.Operational_domain.operational)
      dom.Sidb.Operational_domain.samples
  in
  Alcotest.(check bool) "operational at the paper's parameters" true at_default;
  (* Exhaustive grid: every point evaluated, nothing saved. *)
  Alcotest.(check int) "grid evaluates everything" 15
    dom.Sidb.Operational_domain.stats.Sidb.Operational_domain.points_evaluated;
  Alcotest.(check int) "grid saves nothing" 0
    dom.Sidb.Operational_domain.stats.Sidb.Operational_domain.solver_calls_saved;
  Alcotest.(check bool) "grid samples all evaluated" true
    (List.for_all
       (fun sm -> sm.Sidb.Operational_domain.evaluated)
       dom.Sidb.Operational_domain.samples);
  (* ASCII rendering: a "# "-prefixed legend, then one row per y sample. *)
  let lines =
    List.filter (fun l -> l <> "")
      (String.split_on_char '
' (Sidb.Operational_domain.to_ascii dom))
  in
  let legend, grid =
    List.partition (fun l -> String.length l > 1 && String.sub l 0 2 = "# ") lines
  in
  Alcotest.(check int) "ascii rows" 3 (List.length grid);
  Alcotest.(check bool) "ascii legend names both axes" true
    (List.exists (fun l -> String.length l > 4 && String.sub l 0 4 = "# x:") legend
    && List.exists (fun l -> String.length l > 4 && String.sub l 0 4 = "# y:") legend);
  (* CSV: a header naming the swept parameters, then one line per sample. *)
  let csv_lines =
    List.filter (fun l -> l <> "")
      (String.split_on_char '
' (Sidb.Operational_domain.to_csv dom))
  in
  Alcotest.(check int) "csv rows" 16 (List.length csv_lines);
  Alcotest.(check string) "csv header" "mu_minus,lambda_tf,operational,evaluated"
    (List.hd csv_lines)

let test_operational_domain_first_row () =
  (* The adaptive row hint only reorders the truth-table rows; the
     verdict must be identical for every starting row, operational or
     not (a point is operational iff all rows pass). *)
  let s = wire_structure () in
  let spec i = [| i.(0) |] in
  let inside = Sidb.Model.default in
  let outside = { Sidb.Model.default with Sidb.Model.mu_minus = -0.05 } in
  List.iter
    (fun model ->
      let reference = Sidb.Operational_domain.operational_at model s ~spec in
      List.iter
        (fun first_row ->
          Alcotest.(check bool)
            (Printf.sprintf "first_row %d equivalent" first_row)
            reference
            (Sidb.Operational_domain.operational_at ~first_row model s ~spec))
        [ 0; 1; 7; -3 ])
    [ inside; outside ]

let test_operational_domain_errors () =
  let s = wire_structure () in
  let spec i = [| i.(0) |] in
  Alcotest.(check bool) "same axis rejected" true
    (try
       ignore
         (Sidb.Operational_domain.sweep
            ~x_axis:{ Sidb.Operational_domain.parameter = Sidb.Operational_domain.Mu_minus;
                      from_value = -0.4; to_value = -0.2; steps = 3 }
            ~y_axis:{ Sidb.Operational_domain.parameter = Sidb.Operational_domain.Mu_minus;
                      from_value = -0.4; to_value = -0.2; steps = 3 }
            s ~spec);
       false
     with Invalid_argument _ -> true)

(* --- incremental hop updates --------------------------------------------- *)

let random_occupation rng n =
  Array.init n (fun _ -> Random.State.bool rng)

let test_energy_delta_hop () =
  (* The O(n) incremental hop delta must equal the full energy
     recomputation, and [apply_hop] must leave the potential vector
     equal to a fresh [local_potentials] of the post-hop occupation. *)
  let rng = Random.State.make [| 2026 |] in
  for seed = 1 to 25 do
    let n = 4 + Random.State.int rng 9 in
    let sys = random_system seed n in
    let occ = random_occupation rng n in
    (* Force at least one occupied and one empty site. *)
    occ.(0) <- true;
    occ.(n - 1) <- false;
    let src =
      let rec pick () =
        let i = Random.State.int rng n in
        if occ.(i) then i else pick ()
      in
      pick ()
    and dst =
      let rec pick () =
        let i = Random.State.int rng n in
        if occ.(i) then pick () else i
      in
      pick ()
    in
    let pot = CS.local_potentials sys occ in
    let before = CS.energy sys occ in
    let delta = CS.energy_delta_hop sys ~pot ~src ~dst in
    let hopped = Array.copy occ in
    hopped.(src) <- false;
    hopped.(dst) <- true;
    let after = CS.energy sys hopped in
    Alcotest.(check feq) "incremental delta = full recomputation"
      (after -. before) delta;
    CS.apply_hop sys ~pot ~src ~dst;
    let fresh = CS.local_potentials sys hopped in
    Array.iteri
      (fun i p ->
        Alcotest.(check (float 1e-9)) "potential updated in place" fresh.(i) p)
      pot
  done

(* --- quicksim heuristic engine -------------------------------------------- *)

let prop_quicksim_matches_pruned =
  QCheck.Test.make ~name:"quicksim = pruned ground energy" ~count:40
    (QCheck.pair (QCheck.int_range 1 10000) (QCheck.int_range 2 14))
    (fun (seed, n) ->
      let sys = random_system seed n in
      let exact = (GS.pruned sys).GS.energy in
      let r = GS.quicksim sys in
      Float.abs (r.GS.energy -. exact) < 1e-9
      && r.GS.states <> []
      && List.for_all (CS.physically_valid sys) r.GS.states)

let test_quicksim_deterministic () =
  let sys = random_system 11 12 in
  let r1 = GS.quicksim sys and r2 = GS.quicksim sys in
  Alcotest.(check feq) "same energy" r1.GS.energy r2.GS.energy;
  Alcotest.(check int) "same degeneracy" (GS.degeneracy r1) (GS.degeneracy r2);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "same states" true (Array.for_all2 Bool.equal a b))
    r1.GS.states r2.GS.states;
  (* And independent of the job count (pooled samples are merged with
     index-order tie-breaking). *)
  let r4 = GS.quicksim ~jobs:4 sys in
  Alcotest.(check feq) "jobs-independent" r1.GS.energy r4.GS.energy

let large_system () =
  (* 100 DBs on a regular sublattice — far beyond any exact engine. *)
  let sites =
    Array.init 100 (fun i -> L.site (i mod 10) (i / 10) 0)
  in
  CS.create Mo.default sites

let test_quicksim_large_system () =
  let sys = large_system () in
  let r = GS.quicksim sys in
  Alcotest.(check bool) "found states" true (r.GS.states <> []);
  Alcotest.(check bool) "all physically valid" true
    (List.for_all (CS.physically_valid sys) r.GS.states);
  Alcotest.(check feq) "energy recomputes" r.GS.energy
    (CS.energy sys (List.hd r.GS.states))

let test_exact_engine_refuses_large_system () =
  (* The structured refusal: exhaustive search on 100 sites is an
     [Invalid_argument], never an unbounded 2^100 enumeration. *)
  let sys = large_system () in
  Alcotest.(check bool) "exhaustive refuses" true
    (try
       ignore (GS.exhaustive sys);
       false
     with Invalid_argument _ -> true)

let test_engine_of_string () =
  let ok s e =
    match B.engine_of_string s with
    | Ok e' -> B.engine_name e' = e
    | Error _ -> false
  in
  Alcotest.(check bool) "exhaustive" true (ok "exhaustive" "exhaustive");
  Alcotest.(check bool) "pruned" true (ok "pruned" "pruned");
  Alcotest.(check bool) "quickexact alias" true (ok "quickexact" "pruned");
  Alcotest.(check bool) "quicksim" true (ok "quicksim" "quicksim");
  Alcotest.(check bool) "unknown rejected" true
    (match B.engine_of_string "bogus" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "retired bb alias rejected" true
    (match B.engine_of_string "bb" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "exactness flags" true
    (B.engine_exact B.Pruned
    && not (B.engine_exact (B.Quicksim GS.default_quicksim)))

let test_engine_resolution () =
  (* Flag > FICTIONETTE_SIM_ENGINE > no preference (the caller's
     default); an unparsable environment value is ignored. *)
  let name = function None -> "default" | Some e -> B.engine_name e in
  let resolved flag env = name (B.resolve_engine ~flag ~env) in
  Alcotest.(check string) "flag beats env" "exhaustive"
    (resolved (Some B.Exhaustive) (Some "quicksim"));
  Alcotest.(check string) "flag alone" "pruned" (resolved (Some B.Pruned) None);
  Alcotest.(check string) "env without flag" "quicksim"
    (resolved None (Some "quicksim"));
  Alcotest.(check string) "env alias" "pruned"
    (resolved None (Some " QuickExact "));
  Alcotest.(check string) "neither" "default" (resolved None None);
  Alcotest.(check string) "bad env ignored" "default"
    (resolved None (Some "bb"));
  Alcotest.(check string) "env variable" "FICTIONETTE_SIM_ENGINE"
    B.engine_env_var

(* --- spectrum-pool temperature analysis ----------------------------------- *)

let occ1 = [| true |]
let occ2 = [| false |]

let test_spectrum_probabilities_degenerate () =
  (* An exactly twofold-degenerate spectrum splits the weight 50/50 at
     every temperature, so the ground manifold holds everything. *)
  let spectrum = [ (occ1, -1.0); (occ2, -1.0) ] in
  let probs =
    Sidb.Temperature.spectrum_probabilities spectrum ~temperature_k:77.
  in
  List.iter
    (fun (_, p) -> Alcotest.(check (float 1e-9)) "half each" 0.5 p)
    probs;
  Alcotest.(check (float 1e-9)) "manifold weight 1"
    1.0
    (Sidb.Temperature.ground_probability spectrum ~temperature_k:300.);
  Alcotest.(check (float 1e-9)) "CT saturates at t_max" 350.
    (Sidb.Temperature.critical_temperature_of_spectrum ~t_max:350. spectrum)

let test_spectrum_ct_gap_edges () =
  (* A 2e-9 eV gap sits just outside the 1e-9 ground-manifold window:
     at 1 K the excited state already holds ~half the weight, so the
     layout is never reliable and CT pins to 0. *)
  let near_degenerate = [ (occ1, -1.0); (occ2, -1.0 +. 2e-9) ] in
  Alcotest.(check (float 1e-9)) "unreliable at 1 K" 0.
    (Sidb.Temperature.critical_temperature_of_spectrum near_degenerate);
  (* A 10 meV gap gives a finite CT strictly inside (0, t_max). *)
  let gapped = [ (occ1, -1.0); (occ2, -0.99) ] in
  let ct = Sidb.Temperature.critical_temperature_of_spectrum gapped in
  Alcotest.(check bool) "finite CT" true (ct > 0. && ct < 400.);
  (* Below CT the ground weight holds the confidence; above it doesn't. *)
  Alcotest.(check bool) "reliable below" true
    (Sidb.Temperature.ground_probability gapped ~temperature_k:ct >= 0.9);
  Alcotest.(check bool) "unreliable above" true
    (Sidb.Temperature.ground_probability gapped ~temperature_k:(ct +. 2.) < 0.9);
  (* Empty spectrum: 0 by convention, not an exception. *)
  Alcotest.(check (float 1e-9)) "empty spectrum" 0.
    (Sidb.Temperature.critical_temperature_of_spectrum [])

let test_state_probabilities_cap () =
  (* [max_states] truncates the enumeration; the weights are normalized
     over the truncated spectrum, so a capped list still sums to 1 and
     keeps the same leading ratios as the uncapped one. *)
  let sys = pair_system () in
  let capped =
    Sidb.Temperature.state_probabilities sys ~temperature_k:300. ~max_states:2
  in
  Alcotest.(check int) "cap respected" 2 (List.length capped);
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0. capped in
  Alcotest.(check (float 1e-9)) "normalized over the truncation" 1.0 total;
  let full =
    Sidb.Temperature.state_probabilities sys ~temperature_k:300. ~max_states:64
  in
  let ratio l =
    match l with (_, a) :: (_, b) :: _ -> a /. b | _ -> nan
  in
  Alcotest.(check (float 1e-6)) "leading ratio preserved" (ratio full)
    (ratio capped)

let () =
  let qt = List.map (QCheck_alcotest.to_alcotest ~verbose:false) in
  Alcotest.run "sidb"
    [
      ( "lattice",
        [
          Alcotest.test_case "positions" `Quick test_positions;
          Alcotest.test_case "distance" `Quick test_distance;
          Alcotest.test_case "validation" `Quick test_site_validation;
          Alcotest.test_case "transforms" `Quick test_transforms;
        ] );
      ( "model",
        [
          Alcotest.test_case "monotone potential" `Quick test_potential_monotone;
          Alcotest.test_case "known value" `Quick test_potential_values;
          Alcotest.test_case "interaction matrix" `Quick test_interaction_matrix;
        ] );
      ( "charge-system",
        [
          Alcotest.test_case "energies" `Quick test_energy_empty_and_single;
          Alcotest.test_case "double occupation" `Quick test_energy_double;
          Alcotest.test_case "duplicates" `Quick test_duplicate_sites_rejected;
          Alcotest.test_case "external potential" `Quick test_v_ext;
          Alcotest.test_case "stability" `Quick test_stability_criteria;
        ] );
      ( "ground-state",
        [
          Alcotest.test_case "degeneracy" `Quick test_degenerate_states_reported;
          Alcotest.test_case "empty system" `Quick test_empty_system;
        ]
        @ qt
            [
              prop_pruned_matches_exhaustive; prop_ground_state_is_valid;
            ] );
      ( "incremental-hops",
        [ Alcotest.test_case "delta = recompute" `Quick test_energy_delta_hop ] );
      ( "quicksim",
        [
          Alcotest.test_case "deterministic" `Quick test_quicksim_deterministic;
          Alcotest.test_case "100-site system" `Quick test_quicksim_large_system;
          Alcotest.test_case "exact refusal" `Quick
            test_exact_engine_refuses_large_system;
          Alcotest.test_case "engine parsing" `Quick test_engine_of_string;
          Alcotest.test_case "engine resolution" `Quick test_engine_resolution;
        ]
        @ qt [ prop_quicksim_matches_pruned ] );
      ( "finite-temperature",
        [
          Alcotest.test_case "spectrum" `Quick test_spectrum_sorted_and_complete;
          Alcotest.test_case "boltzmann" `Quick test_boltzmann_probabilities;
          Alcotest.test_case "correctness limits" `Quick
            test_correctness_probability_limits;
          Alcotest.test_case "critical temperature" `Quick
            test_critical_temperature_wire;
          Alcotest.test_case "operational domain" `Slow test_operational_domain;
          Alcotest.test_case "domain first row" `Slow
            test_operational_domain_first_row;
          Alcotest.test_case "domain errors" `Quick test_operational_domain_errors;
          Alcotest.test_case "degenerate spectrum" `Quick
            test_spectrum_probabilities_degenerate;
          Alcotest.test_case "spectrum CT edges" `Quick
            test_spectrum_ct_gap_edges;
          Alcotest.test_case "max_states cap" `Quick
            test_state_probabilities_cap;
        ] );
      ( "bdl",
        [
          Alcotest.test_case "wire operational" `Quick test_wire_operational;
          Alcotest.test_case "engines agree" `Quick test_wire_engines_agree;
          Alcotest.test_case "read pair" `Quick test_read_pair;
          Alcotest.test_case "perturber selection" `Quick
            test_sites_for_selects_perturbers;
        ] );
    ]
