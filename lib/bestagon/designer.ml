type params = {
  iterations : int;
  max_dots : int;
  min_spacing : float;
  t_initial : float;
  t_final : float;
  optimize_margin : bool;
}

let default_params =
  {
    iterations = 2000;
    max_dots = 6;
    min_spacing = 5.4;
    t_initial = 8.;
    t_final = 0.5;
    optimize_margin = false;
  }

type outcome = {
  structure : Sidb.Bdl.structure;
  canvas : Sidb.Lattice.site list;
  score : float;
  functional : bool;
  evaluations : int;
}

(* Score one structure: exercise all input rows with the exact engine.
   Per row: 100/rows points when every degenerate ground state reads the
   expected outputs; partial credit for clean polarization and for a
   majority of correct states keeps the search gradient informative. *)
let score_structure ?(model = Sidb.Model.default) s ~spec =
  let arity = Array.length s.Sidb.Bdl.inputs in
  let rows = 1 lsl arity in
  let per_row = 100. /. float_of_int rows in
  let total = ref 0. and all_ok = ref true in
  for row = 0 to rows - 1 do
    let assignment = Array.init arity (fun i -> (row lsr i) land 1 = 1) in
    let expected = spec assignment in
    let sites = Sidb.Bdl.sites_for s assignment in
    let sys = Sidb.Charge_system.create model sites in
    let result = Sidb.Ground_state.pruned ~max_states:16 sys in
    let states = result.Sidb.Ground_state.states in
    let n_states = List.length states in
    let correct, polarized =
      List.fold_left
        (fun (c, p) occ ->
          let obs =
            Array.map
              (fun pair -> Sidb.Bdl.read_pair sites occ pair)
              s.Sidb.Bdl.outputs
          in
          let clean = Array.for_all Option.is_some obs in
          let right =
            clean
            && Array.for_all2
                 (fun o e -> o = Some e)
                 obs expected
          in
          ((if right then c + 1 else c), if clean then p + 1 else p))
        (0, 0) states
    in
    if correct = n_states && n_states > 0 then total := !total +. per_row
    else begin
      all_ok := false;
      let frac_correct =
        float_of_int correct /. float_of_int (max 1 n_states)
      and frac_polarized =
        float_of_int polarized /. float_of_int (max 1 n_states)
      in
      (* Correct-but-degenerate readings earn up to 60%; clean
         polarization alone up to 20%. *)
      total :=
        !total
        +. (per_row *. ((0.6 *. frac_correct) +. (0.2 *. frac_polarized)))
    end
  done;
  (!total, !all_ok)

let design ?(params = default_params) ?(seed = 1)
    ?(model = Sidb.Model.default) ?(initial = []) scaffold ~name ~spec =
  let rng = Random.State.make [| seed |] in
  let candidates = Array.of_list (Scaffold.canvas_sites scaffold) in
  if Array.length candidates = 0 then
    invalid_arg "Designer.design: empty canvas";
  let evaluations = ref 0 in
  let cache : (Sidb.Lattice.site list, float * bool) Hashtbl.t =
    Hashtbl.create 512
  in
  let evaluate canvas =
    let key = List.sort Sidb.Lattice.compare canvas in
    match Hashtbl.find_opt cache key with
    | Some r -> r
    | None ->
        incr evaluations;
        let s = Scaffold.structure scaffold ~name ~canvas in
        let r =
          try
            let score, ok = score_structure ~model s ~spec in
            (* Margin mode: functional designs compete on their
               energetic separation from the best wrong-reading state
               (1 meV of margin = 1 score point). *)
            if ok && params.optimize_margin then
              (score +. (1000. *. Sidb.Bdl.logic_margin ~model s ~spec), ok)
            else (score, ok)
          with Invalid_argument _ -> (0., false)
        in
        Hashtbl.replace cache key r;
        r
  in
  let spacing_ok canvas site =
    List.for_all
      (fun c ->
        Sidb.Lattice.equal c site
        || Sidb.Lattice.distance c site >= params.min_spacing)
      canvas
    && not (List.exists (Sidb.Lattice.equal site) canvas)
  in
  let random_site () = candidates.(Random.State.int rng (Array.length candidates)) in
  let propose canvas =
    let n = List.length canvas in
    let choice = Random.State.int rng 3 in
    if (choice = 0 || n = 0) && n < params.max_dots then begin
      (* Add a dot. *)
      let rec try_add k =
        if k = 0 then canvas
        else
          let s = random_site () in
          if spacing_ok canvas s then s :: canvas else try_add (k - 1)
      in
      try_add 10
    end
    else if choice = 1 && n > 0 then begin
      (* Remove a random dot. *)
      let idx = Random.State.int rng n in
      List.filteri (fun i _ -> i <> idx) canvas
    end
    else if n > 0 then begin
      (* Move a random dot to a fresh candidate site. *)
      let idx = Random.State.int rng n in
      let rest = List.filteri (fun i _ -> i <> idx) canvas in
      let rec try_move k =
        if k = 0 then canvas
        else
          let s = random_site () in
          if spacing_ok rest s then s :: rest else try_move (k - 1)
      in
      try_move 10
    end
    else canvas
  in
  let current = ref initial in
  let current_score = ref (fst (evaluate initial)) in
  let best = ref initial and best_score = ref !current_score in
  let best_ok = ref (snd (evaluate initial)) in
  let cooling =
    if params.iterations <= 1 then 1.
    else
      (params.t_final /. params.t_initial)
      ** (1. /. float_of_int (params.iterations - 1))
  in
  let temp = ref params.t_initial in
  (try
     for _ = 1 to params.iterations do
       if !best_ok && not params.optimize_margin then raise Exit;
       let candidate = propose !current in
       if candidate != !current then begin
         let score, ok = evaluate candidate in
         let delta = score -. !current_score in
         if
           delta >= 0.
           || Random.State.float rng 1. < exp (delta /. !temp)
         then begin
           current := candidate;
           current_score := score
         end;
         if score > !best_score then begin
           best := candidate;
           best_score := score;
           best_ok := ok
         end
       end;
       temp := !temp *. cooling
     done
   with Exit -> ());
  let structure = Scaffold.structure scaffold ~name ~canvas:!best in
  {
    structure;
    canvas = !best;
    score = !best_score;
    functional = !best_ok;
    evaluations = !evaluations;
  }
