(* Property-based fuzz harness (standalone executable, not alcotest).

   Three generator/property pairs built on the hand-rolled Core.Prop:

   - random CNF formulas: the CDCL solver must agree with a brute-force
     oracle; SAT models must satisfy every clause; UNSAT verdicts must
     come with a DRAT proof the independent checker accepts;
   - random XAG recipes: rewriting and technology mapping must preserve
     behavior under re-simulation;
   - random defect-injection parameters: operational yield must be
     deterministic under its seed, lie in [0, 1], agree with its own
     trial list, and be exactly 1.0 with zero defects;
   - random charge systems (<= 16 sites): the pruned exact engine must
     report the same ground-state energy and the same degenerate state
     set as exhaustive enumeration, and only population-stable states.

   Runs a fixed seed by default so CI is reproducible; any failure is
   shrunk before being reported, and the process exits nonzero. *)

module P = Core.Prop
module S = Sat.Solver

(* CNF: solver vs. oracle, model soundness, checked UNSAT proofs. *)

let cnf_property (f : P.cnf) =
  let s = S.create () in
  for _ = 1 to f.P.nvars do
    ignore (S.new_var s)
  done;
  S.enable_proof s;
  List.iter (S.add_clause s) f.P.clauses;
  let oracle_sat = P.brute_force_sat f in
  match S.solve s with
  | S.Unknown _ -> Error "unbudgeted solve returned Unknown"
  | S.Sat ->
      if not oracle_sat then Error "solver says SAT, oracle says UNSAT"
      else
        let model = S.model s in
        let lit_true l =
          let v = model.(abs l - 1) in
          if l > 0 then v else not v
        in
        if List.for_all (fun c -> List.exists lit_true c) f.P.clauses then
          Ok ()
        else Error "model falsifies a problem clause"
  | S.Unsat -> (
      if oracle_sat then Error "solver says UNSAT, oracle says SAT"
      else
        match
          Sat.Drat.check ~nvars:f.P.nvars ~clauses:f.P.clauses (S.proof s)
        with
        | Sat.Drat.Valid -> Ok ()
        | Sat.Drat.Invalid { step; reason } ->
            Error
              (Printf.sprintf "DRAT proof rejected at step %d: %s" step
                 reason))

(* Simplify: the preprocessed formula is equisatisfiable with the
   original (brute-force oracle on both), reconstructed models satisfy
   the *original* clauses, eliminated variables really are gone, and the
   DRAT trace — alone for a preprocessing refutation, or followed by a
   solver refutation of the simplified clauses — checks against the
   original formula. *)

let lit_true_in model l =
  let v = model.(abs l - 1) in
  if l > 0 then v else not v

let simplify_property (f : P.cnf) =
  let r = Sat.Simplify.run ~nvars:f.P.nvars f.P.clauses in
  let oracle_sat = P.brute_force_sat f in
  let simplified_sat =
    P.brute_force_sat { f with P.clauses = r.Sat.Simplify.clauses }
  in
  if simplified_sat <> oracle_sat then
    Error "simplified formula is not equisatisfiable with the original"
  else if
    List.exists
      (fun c ->
        List.exists (fun l -> List.mem (abs l) r.Sat.Simplify.eliminated) c)
      r.Sat.Simplify.clauses
  then Error "an eliminated variable still occurs in the simplified clauses"
  else begin
    let s = S.create () in
    for _ = 1 to f.P.nvars do
      ignore (S.new_var s)
    done;
    S.enable_proof s;
    List.iter (S.add_clause s) r.Sat.Simplify.clauses;
    match S.solve s with
    | S.Unknown _ -> Error "unbudgeted solve returned Unknown"
    | S.Sat ->
        if not oracle_sat then Error "solver SAT on UNSAT simplification"
        else
          let reconstructed = r.Sat.Simplify.reconstruct (S.model s) in
          if
            List.for_all
              (fun c -> List.exists (lit_true_in reconstructed) c)
              f.P.clauses
          then Ok ()
          else Error "reconstructed model falsifies an original clause"
    | S.Unsat -> (
        if oracle_sat then Error "solver UNSAT on SAT simplification"
        else
          let full = r.Sat.Simplify.proof @ S.proof s in
          match Sat.Drat.check ~nvars:f.P.nvars ~clauses:f.P.clauses full with
          | Sat.Drat.Valid -> Ok ()
          | Sat.Drat.Invalid { step; reason } ->
              Error
                (Printf.sprintf
                   "simplify+solve DRAT proof rejected at step %d: %s" step
                   reason))
  end

(* Portfolio: verdict must match a plain single solver at any width;
   SAT models (reconstructed) must satisfy the original clauses; UNSAT
   must come with a checkable proof of the original formula. *)

type portfolio_instance = { pf_cnf : P.cnf; pf_k : int }

let portfolio_arb : portfolio_instance P.arbitrary =
  let gen rng = { pf_cnf = P.cnf.P.gen rng; pf_k = 1 + P.Rng.int rng 6 } in
  let shrink i =
    List.map (fun c -> { i with pf_cnf = c }) (P.cnf.P.shrink i.pf_cnf)
  in
  let pp ppf i =
    Format.fprintf ppf "k=%d %a" i.pf_k P.cnf.P.pp i.pf_cnf
  in
  { P.gen; shrink; pp }

let portfolio_property inst =
  let f = inst.pf_cnf in
  let single = S.create () in
  for _ = 1 to f.P.nvars do
    ignore (S.new_var single)
  done;
  List.iter (S.add_clause single) f.P.clauses;
  let p =
    Sat.Portfolio.create ~k:inst.pf_k ~certify:true ~nvars:f.P.nvars
      f.P.clauses
  in
  match (S.solve single, Sat.Portfolio.solve p) with
  | S.Unknown _, _ | _, S.Unknown _ ->
      Error "unbudgeted solve returned Unknown"
  | S.Sat, S.Unsat | S.Unsat, S.Sat ->
      Error "portfolio verdict differs from single solver"
  | S.Sat, S.Sat ->
      let m = Sat.Portfolio.model p in
      if List.for_all (fun c -> List.exists (lit_true_in m) c) f.P.clauses
      then Ok ()
      else Error "portfolio model falsifies an original clause"
  | S.Unsat, S.Unsat -> (
      match
        Sat.Drat.check ~nvars:f.P.nvars ~clauses:f.P.clauses
          (Sat.Portfolio.proof p)
      with
      | Sat.Drat.Valid -> Ok ()
      | Sat.Drat.Invalid { step; reason } ->
          Error
            (Printf.sprintf "portfolio DRAT proof rejected at step %d: %s"
               step reason))

(* At-most-one encodings: sequential and commander agree with pairwise
   (and with a semantic oracle) under every full assumption set.  This
   also extends the CDCL-vs-oracle cross-check to formulas containing
   encoder auxiliary variables: the assumptions pin only the original
   variables, so the solver must reason through the auxiliaries. *)

type amo_instance = { amo_nvars : int; amo_lits : int list }

let pp_amo ppf i =
  Format.fprintf ppf "amo over %d var(s): [%s]" i.amo_nvars
    (String.concat "; " (List.map string_of_int i.amo_lits))

let amo_arb : amo_instance P.arbitrary =
  let gen rng =
    let n = 2 + P.Rng.int rng 7 in
    (* 2..8 variables *)
    let k = 2 + P.Rng.int rng (2 * n) in
    let lits =
      List.init k (fun _ ->
          let v = 1 + P.Rng.int rng n in
          if P.Rng.bool rng then v else -v)
    in
    { amo_nvars = n; amo_lits = lits }
  in
  let shrink i =
    if List.length i.amo_lits <= 2 then []
    else
      List.init (List.length i.amo_lits) (fun drop ->
          {
            i with
            amo_lits = List.filteri (fun j _ -> j <> drop) i.amo_lits;
          })
  in
  { P.gen; shrink; pp = pp_amo }

let amo_property inst =
  let n = inst.amo_nvars in
  let build encoding =
    let f = Sat.Cnf.create () in
    for _ = 1 to n do
      ignore (Sat.Cnf.fresh f)
    done;
    Sat.Cnf.at_most_one ~encoding f inst.amo_lits;
    f
  in
  let fp = build Sat.Cnf.Pairwise in
  let fs = build Sat.Cnf.Sequential in
  let fc = build Sat.Cnf.Commander in
  let result = ref (Ok ()) in
  for mask = 0 to (1 lsl n) - 1 do
    if !result = Ok () then begin
      let assumptions =
        List.init n (fun i ->
            if mask land (1 lsl i) <> 0 then i + 1 else -(i + 1))
      in
      let solve f =
        match S.solve ~assumptions (Sat.Cnf.solver f) with
        | S.Sat -> true
        | S.Unsat -> false
        | S.Unknown _ -> failwith "unbudgeted solve returned Unknown"
      in
      (* Multiset semantics: at most one of the listed literal
         occurrences is true under the assignment [mask]. *)
      let expected =
        List.fold_left
          (fun acc l ->
            let value = mask land (1 lsl (abs l - 1)) <> 0 in
            if (if l > 0 then value else not value) then acc + 1 else acc)
          0 inst.amo_lits
        <= 1
      in
      let p = solve fp and s = solve fs and c = solve fc in
      if p <> expected || s <> expected || c <> expected then
        result :=
          Error
            (Printf.sprintf
               "assignment %d: semantic %b, pairwise %b, sequential %b, \
                commander %b"
               mask expected p s c)
    end
  done;
  !result

(* XAG: rewriting and mapping preserve behavior. *)

let has_constant_po n =
  let rec check i =
    i < Logic.Network.num_pos n
    && (Logic.Network.node_of_signal (Logic.Network.po_signal n i) = 0
       || check (i + 1))
  in
  check 0

let xag_property (r : P.xag_recipe) =
  let specification = P.build_xag r in
  let optimized = Logic.Rewrite.rewrite_to_fixpoint specification in
  match Verify.Resim.check_rewrite ~specification ~optimized with
  | Error e -> Error e
  | Ok () ->
      (* The Bestagon library has no tie tiles, so constant outputs
         cannot be mapped — skip those recipes for the mapping leg. *)
      if has_constant_po specification then Ok ()
      else
        let mapped, _ = Logic.Tech_map.map specification in
        Verify.Resim.check_mapping ~specification ~mapped

(* Cuts: priority and exhaustive enumeration must drive rewriting and
   mapping to the exact same place — identical mapped netlists, both
   Resim-equivalent to the source. *)

let cuts_property (r : P.xag_recipe) =
  let specification = P.build_xag r in
  let with_config config =
    let db = Logic.Npn_db.create () in
    let optimized =
      Logic.Rewrite.rewrite_to_fixpoint ~cut_config:config ~db specification
    in
    match Verify.Resim.check_rewrite ~specification ~optimized with
    | Error e -> Error e
    | Ok () ->
        if has_constant_po optimized then Ok None
        else
          let mapped, _ = Logic.Tech_map.map optimized in
          (match Verify.Resim.check_mapping ~specification:optimized ~mapped with
          | Error e -> Error e
          | Ok () -> Ok (Some mapped))
  in
  match
    ( with_config Logic.Cuts.default_config,
      with_config Logic.Cuts.exhaustive_config )
  with
  | Error e, _ -> Error ("priority: " ^ e)
  | _, Error e -> Error ("exhaustive: " ^ e)
  | Ok p, Ok x -> (
      match (p, x) with
      | None, None -> Ok ()
      | Some mp, Some mx ->
          if Logic.Mapped.equal mp mx then Ok ()
          else Error "priority and exhaustive cuts map to different netlists"
      | Some _, None | None, Some _ ->
          Error "strategies disagree on constant outputs")

(* Defects: yield determinism and consistency on a library OR gate. *)

let or_structure =
  lazy
    (let tile =
       Layout.Tile.Gate
         {
           fn = Logic.Mapped.Or2;
           ins = [ Hexlib.Direction.North_west; Hexlib.Direction.North_east ];
           outs = [ Hexlib.Direction.South_east ];
         }
     in
     match
       ( Bestagon.Library.validation_structure tile,
         Bestagon.Library.tile_spec tile )
     with
     | Some s, Some spec -> (s, spec)
     | _ -> failwith "no OR structure in the Bestagon library")

let defect_property (p : Sidb.Defects.params) =
  let open Sidb.Defects in
  let s, spec = Lazy.force or_structure in
  let r1 = operational_yield p s ~spec in
  let r2 = operational_yield p s ~spec in
  let operational =
    List.length (List.filter (fun t -> t.operational) r1.trials)
  in
  if r1.yield <> r2.yield then
    Error
      (Printf.sprintf "yield not deterministic: %.4f vs %.4f" r1.yield
         r2.yield)
  else if r1.yield < 0.0 || r1.yield > 1.0 then
    Error (Printf.sprintf "yield %.4f outside [0, 1]" r1.yield)
  else if List.length r1.trials <> p.trials then
    Error
      (Printf.sprintf "%d trial record(s) for %d trial(s)"
         (List.length r1.trials) p.trials)
  else if r1.operational_trials <> operational then
    Error "operational_trials disagrees with the trial list"
  else if
    abs_float (r1.yield -. (float_of_int operational /. float_of_int p.trials))
    > 1e-9
  then Error "yield is not operational/trials"
  else if p.missing = 0 && p.extra = 0 && p.charged = 0 && r1.yield <> 1.0
  then Error "zero defects must give yield 1.0"
  else Ok ()

(* Defect-aware physical design: on a random dirty surface, the
   scalable engine either fails with a structured [Error] or produces a
   layout that never occupies a blocked tile and passes the whole-layout
   DRC audit.  Exceptions escaping [place_and_route] are failures. *)

type defect_aware_case = {
  da_recipe : P.xag_recipe;
  da_seed : int;
  da_charged : int;
  da_neutral : int;
}

let pp_defect_aware ppf c =
  Format.fprintf ppf "map(seed %d, %d charged, %d neutral) over %a" c.da_seed
    c.da_charged c.da_neutral P.xag.P.pp c.da_recipe

let defect_aware_arb : defect_aware_case P.arbitrary =
  let gen rng =
    {
      da_recipe = P.xag.P.gen rng;
      da_seed = P.Rng.int rng 1_000_000;
      da_charged = P.Rng.int rng 3;
      da_neutral = P.Rng.int rng 5;
    }
  in
  let shrink c =
    List.map (fun r -> { c with da_recipe = r }) (P.xag.P.shrink c.da_recipe)
    @ (if c.da_charged > 0 then [ { c with da_charged = c.da_charged - 1 } ]
       else [])
    @ if c.da_neutral > 0 then [ { c with da_neutral = c.da_neutral - 1 } ]
      else []
  in
  { P.gen; shrink; pp = pp_defect_aware }

let defect_aware_property c =
  let specification = P.build_xag c.da_recipe in
  if has_constant_po specification then Ok ()
  else
    let mapped, _ = Logic.Tech_map.map specification in
    let netlist = Physdesign.Netlist.of_mapped mapped in
    let map =
      Sidb.Defect_map.random ~seed:c.da_seed ~charged:c.da_charged
        ~neutral:c.da_neutral
        (Bestagon.Surface.grid_box ~width:12 ~height:12)
    in
    let surface = Bestagon.Surface.create map in
    let blocked coord = Bestagon.Surface.blocked surface coord in
    match Physdesign.Scalable.place_and_route ~blocked netlist with
    | Error _ -> Ok ()
    | exception e -> Error ("exception escaped: " ^ Printexc.to_string e)
    | Ok r -> (
        let bad = ref None in
        Layout.Gate_layout.iter r.Physdesign.Scalable.layout (fun coord tile ->
            if (not (Layout.Tile.is_empty tile)) && blocked coord then
              bad := Some coord);
        match !bad with
        | Some (coord : Hexlib.Coord.offset) ->
            Error
              (Printf.sprintf "tile placed on blocked coordinate (%d,%d)"
                 coord.Hexlib.Coord.col coord.Hexlib.Coord.row)
        | None ->
            (* Random recipes can leave an output port unused (a PI
               nothing consumes, a half-adder whose carry is dangling);
               the resulting pad/gate tiles then rightly fail the
               audit's arity and reachability rules — only audit
               netlists whose output ports all carry signal. *)
            if
              List.exists
                (fun i ->
                  List.length (Physdesign.Netlist.out_edges netlist i)
                  < Physdesign.Netlist.num_out_ports netlist i)
                (List.init (Physdesign.Netlist.num_nodes netlist) Fun.id)
            then Ok ()
            else (
              match Layout.Design_rules.audit r.Physdesign.Scalable.layout with
              | [] -> Ok ()
              | v :: _ as vs ->
                  Error
                    (Printf.sprintf
                       "%d DRC violation(s) on defect-aware layout, first: \
                        %s at (%d,%d): %s"
                       (List.length vs) v.Layout.Design_rules.rule
                       v.Layout.Design_rules.at.Hexlib.Coord.col
                       v.Layout.Design_rules.at.Hexlib.Coord.row
                       v.Layout.Design_rules.message)))

(* Charge systems: the pruned engine is exact. *)

let pp_sites ppf sites =
  Format.fprintf ppf "sites [%s]"
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun s ->
               Printf.sprintf "(%d,%d,%d)" s.Sidb.Lattice.n s.Sidb.Lattice.m
                 s.Sidb.Lattice.l)
             sites)))

let system_arb : Sidb.Lattice.site array P.arbitrary =
  let gen rng =
    let n = 2 + P.Rng.int rng 15 in
    let sites = ref [] in
    (* Rejection-sample distinct sites in a 14x7x2 box: small enough for
       meaningful interactions, large enough that 16 distinct sites
       always fit. *)
    while List.length !sites < n do
      let s =
        {
          Sidb.Lattice.n = P.Rng.int rng 14;
          m = P.Rng.int rng 7;
          l = P.Rng.int rng 2;
        }
      in
      if not (List.mem s !sites) then sites := s :: !sites
    done;
    Array.of_list !sites
  in
  let shrink sites =
    if Array.length sites <= 2 then []
    else
      List.init (Array.length sites) (fun drop ->
          Array.of_list
            (List.filteri
               (fun i _ -> i <> drop)
               (Array.to_list sites)))
  in
  { P.gen; shrink; pp = pp_sites }

let system_property sites =
  let open Sidb.Ground_state in
  let sys = Sidb.Charge_system.create Sidb.Model.default sites in
  (* No cap in play: 2^16 exceeds any possible degeneracy here. *)
  let cap = 1 lsl 16 in
  let ex = exhaustive ~max_states:cap sys in
  let pr = pruned ~max_states:cap sys in
  let state_key r = List.sort compare (List.map Array.to_list r.states) in
  if abs_float (ex.energy -. pr.energy) > 1e-9 then
    Error
      (Printf.sprintf "pruned energy %.9f, exhaustive %.9f" pr.energy
         ex.energy)
  else if state_key ex <> state_key pr then
    Error
      (Printf.sprintf "pruned returns %d state(s), exhaustive %d, or sets differ"
         (List.length pr.states) (List.length ex.states))
  else if
    not
      (List.for_all
         (fun occ -> Sidb.Charge_system.population_stable sys occ)
         pr.states)
  then Error "pruned returned a population-unstable state"
  else Ok ()

(* Heuristic-vs-exact: on systems small enough for the exact engines,
   quicksim with its default configuration must land on the exact
   ground-state energy, and everything it returns must be a physically
   valid state (population- and configuration-stable). *)
let quicksim_property sites =
  let open Sidb.Ground_state in
  let sys = Sidb.Charge_system.create Sidb.Model.default sites in
  let pr = pruned ~max_states:(1 lsl 16) sys in
  let qs = quicksim sys in
  if abs_float (qs.energy -. pr.energy) > 1e-9 then
    Error
      (Printf.sprintf "quicksim energy %.9f, pruned %.9f" qs.energy pr.energy)
  else if qs.states = [] then Error "quicksim returned no states"
  else if
    not
      (List.for_all
         (fun occ -> Sidb.Charge_system.physically_valid sys occ)
         qs.states)
  then Error "quicksim returned a physically invalid state"
  else Ok ()

(* Operational-domain algorithms: on a random library gate over a random
   2-D parameter slice, the grid must evaluate every point and match the
   per-point reference ([OD.operational_at] at each point, outside any
   sweep context), every point flood fill / contour tracing actually
   evaluates must carry the grid's classification, the sampled sweeps
   must never evaluate more points than the grid has, and each algorithm
   must be bit-identical at any job count. *)

module OD = Sidb.Operational_domain

type opdomain_case = {
  oc_gate : string;
  oc_x : OD.axis;
  oc_y : OD.axis;
  oc_samples : int;
  oc_jobs : int;
}

let opdomain_gates =
  lazy
    (let module T = Layout.Tile in
     let module D = Hexlib.Direction in
     let module M = Logic.Mapped in
     let gate2 fn =
       T.Gate { fn; ins = [ D.North_west; D.North_east ]; outs = [ D.South_east ] }
     in
     List.filter_map
       (fun (name, tile) ->
         match
           ( Bestagon.Library.validation_structure tile,
             Bestagon.Library.tile_spec tile )
         with
         | Some s, Some spec -> Some (name, s, spec)
         | _ -> None)
       [
         ("wire", T.Wire { segments = [ (D.North_west, D.South_east) ] });
         ("inverter",
          T.Gate { fn = M.Inv; ins = [ D.North_west ]; outs = [ D.South_east ] });
         ("or2", gate2 M.Or2);
         ("and2", gate2 M.And2);
         ("nor2", gate2 M.Nor2);
         ("nand2", gate2 M.Nand2);
         ("xor2", gate2 M.Xor2);
         ("xnor2", gate2 M.Xnor2);
       ])

let opdomain_arb : opdomain_case P.arbitrary =
  let parameter_range = function
    | OD.Mu_minus -> (-1.2, 0.)
    | OD.Epsilon_r -> (1., 14.)
    | OD.Lambda_tf -> (3., 8.)
  in
  let gen rng =
    let gates = Lazy.force opdomain_gates in
    let name, _, _ = List.nth gates (P.Rng.int rng (List.length gates)) in
    let params = [| OD.Mu_minus; OD.Epsilon_r; OD.Lambda_tf |] in
    let i = P.Rng.int rng 3 in
    let j = (i + 1 + P.Rng.int rng 2) mod 3 in
    let axis parameter =
      let lo, hi = parameter_range parameter in
      let u () = float_of_int (P.Rng.int rng 1001) /. 1000. in
      let from_value = lo +. ((hi -. lo) *. 0.5 *. u ()) in
      let to_value = from_value +. Float.max 0.1 ((hi -. lo) *. 0.5 *. u ()) in
      { OD.parameter; from_value; to_value; steps = 3 + P.Rng.int rng 3 }
    in
    {
      oc_gate = name;
      oc_x = axis params.(i);
      oc_y = axis params.(j);
      oc_samples = 1 + P.Rng.int rng 12;
      oc_jobs = 2 + P.Rng.int rng 3;
    }
  in
  let pp ppf c =
    Format.fprintf ppf "%s: %s [%g, %g]x%d vs %s [%g, %g]x%d, %d probes, %d jobs"
      c.oc_gate
      (OD.parameter_name c.oc_x.OD.parameter)
      c.oc_x.OD.from_value c.oc_x.OD.to_value c.oc_x.OD.steps
      (OD.parameter_name c.oc_y.OD.parameter)
      c.oc_y.OD.from_value c.oc_y.OD.to_value c.oc_y.OD.steps c.oc_samples
      c.oc_jobs
  in
  { P.gen; shrink = (fun _ -> []); pp }

let opdomain_property c =
  let _, structure, spec =
    List.find (fun (n, _, _) -> n = c.oc_gate) (Lazy.force opdomain_gates)
  in
  let x_axis = c.oc_x and y_axis = c.oc_y in
  let run config jobs = OD.sweep ~jobs ~config ~x_axis ~y_axis structure ~spec in
  let grid = run { OD.default_config with OD.algorithm = OD.Grid } 1 in
  let reference (s : OD.sample) =
    let model =
      OD.set_parameter
        (OD.set_parameter Sidb.Model.default x_axis.OD.parameter s.OD.x_value)
        y_axis.OD.parameter s.OD.y_value
    in
    OD.operational_at model structure ~spec
  in
  if
    not
      (List.for_all
         (fun (s : OD.sample) ->
           s.OD.evaluated && s.OD.operational = reference s)
         grid.OD.samples)
  then Error "grid differs from the per-point reference"
  else
    let check name algorithm =
      let config =
        { OD.default_config with OD.algorithm; samples = c.oc_samples }
      in
      let d1 = run config 1 in
      let dj = run config c.oc_jobs in
      if dj <> d1 then
        Error (Printf.sprintf "%s differs at jobs=%d" name c.oc_jobs)
      else if d1.OD.stats.OD.points_evaluated > d1.OD.stats.OD.total_points
      then Error (name ^ " evaluated more points than the grid has")
      else if
        not
          (List.for_all2
             (fun (b : OD.sample) (s : OD.sample) ->
               (not s.OD.evaluated) || s.OD.operational = b.OD.operational)
             grid.OD.samples d1.OD.samples)
      then Error (name ^ " disagrees with the grid on an evaluated point")
      else Ok ()
    in
    match check "flood-fill" OD.Flood_fill with
    | Error _ as e -> e
    | Ok () -> check "contour" OD.Contour_tracing

(* Driver. *)

(* Design-server loop: random byte noise, JSON soup, and truncated or
   bit-flipped protocol lines must never crash [handle_line], and every
   response it does emit must be one well-formed JSON line carrying a
   status. *)

let serve_templates =
  [|
    {|{"fictionette-serve":1,"kind":"ping","id":1}|};
    {|{"fictionette-serve":1,"kind":"stats"}|};
    {|{"fictionette-serve":1,"kind":"simulate","gate":"xor2"}|};
    {|{"fictionette-serve":1,"kind":"design","benchmark":"c17","timeout_ms":5000}|};
    {|{"fictionette-serve":1,"kind":"design","verilog":"module m(a,y); input a; output y; not(y,a); endmodule"}|};
    {|{"fictionette-serve":1,"kind":"batch","jobs":[{"kind":"simulate","gate":"wire"},{"kind":"ping"}]}|};
    {|{"fictionette-serve":1,"kind":"yield","benchmark":"mux21","trials":2,"timeout_ms":5000}|};
  |]

let json_soup_chars = "{}[]\":,0123456789.eE+-truefalsnu \\\"x"

let serve_arb : string P.arbitrary =
  let gen rng =
    match P.Rng.int rng 4 with
    | 0 ->
        String.init (P.Rng.int rng 120) (fun _ ->
            Char.chr (P.Rng.int rng 256))
    | 1 ->
        String.init (P.Rng.int rng 120) (fun _ ->
            json_soup_chars.[P.Rng.int rng (String.length json_soup_chars)])
    | 2 ->
        let t = serve_templates.(P.Rng.int rng (Array.length serve_templates)) in
        String.sub t 0 (P.Rng.int rng (String.length t + 1))
    | _ ->
        let t = serve_templates.(P.Rng.int rng (Array.length serve_templates)) in
        let b = Bytes.of_string t in
        for _ = 1 to 1 + P.Rng.int rng 3 do
          Bytes.set b
            (P.Rng.int rng (Bytes.length b))
            (Char.chr (P.Rng.int rng 256))
        done;
        Bytes.to_string b
  in
  let shrink s =
    if String.length s <= 1 then []
    else
      [
        String.sub s 0 (String.length s / 2);
        String.sub s 0 (String.length s - 1);
        String.sub s 1 (String.length s - 1);
      ]
  in
  { P.gen; shrink; pp = (fun ppf s -> Format.fprintf ppf "line %S" s) }

(* One resident server across all iterations — exactly the deployment
   shape, and it additionally checks that a poisoned line cannot corrupt
   state needed by later well-formed requests. *)
let serve_server =
  lazy
    (Serve.Server.create
       ~config:
         {
           Serve.Server.default_config with
           Serve.Server.max_timeout_ms = 5_000.;
           sleep = (fun _ -> ());
         }
       ())

let serve_property line =
  let server = Lazy.force serve_server in
  match Serve.Server.handle_line server line with
  | responses ->
      let well_formed r =
        (not (String.contains r '\n'))
        &&
        match Serve.Json.parse r with
        | Ok j -> Serve.Protocol.response_status j <> None
        | Error _ -> false
      in
      if List.for_all well_formed responses then Ok ()
      else Error "response is not a single JSON line with a status"
  | exception e ->
      Error ("handle_line raised: " ^ Printexc.to_string e)

let () =
  let seed = ref 0xF002 in
  let cnf_iters = ref 300 in
  let amo_iters = ref 60 in
  let xag_iters = ref 150 in
  let cuts_iters = ref 60 in
  let defect_iters = ref 60 in
  let defect_aware_iters = ref 25 in
  let system_iters = ref 40 in
  let quicksim_iters = ref 40 in
  let opdomain_iters = ref 30 in
  let serve_iters = ref 150 in
  let simplify_iters = ref 200 in
  let portfolio_iters = ref 100 in
  Arg.parse
    [
      ("-seed", Arg.Set_int seed, "PRNG seed (default 0xF002)");
      ("-cnf", Arg.Set_int cnf_iters, "CNF iterations (default 300)");
      ( "-simplify",
        Arg.Set_int simplify_iters,
        "CNF preprocessing iterations (default 200)" );
      ( "-portfolio",
        Arg.Set_int portfolio_iters,
        "solver-portfolio iterations (default 100)" );
      ( "-amo",
        Arg.Set_int amo_iters,
        "at-most-one encoding iterations (default 60)" );
      ("-xag", Arg.Set_int xag_iters, "XAG iterations (default 150)");
      ( "-cuts",
        Arg.Set_int cuts_iters,
        "priority-vs-exhaustive cut iterations (default 60)" );
      ( "-defect",
        Arg.Set_int defect_iters,
        "defect-parameter iterations (default 60)" );
      ( "-defect-aware",
        Arg.Set_int defect_aware_iters,
        "defect-aware P&R iterations (default 25)" );
      ( "-system",
        Arg.Set_int system_iters,
        "charge-system iterations (default 40)" );
      ( "-quicksim",
        Arg.Set_int quicksim_iters,
        "quicksim-vs-pruned iterations (default 40)" );
      ( "-opdomain",
        Arg.Set_int opdomain_iters,
        "operational-domain algorithm iterations (default 30)" );
      ( "-serve",
        Arg.Set_int serve_iters,
        "design-server line-noise iterations (default 150)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fuzz [-seed N] [-cnf N] [-simplify N] [-portfolio N] [-amo N] [-xag N] \
     [-cuts N] [-defect N] [-defect-aware N] [-system N] [-quicksim N] \
     [-opdomain N] [-serve N]";
  let failed = ref false in
  let run name iterations arb prop =
    let outcome = P.check ~seed:!seed ~iterations arb prop in
    P.pp_outcome ~pp:arb.P.pp ~name Format.std_formatter outcome;
    match outcome with P.Passed _ -> () | P.Failed _ -> failed := true
  in
  run "cnf-vs-oracle" !cnf_iters P.cnf cnf_property;
  run "simplify-equisat" !simplify_iters P.cnf simplify_property;
  run "portfolio-vs-single" !portfolio_iters portfolio_arb
    portfolio_property;
  run "amo-encodings" !amo_iters amo_arb amo_property;
  run "xag-rewrite-map" !xag_iters P.xag xag_property;
  run "cuts-priority-vs-exhaustive" !cuts_iters P.xag cuts_property;
  run "defect-yield" !defect_iters P.defect_params defect_property;
  run "defect-aware-pnr" !defect_aware_iters defect_aware_arb
    defect_aware_property;
  run "pruned-vs-exhaustive" !system_iters system_arb system_property;
  run "quicksim-vs-pruned" !quicksim_iters system_arb quicksim_property;
  run "opdomain-algorithms" !opdomain_iters opdomain_arb opdomain_property;
  run "serve-line-noise" !serve_iters serve_arb serve_property;
  if !failed then exit 1
