type parameter = Mu_minus | Epsilon_r | Lambda_tf

type axis = {
  parameter : parameter;
  from_value : float;
  to_value : float;
  steps : int;
}

type algorithm = Grid | Flood_fill | Contour_tracing

type config = { algorithm : algorithm; samples : int; seed : int }

let default_config = { algorithm = Grid; samples = 100; seed = 0x5eed }

let algorithm_name = function
  | Grid -> "grid"
  | Flood_fill -> "flood-fill"
  | Contour_tracing -> "contour-tracing"

let algorithm_of_string s =
  match String.lowercase_ascii s with
  | "grid" | "exhaustive" -> Some Grid
  | "flood-fill" | "flood_fill" | "floodfill" | "ff" -> Some Flood_fill
  | "contour" | "contour-tracing" | "contour_tracing" | "ct" ->
      Some Contour_tracing
  | _ -> None

type sample = {
  x_value : float;
  y_value : float;
  operational : bool;
  evaluated : bool;
}

type stats = {
  total_points : int;
  points_evaluated : int;
  seed_probes : int;
  solver_calls_saved : int;
}

type t = {
  x_axis : axis;
  y_axis : axis;
  samples : sample list;
  operational_fraction : float;
  algorithm : algorithm;
  stats : stats;
}

let parameter_name = function
  | Mu_minus -> "mu_minus"
  | Epsilon_r -> "epsilon_r"
  | Lambda_tf -> "lambda_tf"

let set_parameter model parameter value =
  match parameter with
  | Mu_minus -> { model with Model.mu_minus = value }
  | Epsilon_r -> { model with Model.epsilon_r = value }
  | Lambda_tf -> { model with Model.lambda_tf = value }

let axis_value axis i =
  if axis.steps <= 1 then axis.from_value
  else
    axis.from_value
    +. (axis.to_value -. axis.from_value)
       *. float_of_int i
       /. float_of_int (axis.steps - 1)

let solve_of_engine engine =
  (* The exact engines get the tight degenerate-state cap (a gate with
     more than 8 degenerate ground states is broken anyway); anything
     else goes through the generic dispatch. *)
  match engine with
  | Bdl.Pruned -> Ground_state.pruned ~max_states:8
  | Bdl.Exhaustive -> Ground_state.exhaustive ~max_states:8
  | e -> Bdl.solve e

(* Truth-table rows are visited starting at [first_row] (the adaptive
   cross-point hint), then in natural order; a point is operational iff
   every row passes, so the verdict is independent of the order — only
   how fast a non-operational point short-circuits depends on it. *)
let row_order first_row k =
  if k = 0 then first_row else if k <= first_row then k - 1 else k

(* Check one truth-table row on its already-built subsystem: every
   degenerate ground state must read back the expected outputs. *)
let row_ok ~solve ~outputs ~sites ~expected sys =
  let result = solve sys in
  let states = result.Ground_state.states in
  states <> []
  && List.for_all
       (fun occ ->
         let obs = Array.map (fun p -> Bdl.read_pair sites occ p) outputs in
         Array.length obs = Array.length expected
         && Array.for_all2 (fun o e -> o = Some e) obs expected)
       states

(* Everything about a sweep that does not depend on the swept model
   parameters, computed once per sweep instead of once per grid point:
   the deduplicated site union, its pairwise distance matrix (only the
   screened-Coulomb kernel sees μ₋/ε_r/λ_TF), and per truth-table row
   the active sites, their indices into the union, and the expected
   outputs. *)
type geometry = {
  union_sites : Lattice.site array;
  distances : float array array;
  geo_rows : geo_row array;
}

and geo_row = {
  row_sites : Lattice.site array;
  row_index : int array;
  row_expected : bool array;
}

let build_geometry structure ~spec =
  let index = Hashtbl.create 64 in
  let rev_sites = ref [] in
  let count = ref 0 in
  let add site =
    if not (Hashtbl.mem index site) then begin
      Hashtbl.add index site !count;
      rev_sites := site :: !rev_sites;
      incr count
    end
  in
  List.iter add structure.Bdl.fixed;
  Array.iter
    (fun (d : Bdl.input_driver) ->
      List.iter add d.Bdl.near;
      List.iter add d.Bdl.far)
    structure.Bdl.inputs;
  let union_sites = Array.of_list (List.rev !rev_sites) in
  let arity = Array.length structure.Bdl.inputs in
  let geo_rows =
    Array.init (1 lsl arity) (fun row ->
        let assignment = Array.init arity (fun i -> (row lsr i) land 1 = 1) in
        let row_sites = Bdl.sites_for structure assignment in
        {
          row_sites;
          row_index = Array.map (Hashtbl.find index) row_sites;
          row_expected = spec assignment;
        })
  in
  { union_sites; distances = Model.distance_matrix union_sites; geo_rows }

let classify_shared geometry ~solve ~outputs ~first_row model =
  let full =
    Charge_system.create_from_distances model geometry.union_sites
      ~distances:geometry.distances
  in
  let nrows = Array.length geometry.geo_rows in
  let failing = ref (-1) in
  (try
     for k = 0 to nrows - 1 do
       let row = row_order first_row k in
       let r = geometry.geo_rows.(row) in
       let sys = Charge_system.sub full r.row_index in
       if
         not
           (row_ok ~solve ~outputs ~sites:r.row_sites ~expected:r.row_expected
              sys)
       then begin
         failing := row;
         raise Exit
       end
     done
   with Exit -> ());
  (!failing < 0, !failing)

let operational_at ?(engine = Bdl.Pruned) ?(first_row = 0) model structure
    ~spec =
  let nrows = 1 lsl Array.length structure.Bdl.inputs in
  let first_row =
    if first_row < 0 || first_row >= nrows then 0 else first_row
  in
  fst
    (classify_shared
       (build_geometry structure ~spec)
       ~solve:(solve_of_engine engine) ~outputs:structure.Bdl.outputs
       ~first_row model)

(* ------------------------------------------------------------------ *)
(* Sweep algorithms.                                                   *)
(* ------------------------------------------------------------------ *)

let splitmix64 x =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* [count] distinct grid indices from the splitmix64 stream of [seed] —
   deterministic, independent of the job count.  If rejection sampling
   stalls (tiny grids), the remainder is filled from the low indices
   up, so exactly [min count total] probes always come back. *)
let seed_indices ~seed ~count ~total =
  let target = min count total in
  let chosen = Hashtbl.create (2 * target) in
  let order = ref [] in
  let n = ref 0 in
  let attempt = ref 0 in
  while !n < target && !attempt < (64 * target) + 64 do
    let r = splitmix64 (Int64.of_int ((seed * 0x10001) + !attempt)) in
    let k =
      Int64.to_int
        (Int64.rem (Int64.logand r Int64.max_int) (Int64.of_int total))
    in
    if not (Hashtbl.mem chosen k) then begin
      Hashtbl.add chosen k ();
      order := k :: !order;
      incr n
    end;
    incr attempt
  done;
  let k = ref 0 in
  while !n < target do
    if not (Hashtbl.mem chosen !k) then begin
      Hashtbl.add chosen !k ();
      order := !k :: !order;
      incr n
    end;
    incr k
  done;
  List.sort compare !order

(* Shared per-sweep classification context: engine dispatch, the
   hoisted geometry, and the adaptive row hint — the most recently
   failing truth-table row is tried first at each point, so
   non-operational points short-circuit after ~1 solve.  The hint is a
   benign race under the pool — it only chooses which row a point tries
   first, never the verdict — so results stay bit-identical at any job
   count. *)
type sweep_ctx = {
  classify : int -> bool;
  nx : int;
  ny : int;
  total : int;
  jobs : int option;
}

let make_ctx ?(base = Model.default) ?jobs ?(engine = Bdl.Pruned) ~x_axis
    ~y_axis structure ~spec () =
  let solve = solve_of_engine engine in
  let geometry = build_geometry structure ~spec in
  let hint = Atomic.make 0 in
  let nx = x_axis.steps and ny = y_axis.steps in
  let classify k =
    let yi = k / nx and xi = k mod nx in
    let model =
      set_parameter
        (set_parameter base x_axis.parameter (axis_value x_axis xi))
        y_axis.parameter (axis_value y_axis yi)
    in
    let ok, failing =
      classify_shared geometry ~solve ~outputs:structure.Bdl.outputs
        ~first_row:(Atomic.get hint) model
    in
    if failing >= 0 then Atomic.set hint failing;
    ok
  in
  { classify; nx; ny; total = nx * ny; jobs }

let finish ~x_axis ~y_axis ~(config : config) ~arity ctx ~state ~operational
    ~seed_probes ~points_evaluated =
  let nrows = 1 lsl arity in
  let op_count = ref 0 in
  let samples =
    List.init ctx.total (fun k ->
        let yi = k / ctx.nx and xi = k mod ctx.nx in
        let op = operational k in
        if op then incr op_count;
        {
          x_value = axis_value x_axis xi;
          y_value = axis_value y_axis yi;
          operational = op;
          evaluated = state.(k) >= 0;
        })
  in
  {
    x_axis;
    y_axis;
    samples;
    operational_fraction = float_of_int !op_count /. float_of_int ctx.total;
    algorithm = config.algorithm;
    stats =
      {
        total_points = ctx.total;
        points_evaluated;
        seed_probes;
        solver_calls_saved = (ctx.total - points_evaluated) * nrows;
      };
  }

(* Evaluate a deterministic batch of yet-unclassified indices across the
   pool; [state] moves from -1 to 0/1. *)
let eval_batch ctx state evaluated ks =
  match ks with
  | [] -> ()
  | _ ->
      let arr = Array.of_list ks in
      let res =
        Parallel.Pool.map ?jobs:ctx.jobs (Array.length arr) (fun i ->
            ctx.classify arr.(i))
      in
      Array.iteri
        (fun i k ->
          state.(k) <- (if res.(i) then 1 else 0);
          incr evaluated)
        arr

let neighbors8 ctx k =
  let xi = k mod ctx.nx and yi = k / ctx.nx in
  let acc = ref [] in
  for dy = -1 to 1 do
    for dx = -1 to 1 do
      if dx <> 0 || dy <> 0 then begin
        let x = xi + dx and y = yi + dy in
        if x >= 0 && x < ctx.nx && y >= 0 && y < ctx.ny then
          acc := (y * ctx.nx) + x :: !acc
      end
    done
  done;
  !acc

let sweep_grid ctx =
  let res = Parallel.Pool.map ?jobs:ctx.jobs ctx.total ctx.classify in
  let state = Array.init ctx.total (fun k -> if res.(k) then 1 else 0) in
  (state, ctx.total, 0)

(* Random probes seed a breadth-first growth over 8-connected
   operational neighbours; each wave is a deterministic sorted batch, so
   the evaluated set — and therefore the result — is identical at any
   job count.  Unevaluated points are reported non-operational:
   operational regions not hit by any probe are missed (the documented
   sampling contract), and the fraction is a lower bound that equals the
   grid's once every region is seeded. *)
let sweep_flood_fill ~config ctx =
  let state = Array.make ctx.total (-1) in
  let evaluated = ref 0 in
  let seeds = seed_indices ~seed:config.seed ~count:config.samples ~total:ctx.total in
  eval_batch ctx state evaluated seeds;
  let module IS = Set.Make (Int) in
  let frontier = ref (List.filter (fun k -> state.(k) = 1) seeds) in
  while !frontier <> [] do
    let next =
      List.fold_left
        (fun acc k ->
          List.fold_left
            (fun acc n -> if state.(n) < 0 then IS.add n acc else acc)
            acc (neighbors8 ctx k))
        IS.empty !frontier
    in
    let next = IS.elements next in
    eval_batch ctx state evaluated next;
    frontier := List.filter (fun k -> state.(k) = 1) next
  done;
  (state, !evaluated, List.length seeds)

(* Moore-neighbour contour tracing with Jacob's stopping criterion.
   Probes are batch-classified like flood fill; each operational probe
   walks west to its region's boundary and traces the closed boundary
   contour, evaluating only the cells the walk touches.  The interior is
   then inferred without evaluation: a 4-connected BFS from the grid
   border, blocked by the traced contour (and any cell already evaluated
   operational), marks the exterior; what it cannot reach is inside a
   contour and counted operational.  Evaluated cells always keep their
   evaluated classification, so agreement with the grid on every
   evaluated point holds by construction; enclosed non-operational holes
   are overcounted and unseeded regions missed (the documented
   contract). *)
let sweep_contour ~config ctx =
  let state = Array.make ctx.total (-1) in
  let evaluated = ref 0 in
  let seeds = seed_indices ~seed:config.seed ~count:config.samples ~total:ctx.total in
  eval_batch ctx state evaluated seeds;
  let eval k =
    if state.(k) < 0 then begin
      state.(k) <- (if ctx.classify k then 1 else 0);
      incr evaluated
    end;
    state.(k) = 1
  in
  let op x y = x >= 0 && x < ctx.nx && y >= 0 && y < ctx.ny && eval ((y * ctx.nx) + x) in
  let contour = Array.make ctx.total false in
  let mark x y = contour.((y * ctx.nx) + x) <- true in
  (* Clockwise Moore neighbourhood, screen coordinates (y down). *)
  let dirs = [| (1, 0); (1, 1); (0, 1); (-1, 1); (-1, 0); (-1, -1); (0, -1); (1, -1) |] in
  let dir_index dx dy =
    let rec find i = if dirs.(i) = (dx, dy) then i else find (i + 1) in
    find 0
  in
  let trace sx sy =
    (* Entered from the west: initial backtrack is the non-operational
       (or off-grid) cell west of the start. *)
    let ibx = sx - 1 and iby = sy in
    mark sx sy;
    let px = ref sx and py = ref sy in
    let bx = ref ibx and by = ref iby in
    let steps = ref 0 in
    let closed = ref false in
    while (not !closed) && !steps <= 4 * ctx.total do
      incr steps;
      let bdir = dir_index (!bx - !px) (!by - !py) in
      let found = ref None in
      let prev = ref (!bx, !by) in
      for i = 1 to 8 do
        if !found = None then begin
          let dx, dy = dirs.((bdir + i) mod 8) in
          let cx = !px + dx and cy = !py + dy in
          if op cx cy then found := Some (cx, cy) else prev := (cx, cy)
        end
      done;
      match !found with
      | None -> closed := true (* isolated single-cell region *)
      | Some (qx, qy) ->
          let nbx, nby = !prev in
          if qx = sx && qy = sy && nbx = ibx && nby = iby then closed := true
          else begin
            mark qx qy;
            px := qx;
            py := qy;
            bx := nbx;
            by := nby
          end
    done
  in
  let traced = Hashtbl.create 16 in
  List.iter
    (fun k ->
      if state.(k) = 1 then begin
        let y = k / ctx.nx in
        let x = ref (k mod ctx.nx) in
        while op (!x - 1) y do
          decr x
        done;
        let start = (y * ctx.nx) + !x in
        if not (Hashtbl.mem traced start) then begin
          Hashtbl.add traced start ();
          trace !x y
        end
      end)
    seeds;
  (* Exterior fill from the grid border, blocked by contours and
     evaluated-operational cells. *)
  let blocked k = contour.(k) || state.(k) = 1 in
  let exterior = Array.make ctx.total false in
  let q = Queue.create () in
  let push k =
    if (not exterior.(k)) && not (blocked k) then begin
      exterior.(k) <- true;
      Queue.add k q
    end
  in
  for x = 0 to ctx.nx - 1 do
    push x;
    push (((ctx.ny - 1) * ctx.nx) + x)
  done;
  for y = 0 to ctx.ny - 1 do
    push (y * ctx.nx);
    push ((y * ctx.nx) + ctx.nx - 1)
  done;
  while not (Queue.is_empty q) do
    let k = Queue.pop q in
    let xi = k mod ctx.nx and yi = k / ctx.nx in
    if xi > 0 then push (k - 1);
    if xi < ctx.nx - 1 then push (k + 1);
    if yi > 0 then push (k - ctx.nx);
    if yi < ctx.ny - 1 then push (k + ctx.nx)
  done;
  let operational k =
    if state.(k) >= 0 then state.(k) = 1 else not exterior.(k)
  in
  (state, !evaluated, List.length seeds, operational)

let sweep ?base ?jobs ?engine ?(config = default_config) ~x_axis ~y_axis
    structure ~spec =
  if x_axis.steps < 2 || y_axis.steps < 2 then
    invalid_arg "Operational_domain.sweep: axes need at least 2 steps";
  if x_axis.parameter = y_axis.parameter then
    invalid_arg "Operational_domain.sweep: axes must differ";
  let ctx = make_ctx ?base ?jobs ?engine ~x_axis ~y_axis structure ~spec () in
  let arity = Array.length structure.Bdl.inputs in
  match config.algorithm with
  | Grid ->
      let state, points_evaluated, seed_probes = sweep_grid ctx in
      finish ~x_axis ~y_axis ~config ~arity ctx ~state
        ~operational:(fun k -> state.(k) = 1)
        ~seed_probes ~points_evaluated
  | Flood_fill ->
      let state, points_evaluated, seed_probes = sweep_flood_fill ~config ctx in
      finish ~x_axis ~y_axis ~config ~arity ctx ~state
        ~operational:(fun k -> state.(k) = 1)
        ~seed_probes ~points_evaluated
  | Contour_tracing ->
      let state, points_evaluated, seed_probes, operational =
        sweep_contour ~config ctx
      in
      finish ~x_axis ~y_axis ~config ~arity ctx ~state ~operational
        ~seed_probes ~points_evaluated

(* ------------------------------------------------------------------ *)
(* Emitters.                                                           *)
(* ------------------------------------------------------------------ *)

let to_ascii t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "# x: %s in [%g, %g], %d steps (left to right)\n"
    (parameter_name t.x_axis.parameter)
    t.x_axis.from_value t.x_axis.to_value t.x_axis.steps;
  Printf.bprintf buf "# y: %s in [%g, %g], %d steps (top to bottom)\n"
    (parameter_name t.y_axis.parameter)
    t.y_axis.from_value t.y_axis.to_value t.y_axis.steps;
  Printf.bprintf buf
    "# origin: top-left = (%g, %g); '#' = operational, '.' = not\n"
    t.x_axis.from_value t.y_axis.from_value;
  Printf.bprintf buf
    "# algorithm: %s; operational fraction %.4f; evaluated %d/%d points\n"
    (algorithm_name t.algorithm) t.operational_fraction
    t.stats.points_evaluated t.stats.total_points;
  List.iteri
    (fun i sample ->
      Buffer.add_char buf (if sample.operational then '#' else '.');
      if (i + 1) mod t.x_axis.steps = 0 then Buffer.add_char buf '\n')
    t.samples;
  Buffer.contents buf

let to_csv t =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "%s,%s,operational,evaluated\n"
    (parameter_name t.x_axis.parameter)
    (parameter_name t.y_axis.parameter);
  List.iter
    (fun s ->
      Printf.bprintf buf "%.9g,%.9g,%d,%d\n" s.x_value s.y_value
        (if s.operational then 1 else 0)
        (if s.evaluated then 1 else 0))
    t.samples;
  Buffer.contents buf
