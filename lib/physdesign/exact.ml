module Coord = Hexlib.Coord
module D = Hexlib.Direction
module GL = Layout.Gate_layout

type config = {
  max_extra_width : int;
  max_extra_height : int;
  conflict_budget : int option;
  max_rounds : int;
  max_open_instances : int;
  certify : bool;
  jobs : int option;
  portfolio : int option;
}

let default_config =
  {
    max_extra_width = 6;
    max_extra_height = 12;
    conflict_budget = None;
    max_rounds = 8;
    max_open_instances = 8;
    certify = false;
    jobs = None;
    portfolio = None;
  }

type result = {
  layout : GL.t;
  width : int;
  height : int;
  attempts : int;
  speculative_solves : int;
  rounds : int;
  budget_exhausted : bool;
  certified_refutations : int;
  stats : Sat.Solver.stats;
}

type failure =
  | No_layout of { attempts : int; message : string }
  | Out_of_budget of {
      reason : Sat.Budget.reason;
      attempts : int;
      rounds : int;
      message : string;
    }
  | Certification_failed of { width : int; height : int; message : string }

let failure_message = function
  | No_layout { message; _ }
  | Out_of_budget { message; _ }
  | Certification_failed { message; _ } ->
      message

(* Allowed rows per node kind: pads on the borders, logic in between. *)
let allowed_row netlist node ~height row =
  match Netlist.kind netlist node with
  | Netlist.N_pi _ -> row = 0
  | Netlist.N_po _ -> row = height - 1
  | Netlist.N_gate _ | Netlist.N_fanout -> row >= 1 && row <= height - 2

(* The two southward neighbors of a tile (hexagonal, odd-r). *)
let successors ~width ~height (c : Coord.offset) =
  List.filter_map
    (fun d ->
      let n = D.neighbor_offset c d in
      if n.Coord.col >= 0 && n.Coord.col < width && n.Coord.row < height then
        Some (d, n)
      else None)
    [ D.South_west; D.South_east ]

let predecessors ~width (c : Coord.offset) =
  List.filter_map
    (fun d ->
      let n = D.neighbor_offset c d in
      if n.Coord.col >= 0 && n.Coord.col < width && n.Coord.row >= 0 then
        Some (d, n)
      else None)
    [ D.North_west; D.North_east ]

(* One candidate size as a resumable SAT instance: the encoding is built
   once, and [Unknown] solves can be resumed with a larger budget while
   keeping every learned clause. *)
(* A candidate is solved either by the single incremental solver the
   CNF was built into, or by a {!Sat.Portfolio} racing diversified
   configurations over a preprocessed copy of the same clauses.  Both
   engines are resumable and certify against the same original CNF. *)
type engine = Single of Sat.Solver.t | Portfolio of Sat.Portfolio.t

type instance = {
  engine : engine;
  cnf : Sat.Cnf.t;
  decode : unit -> GL.t;
}

let engine_solve ?budget = function
  | Single s -> Sat.Solver.solve ?budget s
  | Portfolio p -> Sat.Portfolio.solve ?budget p

let engine_value e l =
  match e with
  | Single s -> Sat.Solver.value s l
  | Portfolio p -> Sat.Portfolio.value p l

let engine_stats = function
  | Single s -> Sat.Solver.stats s
  | Portfolio p -> Sat.Portfolio.stats p

let engine_proof = function
  | Single s -> Sat.Solver.proof s
  | Portfolio p -> Sat.Portfolio.proof p

let make_instance ?(certify = false) ?(blocked = fun _ -> false) ?portfolio
    ~width ~height netlist =
  let nn = Netlist.num_nodes netlist in
  let edges = Netlist.edges netlist in
  let ne = Array.length edges in
  let f = Sat.Cnf.create () in
  if certify then Sat.Solver.enable_proof (Sat.Cnf.solver f);
  (* Cardinality encodings: the sequential counter produces only binary
     clauses for the long one-hot chains (placement rows, per-tile
     exclusivity), which the solver's binary implication lists propagate
     without touching clause memory. *)
  let tile_index (c : Coord.offset) = (c.row * width) + c.col in
  let tiles =
    List.concat
      (List.init height (fun row ->
           List.init width (fun col : Coord.offset -> { col; row })))
  in
  (* Placement variables (0 where disallowed). *)
  let pos = Array.make_matrix nn (width * height) 0 in
  for n = 0 to nn - 1 do
    List.iter
      (fun (c : Coord.offset) ->
        if allowed_row netlist n ~height c.row then
          pos.(n).(tile_index c) <- Sat.Cnf.fresh f)
      tiles
  done;
  (* Connection variables: conn.(e).(tile_index p) gives the literals for
     the up-to-two southward adjacencies of p. *)
  let conn = Array.init ne (fun _ -> Array.make (width * height) []) in
  for e = 0 to ne - 1 do
    List.iter
      (fun (p : Coord.offset) ->
        if p.row < height - 1 then
          conn.(e).(tile_index p) <-
            List.map
              (fun (d, t) -> (d, t, Sat.Cnf.fresh f))
              (successors ~width ~height p))
      tiles
  done;
  (* Blocked tiles (surface defects): placement and connection
     variables touching a blocked tile are forced off by unit clauses.
     Units are original problem clauses, so DRAT certification of
     refutations is untouched; and because they only remove assignments,
     the first satisfiable candidate size is still the minimum area
     {e on this surface}. *)
  let blocked_tiles = List.filter blocked tiles in
  if blocked_tiles <> [] then begin
    List.iter
      (fun (c : Coord.offset) ->
        for n = 0 to nn - 1 do
          let v = pos.(n).(tile_index c) in
          if v <> 0 then Sat.Cnf.add_clause f [ -v ]
        done)
      blocked_tiles;
    for e = 0 to ne - 1 do
      List.iter
        (fun (p : Coord.offset) ->
          List.iter
            (fun (_, t, l) ->
              if blocked p || blocked t then Sat.Cnf.add_clause f [ -l ])
            conn.(e).(tile_index p))
        tiles
    done
  end;
  (* A blocked tile breaks the horizontal mirror automorphism the
     symmetry-breaking constraint relies on (its mirror image may be
     free), so the constraint must be dropped on dirty grids. *)
  let symmetry = blocked_tiles = [] in
  let conn_out e p = List.map (fun (_, _, l) -> l) conn.(e).(tile_index p) in
  let conn_into e (t : Coord.offset) =
    List.filter_map
      (fun (_, p) ->
        List.find_map
          (fun (_, t', l) -> if Coord.equal_offset t' t then Some l else None)
          conn.(e).(tile_index p))
      (predecessors ~width t)
  in
  (* 1. One position per node. *)
  for n = 0 to nn - 1 do
    let vars =
      List.filter_map
        (fun c ->
          let v = pos.(n).(tile_index c) in
          if v = 0 then None else Some v)
        tiles
    in
    if vars = [] then Sat.Cnf.add_clause f [] (* unplaceable: unsat *)
    else Sat.Cnf.exactly_one ~encoding:Sat.Cnf.Sequential f vars
  done;
  (* 2. At most one node per tile. *)
  List.iter
    (fun c ->
      let vars =
        List.filter_map
          (fun n ->
            let v = pos.(n).(tile_index c) in
            if v = 0 then None else Some v)
          (List.init nn (fun i -> i))
      in
      Sat.Cnf.at_most_one ~encoding:Sat.Cnf.Sequential f vars)
    tiles;
  (* Tile-occupied auxiliaries (for purity constraints). *)
  let occupied =
    List.map
      (fun c ->
        let vars =
          List.filter_map
            (fun n ->
              let v = pos.(n).(tile_index c) in
              if v = 0 then None else Some v)
            (List.init nn (fun i -> i))
        in
        (tile_index c, Sat.Cnf.or_list f vars))
      tiles
  in
  let occupied = Array.of_list (List.map snd (List.sort compare occupied)) in
  (* 3. Border capacity: one edge per adjacency. *)
  List.iter
    (fun (p : Coord.offset) ->
      if p.row < height - 1 then
        List.iter
          (fun (d, _) ->
            let users =
              List.filter_map
                (fun e ->
                  List.find_map
                    (fun (d', _, l) -> if D.equal d d' then Some l else None)
                    conn.(e).(tile_index p))
                (List.init ne (fun i -> i))
            in
            Sat.Cnf.at_most_one f users)
          (successors ~width ~height p))
    tiles;
  (* 4./5. Per edge: at most one departure per tile and one arrival per
     tile. *)
  for e = 0 to ne - 1 do
    List.iter
      (fun p ->
        match conn_out e p with
        | [ l1; l2 ] -> Sat.Cnf.add_clause f [ -l1; -l2 ]
        | _ -> ())
      tiles;
    List.iter
      (fun t ->
        match conn_into e t with
        | [ l1; l2 ] -> Sat.Cnf.add_clause f [ -l1; -l2 ]
        | _ -> ())
      tiles
  done;
  (* 6./7. Path connectivity. *)
  for e = 0 to ne - 1 do
    let u = edges.(e).Netlist.src and v = edges.(e).Netlist.dst in
    List.iter
      (fun (p : Coord.offset) ->
        (* Start: a node placed at p with this out-edge must emit it. *)
        let pu = pos.(u).(tile_index p) in
        if pu <> 0 then
          Sat.Cnf.add_clause f (-pu :: conn_out e p);
        let pv = pos.(v).(tile_index p) in
        if pv <> 0 then Sat.Cnf.add_clause f (-pv :: conn_into e p);
        (* Chaining. *)
        List.iter
          (fun (_, t, l) ->
            (* Upward: the edge at (p -> t) originates at u or continues
               an incoming segment at p. *)
            let up = if pu <> 0 then [ pu ] else [] in
            Sat.Cnf.add_clause f ((-l :: up) @ conn_into e p);
            (* Downward: it terminates at v on t or continues below. *)
            let down =
              let pvt = pos.(v).(tile_index t) in
              if pvt <> 0 then [ pvt ] else []
            in
            Sat.Cnf.add_clause f ((-l :: down) @ conn_out e t);
            (* Purity: occupied tiles are endpoints, not feedthroughs. *)
            let at_p = if pu <> 0 then [ pu ] else [] in
            Sat.Cnf.add_clause f ((-l :: -occupied.(tile_index p) :: at_p));
            let at_t =
              let pvt = pos.(v).(tile_index t) in
              if pvt <> 0 then [ pvt ] else []
            in
            Sat.Cnf.add_clause f ((-l :: -occupied.(tile_index t) :: at_t)))
          conn.(e).(tile_index p))
      tiles
  done;
  (* Wires cannot live on the border rows: connections touching row 0 or
     row height-1 must be node endpoints there. *)
  for e = 0 to ne - 1 do
    let u = edges.(e).Netlist.src and v = edges.(e).Netlist.dst in
    List.iter
      (fun (p : Coord.offset) ->
        List.iter
          (fun (_, t, l) ->
            if p.row = 0 then begin
              let pu = pos.(u).(tile_index p) in
              if pu <> 0 then Sat.Cnf.add_clause f [ -l; pu ]
              else Sat.Cnf.add_clause f [ -l ]
            end;
            if t.Coord.row = height - 1 then begin
              let pv = pos.(v).(tile_index t) in
              if pv <> 0 then Sat.Cnf.add_clause f [ -l; pv ]
              else Sat.Cnf.add_clause f [ -l ]
            end)
          conn.(e).(tile_index p))
      tiles
  done;
  (* Conditional horizontal mirror-symmetry breaking.  On the odd-r
     hexagonal grid the column mirror σ(c, r) = (width-1-c - (r land 1), r)
     swaps the SW/SE successor relation, but it maps odd-row column
     width-1 off the grid: σ is an automorphism only of the subgrid
     excluding those cells.  The constraint is therefore guarded: either
     the layout touches an excluded cell (auxiliary [u] true), or it is
     confined to the mirror-closed subgrid — in which case its σ-image
     is also a valid layout, so the first input pad may canonically be
     required to sit in the left half of the top row.  Either way no
     candidate size changes satisfiability, so minimum-area results are
     unaffected. *)
  if symmetry && width >= 2 then begin
    let first_pi =
      let rec go n =
        if n >= nn then None
        else
          match Netlist.kind netlist n with
          | Netlist.N_pi _ -> Some n
          | _ -> go (n + 1)
      in
      go 0
    in
    match first_pi with
    | None -> ()
    | Some n0 ->
        let excluded (c : Coord.offset) =
          c.row land 1 = 1 && c.col = width - 1
        in
        let u_vars = ref [] in
        for n = 0 to nn - 1 do
          List.iter
            (fun (c : Coord.offset) ->
              if excluded c then begin
                let v = pos.(n).(tile_index c) in
                if v <> 0 then u_vars := v :: !u_vars
              end)
            tiles
        done;
        for e = 0 to ne - 1 do
          List.iter
            (fun (p : Coord.offset) ->
              List.iter
                (fun (_, t, l) ->
                  if excluded p || excluded t then u_vars := l :: !u_vars)
                conn.(e).(tile_index p))
            tiles
        done;
        let guard =
          match !u_vars with [] -> [] | vs -> [ Sat.Cnf.or_list f vs ]
        in
        let mid = (width - 1) / 2 in
        List.iter
          (fun (c : Coord.offset) ->
            if c.row = 0 && c.col > mid then begin
              let v = pos.(n0).(tile_index c) in
              if v <> 0 then Sat.Cnf.add_clause f (guard @ [ -v ])
            end)
          tiles
  end;
  let engine =
    let k =
      match portfolio with Some k -> k | None -> Sat.Portfolio.default_k ()
    in
    if k > 1 then
      Portfolio
        (Sat.Portfolio.create ~k ~certify ~nvars:(Sat.Cnf.num_vars f)
           (Sat.Cnf.clauses f))
    else Single (Sat.Cnf.solver f)
  in
  let decode () =
      let value l = engine_value engine l in
      let node_tile = Array.make nn None in
      for n = 0 to nn - 1 do
        List.iter
          (fun c ->
            let v = pos.(n).(tile_index c) in
            if v <> 0 && value v then node_tile.(n) <- Some c)
          tiles
      done;
      let layout =
        GL.create ~width ~height ~clocking:(GL.Scheme Layout.Clocking.Row)
      in
      (* Wire segments per tile: (edge, in_dir, out_dir). *)
      let wire_segments : (int, (D.t * D.t) list) Hashtbl.t =
        Hashtbl.create 64
      in
      (* Arrival border of each edge at its target and departure border
         at its source. *)
      let arrival = Array.make ne None and departure = Array.make ne None in
      for e = 0 to ne - 1 do
        let v = edges.(e).Netlist.dst in
        let v_tile =
          match node_tile.(v) with Some c -> c | None -> assert false
        in
        (* Walk the connection chain from the source. *)
        let u = edges.(e).Netlist.src in
        let u_tile =
          match node_tile.(u) with Some c -> c | None -> assert false
        in
        let rec walk (p : Coord.offset) in_dir_opt =
          (* Find the active outgoing connection at p. *)
          match
            List.find_opt (fun (_, _, l) -> value l) conn.(e).(tile_index p)
          with
          | None ->
              (* Must already be at the target. *)
              assert (Coord.equal_offset p v_tile)
          | Some (d, t, _) ->
              (match in_dir_opt with
              | None -> departure.(e) <- Some d
              | Some in_dir ->
                  (* p is a wire tile for e. *)
                  let existing =
                    Option.value ~default:[]
                      (Hashtbl.find_opt wire_segments (tile_index p))
                  in
                  Hashtbl.replace wire_segments (tile_index p)
                    ((in_dir, d) :: existing));
              if Coord.equal_offset t v_tile then
                arrival.(e) <- Some (D.opposite d)
              else walk t (Some (D.opposite d))
        in
        walk u_tile None
      done;
      (* Materialize node tiles. *)
      for n = 0 to nn - 1 do
        let c = match node_tile.(n) with Some c -> c | None -> assert false in
        let in_dirs =
          List.map
            (fun e ->
              match arrival.(e) with Some d -> d | None -> assert false)
            (Netlist.in_edges netlist n)
        and out_dirs =
          List.map
            (fun e ->
              match departure.(e) with Some d -> d | None -> assert false)
            (Netlist.out_edges netlist n)
        in
        let tile =
          match Netlist.kind netlist n with
          | Netlist.N_pi name -> Layout.Tile.Pi { name; out = List.hd out_dirs }
          | Netlist.N_po name -> Layout.Tile.Po { name; inp = List.hd in_dirs }
          | Netlist.N_gate fn -> Layout.Tile.Gate { fn; ins = in_dirs; outs = out_dirs }
          | Netlist.N_fanout ->
              Layout.Tile.Fanout { inp = List.hd in_dirs; outs = out_dirs }
        in
        GL.set layout c tile
      done;
      (* Materialize wire tiles. *)
      Hashtbl.iter
        (fun idx segments ->
          let c : Coord.offset = { col = idx mod width; row = idx / width } in
          GL.set layout c (Layout.Tile.Wire { segments }))
        wire_segments;
      layout
  in
  { engine; cnf = f; decode }

let solve_fixed ?budget ?blocked ~width ~height netlist =
  let inst = make_instance ?blocked ~width ~height netlist in
  match engine_solve ?budget inst.engine with
  | Sat.Solver.Sat -> Some (inst.decode ())
  | Sat.Solver.Unsat | Sat.Solver.Unknown _ -> None

(* --- budget-escalated search over candidate sizes ---------------------

   Candidate dimensions are visited in order of increasing tile area.
   Without any budget this degenerates to the classic sequence of
   complete solves (first Sat is the minimum-area layout).  Under a
   budget, every candidate gets a Luby-scaled conflict allowance per
   round; [Unknown] candidates stay open (their instance and learned
   clauses are kept) and are resumed in the next round with a larger
   allowance, until one is satisfiable, all are refuted, or the budget
   runs dry. *)

type cand = { w : int; h : int; mutable state : cand_state }
and cand_state = Unbuilt | Open of instance | Refuted

(* Luby sequence 1 1 2 1 1 2 4 ... — the classic restart-style
   escalation schedule, here applied to per-candidate conflict
   allowances across retry rounds. *)
let luby_allowance x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

let place_and_route ?(config = default_config) ?(budget = Sat.Budget.unlimited)
    ?blocked netlist =
  (* Wave width.  Under a global conflict budget each solve must be
     charged before the next one's allowance is fixed, so such runs
     solve one candidate at a time. *)
  let wave_width =
    if budget.Sat.Budget.conflicts <> None then 1
    else
      match config.jobs with
      | Some j -> max 1 j
      | None -> Parallel.Pool.default_jobs ()
  in
  let min_w = Netlist.min_width netlist
  and min_h = Netlist.min_height netlist in
  let sorted = ref [] in
  for w = min_w to min_w + config.max_extra_width do
    for h = min_h to min_h + config.max_extra_height do
      sorted := (w * h, h, w) :: !sorted
    done
  done;
  let candidates =
    List.map
      (fun (_, h, w) -> { w; h; state = Unbuilt })
      (List.sort compare !sorted)
  in
  let bounds_msg =
    Printf.sprintf "%dx%d..%dx%d" min_w min_h
      (min_w + config.max_extra_width)
      (min_h + config.max_extra_height)
  in
  (* Conflict-allowance base per candidate and round: an explicit
     per-instance budget wins; otherwise a deadline- or globally-
     budgeted run escalates from a small default, and a fully
     unbudgeted run solves each candidate to completion. *)
  let base =
    match config.conflict_budget with
    | Some b -> Some (max 1 b)
    | None ->
        if budget.Sat.Budget.conflicts <> None
           || budget.Sat.Budget.deadline <> None
        then Some 4000
        else None
  in
  let attempts = ref 0 in
  let speculative = ref 0 in
  let certified = ref 0 in
  let closed_stats = ref Sat.Solver.empty_stats in
  (* Conflicts spent by this call, against [budget.conflicts]. *)
  let spent = ref 0 in
  (* Pre-wave stats of already-open candidates a wave solved
     speculatively (past its winner): what a one-at-a-time search
     reports. *)
  let frozen = ref [] in
  let total_stats () =
    List.fold_left
      (fun acc c ->
        match c.state with
        | Open inst ->
            Sat.Solver.add_stats acc
              (match List.assq_opt c !frozen with
              | Some st -> st
              | None -> engine_stats inst.engine)
        | Unbuilt | Refuted -> acc)
      !closed_stats candidates
  in
  let out_of_budget reason rounds =
    Error
      (Out_of_budget
         {
           reason;
           attempts = !attempts;
           rounds;
           message =
             Printf.sprintf
               "exact P&R ran out of budget (%s) within %s after %d attempt(s) over %d round(s)"
               (Sat.Budget.reason_to_string reason)
               bounds_msg !attempts rounds;
         })
  in
  let solved c inst round =
    let layout = inst.decode () in
    (* Minimality holds only when every smaller-area candidate was
       refuted before this one was found satisfiable. *)
    let minimal =
      List.for_all
        (fun c' ->
          c' == c
          || c'.w * c'.h > c.w * c.h
          || match c'.state with Refuted -> true | Unbuilt | Open _ -> false)
        candidates
    in
    Ok
      {
        layout;
        width = c.w;
        height = c.h;
        attempts = !attempts;
        speculative_solves = !speculative;
        rounds = round + 1;
        budget_exhausted = not minimal;
        certified_refutations = !certified;
        stats = total_stats ();
      }
  in
  let exception Done of (result, failure) Stdlib.result in
  (* With [config.certify], every per-candidate refutation must be
     backed by a checker-accepted DRAT proof before the candidate may be
     excluded — otherwise the "first satisfiable size is area-minimal"
     claim rests on an unchecked solver answer. *)
  let certify_refutation c inst =
    if config.certify then begin
      let proof = engine_proof inst.engine in
      match
        Sat.Drat.check
          ~nvars:(Sat.Cnf.num_vars inst.cnf)
          ~clauses:(Sat.Cnf.clauses inst.cnf)
          proof
      with
      | Sat.Drat.Valid -> incr certified
      | Sat.Drat.Invalid _ as r ->
          raise
            (Done
               (Error
                  (Certification_failed
                     {
                       width = c.w;
                       height = c.h;
                       message =
                         Format.asprintf
                           "UNSAT proof for candidate %dx%d rejected: %a"
                           c.w c.h Sat.Drat.pp_result r;
                     })))
    end
  in
  try
    let round = ref 0 in
    let unresolved = ref true in
    while !unresolved do
      (* The round cap keeps a per-instance-conflict-budget-only run
         finite (the old skip-on-exhaust semantics); deadline- or
         globally-budgeted runs terminate through the budget itself. *)
      if
        config.conflict_budget <> None
        && Sat.Budget.is_unlimited budget
        && !round >= config.max_rounds
      then raise (Done (out_of_budget Sat.Budget.Conflicts !round));
      unresolved := false;
      let open_count =
        ref
          (List.length
             (List.filter
                (fun c -> match c.state with Open _ -> true | _ -> false)
                candidates))
      in
      (* The pending wave, newest first: each member with its pre-wave
         statistics ([None] if this wave built it). *)
      let wave = ref [] in
      (* Solve the wave concurrently, then commit its results in area
         order.  A winner (or a tripped deadline) ends the search there:
         the members behind it were solved speculatively, so they count
         neither as attempts nor in the statistics. *)
      let flush () =
        let members = Array.of_list (List.rev !wave) in
        wave := [];
        let n = Array.length members in
        if n > 0 then begin
          (match Sat.Budget.check budget with
          | Some r -> raise (Done (out_of_budget r !round))
          | None -> ());
          let remaining_global =
            Option.map (fun g -> g - !spent) budget.Sat.Budget.conflicts
          in
          (match remaining_global with
          | Some r when r <= 0 ->
              raise (Done (out_of_budget Sat.Budget.Conflicts !round))
          | Some _ | None -> ());
          let allowance =
            match (base, remaining_global) with
            | None, g -> g
            | Some b, None -> Some (b * luby_allowance !round)
            | Some b, Some g -> Some (min (b * luby_allowance !round) g)
          in
          let results =
            Parallel.Pool.map ~jobs:n n (fun k ->
                let _, inst, _ = members.(k) in
                let before = (engine_stats inst.engine).Sat.Solver.conflicts in
                let verdict =
                  engine_solve
                    ~budget:{ budget with Sat.Budget.conflicts = allowance }
                    inst.engine
                in
                let after = (engine_stats inst.engine).Sat.Solver.conflicts in
                (verdict, after - before))
          in
          let stop k result =
            for j = k + 1 to n - 1 do
              incr speculative;
              match members.(j) with
              | c, _, None -> c.state <- Unbuilt
              | c, _, Some st -> frozen := (c, st) :: !frozen
            done;
            raise (Done (result ()))
          in
          Array.iteri
            (fun k (verdict, delta) ->
              let c, inst, _ = members.(k) in
              incr attempts;
              spent := !spent + delta;
              match verdict with
              | Sat.Solver.Sat -> stop k (fun () -> solved c inst !round)
              | Sat.Solver.Unsat ->
                  certify_refutation c inst;
                  closed_stats :=
                    Sat.Solver.add_stats !closed_stats
                      (engine_stats inst.engine);
                  c.state <- Refuted;
                  decr open_count
              | Sat.Solver.Unknown Sat.Budget.Conflicts -> unresolved := true
              | Sat.Solver.Unknown (Sat.Budget.Deadline as r)
              | Sat.Solver.Unknown (Sat.Budget.Cancelled as r) ->
                  stop k (fun () -> out_of_budget r !round))
            results
        end
      in
      let join c inst pre =
        wave := (c, inst, pre) :: !wave;
        if List.length !wave >= wave_width then flush ()
      in
      List.iter
        (fun c ->
          match c.state with
          | Refuted -> ()
          | Open inst -> join c inst (Some (engine_stats inst.engine))
          | Unbuilt ->
              (* Admission counts the wave's own members as open.  When
                 that fills the window, the wave is solved first: its
                 refutations may free a slot, exactly as they would
                 before this candidate in a one-at-a-time search. *)
              if !open_count >= config.max_open_instances then flush ();
              if !open_count < config.max_open_instances then begin
                let inst =
                  make_instance ~certify:config.certify ?blocked
                    ?portfolio:config.portfolio ~width:c.w ~height:c.h
                    netlist
                in
                c.state <- Open inst;
                incr open_count;
                join c inst None
              end
              else
                (* Defer far-out candidates until the escalation window
                   advances, bounding memory. *)
                unresolved := true)
        candidates;
      flush ();
      incr round
    done;
    Error
      (No_layout
         {
           attempts = !attempts;
           message =
             Printf.sprintf "no layout within %s (%d candidates refuted)"
               bounds_msg !attempts;
         })
  with Done r -> r
