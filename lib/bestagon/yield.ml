type tile_yield = {
  coord : Hexlib.Coord.offset;
  label : string;
  report : Sidb.Defects.yield_report;
}

type t = {
  per_tile : tile_yield list;
  simulated_tiles : int;
  skipped_tiles : int;
  layout_yield : float;
}

(* Per-tile seed derivation: a splitmix64-style mix of the run seed and
   the tile index.  The obvious [seed + i] aliases across runs — tile i
   of run s draws exactly the defect configurations of tile i-1 of run
   s+1 — so a seed sweep would re-sample correlated defects instead of
   independent ones.  The mix keeps determinism (same seed, same layout,
   same yields) while decorrelating neighboring (seed, index) pairs. *)
let tile_seed base i =
  let open Int64 in
  let z = add (of_int base) (mul (of_int (i + 1)) 0x9E3779B97F4A7C15L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_int (shift_right_logical z 2)

let of_layout ?(engine = Sidb.Bdl.Pruned) ?jobs ?model
    ?(params = Sidb.Defects.default_params) layout =
  (* Enumerate the simulatable tiles serially (cheap), then run the
     Monte-Carlo trials of each tile on the domain pool.  Per-tile
     seeds are splitmix-derived from the tile index, so the trials are
     order-independent and the parallel reports are bit-identical to
     the serial ([jobs = 1]) ones. *)
  let work = ref [] in
  let skipped = ref 0 in
  let index = ref 0 in
  Layout.Gate_layout.iter layout (fun coord tile ->
      if not (Layout.Tile.is_empty tile) then begin
        match (Library.validation_structure tile, Library.tile_spec tile) with
        | Some structure, Some spec ->
            let i = !index in
            incr index;
            work :=
              (coord, Layout.Tile.label tile, structure, spec, i) :: !work
        | _ -> incr skipped
      end);
  let work = Array.of_list (List.rev !work) in
  let per_tile =
    Parallel.Pool.map ?jobs (Array.length work) (fun k ->
        let coord, label, structure, spec, i = work.(k) in
        let params =
          { params with Sidb.Defects.seed = tile_seed params.seed i }
        in
        let report =
          Sidb.Defects.operational_yield ~engine ?model params structure ~spec
        in
        { coord; label; report })
    |> Array.to_list
  in
  (* Defects strike tiles independently, so the layout works only when
     every tile does: the yields multiply. *)
  let layout_yield =
    List.fold_left
      (fun acc ty -> acc *. ty.report.Sidb.Defects.yield)
      1.0 per_tile
  in
  {
    per_tile;
    simulated_tiles = List.length per_tile;
    skipped_tiles = !skipped;
    layout_yield;
  }

(* --- fixed-map replay -------------------------------------------------

   Instead of Monte-Carlo draws, replay one known defect map against
   every simulatable tile: defects falling on structural dots are
   applied as removals (or hard failures, when they hit an input
   perturber or output pair — the structure cannot be fabricated as
   designed), and the map's charged defects act through the external
   potential in the tile-local frame.  Deterministic by construction. *)

type map_tile = {
  map_coord : Hexlib.Coord.offset;
  map_label : string;
  map_ok : bool;
  structural_hits : int;
      (** Map defects coinciding with sites of the tile's structure. *)
}

type map_report = {
  tiles : map_tile list;
  map_simulated : int;
  map_skipped : int;
  failed_tiles : int;
  map_operational : bool;
  map_yield : float;
}

let replay_tile ~engine ~model defect_map coord structure spec =
  let on, om = Geometry.tile_origin coord in
  let local =
    List.map
      (fun (e : Sidb.Defect_map.entry) ->
        { e with Sidb.Defect_map.site = Sidb.Lattice.translate e.site ~dn:(-on) ~dm:(-om) })
      (Sidb.Defect_map.entries defect_map)
  in
  let hit site =
    List.exists (fun (e : Sidb.Defect_map.entry) -> Sidb.Lattice.equal e.site site) local
  in
  let fixed_hits =
    List.filter hit structure.Sidb.Bdl.fixed
  in
  let special_sites =
    List.filter (fun s -> not (List.memq s structure.Sidb.Bdl.fixed))
      (Sidb.Defects.all_sites structure)
  in
  let special_hits = List.filter hit special_sites in
  let structural_hits = List.length fixed_hits + List.length special_hits in
  (* Charges beyond the screened-Coulomb influence radius shift in-tile
     sites by well under the harness margins (cf.
     {!Surface.influence_radius_a}) — dropping them keeps untouched
     tiles on the fast path below. *)
  let near_charge (s : Sidb.Lattice.site) =
    let x, y = Sidb.Lattice.position s in
    let x_lo, y_lo = Sidb.Lattice.position (Sidb.Lattice.site 0 0 0) in
    let x_hi, _ =
      Sidb.Lattice.position (Sidb.Lattice.site (Geometry.tile_columns - 1) 0 0)
    in
    let _, y_hi =
      Sidb.Lattice.position (Sidb.Lattice.site 0 (Geometry.tile_rows - 1) 1)
    in
    let dx = Float.max 0. (Float.max (x_lo -. x) (x -. x_hi))
    and dy = Float.max 0. (Float.max (y_lo -. y) (y -. y_hi)) in
    sqrt ((dx *. dx) +. (dy *. dy)) <= Surface.influence_radius_a
  in
  let charges =
    List.filter_map
      (fun (e : Sidb.Defect_map.entry) ->
        if
          e.Sidb.Defect_map.kind = Sidb.Defect_map.Charged
          && near_charge e.Sidb.Defect_map.site
        then Some e.Sidb.Defect_map.site
        else None)
      local
  in
  let ok =
    if special_hits <> [] then
      (* A defect sits exactly on an input perturber or output pair
         site: the structure cannot be fabricated as designed. *)
      false
    else if fixed_hits = [] && charges = [] then
      (* Untouched by the map: operational by the same convention as
         the Monte-Carlo harness (a zero-defect trial matches its own
         baseline by construction). *)
      true
    else
      (* Judged like a Monte-Carlo trial: the perturbed structure must
         keep the defect-free baseline signature (some harnesses are
         imperfect on a row even cleanly — what matters is that the
         map does not change behaviour). *)
      let baseline =
        Sidb.Defects.signature (Sidb.Bdl.check ~engine ~model structure ~spec)
      in
      let structure =
        if fixed_hits = [] then structure
        else
          {
            structure with
            Sidb.Bdl.fixed =
              List.filter
                (fun s -> not (List.exists (Sidb.Lattice.equal s) fixed_hits))
                structure.Sidb.Bdl.fixed;
          }
      in
      let v_ext_at =
        match charges with
        | [] -> None
        | _ ->
            Some
              (fun site ->
                List.fold_left
                  (fun acc q ->
                    acc +. Sidb.Model.interaction model site q)
                  0. charges)
      in
      Sidb.Defects.signature
        (Sidb.Bdl.check ~engine ~model ?v_ext_at structure ~spec)
      = baseline
  in
  (ok, structural_hits)

let under_map ?(engine = Sidb.Bdl.Pruned) ?jobs
    ?(model = Sidb.Model.default) defect_map layout =
  let work = ref [] in
  let skipped = ref 0 in
  Layout.Gate_layout.iter layout (fun coord tile ->
      if not (Layout.Tile.is_empty tile) then begin
        match (Library.validation_structure tile, Library.tile_spec tile) with
        | Some structure, Some spec ->
            work := (coord, Layout.Tile.label tile, structure, spec) :: !work
        | _ -> incr skipped
      end);
  let work = Array.of_list (List.rev !work) in
  let tiles =
    Parallel.Pool.map ?jobs (Array.length work) (fun k ->
        let coord, label, structure, spec = work.(k) in
        let ok, structural_hits =
          replay_tile ~engine ~model defect_map coord structure spec
        in
        { map_coord = coord; map_label = label; map_ok = ok; structural_hits })
    |> Array.to_list
  in
  let failed = List.length (List.filter (fun t -> not t.map_ok) tiles) in
  let simulated = List.length tiles in
  {
    tiles;
    map_simulated = simulated;
    map_skipped = !skipped;
    failed_tiles = failed;
    map_operational = failed = 0;
    map_yield =
      (if simulated = 0 then 1.0
       else float_of_int (simulated - failed) /. float_of_int simulated);
  }

let pp_map_report ppf r =
  List.iter
    (fun t ->
      Format.fprintf ppf "  (%d,%d) %-8s %s%s@." t.map_coord.Hexlib.Coord.col
        t.map_coord.Hexlib.Coord.row t.map_label
        (if t.map_ok then "operational" else "FAILS under map")
        (if t.structural_hits > 0 then
           Printf.sprintf " (%d structural hit(s))" t.structural_hits
         else ""))
    r.tiles;
  Format.fprintf ppf
    "map replay: %d/%d tile(s) operational (yield %.1f%%, %d without a \
     harness)@."
    (r.map_simulated - r.failed_tiles)
    r.map_simulated
    (100. *. r.map_yield)
    r.map_skipped

let pp ppf y =
  List.iter
    (fun ty ->
      Format.fprintf ppf "  (%d,%d) %-8s %a@." ty.coord.Hexlib.Coord.col
        ty.coord.Hexlib.Coord.row ty.label
        Sidb.Defects.pp_yield_report ty.report)
    y.per_tile;
  Format.fprintf ppf
    "layout yield: %.2f%% over %d simulated tile(s) (%d without a harness)@."
    (100. *. y.layout_yield) y.simulated_tiles y.skipped_tiles
