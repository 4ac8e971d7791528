(** Layout-level operational yield under randomized atomic defects.

    Runs the {!Sidb.Defects} fault-injection harness over every logic
    tile of a gate-level layout (via each tile's validation harness from
    {!Library}) and combines the per-tile yields into a layout yield
    under the independent-defects assumption. *)

type tile_yield = {
  coord : Hexlib.Coord.offset;
  label : string;  (** {!Layout.Tile.label} of the simulated tile. *)
  report : Sidb.Defects.yield_report;
}

type t = {
  per_tile : tile_yield list;
  simulated_tiles : int;
  skipped_tiles : int;
      (** Non-empty tiles without a simulation harness or spec (e.g. PI
          pads). *)
  layout_yield : float;  (** Product of per-tile yields. *)
}

val tile_seed : int -> int -> int
(** [tile_seed base i] — deterministic per-tile defect seed: a
    splitmix64-style mix of the run seed and the tile index, so that
    neighboring (seed, index) pairs draw independent defect
    configurations.  (A plain [base + i] would alias tile [i] of seed
    [s] with tile [i-1] of seed [s+1], correlating seed sweeps.) *)

val of_layout :
  ?engine:Sidb.Bdl.engine ->
  ?jobs:int ->
  ?model:Sidb.Model.t ->
  ?params:Sidb.Defects.params ->
  Layout.Gate_layout.t ->
  t
(** Per-tile defect draws are seeded [tile_seed params.seed i] for the
    [i]-th simulated tile, so the whole result is deterministic for a
    fixed seed.  Tiles are simulated by [jobs] domains (default
    {!Parallel.Pool.default_jobs}); the per-tile seeds make the trials
    order-independent, so parallel results are bit-identical to serial
    ones (the layout-yield product is folded in tile order either way).
    [engine] defaults to the exact [Pruned] engine. *)

val pp : Format.formatter -> t -> unit

(** {2 Fixed-map replay}

    Deterministic re-validation of a layout against one known
    {!Sidb.Defect_map} (a scanned surface) instead of Monte-Carlo
    draws: per simulatable tile, map defects coinciding with the
    tile's structural dots are applied as removals (a hit on an input
    perturber or output-pair site fails the tile outright — the
    structure cannot be fabricated as designed), and charged defects
    act through the external potential in the tile-local frame. *)

type map_tile = {
  map_coord : Hexlib.Coord.offset;
  map_label : string;
  map_ok : bool;  (** All input rows read back correctly under the map. *)
  structural_hits : int;
      (** Map defects coinciding with sites of the tile's structure. *)
}

type map_report = {
  tiles : map_tile list;
  map_simulated : int;
  map_skipped : int;  (** Non-empty tiles without a harness (e.g. pads). *)
  failed_tiles : int;
  map_operational : bool;  (** Every simulated tile is ok. *)
  map_yield : float;
      (** Fraction of simulated tiles that are ok (1.0 when none). *)
}

val under_map :
  ?engine:Sidb.Bdl.engine ->
  ?jobs:int ->
  ?model:Sidb.Model.t ->
  Sidb.Defect_map.t ->
  Layout.Gate_layout.t ->
  map_report
(** Replay a fixed defect map over every simulatable tile.  The layout
    must be in the same absolute lattice frame as the map (tile
    [(0,0)] at the lattice origin — defect-aware flows keep this frame
    by not cropping).  Deterministic; tiles are simulated by [jobs]
    domains with bit-identical results at every job count. *)

val pp_map_report : Format.formatter -> map_report -> unit
