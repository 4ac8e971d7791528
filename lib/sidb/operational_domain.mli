(** Operational-domain analysis.

    The paper's outlook (Sec. 6) calls for a "streamlined operational
    domain evaluation framework": the region of physical-parameter space
    (μ₋, ε_r, λ_TF) in which a gate keeps computing its Boolean function.
    This module sweeps a 2-D slice of that space with one of three
    algorithms (after the fiction framework, arXiv 1905.02477):

    - {!Grid} classifies every point exhaustively;
    - {!Flood_fill} classifies random probe points and grows each
      operational hit breadth-first over its 8-connected neighbours, so
      only the operational regions and their immediate borders are ever
      evaluated;
    - {!Contour_tracing} walks each seeded region's boundary
      (Moore-neighbour tracing with Jacob's stopping criterion) and
      infers the enclosed interior without evaluating it.

    All three agree exactly on every point they evaluate; the sampled
    algorithms under-count regions no probe hits, and contour tracing
    over-counts non-operational holes enclosed in a region — both report
    which points were actually evaluated ({!sample.evaluated},
    {!stats}). *)

type parameter = Mu_minus | Epsilon_r | Lambda_tf

type axis = {
  parameter : parameter;
  from_value : float;
  to_value : float;
  steps : int;  (** Number of samples (at least 2). *)
}

type algorithm = Grid | Flood_fill | Contour_tracing

type config = {
  algorithm : algorithm;
  samples : int;  (** Random probes seeding Flood_fill / Contour_tracing. *)
  seed : int;  (** splitmix64 stream for the probes — fully deterministic. *)
}

val default_config : config
(** [Grid], 100 probes, a fixed seed. *)

val algorithm_name : algorithm -> string
val algorithm_of_string : string -> algorithm option

type sample = {
  x_value : float;
  y_value : float;
  operational : bool;
  evaluated : bool;
      (** [true] when the classifier actually ran at this point; sampled
          algorithms report skipped points with their inferred
          classification and [evaluated = false]. *)
}

type stats = {
  total_points : int;
  points_evaluated : int;  (** Distinct grid points actually classified. *)
  seed_probes : int;  (** Random probes used to seed region discovery. *)
  solver_calls_saved : int;
      (** [(total_points - points_evaluated) * 2^arity] — the worst-case
          ground-state solves the skipped points would have cost. *)
}

type t = {
  x_axis : axis;
  y_axis : axis;
  samples : sample list;  (** Row-major, y outer. *)
  operational_fraction : float;
  algorithm : algorithm;
  stats : stats;
}

val sweep :
  ?base:Model.t ->
  ?jobs:int ->
  ?engine:Bdl.engine ->
  ?config:config ->
  x_axis:axis ->
  y_axis:axis ->
  Bdl.structure ->
  spec:(bool array -> bool array) ->
  t
(** Classify the grid with [config] (default {!default_config}): a
    point is operational when every input row's complete ground-state
    set reads back [spec].  [engine] defaults to exact [Pruned]; a
    heuristic engine makes the classification an estimate.  Every
    algorithm classifies through one path: the site union and its
    distance matrix are built once per sweep (only the screened-Coulomb
    kernel sees the swept parameters), and each point tries the most
    recently failing truth-table row first, so non-operational points
    short-circuit after ~1 solve.  Evaluation batches are classified
    by [jobs] domains (default {!Parallel.Pool.default_jobs}); every
    algorithm's batches are deterministic, so results are bit-identical
    to the serial ([jobs = 1]) sweep at any job count.
    @raise Invalid_argument when an axis has fewer than 2 steps or the
    two axes use the same parameter. *)

val operational_at :
  ?engine:Bdl.engine ->
  ?first_row:int ->
  Model.t ->
  Bdl.structure ->
  spec:(bool array -> bool array) ->
  bool
(** One grid point of {!sweep}, classified through the same path — the
    per-point reference that sweeps are checked against.  [engine]
    defaults to exact [Pruned].  [first_row] (default 0) is the
    truth-table row checked first — the verdict is the same for any
    value (out-of-range values fall back to 0). *)

val set_parameter : Model.t -> parameter -> float -> Model.t

val to_ascii : t -> string
(** Render the domain ('#' operational, '.' not), one row per y sample,
    y increasing downwards, preceded by a ["# "]-prefixed legend giving
    both axes, the origin corner, the algorithm, and the evaluated-point
    count. *)

val to_csv : t -> string
(** One header line naming the two swept parameters plus
    [operational,evaluated] flags, then one [x,y,0/1,0/1] line per
    sample in row-major order — ready for any plotting tool. *)

val parameter_name : parameter -> string
