(** Binary-dot logic (BDL) on SiDBs [18].

    A bit is encoded in a {e pair} of SiDBs sharing one excess electron:
    charge on the pair's [one] site means logic 1, charge on the [zero]
    site logic 0.  Gate inputs are set through {e perturbers} — fixed
    SiDBs that emulate the Coulombic pressure of an upstream BDL wire.
    Following the paper's refinement of Huff et al.'s methodology, a
    perturber is present for {e both} logic states, at a close position
    for 1 and a farther one for 0 (Sec. 4.1). *)

type pair = { zero : Lattice.site; one : Lattice.site }

type input_driver = {
  near : Lattice.site list;  (** Perturber sites emulating logic 1. *)
  far : Lattice.site list;  (** Perturber sites emulating logic 0. *)
}

(** A simulatable logic structure: a Bestagon tile's dot-level content. *)
type structure = {
  name : string;
  inputs : input_driver array;
  outputs : pair array;
  fixed : Lattice.site list;
      (** All remaining SiDBs: input/output wire pairs, canvas dots, and
          output perturbers. *)
}

val sites_for : structure -> bool array -> Lattice.site array
(** All SiDBs of the structure under an input assignment (selects near or
    far perturbers per input).
    @raise Invalid_argument on arity mismatch. *)

val read_pair :
  Lattice.site array -> bool array -> pair -> bool option
(** Logic value of a BDL pair in an occupation over the given site array:
    [Some] when exactly one of the two sites is charged, [None]
    otherwise. *)

type engine =
  | Exhaustive  (** ExGS; up to 24 SiDBs.  The test oracle. *)
  | Pruned
      (** {!Ground_state.pruned}: QuickExact-style branch and bound with
          population-stability pruning; the exact engine, and the
          default everywhere an exact engine is feasible. *)
  | Quicksim of Ground_state.quicksim_config
      (** {!Ground_state.quicksim}: sampled population-dynamics heuristic.
          Not exact — energies are upper bounds — but deterministic and
          the only engine that scales to whole multi-gate layouts. *)

val engine_name : engine -> string
val engine_exact : engine -> bool
(** Whether the engine guarantees the exact ground state. *)

val engine_of_string : string -> (engine, string) result
(** Parses [exhaustive]/[pruned]/[quicksim] (plus aliases [exgs] and
    [quickexact]); [quicksim] gets {!Ground_state.default_quicksim}.
    Anything else, including the retired [bb] alias, is an [Error]. *)

val engine_env_var : string
(** ["FICTIONETTE_SIM_ENGINE"]: the environment variable naming the
    user's simulation engine. *)

val resolve_engine : flag:engine option -> env:string option -> engine option
(** The user's simulation-engine preference, resolved once per command
    or server: an explicit [flag] (a parsed [--engine]) wins over [env]
    (the raw {!engine_env_var} value, ignored unless
    {!engine_of_string} accepts it).  [None] when neither expresses a
    preference; the caller then applies its own default (exact [Pruned]
    for gate-sized systems, or [Core.Flow]'s size-based auto-select). *)

val solve : engine -> Charge_system.t -> Ground_state.result
(** Run one ground-state computation with the given engine. *)

type row_result = {
  assignment : bool array;
  expected : bool array;
  observed : bool option array list;  (** One entry per degenerate ground state. *)
  ground_energy : float;
  ok : bool;  (** All ground states read back the expected outputs. *)
}

type report = { structure : structure; rows : row_result list; functional : bool }

val check :
  ?engine:engine ->
  ?model:Model.t ->
  ?v_ext_at:(Lattice.site -> float) ->
  structure ->
  spec:(bool array -> bool array) ->
  report
(** Exercise the structure on all input combinations against the
    specification (e.g. [fun i -> [| i.(0) <> i.(1) |]] for XOR);
    functional iff every row is [ok].  [v_ext_at] adds a local external
    potential (eV) per site — e.g. from fixed charged defects
    ({!Defects}) or clocking electrodes.  [engine] defaults to exact
    [Pruned]. *)

val operational : report -> bool

val logic_margin :
  ?model:Model.t ->
  ?window:float ->
  structure ->
  spec:(bool array -> bool array) ->
  float
(** Worst-case energetic separation between the ground state and the
    lowest state that reads back a {e wrong} (or unpolarized) output, in
    eV over all input rows.  Positive margins mean thermal robustness
    (cf. {!Temperature}); 0 when some ground state itself mis-reads.
    States are enumerated within [window] (default 0.25 eV) of the ground
    energy; if no wrong state exists inside the window, the window value
    is returned as a lower bound. *)
