(** Exact ground-state engines.

    {!exhaustive} is the ExGS-style full enumeration (feasible to ~24
    SiDBs thanks to Gray-code incremental energy updates) and serves as
    the test oracle; {!pruned} is the QuickExact-style search usable to
    ~40 SiDBs on typical gate structures; {!quicksim} is the heuristic
    for whole layouts. *)

type result = {
  energy : float;
  states : bool array list;
      (** All degenerate minimum-energy occupations (capped at
          [max_states]). *)
}

val exhaustive : ?max_states:int -> Charge_system.t -> result
(** @raise Invalid_argument beyond 24 sites. *)

val pruned : ?max_states:int -> Charge_system.t -> result
(** Exact via depth-first branch and bound with an admissible lower
    bound (sites explored in decreasing connectivity order), extended
    with QuickExact-style population-stability pruning: subtrees in
    which some assigned site can no longer reach [mu_minus + v_i <= 0]
    (occupied) or [mu_minus + v_i >= 0] (empty) in {e any} completion
    are skipped.  Interactions are repulsive, so both
    bounds are sound; every state within [epsilon] of the optimum is
    population-stable to within [epsilon], hence the returned energy and
    state set equal {!exhaustive}'s.  The default engine for gate
    checks, operational-domain sweeps and defect-yield Monte Carlo. *)

val degeneracy : result -> int

type quicksim_config = {
  samples : int;  (** independent seeded restarts (default 64) *)
  iterations : int;
      (** per-sample cap on descent moves — a safety net, never reached
          on converging descents (default 20000) *)
  alpha : float;
      (** population-move greediness: an energy-lowering toggle is
          proposed with weight |delta|^alpha (default 2.0) *)
  seed : int;  (** base of the per-sample splitmix64 seed stream *)
  max_states : int;  (** cap on returned degenerate states (default 64) *)
}

val default_quicksim : quicksim_config

val quicksim :
  ?config:quicksim_config -> ?jobs:int -> Charge_system.t -> result
(** QuickSim-style heuristic engine (arXiv 2303.03422): [samples]
    independent randomized descents — population updates weighted by the
    local potential via the {!Charge_system.local_potentials} fast path,
    then single-charge hop polish via {!Charge_system.energy_delta_hop} —
    merged in sample-index order.  Every returned state is
    {!Charge_system.physically_valid}; the energy is the best found, a
    (usually tight) {e upper bound} on the exact ground-state energy.
    Scales to hundreds of sites where the exact engines refuse or stall.
    Deterministic for a given [config] at any [jobs] (the
    {!Parallel.Pool} bit-identical-to-serial contract). *)

val quicksim_spectrum :
  ?config:quicksim_config ->
  ?jobs:int ->
  Charge_system.t ->
  (bool array * float) list
(** The deduplicated sample pool of {!quicksim}, sorted by increasing
    energy — a {e sampled} stand-in for {!spectrum} on systems too large
    to enumerate.  It can miss excited states (and, unlike {!spectrum},
    carries no completeness guarantee), so finite-temperature numbers
    derived from it are estimates; callers must flag them as such. *)

val spectrum :
  ?max_states:int ->
  window:float ->
  Charge_system.t ->
  (bool array * float) list
(** All configurations within [window] eV of the ground-state energy
    (branch-and-bound enumeration, capped at [max_states], default 4096),
    sorted by increasing energy.  The low-energy spectrum drives the
    finite-temperature analyses in {!Temperature}. *)
