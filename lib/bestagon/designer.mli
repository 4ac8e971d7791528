(** Stochastic gate designer.

    Searches placements of SiDBs inside a tile scaffold's logic-design
    canvas such that the resulting structure computes a target Boolean
    function under the ground-state model — the role played by the
    reinforcement-learning agent of [28] in the original Bestagon flow
    (see DESIGN.md §2.4 for the substitution rationale).

    The search is simulated annealing over canvas configurations (add /
    remove / move one dot), scored by exercising every input combination
    with the exact {!Sidb.Ground_state.pruned} engine. *)

type params = {
  iterations : int;  (** SA steps (default 2000). *)
  max_dots : int;  (** Canvas dot budget (default 6). *)
  min_spacing : float;  (** Minimum canvas dot spacing in Å (default 5.4). *)
  t_initial : float;
  t_final : float;
  optimize_margin : bool;
      (** Keep searching after the first functional design, maximizing
          the energetic logic margin ({!Sidb.Bdl.logic_margin}) for
          thermal robustness (default off: stop at first functional). *)
}

val default_params : params

type outcome = {
  structure : Sidb.Bdl.structure;
  canvas : Sidb.Lattice.site list;
  score : float;
  functional : bool;  (** All rows correct under the exact engine. *)
  evaluations : int;
}

val score_structure :
  ?model:Sidb.Model.t ->
  Sidb.Bdl.structure ->
  spec:(bool array -> bool array) ->
  float * bool
(** Score in [0, 100] (100 = fully functional: every input row's entire
    ground-state set reads back the expected outputs) plus the
    functionality flag.  Partial credit is given per correct row and for
    cleanly polarized (non-[None]) outputs. *)

val design :
  ?params:params ->
  ?seed:int ->
  ?model:Sidb.Model.t ->
  ?initial:Sidb.Lattice.site list ->
  Scaffold.t ->
  name:string ->
  spec:(bool array -> bool array) ->
  outcome
(** Run the search; deterministic for a fixed [seed].  The result is the
    best configuration encountered (check [functional]). *)
