(** Exact physical design: SAT-based placement & routing on hexagonal
    layouts (flow step 4), adapting the formulation of [46] to the
    hexagonal topology, the Bestagon tile set, and row-based clocking.

    For a candidate layout size the whole P&R problem is encoded as one
    SAT instance over the {!Sat.Solver} substrate:

    - one-hot placement variables per netlist node (input pads on the top
      row, output pads on the bottom row, logic in between);
    - connection variables per edge and per pair of vertically adjacent
      tiles; border capacity (one signal per tile border), wire capacity
      (two signals per tile — realized as the double-wire or crossing
      Bestagon tile) and path connectivity are all clauses over these;
    - row-based clocking makes every downward step legal and balances all
      signal paths by construction (throughput 1/1, cf. Sec. 5);
    - guarded horizontal mirror-symmetry breaking on the placement
      variables.  The guard keeps it sound on the odd-r grid (where a
      plain column mirror is not a grid automorphism), so no candidate
      size changes satisfiability.

    Candidate dimensions are tried in order of increasing tile area, so
    the first satisfiable instance yields a minimum-area layout within
    the search bounds.

    {2 Budgets and escalation}

    The whole search runs under a {!Sat.Budget}: per round, every open
    candidate receives a Luby-scaled conflict allowance; an interrupted
    ([Unknown]) candidate keeps its incremental SAT instance and is
    resumed with a larger allowance in the next round.  The search ends
    with a layout, a proof that none exists within the bounds, or a
    structured {!failure} naming the exhausted resource — it never
    raises on budget conditions. *)

type config = {
  max_extra_width : int;  (** Search bound above the trivial lower bound (default 6). *)
  max_extra_height : int;  (** Default 12. *)
  conflict_budget : int option;
      (** Base per-candidate conflict allowance per escalation round
          (sacrificing the minimality guarantee when it trips).  Default
          [None]: complete solves unless an external budget imposes a
          default escalation base. *)
  max_rounds : int;
      (** Escalation-round cap when {e only} [conflict_budget] bounds the
          search (keeps it finite); deadline-/globally-budgeted runs
          terminate through the budget itself.  Default 8. *)
  max_open_instances : int;
      (** Maximum simultaneously kept incremental SAT instances; further
          candidate sizes are deferred until the window advances.
          Default 8. *)
  certify : bool;
      (** Log a DRAT proof per candidate instance and verify every UNSAT
          refutation with the independent {!Sat.Drat} checker before the
          candidate size is excluded — the minimality claim then rests
          only on checked proofs.  A rejected proof aborts the search
          with {!Certification_failed}.  Default [false]. *)
  jobs : int option;
      (** Width of the solve waves: up to [jobs] open candidates, taken
          in area order, are solved concurrently on {!Parallel.Pool}.
          [None] (default) follows {!Parallel.Pool.default_jobs}.  A run
          under a global conflict budget ({!Sat.Budget.t} [conflicts])
          uses waves of one, so the allowance is charged candidate by
          candidate.  Results are committed in area order and a
          candidate is admitted exactly when the one-at-a-time search
          would admit it, so without a deadline the layout, [attempts],
          [rounds] and [stats] are the same at any [jobs]. *)
  portfolio : int option;
      (** Width of the {!Sat.Portfolio} racing each candidate instance.
          [None] (default) follows {!Sat.Portfolio.default_k};
          [Some 1] forces the plain single-solver engine.  Any width
          keeps verdicts, minimality and DRAT certification identical —
          the portfolio's proofs and models are translated back to the
          original candidate CNF. *)
}

val default_config : config

type result = {
  layout : Layout.Gate_layout.t;
  width : int;
  height : int;
  attempts : int;
      (** Candidate solve calls, in area order up to and including the
          winner — the same count at any [jobs]. *)
  speculative_solves : int;
      (** Solves of larger candidates that shared the winner's wave and
          whose results were discarded; always 0 at [jobs = 1] and under
          a global conflict budget.  Not counted in [attempts] or
          [stats]. *)
  rounds : int;  (** Escalation rounds used. *)
  budget_exhausted : bool;
      (** Some smaller-area candidate was still unresolved when this
          layout was found, voiding the minimality claim. *)
  certified_refutations : int;
      (** Refuted candidate sizes whose UNSAT answer was proof-checked
          (always 0 unless [config.certify]). *)
  stats : Sat.Solver.stats;  (** Aggregated over all candidate solvers. *)
}

type failure =
  | No_layout of { attempts : int; message : string }
      (** Proved: no layout exists within the search bounds. *)
  | Out_of_budget of {
      reason : Sat.Budget.reason;
      attempts : int;
      rounds : int;
      message : string;
    }  (** The budget ran dry with candidates still unresolved. *)
  | Certification_failed of { width : int; height : int; message : string }
      (** [config.certify] only: the solver claimed UNSAT for a
          candidate size but the {!Sat.Drat} checker rejected its proof
          — the solver cannot be trusted on this run. *)

val failure_message : failure -> string

val place_and_route :
  ?config:config ->
  ?budget:Sat.Budget.t ->
  ?blocked:(Hexlib.Coord.offset -> bool) ->
  Netlist.t ->
  (result, failure) Stdlib.result
(** Place and route under row clocking.  Never raises on budget
    conditions.

    [blocked] marks surface-defect tiles (cf. [Bestagon.Surface]):
    placement and connection variables on blocked tiles are forced off
    by unit clauses, so the first satisfiable candidate size is the
    minimum area {e on that surface} and DRAT certification of
    refutations is unaffected (units are original problem clauses).
    Symmetry breaking is disabled on grids containing a blocked tile
    (the map breaks the mirror automorphism the constraint relies on).
    A map blocking every feasible placement yields the structured
    {!No_layout}/{!Out_of_budget} failure, never an exception. *)

val solve_fixed :
  ?budget:Sat.Budget.t ->
  ?blocked:(Hexlib.Coord.offset -> bool) ->
  width:int -> height:int -> Netlist.t ->
  Layout.Gate_layout.t option
(** Single candidate size (exposed for tests and ablations); [None] on
    refutation {e or} budget exhaustion. *)
