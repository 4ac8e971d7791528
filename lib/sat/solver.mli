(** A CDCL SAT solver.

    Conflict-driven clause learning with two-watched-literal propagation
    (blocking literals cached next to each watch), dedicated implication
    lists for binary clauses, first-UIP learning with cheap clause
    minimization, VSIDS variable activities, phase saving, Luby restarts,
    and Glucose-style glue-based learned clause deletion.  It replaces
    the off-the-shelf SAT/SMT back ends used by the paper's exact
    physical design [46] and equivalence checking [50].

    Literals follow the DIMACS convention: variables are positive
    integers, and a negative integer denotes the complement of the
    corresponding variable. *)

type t

type result =
  | Sat
  | Unsat
  | Unknown of Budget.reason
      (** The solve was interrupted by its {!Budget} before reaching a
          verdict.  The solver remains usable: calling [solve] again with
          a larger budget resumes from all clauses learned so far. *)

type lit = int
(** [v] for variable [v], [-v] for its negation; [v >= 1]. *)

(** {2 Configuration}

    Every production solver runs {!default_config}; portfolio members
    vary only the restart pacing, reduction slack and seed.  The one
    data-structure toggle, [binary_specialization], is off only for
    exact synthesis, whose chains are read off the model and therefore
    depend on the search order (see [Logic.Exact_synth]). *)

type config = {
  binary_specialization : bool;
      (** Keep 2-literal clauses (problem and learned) in per-literal
          implication lists; propagation over them never dereferences a
          clause.  Learned binaries are still DRAT-logged and are
          immortal (never deleted).  With [false] they live in the
          clause arena like any other clause. *)
  restart_base : int;
      (** Conflicts per Luby restart unit (round [r] of a [solve] call
          allows [restart_base * luby r] conflicts before restarting).
          Historical and default value: 100. *)
  reduce_slack : int;
      (** Extra learned clauses tolerated beyond twice the problem size
          before a reduction pass fires.  Historical and default value:
          2000. *)
  seed : int;
      (** Branching seed.  [0] (default) leaves the historical behavior
          untouched.  A nonzero seed deterministically perturbs the
          initial VSIDS activities (tie-breaking epsilons, orders of
          magnitude below one activity bump) and the initial saved
          phases, so portfolio members explore different parts of the
          search space.  Completeness and verdicts are unaffected. *)
}

val default_config : config
(** Binary specialization on, historical restart and reduction pacing,
    no seed. *)

val create : ?config:config -> unit -> t
(** [config] defaults to {!default_config}. *)

val config : t -> config

val new_var : t -> lit
(** Allocate a fresh variable and return it as a positive literal. *)

val num_vars : t -> int
val num_clauses : t -> int
(** Number of problem (non-learned) clauses added so far, counting those
    simplified away at add time. *)

val num_binary_clauses : t -> int
(** Number of binary clauses (problem and learned) held in the
    specialized implication lists.  0 when [binary_specialization] is
    off. *)

val add_clause : t -> lit list -> unit
(** Add a clause.  Tautologies are dropped and duplicate literals merged.
    Adding the empty clause makes the instance trivially unsatisfiable.
    @raise Invalid_argument on literal 0 or an unallocated variable. *)

val solve : ?assumptions:lit list -> ?budget:Budget.t -> t -> result
(** Solve under the given assumptions.  The solver is incremental: more
    clauses and variables may be added after a call to [solve], and
    subsequent calls reuse learned clauses.

    The budget (default {!Budget.unlimited}) bounds the call: the
    conflict allowance is relative to this call and exact; the deadline
    and the cancellation flag are polled every few conflicts/decisions.
    A tripped budget yields [Unknown] — never an exception — and leaves
    the solver resumable. *)

val value : t -> lit -> bool
(** Value of a literal in the model found by the last [solve].
    @raise Invalid_argument if the last call did not return [Sat]. *)

val model : t -> bool array
(** Values of all variables, indexed by [var - 1]. *)

(** {2 Proof logging}

    When enabled, the solver records every learned clause and every
    learned-clause deletion as a {!Drat} proof step.  An [Unsat] verdict
    (without assumptions) closes the proof with the empty clause, and the
    recorded sequence can then be verified against the problem clauses by
    the independent checker in {!Drat} — without trusting any part of
    this solver.

    Enable logging before the first call to {!solve}; clauses learned
    while logging was off are not replayed retroactively.  An [Unsat]
    obtained {e under assumptions} is not certifiable this way (the proof
    will not contain the empty clause). *)

val enable_proof : t -> unit
(** Turn on proof logging.  Idempotent. *)

val proof_enabled : t -> bool

val proof : t -> Drat.proof
(** All steps logged so far, in order.  [[]] when logging is off. *)

(** {2 Statistics} *)

val lbd_hist_bins : int
(** Length of {!stats.lbd_hist}; the last bin collects everything at or
    above [lbd_hist_bins - 1]. *)

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;  (** Trail literals propagated. *)
  binary_propagations : int;
      (** Implications produced by the binary implication lists. *)
  restarts : int;
  learned_clauses : int;  (** Currently live learned clauses. *)
  learned_binaries : int;
      (** Live learned binaries held in the implication lists. *)
  deleted_clauses : int;  (** Cumulative deletions by [reduce_db]. *)
  reductions : int;  (** Number of [reduce_db] passes. *)
  watch_compaction_scans : int;
      (** Watch entries scanned by in-place compaction — the actual
          database-maintenance work. *)
  lbd_hist : int array;
      (** Per-solve LBD histogram (reset at each [solve]); bin [i] counts
          learned clauses with glue [i], the last bin is a catch-all.
          Treat as read-only. *)
  lbd_sum : int;  (** Cumulative sum of learned-clause glues. *)
  lbd_count : int;
  solve_time_s : float;  (** Cumulative wall time inside [solve]. *)
  simplify_subsumed : int;
      (** Clauses deleted by subsumption during {!Simplify}
          preprocessing.  Always 0 on a bare solver; the portfolio layer
          fills these four in when it attaches a simplifier run. *)
  simplify_strengthened : int;
      (** Clauses strengthened by self-subsuming resolution. *)
  simplify_eliminated : int;  (** Variables removed by bounded elimination. *)
  simplify_vivified : int;  (** Clauses shortened by vivification. *)
}

val stats : t -> stats
(** Counters over the solver's lifetime (cumulative, except [lbd_hist]
    which describes the most recent [solve] call). *)

val empty_stats : stats

val add_stats : stats -> stats -> stats
(** Pointwise sum — for aggregating across solver instances. *)

val mean_lbd : stats -> float
(** Mean glue over all learned clauses, 0 if none were learned. *)

val propagations_per_sec : stats -> float
(** (propagations + binary_propagations) / solve_time_s, 0 when no time
    was spent. *)

val pp_stats : Format.formatter -> stats -> unit
(** One stable human-readable line. *)
