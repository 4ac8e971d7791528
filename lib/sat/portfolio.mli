(** A deterministic solver portfolio: [K] diversified {!Solver}
    configurations race on one {!Simplify}-preprocessed instance, first
    definitive verdict wins.

    {2 Determinism}

    The race is round-based.  Each round gives every member the same
    Luby-escalating conflict slice via {!Parallel.Pool.map}; a member
    reaching Sat/Unsat publishes its index into a shared minimum cell,
    and a member is cancelled (through its {!Budget}) only by a
    {e lower-indexed} winner.  Hence the winning member is the
    lowest-indexed one that decides within its slice — independent of
    scheduling — and the verdict, winner index, model and DRAT proof are
    bit-identical for a fixed (instance, K) at any [--jobs] count.
    (Under an external budget the [Unknown] cut-off point is
    time-dependent, as for a single solver.)

    {2 Certification}

    With [~certify:true] every member logs DRAT.  The portfolio's
    {!proof} is the {!Simplify} trace followed by the winner's
    refutation, and it checks against the {e original} clauses; a Sat
    model is run through {!Simplify.result.reconstruct} so it satisfies
    the original formula including eliminated variables. *)

type t

val default_k : unit -> int
(** Portfolio width used when [?k] is omitted: the value set with
    {!set_default_k} if any, else [FICTIONETTE_SAT_PORTFOLIO] (when a
    positive integer), else [1].  Callers treat [1] as "portfolio off"
    and keep their plain single-solver path. *)

val set_default_k : int -> unit
(** Process-wide override (e.g. from [--sat-portfolio K]); takes
    precedence over the environment.
    @raise Invalid_argument when the width is not positive. *)

val create :
  ?k:int -> ?certify:bool -> nvars:int -> Solver.lit list list -> t
(** Simplify the clause set once and set up [k] member solvers over the
    simplified clauses.  Assumptions and incremental clause additions
    are not supported — build a fresh portfolio per instance.
    [certify] (default [false]) enables DRAT logging on every member. *)

val solve : ?budget:Budget.t -> t -> Solver.result
(** Race the members.  Without a budget this runs rounds until some
    member decides.  A budget's conflict allowance is a per-member total
    for this call; deadline and cancellation are polled by every member.
    [Unknown] leaves the portfolio resumable: a later call continues the
    round escalation where it stopped. *)

val value : t -> Solver.lit -> bool
(** Literal value in the reconstructed model of the {e original}
    formula (eliminated variables included).
    @raise Invalid_argument if the last {!solve} was not [Sat]. *)

val model : t -> bool array
(** Reconstructed model, indexed by [var - 1].
    @raise Invalid_argument if the last {!solve} was not [Sat]. *)

val proof : t -> Drat.proof
(** Simplification trace followed by the winning member's proof steps.
    Validates against the original clauses ({!Drat.check}).  The
    simplify prefix alone when preprocessing refuted the instance;
    [[]] when [certify] was off. *)

val winner : t -> int option
(** Index of the member whose verdict was returned by the last
    definitive {!solve}; [None] before that or when {!Simplify} already
    refuted the instance. *)

val k : t -> int
val num_vars : t -> int

val counters : t -> Simplify.counters
(** Preprocessing work done at {!create} time. *)

val stats : t -> Solver.stats
(** Pointwise sum over all members, with the [simplify_*] fields filled
    from {!counters}. *)

val member_solver : t -> int -> Solver.t
(** The underlying solver of member [i] — exposed for tests (losing
    members must stay resumable after a race cancels them). *)

val config_name : int -> string
(** Stable human-readable name of member [i]'s configuration, for bench
    output ("tuned", "tuned-r512-s1", "tuned-r200-s3", …). *)
