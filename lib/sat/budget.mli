(** Unified resource budgets for long-running solves.

    A budget bounds a computation three ways at once: a wall-clock
    {e deadline} (absolute, on the budget's [clock]), a
    {e conflict} allowance (CDCL conflicts per [solve] call), and an
    external {e cancellation} flag (polled cooperatively).  The flow
    threads a single budget through every expensive step; {!Solver.solve}
    checks it at its restart and conflict checkpoints and returns
    [Unknown] instead of raising when any bound trips.

    The same type is re-exported as [Core.Budget] with flow-level
    helpers. *)

type reason =
  | Deadline  (** The wall-clock deadline passed. *)
  | Conflicts  (** The conflict allowance was spent. *)
  | Cancelled  (** The external cancellation flag was raised. *)

type t = {
  deadline : float option;  (** Absolute instant on [clock]'s scale. *)
  conflicts : int option;  (** Conflict allowance per [solve] call. *)
  cancelled : unit -> bool;  (** Cooperative cancellation flag. *)
  clock : unit -> float;
      (** The time source every deadline check reads ([Unix.gettimeofday]
          unless injected — tests drive deadline behaviour from a
          deterministic step clock instead of the host's speed). *)
}

val unlimited : t
(** No deadline, no conflict bound, never cancelled. *)

val of_seconds :
  ?conflicts:int ->
  ?cancelled:(unit -> bool) ->
  ?clock:(unit -> float) ->
  float ->
  t
(** [of_seconds s] expires [s] seconds from now on [clock] (default
    [Unix.gettimeofday]).
    @raise Invalid_argument when [s] is NaN, infinite, or negative —
    callers deriving budgets arithmetically (the design server computes
    per-request shares and backoff remainders) would otherwise plant a
    deadline that never trips. *)

val of_conflicts : int -> t

val with_conflicts : int option -> t -> t
(** Replace the conflict allowance, keeping deadline and cancellation. *)

val without_deadline : t -> t

val is_unlimited : t -> bool
(** No deadline and no conflict bound (cancellation may still fire). *)

val remaining_s : t -> float option
(** Seconds until the deadline ([None] when unbounded); can be
    negative. *)

val remaining : t -> float option
(** Like {!remaining_s} but clamped at [0.] — the form safe to feed back
    into {!of_seconds} when deriving a child budget from what is left of
    a parent (an already-expired parent yields a zero-length child, not
    an [Invalid_argument]). *)

val expired : t -> bool
(** The deadline (if any) has passed. *)

val check : t -> reason option
(** [Some Deadline] or [Some Cancelled] when tripped; conflict
    accounting is the solver's job and is not reflected here. *)

val fraction : float -> t -> t
(** [fraction f b] is [b] with the {e remaining} wall-clock time and the
    conflict allowance both scaled by [f] — a sub-budget for one stage of
    a larger computation. *)

val reason_to_string : reason -> string
val pp_reason : Format.formatter -> reason -> unit
val pp : Format.formatter -> t -> unit
