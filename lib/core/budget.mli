(** Flow-level re-export of {!Sat.Budget}.

    The flow threads one budget through every expensive step (exact
    physical design, equivalence checking); each step receives a share
    via {!fraction} or a derived grace budget.  See {!Flow.run}. *)

type reason = Sat.Budget.reason =
  | Deadline
  | Conflicts
  | Cancelled

type t = Sat.Budget.t = {
  deadline : float option;
  conflicts : int option;
  cancelled : unit -> bool;
  clock : unit -> float;
}

val unlimited : t

val of_seconds :
  ?conflicts:int ->
  ?cancelled:(unit -> bool) ->
  ?clock:(unit -> float) ->
  float ->
  t
val of_conflicts : int -> t
val with_conflicts : int option -> t -> t
val without_deadline : t -> t
val is_unlimited : t -> bool
val remaining_s : t -> float option
val remaining : t -> float option
val expired : t -> bool
val check : t -> reason option
val fraction : float -> t -> t
val reason_to_string : reason -> string
val pp_reason : Format.formatter -> reason -> unit
val pp : Format.formatter -> t -> unit

val verification_grace_conflicts : int
(** Conflict allowance of the verification grace budget (200k). *)

val verification_grace : t -> t
(** The budget verification runs under even when the deadline is already
    spent: no deadline, a fixed conflict allowance, cancellation
    preserved.  Rationale: a layout the flow worked hard for should not
    go unverified because physical design consumed the wall clock —
    equivalence checks on flow-sized miters are cheap, and the conflict
    cap still bounds the worst case. *)
