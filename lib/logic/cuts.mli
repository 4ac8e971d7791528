(** K-feasible cut enumeration on networks.

    A {e cut} of a node [n] is a set of nodes (leaves) such that every
    path from a primary input to [n] passes through a leaf.  Cuts with at
    most [k] leaves drive both cut rewriting (Sec. 4.2 step 2) and
    technology mapping (step 3).  Each cut carries the local function of
    [n] expressed over its leaves as an interned truth table.

    Two enumeration strategies live behind {!config}: the pre-overhaul
    list-based exhaustive enumeration ({!exhaustive_config}) and
    mockturtle-style priority cuts ({!default_config}) — a bounded
    per-node cut array filled through preallocated merge buffers, with
    64-bit leaf-signature dominance filtering and truth tables computed
    only for surviving cuts.  Both strategies produce {e identical} cut
    lists (same cuts, same order), so rewriting and mapping results do
    not depend on the configuration; [bench/main.exe logic] asserts this
    on every Table-1 benchmark and [test/fuzz.exe -cuts] on random
    networks. *)

type cut = {
  leaves : int array;  (** Leaf node ids, strictly ascending. *)
  table : Truth_table.t;
      (** Function of the (non-complemented) root node over the leaves;
          variable [i] corresponds to [leaves.(i)].  Interned. *)
}

type t

(** {2 Configuration} *)

type config = {
  cut_size : int;  (** Maximum leaves per cut ([k], default 4). *)
  cuts_per_node : int;
      (** Bound on stored cuts per node, trivial cut included (the
          priority-cut [C], default 12). *)
  priority : bool;
      (** Use the bounded array-based priority-cut path; [false] selects
          the preserved exhaustive baseline. *)
}

val default_config : config
(** Priority cuts with [k = 4], [C = 12]. *)

val exhaustive_config : config
(** The pre-overhaul enumeration (same bounds, list-based full product
    merge).  Kept for benchmarking and cross-checks. *)

(** {2 Enumeration} *)

val enumerate : ?config:config -> ?k:int -> ?max_cuts:int -> Network.t -> t
(** Enumerate cuts per node under [config] (default {!default_config}).
    [k] and [max_cuts] override the corresponding configuration fields.
    The trivial cut [{n}] is always included, last. *)

val cuts_of : t -> int -> cut list
(** Cuts of a node, trivial cut last. *)

val network : t -> Network.t

type enum_stats = {
  nodes : int;
  pairs : int;  (** Candidate child-cut pairs merged. *)
  kept : int;  (** Cuts stored across all nodes. *)
  sig_rejects : int;
      (** Dominance checks settled by the 64-bit leaf signature alone
          (priority path only). *)
}

val stats : t -> enum_stats
val pp_stats : Format.formatter -> enum_stats -> unit
(** One stable line, in the style of [Sat.Solver.pp_stats]. *)

val cut_volume : Network.t -> int -> cut -> int
(** Number of gates strictly inside the cone of the cut (between the root
    and the leaves, root included when it is a gate). *)

val mffc_size : Network.t -> int array -> int -> int
(** [mffc_size ntk fanout_counts root] is the size of the maximum
    fanout-free cone of [root]: the number of gates that would become
    dangling if [root] were removed. *)

val pp_cut : Format.formatter -> cut -> unit
