(** The complete SiDB design-automation flow (Sec. 4.2).

    The eight steps, end to end:

    + parse / build the specification as an XAG ({!Logic.Network},
      {!Logic.Verilog});
    + cut-based rewriting against an exact NPN database
      ({!Logic.Rewrite});
    + technology mapping onto the Bestagon gate set ({!Logic.Tech_map});
    + SMT/SAT-based exact physical design on the hexagonal grid under
      row clocking ({!Physdesign.Exact}; optionally the scalable
      heuristic {!Physdesign.Scalable});
    + SAT-based equivalence checking of specification vs. layout
      ({!Verify.Equivalence});
    + super-tile formation by clock-zone expansion
      ({!Layout.Supertile});
    + application of the Bestagon library for a dot-accurate SiDB layout
      ({!Bestagon.Library});
    + design-file generation ({!Bestagon.Sqd}).

    {2 Resilience}

    {!run} threads one {!Budget} through the expensive steps and never
    raises on budget conditions.  Under [Exact_with_fallback], exact
    physical design receives 70% of the remaining wall clock; if it
    exhausts its share (or proves its bounds infeasible) the flow
    degrades to {!Physdesign.Scalable} and records the degradation.
    Verification then runs under a conflicts-only grace budget
    ({!Budget.verification_grace}), so a hard deadline on placement
    cannot silently skip the equivalence check.  Failures are structured
    ({!failure}): the step reached, budget state, partial artifacts, and
    diagnostics.

    {2 Paranoid mode}

    [run ~paranoid:true] cross-checks every stage boundary instead of
    trusting the stage implementations:

    - the rewritten network and the mapped netlist are re-simulated
      against the source specification (exhaustive up to 12 inputs,
      fixed-seed random vectors beyond — {!Verify.Resim});
    - the exact engine runs with [certify = true]: every candidate-size
      UNSAT is proof-checked by {!Sat.Drat} before the size is excluded,
      and a rejected proof aborts the flow (no silent fallback);
    - the whole-layout DRC {!Layout.Design_rules.audit} runs on the gate
      layout and again after super-tiling; any violation is fatal;
    - equivalence checking always runs, produces a
      {!Verify.Equivalence.certificate}, and the certificate is replayed
      through the independent checker;
    - the final dot placement is swept for dangling-bond spacing
      violations ({!Bestagon.Geometry.spacing_violations}).

    Each passed check is recorded by name in [result.checks].  An
    [Undecided] equivalence verdict is not an [Error] (the budget, not
    the design, is at fault) but is recorded as a degradation — the CLI
    maps it to a nonzero exit. *)

type engine =
  | Exact of Physdesign.Exact.config
  | Scalable
  | Exact_with_fallback of Physdesign.Exact.config
      (** Try exact under a share of the budget; degrade to the scalable
          engine when it exhausts its share or refutes its bounds. *)

type options = {
  rewrite : bool;  (** Step 2 (default on). *)
  fuse_half_adders : bool;  (** Step 3 option (default on). *)
  engine : engine;  (** Step 4 (default [Exact default_config]). *)
  check_equivalence : bool;  (** Step 5 (default on). *)
  expand_supertiles : bool;  (** Step 6 (default on). *)
  apply_library : bool;  (** Step 7 (default on). *)
}

val default_options : options

(** {2 Diagnostics} *)

type step =
  | Parsing
  | Synthesis
  | Physical_design
  | Verification
  | Supertiling
  | Library_application
  | Design_rule_check  (** Paranoid-mode DRC audit (gate or dot level). *)
  | Certification
      (** A paranoid cross-check failed: re-simulation mismatch or a
          rejected proof/certificate. *)

val step_to_string : step -> string

type engine_used = Used_exact | Used_scalable
(** Which physical-design engine actually produced the layout. *)

val engine_used_to_string : engine_used -> string

type diagnostics = {
  engine_used : engine_used option;
      (** [None] only in failures before a layout exists. *)
  degradations : string list;
      (** Human-readable record of every degradation taken, in order. *)
  exact_attempts : int;  (** Candidate SAT solves by the exact engine. *)
  exact_rounds : int;  (** Budget-escalation rounds used. *)
  certified_refutations : int;
      (** Proof-checked candidate UNSATs (paranoid / [certify] runs). *)
  solver_stats : Sat.Solver.stats;
  elapsed_s : float;  (** Wall-clock seconds for the whole run. *)
}

type timing = {
  synthesis_s : float;
  physical_design_s : float;
  verification_s : float;
  library_s : float;
}

type result = {
  specification : Logic.Network.t;
  optimized : Logic.Network.t;
  mapped : Logic.Mapped.t;
  gate_layout : Layout.Gate_layout.t;  (** After step 4. *)
  supertiled : Layout.Gate_layout.t;  (** After step 6 (same as
      [gate_layout] when expansion is off). *)
  drc_violations : Layout.Design_rules.violation list;
      (** From {!Layout.Design_rules.check} normally,
          {!Layout.Design_rules.audit} in paranoid mode (then always
          [[]] in an [Ok] result — violations abort the run). *)
  equivalence : Verify.Equivalence.verdict option;
  certificate : Verify.Equivalence.certificate option;
      (** Equivalence certificate (paranoid runs; replayed before the
          result is returned). *)
  sidb : Bestagon.Library.sidb_layout option;
  checks : string list;
      (** Names of the paranoid cross-checks that passed, in order;
          [[]] outside paranoid mode. *)
  timing : timing;
  diagnostics : diagnostics;
}

type partial = {
  partial_optimized : Logic.Network.t option;
  partial_mapped : Logic.Mapped.t option;
  partial_layout : Layout.Gate_layout.t option;
}
(** Artifacts completed before the failing step. *)

type failure = {
  failed_step : step;
  message : string;
  budget_reason : Budget.reason option;
      (** Set when a budget condition caused the failure. *)
  partial : partial;
  diagnostics : diagnostics;
}

(** {2 Cross-request memo}

    A {!Memo.t} caches the flow's expensive intermediate artifacts
    {e across} runs: the synthesized pair (optimized network + mapped
    netlist), the placed-and-routed gate layout, and the equivalence
    verdict, each keyed by the caller's structural key for the
    specification plus every option that shapes the artifact.  The
    resident design server shares one memo over all requests; repeated
    or structurally identical submissions then skip synthesis, physical
    design, and the miter solve entirely.

    Soundness rules, enforced by {!run}:
    - the [corrupt_mapped] test hook or a [defect_map] disable the memo
      for that run (their identity is not part of the key);
    - paranoid runs share only the synthesis table — physical design
      and verification are re-derived so their cross-checks are real;
    - a layout produced after a budget-driven degradation is not
      stored, and [Undecided] verdicts are never stored (both describe
      this run's budget, not the design).

    All operations are thread-safe (the server dispatches jobs across
    {!Parallel.Pool} domains); a racing duplicate computation is
    possible and harmless because flow results are deterministic. *)

module Memo : sig
  type t

  val create : unit -> t

  type stats = {
    synth_hits : int;
    synth_misses : int;
    layout_hits : int;
    layout_misses : int;
    verdict_hits : int;
    verdict_misses : int;
  }

  val empty_stats : stats
  val stats : t -> stats

  val hit_rate : hits:int -> misses:int -> float
  (** [hits / (hits + misses)], 0 when empty. *)
end

val error_message : failure -> string
(** One-line ["<step>: <message>"] form. *)

val pp_failure : Format.formatter -> failure -> unit

val run :
  ?options:options ->
  ?paranoid:bool ->
  ?corrupt_mapped:(Logic.Mapped.t -> Logic.Mapped.t) ->
  ?defect_map:Sidb.Defect_map.t ->
  ?memo:string * Memo.t ->
  ?budget:Budget.t ->
  Logic.Network.t ->
  (result, failure) Stdlib.result
(** [Error] on physical-design failure (or a budget tripping before
    it); a failed equivalence check or DRC violations are reported in
    the result, not as errors.  Never raises on budget conditions.

    With [~paranoid:true] (default [false]) every stage boundary is
    cross-checked and any failed check is an [Error] at
    {!Design_rule_check}, {!Certification}, or {!Verification} — see
    the module preamble.  [corrupt_mapped] is a test hook applied to
    the mapped netlist {e before} the paranoid mapping cross-check, to
    prove injected corruption is caught at the boundary.

    [defect_map] makes physical design defect-aware: both engines
    avoid the tiles the map blocks (one memoized
    [Bestagon.Surface] view is shared by the whole run), scalable
    results are left uncropped so the layout stays in the map's
    absolute lattice frame, and a map leaving no feasible placement
    surfaces as the structured {!Physical_design} failure.  Paranoid
    runs additionally re-check that no placed tile sits on a blocked
    coordinate ("defect avoidance" in [result.checks]).

    [memo] is [(key, memo)] where [key] is the caller's structural key
    for [specification] (e.g. a digest of its source): intermediate
    artifacts are then reused across runs under the soundness rules
    documented at {!Memo}. *)

val run_verilog :
  ?options:options ->
  ?paranoid:bool ->
  ?defect_map:Sidb.Defect_map.t ->
  ?memo:string * Memo.t ->
  ?budget:Budget.t ->
  string ->
  (result, failure) Stdlib.result
(** Convenience: parse Verilog source (step 1) and run. *)

val run_benchmark :
  ?options:options ->
  ?paranoid:bool ->
  ?defect_map:Sidb.Defect_map.t ->
  ?memo:string * Memo.t ->
  ?budget:Budget.t ->
  string ->
  (result, failure) Stdlib.result
(** Run on a named circuit from {!Logic.Benchmarks}. *)

(** {2 Whole-layout simulation} *)

type layout_sim = {
  sim_engine : string;
  sim_exact : bool;
      (** Whether energy/degeneracy/critical temperature are exact: true
          for the exact engines, false for quicksim (energies are upper
          bounds, the spectrum is sampled, T_c is an upper estimate). *)
  sim_sites : int;  (** DB count of the assembled system. *)
  sim_tiles : int;
  sim_energy : float;  (** Ground-state energy, eV. *)
  sim_degeneracy : int;
  sim_valid : bool;
      (** Every reported ground state is physically valid (population-
          and configuration-stable). *)
  sim_spectrum_states : int;
  sim_critical_temperature_k : float;
  sim_duplicates_dropped : int;
  sim_seconds : float;
}

val exact_site_limit : int
(** Largest system (40 sites) {!simulate_layout} hands to an exact
    engine: auto-selection switches to quicksim above it, and an
    explicitly requested exact engine is refused with a structured
    [Error]. *)

val simulate_layout :
  ?engine:Sidb.Bdl.engine ->
  ?inputs:(string * bool) list ->
  ?clock_bias:float array ->
  ?confidence:float ->
  ?t_max:float ->
  result ->
  (layout_sim, string) Stdlib.result
(** Simulate the complete placed-and-routed design as {e one} charge
    system ({!Bestagon.Assembly}): whole-layout ground state and
    critical temperature — the workload the exact engines cannot touch
    beyond a few tiles.  Without [engine] (callers pass the user's
    resolved preference, {!Sidb.Bdl.resolve_engine}) the engine is
    auto-selected: exact pruned search up to 40 sites, quicksim above.
    An exact engine requested explicitly on a larger system gets a
    structured [Error] (refusal), never an unbounded search.
    [inputs]/[clock_bias] parameterize the assembly;
    [confidence]/[t_max] the critical-temperature search. *)

(** {2 Whole-layout operational domains} *)

type layout_domain = {
  dom_engine : string;
  dom_exact : bool;
      (** [false] for quicksim: the domain is then an estimate (a point
          can be misclassified if the heuristic misses a ground
          state). *)
  dom_sites : int;
      (** Worst-case per-row system size: all fixed DBs plus every
          input's larger driver perturber set. *)
  dom_tiles : int;
  dom_inputs : int;
  dom_outputs : int;
  dom_domain : Sidb.Operational_domain.t;
  dom_seconds : float;
}

val domain_input_limit : int
(** Most primary inputs (8) {!domain_of_layout} accepts: every evaluated
    grid point costs [2^inputs] ground-state solves, so wider designs
    are refused with a structured [Error]. *)

val default_domain_x_axis : Sidb.Operational_domain.axis
(** μ₋ ∈ [−1.2, 0], 8 steps. *)

val default_domain_y_axis : Sidb.Operational_domain.axis
(** ε_r ∈ [1, 14], 8 steps (λ_TF pinned at the paper's 5 nm — the
    library's domains are thin bands in λ_TF, so the (μ₋, ε_r) plane
    is the informative slice). *)

val domain_of_layout :
  ?engine:Sidb.Bdl.engine ->
  ?jobs:int ->
  ?config:Sidb.Operational_domain.config ->
  ?x_axis:Sidb.Operational_domain.axis ->
  ?y_axis:Sidb.Operational_domain.axis ->
  result ->
  (layout_domain, string) Stdlib.result
(** The operational domain of the complete placed-and-routed design as
    {e one} BDL structure ({!Bestagon.Assembly.structure_of_layout}):
    each grid point drives every primary-input row and requires every
    primary output to read back the specification network's value — the
    whole-layout analogue of the per-gate sweep, open to the heuristic
    engine only (ROADMAP item 3 follow-on).  Pads are matched to the
    specification's PI/PO names; clocking is neutral.  Engine selection
    and the exact-engine refusal follow {!simulate_layout}
    ({!exact_site_limit} on the worst-case row system). *)

val export_sqd : result -> ?inputs:(string * bool) list -> path:string -> unit -> (unit, string) Stdlib.result
(** Step 8: write the SiDB layout as a SiQAD design file. *)

val pp_summary : Format.formatter -> result -> unit
