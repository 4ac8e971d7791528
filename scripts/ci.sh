#!/bin/sh
# Continuous-integration driver for fictionette.
#
# Stages:
#   1. fast type-check        (dune build @check)
#   2. full build             (dune build, warnings are errors)
#   3. test suite             (dune runtest --force, timed, once at
#                              FICTIONETTE_JOBS=1 and once at 2: results
#                              and diagnostics must not depend on the
#                              job count)
#   4. property fuzzing       (bounded, fixed seed: solver vs. oracle
#                              with DRAT-checked UNSATs, XAG rewrite/map
#                              behavior preservation, defect-yield
#                              invariants, pruned-engine exactness)
#   5. resilience smoke test  (mux21 under a 1 s deadline with the
#                              fallback engine must finish cleanly --
#                              the hard guarantee of the budget work)
#   6. certification smoke    (paranoid flow on a benchmark whose exact
#                              search refutes a candidate size: the
#                              refutation must come with a DRAT proof
#                              the independent checker accepts)
#   7. bench smoke            (the simulation harness at jobs=2 must
#                              report results bit-identical to jobs=1 --
#                              the harness exits nonzero on any mismatch
#                              -- and write a well-formed BENCH_sim.json)
#   8. SAT bench smoke        (exact P&R and equivalence miters against
#                              independent oracles: exact layouts must be
#                              equivalent to their networks, miter
#                              verdicts must match brute-force
#                              simulation, refutation proofs must check,
#                              and BENCH_sat.json must be well-formed)
#   9. logic bench smoke      (priority-cut vs. exhaustive synthesis on
#                              every Table-1 benchmark: the mapped
#                              netlists must be node-for-node identical,
#                              resimulation must pass, and
#                              BENCH_logic.json must be well-formed)
#  10. defect bench smoke     (defect-aware vs. oblivious design on
#                              random surface maps: aware yield must be
#                              no worse everywhere, an infeasible map
#                              must fail structurally, and
#                              BENCH_defects.json must be well-formed)
#  11. design-server smoke    (a real `fictionette serve` session over
#                              stdio: design/check/stats requests must
#                              answer, a malformed line must produce a
#                              structured parse error without killing
#                              the loop, and EOF must shut the server
#                              down cleanly)
#  12. SAT portfolio smoke    (Simplify equisatisfiability and
#                              portfolio-vs-single fuzz properties, then
#                              the portfolio bench races: verdicts must
#                              match the single solver, the winner must
#                              be identical across --jobs, and the
#                              certified refutation must DRAT-check
#                              through the simplify+portfolio path)
#  13. quicksim smoke         (heuristic-vs-exact fuzz: quicksim must
#                              reproduce the pruned engine's ground
#                              energy on random systems; then a whole
#                              Table-1 layout as one charge system:
#                              quicksim finishes with valid states,
#                              exact engines refuse with a structured
#                              error)
#  14. opdomain smoke         (operational-domain algorithm fuzz: the
#                              grid must match the per-point reference
#                              and flood fill / contour tracing must
#                              agree with the grid on every point they
#                              evaluate, bit-identically at any job
#                              count; then the opdomain bench in smoke
#                              mode must write a well-formed
#                              BENCH_opdomain.json)
set -eu

cd "$(dirname "$0")/.."

echo "== 1/14 type check =="
dune build @check

echo "== 2/14 full build =="
dune build

echo "== 3/14 test suite =="
for jobs in 1 2; do
    start=$(date +%s)
    FICTIONETTE_JOBS=$jobs dune runtest --force
    end=$(date +%s)
    echo "tests passed at FICTIONETTE_JOBS=$jobs in $((end - start))s"
done

echo "== 4/14 property fuzzing =="
# Fixed seed: reproducible in CI, >= 500 iterations across the eight
# properties (CNF, at-most-one encodings, XAG, priority-vs-exhaustive
# cuts, defect parameters, charge systems, defect-aware P&R, and
# server line-noise: Serve.Server.handle_line must answer every byte
# sequence with structured JSON, never an exception).  The simplify and
# portfolio properties get a dedicated run in stage 12, quicksim in
# stage 13, and the operational-domain algorithms in stage 14.
dune exec test/fuzz.exe -- -seed 61442 -cnf 300 -amo 60 -xag 150 -cuts 60 -defect 60 -system 40 -defect-aware 25 -serve 200 -simplify 0 -portfolio 0 -quicksim 0 -opdomain 0

echo "== 5/14 budgeted-flow smoke test =="
# Must return a verified layout without raising, degrading to the
# scalable engine if the exact share of the deadline runs out.
dune exec bin/fictionette.exe -- run mux21 -e fallback -d 1

echo "== 6/14 certification smoke test =="
# Benchmark "t" needs one candidate size refuted before its minimal
# layout: paranoid mode proof-checks that UNSAT and replays the
# equivalence certificate; any failed check exits nonzero.
dune exec bin/fictionette.exe -- check t | grep "certified refutations"
dune exec bin/fictionette.exe -- check t

echo "== 7/14 bench smoke (parallel determinism + BENCH_sim.json shape) =="
out=$(mktemp)
dune exec bench/main.exe -- sim --smoke --jobs 2 --out "$out"
# Shape check: schema marker, host cores, at least one result row with
# the full field set, and a recorded serial-vs-parallel verdict.
grep -q '"schema": "fictionette-bench-sim/1"' "$out"
grep -q '"cores":' "$out"
grep -q '"workload": "sweep"' "$out"
grep -q '"speedup_vs_serial":' "$out"
grep -q '"identical_to_serial": true' "$out"
if grep -q '"identical_to_serial": false' "$out"; then
    echo "bench smoke: parallel result differed from serial" >&2
    exit 1
fi
rm -f "$out"

echo "== 8/14 SAT bench smoke (oracle parity + BENCH_sat.json shape) =="
out=$(mktemp)
dune exec bench/main.exe -- sat --smoke --out "$out"
# Shape check: schema marker, the solver configuration, per-solve
# statistics, and the verdict-vs-oracle identity the harness itself
# enforces (it exits nonzero on any mismatch or rejected proof).
grep -q '"schema": "fictionette-bench-sat/1"' "$out"
grep -q '"config": "tuned"' "$out"
grep -q '"propagations":' "$out"
grep -q '"verdict_matches_oracle": true' "$out"
if grep -q '"verdict_matches_oracle": false' "$out"; then
    echo "sat bench smoke: a verdict differed from its oracle" >&2
    exit 1
fi
rm -f "$out"

echo "== 9/14 logic bench smoke (netlist identity + BENCH_logic.json shape) =="
out=$(mktemp)
dune exec bench/main.exe -- logic --smoke --out "$out"
# Shape check: schema marker, both enumeration configurations, cut and
# NPN-cache counters, and the per-benchmark netlist identity the harness
# itself enforces (it exits nonzero on any mismatch).
grep -q '"schema": "fictionette-bench-logic/1"' "$out"
grep -q '"config": "exhaustive"' "$out"
grep -q '"config": "priority"' "$out"
grep -q '"npn_cache":' "$out"
grep -q '"speedup_vs_exhaustive":' "$out"
grep -q '"identical_netlist": true' "$out"
if grep -q '"identical_netlist": false' "$out"; then
    echo "logic bench smoke: priority netlist differed from exhaustive" >&2
    exit 1
fi
rm -f "$out"

echo "== 10/14 defect bench smoke (aware >= oblivious + BENCH_defects.json shape) =="
out=$(mktemp)
dune exec bench/main.exe -- defects --smoke --aware --out "$out"
# Shape check: schema marker, the aware-never-worse verdict the harness
# itself enforces (it exits nonzero on any regression), and the
# structured failure on a surface with no feasible placement.
grep -q '"schema": "fictionette-bench-defects/1"' "$out"
grep -q '"aware_ge_oblivious": true' "$out"
grep -q '"structured_failure": true' "$out"
if grep -q '"aware_ge_oblivious": false' "$out"; then
    echo "defect bench smoke: aware design yielded worse than oblivious" >&2
    exit 1
fi
rm -f "$out"

echo "== 11/14 design-server smoke (protocol + fault isolation) =="
out=$(mktemp)
# A real server session over stdio: two flow requests, one malformed
# line, one stats probe, then EOF.  The malformed line must get a
# structured parse error and must not take the later requests with it;
# EOF is a clean shutdown, so the pipeline itself fails under set -e
# if the server dies early.
{
    printf '%s\n' '{"fictionette-serve":1,"kind":"design","id":"d1","benchmark":"c17"}'
    printf '%s\n' 'this is not json'
    printf '%s\n' '{"fictionette-serve":1,"kind":"check","id":"k1","benchmark":"mux21"}'
    printf '%s\n' '{"fictionette-serve":1,"kind":"stats","id":"s1"}'
} | dune exec bin/fictionette.exe -- serve > "$out"
test "$(wc -l < "$out")" -eq 4
grep -q '"id":"d1","kind":"design","status":"ok"' "$out"
grep -q '"kind":"parse"' "$out"
grep -q '"id":"k1","kind":"check","status":"ok"' "$out"
grep -q '"id":"s1","kind":"stats","status":"ok"' "$out"
grep -q '"protocol_errors":1' "$out"
# The one-shot JSON mode speaks the same schema as the server.
dune exec bin/fictionette.exe -- run c17 --json | grep -q '"kind":"design","status":"ok"'
rm -f "$out"

echo "== 12/14 SAT portfolio smoke (simplify equisat + deterministic races) =="
# The two dedicated fuzz properties: Simplify preserves satisfiability
# (models reconstruct, refutations DRAT-check), and a k-wide portfolio
# agrees with a single solver on every random instance.
dune exec test/fuzz.exe -- -seed 61442 -cnf 0 -amo 0 -xag 0 -cuts 0 -defect 0 -system 0 -defect-aware 0 -serve 0 -simplify 150 -portfolio 80 -quicksim 0 -opdomain 0
# Portfolio bench races (k=4, jobs 1 and 2 in smoke mode): the harness
# itself exits nonzero on a verdict mismatch against the single solver,
# a winner that differs across --jobs, or a rejected DRAT proof.
out=$(mktemp)
dune exec bench/main.exe -- sat --smoke --portfolio --out "$out"
grep -q '"portfolio": {' "$out"
grep -q '"verdict_matches_single": true' "$out"
grep -q '"winner_config":' "$out"
grep -q '"proof": "accepted"' "$out"
grep -q '"eliminated_vars":' "$out"
if grep -q '"verdict_matches_single": false' "$out"; then
    echo "portfolio smoke: portfolio verdict differed from single solver" >&2
    exit 1
fi
rm -f "$out"

echo "== 13/14 quicksim smoke (heuristic-vs-exact fuzz + whole-layout) =="
# The dedicated quicksim fuzz property: on random systems up to 16
# sites the heuristic engine's default configuration must reproduce the
# pruned exact engine's ground energy exactly, returning only
# physically valid states.
dune exec test/fuzz.exe -- -seed 61442 -cnf 0 -amo 0 -xag 0 -cuts 0 -defect 0 -system 0 -defect-aware 0 -serve 0 -simplify 0 -portfolio 0 -quicksim 120 -opdomain 0
# Whole-layout smoke: a complete Table-1 design (c17, ~360 DBs) as one
# charge system — far beyond any exact engine.  Quicksim must finish
# with physically valid states (exit 0); an exact engine must refuse
# with a structured error (exit 1), not search unboundedly.
dune exec bin/fictionette.exe -- simulate c17 --layout --engine quicksim | grep "physically valid"
if dune exec bin/fictionette.exe -- simulate c17 --layout --engine pruned 2> /dev/null; then
    echo "quicksim smoke: exact engine did not refuse the whole layout" >&2
    exit 1
fi

echo "== 14/14 opdomain smoke (algorithm agreement + BENCH_opdomain.json shape) =="
# The dedicated operational-domain fuzz property: on random library
# gates over random 2-D parameter slices, the grid must match the
# per-point reference (Operational_domain.operational_at at each
# point), flood fill / contour tracing must carry the grid's
# classification on every point they evaluate, and each algorithm must
# be bit-identical at any job count.
dune exec test/fuzz.exe -- -seed 61442 -cnf 0 -amo 0 -xag 0 -cuts 0 -defect 0 -system 0 -defect-aware 0 -serve 0 -simplify 0 -portfolio 0 -quicksim 0 -opdomain 40
# Opdomain bench in smoke mode: the harness itself exits nonzero on any
# classification mismatch against the per-point reference or any
# job-count divergence; the report must be well-formed.
out=$(mktemp)
dune exec bench/main.exe -- opdomain --smoke --jobs 2 --out "$out"
grep -q '"schema": "fictionette-bench-opdomain/1"' "$out"
grep -q '"algorithm": "flood-fill"' "$out"
grep -q '"algorithm": "contour"' "$out"
grep -q '"solver_calls_saved":' "$out"
grep -q '"identical_to_baseline": true' "$out"
grep -q '"layouts": \[' "$out"
grep -q '"engine": "quicksim"' "$out"
if grep -q '"identical_to_baseline": false' "$out"; then
    echo "opdomain smoke: a sweep differed from the per-point reference" >&2
    exit 1
fi
rm -f "$out"

echo "CI OK"
