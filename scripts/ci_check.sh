#!/usr/bin/env bash
# Tier-1 gate: full test suite, benchmark smoke, differential fuzz smoke,
# committed bench data.
# The campaign layer's interrupt / resume and worker-crash scenarios run in
# the test suite (tests/campaign/test_runner.py, test_service_tcp.py).
#
#   scripts/ci_check.sh
#
# 1. runs the fast test set (everything not marked `slow`) for quick signal;
# 2. runs the `slow`-marked tests in a separate pass;
# 3. re-times every row of the committed BENCH_core.json and fails when a
#    same-session ratio crosses its gate: a scenario's production/legacy
#    speedup more than 20% below the committed one, or the saturated
#    scenario's below its 5x acceptance bar; the saturated 16-ary
#    detector's reference/as-shipped ratio, census off or on, more than
#    20% below the committed one; or the campaign layer's fan-out regime
#    (48 tiny points) reading a cold drain at one worker above 1.35x the
#    direct serial run, or a service drain on two slots above 1.5x the
#    cold drain at two workers; or obs_level=1 costing more than 1.10x the
#    CPU time of observability off (median per-rep ratio over 15 lockstep
#    reps of the moderate 8-ary scenario).  On failure the per-phase time
#    breakdown is printed alongside the committed one so the regressing
#    phase is visible at a glance;
# 4. runs the bit-identity gate: every row of the case table in
#    tests/integration/bit_identity.py (engine, detector, observability
#    and deprecated-field rows on k-ary n-cubes and the topology zoo),
#    each compared through repro.validation.differential.compare on the
#    result, every detection record and the post-run RNG word, the
#    golden-trace digests, which both engines must reproduce verbatim, and
#    one check for each user of the one slot process (SlotPool): a sweep
#    fanned out over slots must equal the serial in-process sweep field
#    for field (results and obs rollup), one campaign slot running
#    points in either order must write the same artifact bytes as a fresh
#    process per point, and a service drain on two local slots, whose
#    leases run the runner's point job straight into the service's
#    store, must leave points/ byte-identical to a cold runner drain
#    without the service writing any artifact itself — where a point runs
#    must not change a result; and
#    the relation x topology matrix of tests/routing/test_cache_keys.py:
#    both engines read one candidate memo, so bit-identity cannot see a
#    cache_key that misses state the candidates read; the matrix runs
#    every registered relation on every topology class and compares the
#    memo with fresh candidates, or sees a pair outside its table refused
#    at construction;
# 5. runs the end-to-end benchmark smoke: the five workloads of the repo
#    benchmark at tiny sizes on the default engine, every point checked
#    against the seed-1 digests pinned in benchmarks/e2e;
# 6. runs the benchmark harness's own tests (benchmarks/e2e is outside
#    pytest's testpaths): among them the one that reads the
#    implementation-selection config fields by name — the reason the three
#    inert engine_kernels / engine_vectorized / cwg_maintenance fields
#    still exist;
# 7. runs the differential fuzz smoke sweep: 25 seeded random configs
#    cross-checked through the same compare on the engine/detector axes
#    under a 90 s budget
#    (deterministic — a CI failure replays locally with the same command);
# 8. runs the model-checking oracle smoke gate: every configuration class
#    of the oracle grid enumerated to full closure on the production
#    engine, the knot detector cross-checked against reachability ground
#    truth at every reachable state, closure sizes pinned against drift,
#    every class enumerated again on the reference engine and its state
#    graph required equal to production's, and the fault-injection teeth
#    battery proven to bite (scripts/oracle_smoke.py);
# 9. runs the documentation drift gate: every repro.* symbol named in
#    docs/API.md must resolve against the live package, every relative
#    markdown link in the repo must point at an existing file, and every
#    Topology subclass / CLI --topology choice must be documented in
#    docs/TOPOLOGIES.md, docs/API.md's SimulationConfig table must
#    list every field exactly as rendered from the config's field table,
#    EXPERIMENTS.md's reproduction summary must be the claims table as
#    rendered on the committed bench observations, every repo path
#    under examples/, scripts/, src/, tests/ or data/ that a markdown file
#    names in code must exist, and roadmap work must be cited by name, not
#    by item number;
# 10. regenerates the committed bench data: `repro experiment all --scale
#    bench --csv` into a temporary directory, both files compared byte for
#    byte with data/experiments_bench.csv and
#    data/experiments_bench_observations.csv (~70 s on 2 CPUs), so the
#    claims' bench rows read what the code produces;
# 11. runs the reachability audit (scripts/reach.py --check): every tiny
#    experiment with its claims, one invocation per non-service CLI verb
#    and the nets (oracle grid and teeth, fuzz smoke and teeth, a
#    validation_level=2 run) execute under sys.setprofile, and the stage
#    fails when a function of src/repro is reached by none of them and is
#    not on the script's short allowlist with one of its fixed reasons,
#    when an allowlist entry no longer matches an unreached function, or
#    when docs/TESTING.md's per-module table is stale.  Every line of
#    src/ serves a claim, a net or a verb, or says why not.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1 tests (fast set) =="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q -m "not slow"

echo "== tier-1 tests (slow set) =="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q -m slow

echo "== benchmark smoke (vs committed BENCH_core.json) =="
python scripts/bench_baseline.py --check

echo "== bit-identity (case table + goldens + sweep fan-out + campaign slot + service lease + candidate memo) =="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q \
    tests/integration/test_fast_path_equivalence.py \
    tests/integration/test_detector_caching_equivalence.py \
    tests/integration/test_obs_equivalence.py \
    tests/golden \
    tests/metrics/test_fan_out.py::test_fan_out_matches_the_serial_sweep \
    tests/campaign/test_slots.py::TestOrderIndependence::test_one_slot_any_order_equals_fresh_processes \
    tests/campaign/test_service_slots.py::TestStoreBytes::test_two_local_slots_write_the_cold_drain_bytes_in_place \
    tests/routing/test_cache_keys.py::test_cached_candidates_match_fresh

echo "== end-to-end benchmark smoke (pinned seed-1 digests, default engine) =="
python3 benchmarks/e2e/run.py --smoke | grep "^=="

echo "== end-to-end benchmark harness tests =="
python -m pytest benchmarks/e2e -q

echo "== differential fuzz smoke (see docs/TESTING.md) =="
python scripts/fuzz_differential.py --smoke --quiet

echo "== model-checking oracle smoke (exhaustive detector verification) =="
python scripts/oracle_smoke.py

echo "== docs drift (API symbols, markdown links, code paths, topology coverage, config table, claims summary, roadmap citations) =="
python scripts/docs_check.py

echo "== committed bench data (regenerated, byte for byte) =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro experiment all \
    --scale bench --csv "$tmp/b.csv" > /dev/null
cmp "$tmp/b.csv" data/experiments_bench.csv
cmp "$tmp/b_observations.csv" data/experiments_bench_observations.csv

echo "== reachability audit (every src/ function reached by a claim, a net or a verb) =="
python scripts/reach.py --check

echo "ci_check: OK"
