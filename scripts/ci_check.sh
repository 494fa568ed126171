#!/usr/bin/env bash
# Tier-1 gate: full test suite, benchmark smoke, differential fuzz smoke.
#
#   scripts/ci_check.sh
#
# 1. runs the fast test set (everything not marked `slow`) for quick signal;
# 2. runs the `slow`-marked tests in a separate pass;
# 3. regenerates the benchmark numbers in quick mode and fails when a
#    scenario's production/legacy speedup regressed >20% against the
#    committed BENCH_core.json (or when the default engine's speedup fell
#    below its 5x acceptance bar on the saturated scenario, or below the
#    speedup of the fast path it replaced, or the as-shipped census pass
#    is not >=1.5x faster than the frozen cost it had before the
#    detector's contracted pipeline became the default, or the campaign
#    layer's fan-out regime — 48 tiny points — reads a cold drain at one
#    worker above 1.35x the direct serial run or a service drain on two
#    slots above 1.5x the cold drain at two workers); on failure the
#    per-phase time breakdown is printed alongside the committed one so
#    the regressing phase is visible at a glance;
# 4. runs the observability smoke gate: a pinned traced scenario whose
#    exported Chrome/JSONL traces must parse with the expected span names,
#    plus the <=10% overhead bound for obs_level=1 and the <=100% phase
#    share check, which also requires the default config's profile to carry
#    the detector's detect/knots + detect/census phases
#    (scripts/obs_smoke.py);
# 5. runs the legacy / production bit-identity gate: the equivalence
#    suite (k-ary n-cubes and the topology zoo, post-run RNG state
#    included) and the golden-trace digests, which both engines must
#    reproduce verbatim;
# 6. runs the end-to-end benchmark smoke: the five workloads of the repo
#    benchmark at tiny sizes on the default engine, every point checked
#    against the seed-1 digests pinned in benchmarks/e2e;
# 7. runs the benchmark harness's own tests (benchmarks/e2e is outside
#    pytest's testpaths): among them the one that reads the
#    implementation-selection config fields by name — the reason the three
#    inert engine_kernels / engine_vectorized / cwg_maintenance fields
#    still exist;
# 8. runs the differential fuzz smoke sweep: 25 seeded random configs
#    cross-checked on the engine/detector axes under a 90 s budget
#    (deterministic — a CI failure replays locally with the same command);
# 9. runs the model-checking oracle smoke gate: every configuration class
#    of the oracle grid enumerated to full closure, the knot detector
#    cross-checked against reachability ground truth at every reachable
#    state, closure sizes pinned against drift, and the fault-injection
#    teeth battery proven to bite (scripts/oracle_smoke.py);
# 10. runs the campaign smoke gate: a 2-point campaign interrupted after one
#    point, resumed, and checked bit-identical against a direct sweep with
#    a consistent store manifest, neither run forking more slot processes
#    than it has workers (scripts/campaign_smoke.py);
# 11. runs the distributed campaign smoke gate: a localhost scheduler, two
#    TCP worker subprocesses, one SIGKILLed mid-point — the lease must be
#    requeued and finished by the survivor, the manifest must stay
#    consistent and rebuildable, the drained store must be bit-identical
#    to a single-host run, and slot_forks must stay <= workers on both
#    (scripts/serve_smoke.py);
# 12. runs the documentation drift gate: every repro.* symbol named in
#    docs/API.md must resolve against the live package, every relative
#    markdown link in the repo must point at an existing file, and every
#    Topology subclass / CLI --topology choice must be documented in
#    docs/TOPOLOGIES.md, and docs/API.md's SimulationConfig table must
#    list every field exactly as rendered from the config's field table.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1 tests (fast set) =="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q -m "not slow"

echo "== tier-1 tests (slow set) =="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q -m slow

echo "== benchmark smoke (vs committed BENCH_core.json) =="
python scripts/bench_baseline.py --check

echo "== observability smoke (trace schema + overhead gate) =="
python scripts/obs_smoke.py

echo "== legacy / production bit-identity =="
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q \
    tests/integration/test_fast_path_equivalence.py \
    tests/golden

echo "== end-to-end benchmark smoke (pinned seed-1 digests, default engine) =="
python3 benchmarks/e2e/run.py --smoke | grep "^=="

echo "== end-to-end benchmark harness tests =="
python -m pytest benchmarks/e2e -q

echo "== differential fuzz smoke (see docs/TESTING.md) =="
python scripts/fuzz_differential.py --smoke --quiet

echo "== model-checking oracle smoke (exhaustive detector verification) =="
python scripts/oracle_smoke.py

echo "== campaign smoke (interrupt / resume / bit-identical merge) =="
python scripts/campaign_smoke.py

echo "== distributed serve smoke (2 workers, 1 crash, bit-identical drain) =="
python scripts/serve_smoke.py

echo "== docs drift (API symbols, markdown links, topology coverage, config table) =="
python scripts/docs_check.py

echo "ci_check: OK"
