"""End-to-end + per-layer performance ledger (see README.md in this directory).

Entry point: ``python3 benchmarks/e2e/run.py``; registered in the root
``BENCHMARK.json``.
"""
