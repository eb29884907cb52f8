"""The repository benchmark: three workloads against the public ``repro`` API.

Run it from the repository root with ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; ``BENCHMARK.json`` names the
workloads and metrics, ``perfbench/design.json`` records why each workload
exists and which per-layer metric should move which end-to-end metric.
``perfbench/ledger.py`` runs every workload over a range of seeds into one
file, and ``perfbench/compare.py`` diffs two such files.  The arithmetic
tests run with ``PYTHONPATH=src python -m pytest perfbench``.
"""
