"""Diff two benchmark result files: medians, quartiles and a verdict per metric.

Usage, from the repository root::

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the JSON lines ``perfbench/run.py --out FILE`` appends (one
per run, tagged with workload, seed and trace).  For every workload and every
end-to-end metric in ``BENCHMARK.json`` it prints the parent's and the
change's quartiles and one verdict:

``better``
    the change wins at least nine tenths of the runs paired by seed (ties
    count for neither) and the medians differ by more than the parent's
    interquartile distance; or every change run beats every parent run;
``unresolved``
    the parent's own spread (interquartile distance over median) is wider
    than the metric's bound, so a difference within it cannot be told apart;
``worse``
    the change's median is worse than the parent's by more than the bound;
``within bound``
    otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.stats import quartiles  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> Dict[str, List[dict]]:
    """Untraced runs per workload, in file order."""
    runs: Dict[str, List[dict]] = {}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if row.get("trace", 0) == 0:
                runs.setdefault(row["workload"], []).append(row)
    return runs


def paired(parent: List[dict], change: List[dict], metric: str) -> List[Tuple[float, float]]:
    """Runs paired by seed where both sides ran it, otherwise by position."""
    by_seed = {row["seed"]: row for row in parent}
    pairs = [
        (by_seed[row["seed"]]["metrics"][metric]["value"], row["metrics"][metric]["value"])
        for row in change
        if row["seed"] in by_seed
    ]
    if pairs:
        return pairs
    return [
        (old["metrics"][metric]["value"], new["metrics"][metric]["value"])
        for old, new in zip(parent, change)
    ]


def verdict(parent: Sequence[float], change: Sequence[float], pairs: Sequence[Tuple[float, float]],
            higher_is_better: bool, bound: float) -> str:
    """The ledger verdict for one workload × metric (see the module docstring)."""
    sign = 1.0 if higher_is_better else -1.0
    p1, p_med, p3 = quartiles(parent)
    _c1, c_med, _c3 = quartiles(change)
    wins = sum(1 for old, new in pairs if sign * (new - old) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > (p3 - p1):
        return "better"
    every_run_better = (
        min(change) > max(parent) if higher_is_better else max(change) < min(parent)
    )
    if every_run_better:
        return "better"
    spread = (p3 - p1) / abs(p_med) if p_med else float("inf")
    if spread > bound:
        return "unresolved"
    if sign * (c_med - p_med) < -bound * abs(p_med):
        return "worse"
    return "within bound"


def compare(parent_path: Path, change_path: Path, benchmark: dict) -> List[dict]:
    parent_runs, change_runs = load_runs(parent_path), load_runs(change_path)
    rows = []
    for workload in [item["name"] for item in benchmark["workloads"]]:
        parent, change = parent_runs.get(workload, []), change_runs.get(workload, [])
        if not parent or not change:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            old = [row["metrics"][name]["value"] for row in parent]
            new = [row["metrics"][name]["value"] for row in change]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "parent": quartiles(old),
                "change": quartiles(new),
                "runs": (len(old), len(new)),
                "verdict": verdict(old, new, paired(parent, change, name),
                                   metric["better"] == "higher", metric["bound"]),
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Diff two perfbench result files.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    benchmark = json.loads(args.benchmark.read_text())
    rows = compare(args.parent, args.change, benchmark)
    header = f"{'workload':<14} {'metric':<12} {'unit':<6} {'parent Q1/med/Q3':>32} {'change Q1/med/Q3':>32} {'runs':>7}  verdict"
    print(header)
    for row in rows:
        fmt = lambda q: "/".join(f"{value:.4g}" for value in q)  # noqa: E731
        runs = f"{row['runs'][0]}/{row['runs'][1]}"
        print(f"{row['workload']:<14} {row['metric']:<12} {row['unit']:<6} "
              f"{fmt(row['parent']):>32} {fmt(row['change']):>32} {runs:>7}  {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
