"""Run every workload over a range of seeds and append each result to one file.

Usage, from the repository root::

    python3 perfbench/ledger.py --seeds 1-10 --out parent.jsonl

Each run is its own ``perfbench/run.py`` process, so peak memory and set-up
are per run.  Runs go seed by seed through the workloads, so a machine that
slows down for a while slows every workload alike.  The file holds one JSON
line per run, the input of ``perfbench/compare.py``; the spread of each
end-to-end metric is printed at the end.  The exit code is non-zero if any run
failed its checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import List

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.stats import quartiles, relative_spread  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> List[int]:
    """``"1-10"`` or ``"3,7,9"`` as a list of seeds."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [item["name"] for item in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    failures = 0
    for seed in args.seeds:
        for workload in args.workloads.split(","):
            command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", str(args.out)]
            start = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            elapsed = time.perf_counter() - start
            last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed} exit {done.returncode} in {elapsed:.1f} s: {last[0]}",
                  flush=True)
            if done.returncode != 0:
                failures += 1
                sys.stderr.write(done.stdout + done.stderr)

    rows = [json.loads(line) for line in args.out.read_text().splitlines() if line.strip()]
    for workload in args.workloads.split(","):
        runs = [row for row in rows if row["workload"] == workload and row["trace"] == args.trace]
        for name in runs[0]["metrics"] if runs else []:
            values = [row["metrics"][name]["value"] for row in runs]
            q1, q2, q3 = quartiles(values)
            print(f"{workload:<14} {name:<34} runs {len(values):>3}  median {q2:.6g}  "
                  f"Q1 {q1:.6g}  Q3 {q3:.6g}  spread {relative_spread(values):.3f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
