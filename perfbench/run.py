"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_find --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` reports the per-layer metrics instead: it runs the workload
once untraced, then installs span wrappers around each layer's entry points
and runs it again from a fresh set-up with the same seed (spans go to
``.perfbench/``); ``trace.overhead_pct`` is the difference between the two
runs' ``p50_ms``.  Each traced or untraced pass sets up once.  Lines
before the last print every measured quantity under the name the workload
gives it (``find_p50_ms``, ``hit_p99_ms``, ``max_qps``, ``refresh_p50_s`` ...),
with its unit, and each correctness check; the last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every correctness check held.
``--out FILE`` also appends the result, tagged with workload, seed and trace
and with the printed figures, to a JSON-lines file that
``perfbench/compare.py`` reads; ``perfbench/ledger.py`` runs every workload
over a range of seeds that way.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold_find", "hot_serve", "refresh_storm")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run it from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    config = json.loads((ROOT / "BENCHMARK.json").read_text())

    from perfbench import layers, tracing, worlds
    from perfbench.workloads import WORKLOADS as RUNNERS

    runner = RUNNERS[args.workload]
    tracer = tracing.Tracer()
    if args.trace:
        baseline = runner(args.seed, args.seconds, tracing.Tracer(), setups=1)
        tracing.install(tracer)
        try:
            outcome = runner(args.seed, args.seconds, tracer, setups=1)
        finally:
            tracer.uninstall()
        outcome.layer["trace.overhead_pct"] = 100.0 * (
            outcome.metrics["p50_ms"] / baseline.metrics["p50_ms"] - 1.0
        )
        outcome.checks[:0] = [(f"untraced: {text}", ok) for text, ok in baseline.checks]
        outcome.attempted += baseline.attempted
        outcome.failed += baseline.failed
    else:
        outcome = runner(args.seed, args.seconds, tracer)
    outcome.metrics["peak_rss_mb"] = worlds.peak_rss_mb()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, value, unit in outcome.named:
        print(f"  {name:<28} {value} {unit}")
    print(f"  {'setup_s':<28} {outcome.metrics['setup_s']} s")
    print(f"  {'peak_rss_mb':<28} {outcome.metrics['peak_rss_mb']} MB")

    if args.trace:
        print(f"  {'untraced p50_ms':<28} {baseline.metrics['p50_ms']} ms")
        names = [metric["name"] for metric in config["per_layer"]]
        values = layers.layer_metrics(tracer, outcome.layer, names)
        if args.workload == "cold_find":
            outcome.checks.append((
                "the reported per-find layer times sum to the find_regions span within 5%",
                abs(values["trace.self_sum_pct"] - 100.0) <= 5.0,
            ))
        units = {metric["name"]: metric["unit"] for metric in config["per_layer"]}
        tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json")
    else:
        values = outcome.metrics
        units = {metric["name"]: metric["unit"] for metric in config["end_to_end"]}
    for description, ok in outcome.checks:
        print(f"  check {'ok    ' if ok else 'FAILED'} {description}")

    correct = all(ok for _description, ok in outcome.checks)
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    if args.out is not None:
        with open(args.out, "a") as handle:
            tagged = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **result,
                      "measured": {name: value for name, value, _unit in outcome.named
                                   if isinstance(value, float)}}
            handle.write(json.dumps(tagged) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
