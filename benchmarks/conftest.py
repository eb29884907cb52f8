"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
scale (see ``repro.experiments.config``), attaches the resulting rows to
``benchmark.extra_info`` and prints them, so running

    pytest benchmarks/ --benchmark-only -s

reproduces the series the paper reports alongside the timing data.
Set ``REPRO_BENCH_SCALE=medium`` (or ``paper``) for larger runs.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.experiments.config import get_scale

# The test-only oracles in tests/helpers: the API benchmark compares the
# middleware chain against the frozen serving monolith (legacy_service.py), the
# movement microbenchmarks time the GSO kernel against the per-particle loop
# (gso_reference.py), and the compiled-inference benchmarks time the tree
# kernel against the recursive walk (recursive_predict.py).
HELPERS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "tests", "helpers")
if HELPERS_DIR not in sys.path:
    sys.path.insert(0, HELPERS_DIR)


@pytest.fixture(scope="session")
def bench_scale():
    """Experiment scale used by all benchmarks (``REPRO_BENCH_SCALE`` env var)."""
    return get_scale(os.environ.get("REPRO_BENCH_SCALE", "small"))


#: Where rendered tables land; ignored by git, rewritten on every run.
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Result files already started by this pytest session.
_STARTED_RESULTS = set()


def write_results(name, text):
    """Print a rendered table and save it to ``benchmarks/results/<name>.txt``.

    The file survives pytest's output capture and holds the latest session
    only: the first table a session writes under ``name`` replaces the file,
    later ones (a table and its summary) are appended, so repeated runs never
    grow it (the directory is git-ignored).
    """
    print("\n" + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    mode = "a" if name in _STARTED_RESULTS else "w"
    _STARTED_RESULTS.add(name)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), mode, encoding="utf-8") as handle:
        handle.write(text + "\n\n")


def attach_rows(benchmark, rows, title):
    """Store experiment rows on the benchmark record and write them with
    :func:`write_results` under the benchmark's name."""
    from repro.experiments.reporting import format_table

    if isinstance(rows, dict):
        benchmark.extra_info.update(
            {str(key): str(value) for key, value in rows.items() if not hasattr(value, "shape")}
        )
        printable = [{"metric": key, "value": value} for key, value in rows.items() if not hasattr(value, "shape")]
        text = format_table(printable, title=title)
    else:
        benchmark.extra_info["rows"] = len(rows)
        text = format_table(rows, title=title)
    write_results(getattr(benchmark, "name", None) or "benchmark", text)
