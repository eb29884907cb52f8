"""Inputs and fitted tenants for the workloads, built only through the public API.

The datasets and the models fitted on them are fixed: they are seeded by
:data:`DATA_SEED`, not by the run's seed.  They are the state of the system
under test, like a database's contents.  The run's seed draws the query
stream (thresholds, tenants, repeats), so runs with different seeds differ in
what is asked, and quality metrics measure the code rather than the data.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.finder import SuRF
from repro.data.engine import DataEngine
from repro.data.synthetic import SyntheticDataset, make_synthetic_dataset
from repro.experiments.common import fit_surf
from repro.experiments.config import SMALL

#: Set-ups per untraced hot_serve and refresh_storm run (cold_find has its own
#: count); ``setup_s`` is their median and the last one is measured.  Each
#: pass of a traced run sets up once.
SETUPS = 3


@dataclass
class Tenant:
    """One dataset × statistic pair with its engine and fitted finder."""

    name: str
    synthetic: SyntheticDataset
    engine: DataEngine
    finder: SuRF


#: name → (statistic, d); both tenants plant two regions.
TENANT_SHAPES = {"density-2d": ("density", 2), "average-3d": ("aggregate", 3)}


#: Seed of every dataset, workload and surrogate fit.
DATA_SEED = 7


def build_tenant(name: str, num_points: int) -> Tenant:
    """Synthetic data, an exact numpy engine and a SuRF fitted by the Table-I protocol.

    ``fit_surf`` at the ``small`` scale: the default ``"boosting"`` family,
    W = 600 · 2^(d-1) past evaluations, KDE guidance on a 1,000-row sample and
    a 60-particle × 40-iteration swarm.
    """
    statistic, dim = TENANT_SHAPES[name]
    data_seed = DATA_SEED * 1_000 + 17 * dim + (1 if statistic == "aggregate" else 0)
    synthetic = make_synthetic_dataset(
        statistic=statistic, dim=dim, num_regions=2, num_points=num_points,
        random_state=data_seed,
    )
    engine = DataEngine(synthetic.dataset, synthetic.statistic)
    finder, _workload_size = fit_surf(engine, SMALL, random_state=data_seed)
    return Tenant(name, synthetic, engine, finder)


def timed_build(build: Callable[[], object]) -> Tuple[object, float]:
    """``build()`` and how long it took, timed after a full garbage collection."""
    gc.collect()
    start = time.perf_counter()
    product = build()
    return product, time.perf_counter() - start


def timed_setups(
    build: Callable[[], object], count: int = SETUPS,
    between: Optional[Callable[[object], None]] = None,
) -> Tuple[object, List[float]]:
    """Run ``build`` ``count`` times; return the last product and every duration.

    ``between(product)``, when given, runs on every product but the last,
    after its build is timed.  Each product is dropped before the next build
    starts, so peak memory reflects one world, not several.
    """
    durations: List[float] = []
    product = None
    for attempt in range(count):
        product = None
        product, seconds = timed_build(build)
        durations.append(seconds)
        if between is not None and attempt < count - 1:
            between(product)
    return product, durations


def eq5_thresholds(finder: SuRF, count: int, low: float = 0.6, high: float = 0.9) -> List[float]:
    """``count`` thresholds at evenly spaced Eq. 5 quantiles of the statistic."""
    model = finder.satisfiability_
    return [model.quantile(float(q)) for q in np.linspace(low, high, count)]


def hopeless_threshold(finder: SuRF) -> float:
    """A threshold far above every past evaluation, so Eq. 5 rejects it."""
    model = finder.satisfiability_
    top, bottom = model.quantile(1.0), model.quantile(0.0)
    return top + 10.0 * (top - bottom) + 1.0


def zipf_weights(count: int, exponent: float = 1.1) -> np.ndarray:
    weights = 1.0 / np.arange(1, count + 1) ** exponent
    return weights / weights.sum()


def fingerprint(proposals: Sequence) -> str:
    """Hash of every proposal's region, prediction, objective and support, bit for bit."""
    digest = hashlib.sha256()
    for proposal in proposals:
        region = proposal.region
        for value in (*region.center, *region.half_lengths,
                      proposal.predicted_value, proposal.objective_value):
            digest.update(float(value).hex().encode("ascii"))
        digest.update(str(int(proposal.support)).encode("ascii"))
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
