"""Shared fixtures for the test suite.

Fixtures are session-scoped where the underlying object is immutable and
expensive to build (datasets, engines, trained surrogates) so the suite stays
fast; tests must not mutate them.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest
from hypothesis import settings

# Make the test-only oracles in tests/helpers importable from every suite: the
# frozen serving monolith (legacy_service.py), the bit-identity / overhead
# baseline of the API equivalence tests and benchmark, the per-particle GSO
# movement loop (gso_reference.py) the vectorised kernel is checked against,
# and the recursive tree walk (recursive_predict.py) the compiled tables are
# checked against.
HELPERS_DIR = os.path.join(os.path.dirname(__file__), "helpers")
if HELPERS_DIR not in sys.path:
    sys.path.insert(0, HELPERS_DIR)

# One registration point for the Hypothesis profiles (the property files used
# to each register their own, with import order picking the winner).  The
# "repro" profile is the local default; "ci" additionally derandomises so the
# property suite replays the exact same examples on every CI run.  Select with
# the HYPOTHESIS_PROFILE environment variable.
settings.register_profile("repro", max_examples=60, deadline=None)
settings.register_profile("ci", max_examples=60, deadline=None, derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))

from repro.core.finder import SuRF
from repro.core.query import RegionQuery
from repro.data.engine import DataEngine
from repro.data.dataset import Dataset
from repro.data.statistics import AverageStatistic, CountStatistic
from repro.data.synthetic import SyntheticConfig, make_synthetic_dataset
from repro.optim.gso import GSOParameters
from repro.surrogate.training import SurrogateTrainer
from repro.surrogate.workload import generate_workload
from repro.ml.boosting import GradientBoostingRegressor


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_density_synthetic():
    """A small 2-D density dataset with a single planted region."""
    config = SyntheticConfig(
        statistic="density", dim=2, num_regions=1, num_points=2_500, random_state=42
    )
    return make_synthetic_dataset(config)


@pytest.fixture(scope="session")
def multi_region_synthetic():
    """A small 1-D density dataset with three planted regions."""
    config = SyntheticConfig(
        statistic="density", dim=1, num_regions=3, num_points=3_000, random_state=7
    )
    return make_synthetic_dataset(config)


@pytest.fixture(scope="session")
def aggregate_synthetic():
    """A small 2-D aggregate dataset with a single planted region."""
    config = SyntheticConfig(
        statistic="aggregate", dim=2, num_regions=1, num_points=2_500, random_state=5
    )
    return make_synthetic_dataset(config)


@pytest.fixture(scope="session")
def density_engine(small_density_synthetic):
    return DataEngine(small_density_synthetic.dataset, small_density_synthetic.statistic)


@pytest.fixture(scope="session")
def aggregate_engine(aggregate_synthetic):
    return DataEngine(aggregate_synthetic.dataset, aggregate_synthetic.statistic)


@pytest.fixture(scope="session")
def density_workload(density_engine):
    return generate_workload(density_engine, 400, random_state=0)


@pytest.fixture(scope="session")
def small_gso_parameters():
    """A tiny swarm configuration used wherever a full run is unnecessary."""
    return GSOParameters(
        num_particles=30,
        num_iterations=25,
        min_iterations=5,
        convergence_patience=8,
        random_state=0,
    )


@pytest.fixture(scope="session")
def fast_trainer():
    """A quick gradient-boosting trainer for surrogate tests."""
    return SurrogateTrainer(
        estimator=GradientBoostingRegressor(n_estimators=40, max_depth=4, random_state=0),
        random_state=0,
    )


@pytest.fixture(scope="session")
def fitted_surf(density_engine, density_workload, fast_trainer, small_gso_parameters, small_density_synthetic):
    """A SuRF finder fitted on the small density dataset."""
    finder = SuRF(
        trainer=fast_trainer,
        gso_parameters=small_gso_parameters,
        random_state=0,
    )
    sample = (
        density_engine.dataset.sample(500, random_state=0)
        .select_columns(density_engine.region_columns)
        .values
    )
    finder.fit(density_workload, data_sample=sample)
    return finder


@pytest.fixture(scope="session")
def density_query(small_density_synthetic):
    return RegionQuery(
        threshold=small_density_synthetic.suggested_threshold(),
        direction="above",
        size_penalty=4.0,
    )


@pytest.fixture(scope="session")
def simple_dataset():
    """A tiny hand-built dataset with known contents."""
    values = np.array(
        [
            [0.1, 0.1, 1.0],
            [0.2, 0.2, 2.0],
            [0.8, 0.8, 3.0],
            [0.9, 0.9, 4.0],
            [0.5, 0.5, 5.0],
        ]
    )
    return Dataset(values, ["x", "y", "value"])
