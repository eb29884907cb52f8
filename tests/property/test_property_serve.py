"""Property-based tests for the serving layer's normalisation and the query log.

Two invariants the online loop leans on, checked over generated inputs:

* :func:`repro.api.normalize_query` is idempotent and maps thresholds that
  differ only by sub-tolerance float noise (relative ~1e-13, far below any
  statistically meaningful digit) to one cache key — repeated analyst traffic
  lands on one cache entry even after serialisation round trips.
* ``QueryLog`` never exceeds its capacity under any record sequence, its
  monotone accounting (``total_recorded = len + dropped``) always balances,
  and the ``.npz`` persistence round trip is bit-lossless.
"""

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.api import normalize_query
from repro.core.query import RegionQuery
from repro.data.regions import Region
from repro.online import QueryLog
from repro.surrogate.workload import RegionEvaluation
from repro.utils.validation import canonical_float

thresholds = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False)
penalties = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)
directions = st.sampled_from(["above", "below"])


def queries():
    return st.builds(RegionQuery, threshold=thresholds, direction=directions, size_penalty=penalties)


# --------------------------------------------------------------------------- normalisation
@given(queries())
def test_normalize_query_is_idempotent(query):
    once = normalize_query(query)
    twice = normalize_query(once)
    assert once == twice
    assert type(once.threshold) is float
    assert type(once.size_penalty) is float


@given(queries())
def test_normalize_query_preserves_direction_and_tolerance(query):
    normalized = normalize_query(query)
    assert normalized.direction == query.direction
    # 12 significant digits: the canonical value is within relative 1e-11.
    if query.threshold != 0:
        assert abs(normalized.threshold - query.threshold) <= 1e-11 * abs(query.threshold)
    if query.size_penalty != 0:
        assert abs(normalized.size_penalty - query.size_penalty) <= 1e-11 * query.size_penalty


@given(
    base=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False),
    noise=st.floats(min_value=-1e-13, max_value=1e-13),
    direction=directions,
)
def test_cache_key_is_stable_under_float_noise_within_tolerance(base, noise, direction):
    # A threshold that is "coarse" at 6 significant digits sits on the interior
    # of its 12-digit rounding cell, so relative noise below 1e-13 cannot push
    # it across a cell boundary: both queries produce the same cache key.
    coarse = canonical_float(base, significant_digits=6)
    noisy = coarse * (1.0 + noise)
    clean_query = normalize_query(RegionQuery(threshold=coarse, direction=direction))
    noisy_query = normalize_query(RegionQuery(threshold=noisy, direction=direction))
    assert clean_query == noisy_query
    assert hash(clean_query) == hash(noisy_query)


@given(value=thresholds)
def test_canonical_float_is_idempotent(value):
    once = canonical_float(value)
    assert canonical_float(once) == once


# --------------------------------------------------------------------------- query log
def evaluation_batches():
    evaluation = st.builds(
        lambda center, value: RegionEvaluation(
            Region(np.array([center]), np.array([0.1])), value
        ),
        center=st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
        value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    )
    return st.lists(st.lists(evaluation, min_size=0, max_size=7), min_size=0, max_size=8)


@given(capacity=st.integers(min_value=1, max_value=10), batches=evaluation_batches())
def test_query_log_capacity_is_never_exceeded(capacity, batches):
    log = QueryLog(capacity=capacity)
    recorded = 0
    for batch in batches:
        log.record_many(batch)
        recorded += len(batch)
        assert len(log) <= capacity
        assert log.total_recorded == recorded
        assert log.dropped == recorded - len(log)
    # The retained entries are exactly the newest `len(log)` in record order.
    flattened = [evaluation for batch in batches for evaluation in batch]
    expected = flattened[-len(log) :] if len(log) else []
    assert [entry.value for entry in log.snapshot()] == [entry.value for entry in expected]


@given(
    features=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 20), st.sampled_from([2, 4, 6])),
        elements=st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
    ),
    targets_seed=st.integers(0, 2**31 - 1),
)
def test_query_log_persistence_round_trip_is_lossless(tmp_path_factory, features, targets_seed):
    rng = np.random.default_rng(targets_seed)
    targets = rng.normal(size=features.shape[0])
    dim = features.shape[1] // 2
    log = QueryLog(capacity=features.shape[0])
    for vector, target in zip(features, targets):
        half_lengths = np.abs(vector[dim:]) + 0.5  # strictly positive half lengths
        log.record(Region(vector[:dim], half_lengths), float(target))

    path = log.save(tmp_path_factory.mktemp("qlog") / "log.npz")
    restored = QueryLog.load(path, capacity=features.shape[0])

    original, reloaded = log.as_workload(), restored.as_workload()
    np.testing.assert_array_equal(original.features, reloaded.features)
    np.testing.assert_array_equal(original.targets, reloaded.targets)
