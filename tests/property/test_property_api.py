"""Property tests for the repro.api front door.

Three layers of guarantees:

1. **Envelope round-trips** — any valid :class:`FindRequest` /
   :class:`FindResponse` survives ``to_dict``/``from_dict`` and
   ``to_json``/``from_json`` losslessly (floats included: Python's float
   repr round-trips exactly).
2. **Registry laws** — ``register`` is idempotent for the same factory,
   conflicting registrations never silently shadow, and ``resolve`` is stable
   across repeated calls.
3. **Seeded bit-identity vs the PR 4 monolith** — a 16-query burst served by
   :class:`ServiceKernel` (as one batch, as sequential singles, and after a
   refresh) returns results bit-identical to the frozen pre-refactor service
   (``tests/helpers/legacy_service.py``): same statuses, same regions, same
   objective values, same counters.
"""

import json
import string

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from legacy_service import LegacySuRFService
from repro.api import FindRequest, FindResponse, ProposalPayload, Registry, ServiceKernel
from repro.core.query import RegionQuery
from repro.exceptions import ValidationError

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)
sane_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=0.0, max_value=1e6)
names = st.text(alphabet=string.ascii_lowercase + string.digits + "-_/", min_size=1, max_size=24)


# --------------------------------------------------------------------------- envelopes
class TestEnvelopeRoundTrip:
    @given(
        threshold=finite_floats,
        direction=st.sampled_from(["above", "below"]),
        size_penalty=sane_floats,
        model=names,
        max_proposals=st.one_of(st.none(), st.integers(min_value=1, max_value=50)),
        trace_id=st.one_of(st.none(), st.text(max_size=32)),
    )
    def test_request_dict_and_json_round_trip(
        self, threshold, direction, size_penalty, model, max_proposals, trace_id
    ):
        request = FindRequest(
            threshold=threshold,
            direction=direction,
            size_penalty=size_penalty,
            model=model,
            max_proposals=max_proposals,
            trace_id=trace_id,
        )
        assert FindRequest.from_dict(request.to_dict()) == request
        assert FindRequest.from_json(request.to_json()) == request
        # And the JSON form is plain data: stable under a second encode/decode.
        assert json.loads(json.dumps(request.to_dict())) == request.to_dict()

    @given(
        status=st.sampled_from(["served", "cached", "rejected"]),
        satisfiability=st.floats(allow_nan=False, allow_infinity=False, min_value=0, max_value=1),
        elapsed=sane_floats,
        generation=st.integers(min_value=0, max_value=1000),
        model=names,
        centers=st.lists(
            st.tuples(finite_floats, finite_floats), min_size=0, max_size=4
        ),
    )
    def test_response_dict_and_json_round_trip(
        self, status, satisfiability, elapsed, generation, model, centers
    ):
        proposals = tuple(
            ProposalPayload(
                center=center,
                half_lengths=(0.5, 0.25),
                predicted_value=float(index),
                objective_value=float(index) / 2.0,
                support=index + 1,
            )
            for index, center in enumerate(centers)
        )
        response = FindResponse(
            model=model,
            status=status,
            satisfiability=satisfiability,
            proposals=proposals,
            elapsed_seconds=elapsed,
            generation=generation,
        )
        assert FindResponse.from_dict(response.to_dict()) == response
        assert FindResponse.from_json(response.to_json()) == response

    @given(threshold=finite_floats, size_penalty=sane_floats)
    def test_request_query_round_trip_matches_normalisation(self, threshold, size_penalty):
        query = RegionQuery(threshold=threshold, size_penalty=size_penalty)
        request = FindRequest.from_query(query)
        assert request.query() == query


# --------------------------------------------------------------------------- registry laws
class TestRegistryProperties:
    @given(name=names)
    def test_register_resolve_is_idempotent(self, name):
        registry = Registry("thing")
        registry.register(name, dict)
        registry.register(name, dict)  # same object: no-op
        assert registry.resolve(name) is dict
        assert registry.resolve(name) is registry.resolve(name)
        assert len(registry) == 1

    @given(name=names)
    def test_conflicts_never_silently_shadow(self, name):
        registry = Registry("thing")
        registry.register(name, dict)
        with pytest.raises(ValidationError):
            registry.register(name, list)
        assert registry.resolve(name) is dict  # the original binding survives

    @given(entries=st.lists(names, min_size=1, max_size=8, unique=True))
    def test_names_reports_every_registration_sorted(self, entries):
        registry = Registry("thing")
        for entry in entries:
            registry.register(entry, dict)
        assert registry.names() == tuple(sorted(set(entries)))


# --------------------------------------------------------------------------- bit-identity vs PR 4
def responses_identical(legacy, modern) -> None:
    """Statuses, satisfiability and full proposals must match bitwise.

    ``legacy`` holds the monolith's responses, ``modern`` the kernel's
    :class:`FindResponse` envelopes: proposals are compared through the
    envelope's result handle (regions, predictions, objectives, support) and
    through its serialisable payloads.
    """
    assert len(legacy) == len(modern)
    for before, after in zip(legacy, modern):
        assert after.status == before.status
        assert float(after.satisfiability) == float(before.satisfiability)
        after_proposals = after.result.proposals if after.result is not None else []
        assert len(after.proposals) == len(after_proposals) == len(before.proposals)
        for lhs, rhs, payload in zip(before.proposals, after_proposals, after.proposals):
            assert np.array_equal(lhs.region.to_vector(), rhs.region.to_vector())
            assert lhs.predicted_value == rhs.predicted_value
            assert lhs.objective_value == rhs.objective_value
            assert lhs.support == rhs.support
            assert np.array_equal(np.asarray(lhs.region.center), np.asarray(payload.center))
            assert np.array_equal(
                np.asarray(lhs.region.half_lengths), np.asarray(payload.half_lengths)
            )


@pytest.fixture(scope="module")
def burst(fitted_surf):
    """A seeded 16-query burst: 4 distinct satisfiable thresholds (repeated,
    as heavy analyst traffic repeats), plus a hopeless one."""
    model = fitted_surf.satisfiability_
    templates = [
        RegionQuery(threshold=float(model.quantile(q)), direction="above")
        for q in np.linspace(0.60, 0.85, 4)
    ]
    hopeless = RegionQuery(threshold=float(model.quantile(1.0)) * 10, direction="above")
    queries = [templates[i % 4] for i in range(15)] + [hopeless]
    assert len(queries) == 16
    return queries


class TestLegacyEquivalence:
    def test_kernel_batch_is_bit_identical_to_pr4_service(self, fitted_surf, burst):
        legacy = LegacySuRFService(fitted_surf).find_regions_batch(burst)
        modern = ServiceKernel(fitted_surf).handle_batch(burst)
        responses_identical(legacy, modern)

    def test_sequential_singles_are_bit_identical_too(self, fitted_surf, burst):
        legacy_service = LegacySuRFService(fitted_surf)
        kernel = ServiceKernel(fitted_surf)
        legacy = [legacy_service.find_regions(query) for query in burst]
        modern = [kernel.handle(query) for query in burst]
        responses_identical(legacy, modern)

    def test_counters_match_the_pr4_service(self, fitted_surf, burst):
        legacy_service = LegacySuRFService(fitted_surf)
        kernel = ServiceKernel(fitted_surf)
        legacy_service.find_regions_batch(burst)
        kernel.handle_batch(burst)
        # The modern stats surface is a strict superset: every PR 4 counter
        # must match bit-for-bit, and the load-control counters (which the
        # frozen monolith predates) must stay zero without load-control
        # middleware in the chain.
        legacy_stats = legacy_service.stats.as_dict()
        modern_stats = kernel.stats.as_dict()
        assert {key: modern_stats[key] for key in legacy_stats} == legacy_stats
        extra = set(modern_stats) - set(legacy_stats)
        assert extra == {"throttled", "shed", "timeouts", "errors", "since_refresh"}
        assert all(
            modern_stats[key] == 0 for key in extra if key != "since_refresh"
        )
        # Never refreshed, so the since-refresh window is the lifetime view.
        window = modern_stats["since_refresh"]
        assert all(window[key] == legacy_stats[key] for key in legacy_stats)

    def test_refresh_hot_swap_matches_the_pr4_service(
        self, fitted_surf, burst, density_engine
    ):
        from repro.online import QueryLog
        from repro.surrogate.workload import generate_workload

        pairs = list(generate_workload(density_engine, 60, random_state=77))
        legacy_service = LegacySuRFService(fitted_surf, query_log=QueryLog(capacity=500))
        kernel = ServiceKernel(fitted_surf, query_log=QueryLog(capacity=500))
        legacy_service.observe_many(pairs)
        kernel.observe_many(pairs)
        assert legacy_service.refresh().mode == kernel.refresh().mode
        assert legacy_service.generation == kernel.generation == 1
        responses_identical(
            legacy_service.find_regions_batch(burst),
            kernel.handle_batch(burst),
        )
