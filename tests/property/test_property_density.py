"""Property-based tests for the tabulated KDE CDF behind Eq. 8's box masses.

Multilinear interpolation of the sampled CDF is the CDF of the KDE's mass
spread uniformly over each grid cell, so masses read from the table must be
probabilities and monotone under containment, up to rounding, for boxes
anywhere: inside the data, across the grid's edge or wholly off it.
"""

import numpy as np
from hypothesis import given, strategies as st

from repro.density.kde import GaussianKDE

_RNG = np.random.default_rng(321)
_KDES = {
    1: GaussianKDE().fit(_RNG.normal(0.5, 0.2, size=(600, 1))),
    2: GaussianKDE().fit(np.column_stack([_RNG.uniform(size=600), _RNG.normal(0.5, 0.1, size=600)])),
}
assert all(kde._table is not None for kde in _KDES.values())

coordinate = st.floats(min_value=-1.5, max_value=2.5, allow_nan=False)
width = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
share = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)


@st.composite
def nested_boxes(draw):
    """An outer box and a box inside it, as ``(dim, outer, inner)`` corner pairs."""
    dim = draw(st.sampled_from([1, 2]))
    lower = np.array([draw(coordinate) for _ in range(dim)])
    upper = lower + np.array([draw(width) for _ in range(dim)])
    span = upper - lower
    inner_lower = lower + np.array([draw(share) for _ in range(dim)]) * span
    inner_upper = upper - np.array([draw(share) for _ in range(dim)]) * span
    inner_upper = np.maximum(inner_upper, inner_lower)
    return dim, (lower, upper), (inner_lower, inner_upper)


def _mass(dim, box):
    lower, upper = box
    return float(_KDES[dim].region_mass_batch(lower[None, :], upper[None, :])[0])


@given(nested_boxes())
def test_tabulated_mass_is_a_probability(boxes):
    dim, outer, inner = boxes
    for box in (outer, inner):
        assert -1e-12 <= _mass(dim, box) <= 1.0 + 1e-12


@given(nested_boxes())
def test_tabulated_mass_monotone_under_containment(boxes):
    dim, outer, inner = boxes
    assert _mass(dim, outer) >= _mass(dim, inner) - 1e-12


@given(nested_boxes())
def test_tabulated_mass_close_to_exact_sum(boxes):
    dim, outer, _inner = boxes
    lower, upper = outer
    exact = float(_KDES[dim]._exact_mass_batch(lower[None, :], upper[None, :])[0])
    assert abs(_mass(dim, outer) - exact) <= 2e-4
