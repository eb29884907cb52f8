"""Unit tests for the density-estimation substrate (KDE and region mass)."""

import copy
import pickle

import numpy as np
import pytest

from repro.data.regions import Region
from repro.density.kde import TABLE_MAX_CELLS, GaussianKDE
from repro.density.region_mass import RegionMassEstimator
from repro.exceptions import NotFittedError, ValidationError


@pytest.fixture(scope="module")
def gaussian_cloud():
    rng = np.random.default_rng(8)
    return rng.normal(loc=[0.5, 0.5], scale=0.1, size=(3_000, 2))


@pytest.fixture(scope="module")
def uniform_cloud():
    rng = np.random.default_rng(9)
    return rng.uniform(size=(3_000, 2))


class TestGaussianKDE:
    def test_region_mass_of_whole_domain_close_to_one(self, uniform_cloud):
        kde = GaussianKDE().fit(uniform_cloud)
        big = Region.from_bounds([-2.0, -2.0], [3.0, 3.0])
        assert kde.region_mass(big) == pytest.approx(1.0, abs=1e-3)

    def test_region_mass_monotone_in_region_size(self, gaussian_cloud):
        kde = GaussianKDE().fit(gaussian_cloud)
        small = Region([0.5, 0.5], [0.05, 0.05])
        large = Region([0.5, 0.5], [0.2, 0.2])
        assert kde.region_mass(large) > kde.region_mass(small)

    def test_region_mass_batch_matches_single(self, gaussian_cloud):
        kde = GaussianKDE().fit(gaussian_cloud)
        regions = [Region([0.5, 0.5], [0.1, 0.1]), Region([0.2, 0.8], [0.05, 0.05])]
        lowers = np.stack([region.lower for region in regions])
        uppers = np.stack([region.upper for region in regions])
        batch = kde.region_mass_batch(lowers, uppers)
        singles = [kde.region_mass(region) for region in regions]
        np.testing.assert_allclose(batch, singles, rtol=1e-10)

    def test_mass_roughly_matches_empirical_fraction(self, uniform_cloud):
        kde = GaussianKDE().fit(uniform_cloud)
        region = Region.from_bounds([0.2, 0.2], [0.6, 0.6])
        empirical = np.mean(
            np.all((uniform_cloud >= region.lower) & (uniform_cloud <= region.upper), axis=1)
        )
        assert kde.region_mass(region) == pytest.approx(empirical, abs=0.05)

    def test_subsampling_keeps_dim_and_works(self, uniform_cloud):
        kde = GaussianKDE(max_samples=200, random_state=0).fit(uniform_cloud)
        assert kde.dim == 2
        assert kde._samples.shape[0] == 200

    def test_fixed_bandwidth_scalar_and_vector(self, uniform_cloud):
        scalar = GaussianKDE(bandwidth=0.1).fit(uniform_cloud)
        np.testing.assert_allclose(scalar.bandwidths_, [0.1, 0.1])
        vector = GaussianKDE(bandwidth=np.array([0.1, 0.2])).fit(uniform_cloud)
        np.testing.assert_allclose(vector.bandwidths_, [0.1, 0.2])

    def test_silverman_rule_accepted(self, uniform_cloud):
        kde = GaussianKDE(bandwidth="silverman").fit(uniform_cloud)
        assert np.all(kde.bandwidths_ > 0)

    def test_invalid_bandwidth_rejected(self, uniform_cloud):
        with pytest.raises(ValidationError):
            GaussianKDE(bandwidth="unknown-rule").fit(uniform_cloud)
        with pytest.raises(ValidationError):
            GaussianKDE(bandwidth=-0.5).fit(uniform_cloud)

    def test_unfitted_usage_raises(self):
        with pytest.raises(NotFittedError):
            GaussianKDE().region_mass(Region([0.5, 0.5], [0.1, 0.1]))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValidationError):
            GaussianKDE().fit(np.ones((1, 2)))


class TestRegionMassEstimator:
    def test_kde_method(self, gaussian_cloud):
        estimator = RegionMassEstimator().fit(gaussian_cloud)
        assert estimator.region_mass(Region([0.5, 0.5], [0.2, 0.2])) > 0.5

    def test_floor_applied(self, gaussian_cloud):
        estimator = RegionMassEstimator(floor=1e-3).fit(gaussian_cloud)
        far_away = Region([30.0, 30.0], [0.01, 0.01])
        assert estimator.region_mass(far_away) == pytest.approx(1e-3)

    def test_mass_of_vectors_matches_scalar(self, gaussian_cloud):
        estimator = RegionMassEstimator().fit(gaussian_cloud)
        regions = [Region([0.5, 0.5], [0.1, 0.1]), Region([0.1, 0.9], [0.05, 0.05])]
        vectors = np.stack([region.to_vector() for region in regions])
        batch = estimator.mass_of_vectors(vectors)
        singles = [estimator.region_mass(region) for region in regions]
        np.testing.assert_allclose(batch, singles, rtol=1e-10)

    def test_invalid_floor_rejected(self):
        with pytest.raises(ValidationError):
            RegionMassEstimator(floor=0.0)

    def test_unfitted_usage_raises(self):
        with pytest.raises(NotFittedError):
            RegionMassEstimator().region_mass(Region([0.5], [0.1]))


def _random_boxes(rng, samples, count):
    """Boxes around and beyond the data: some inside, some partly or wholly
    off the tabulated grid."""
    low, high = samples.min(axis=0), samples.max(axis=0)
    span = high - low
    centres = rng.uniform(low - 0.5 * span, high + 0.5 * span, size=(count, samples.shape[1]))
    halves = rng.uniform(0.0, 0.5, size=centres.shape) * span * rng.uniform(1e-3, 1.0, size=(count, 1))
    return centres - halves, centres + halves


class TestTabulatedCDF:
    """The fit-time CDF table against the exact per-sample sum, its oracle."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("shape", ["normal", "uniform"])
    def test_table_matches_exact_sum(self, dim, shape):
        rng = np.random.default_rng(dim)
        points = rng.normal(size=(1_000, dim)) if shape == "normal" else rng.uniform(size=(1_000, dim))
        kde = GaussianKDE().fit(points * np.arange(1, dim + 1))
        assert kde._table is not None
        lowers, uppers = _random_boxes(rng, kde._samples, 5_000)
        np.testing.assert_allclose(
            kde.region_mass_batch(lowers, uppers), kde._exact_mass_batch(lowers, uppers),
            rtol=0.0, atol=2e-4,
        )

    def test_infinite_and_nan_corners(self, gaussian_cloud):
        kde = GaussianKDE().fit(gaussian_cloud)
        inf = np.inf
        lowers = np.array([[-inf, -inf], [-inf, 0.5], [0.4, -inf], [np.nan, 0.4], [0.4, 0.4]])
        uppers = np.array([[inf, inf], [inf, inf], [0.6, 0.55], [0.6, 0.6], [0.6, np.nan]])
        table = kde.region_mass_batch(lowers, uppers)
        exact = kde._exact_mass_batch(lowers, uppers)
        assert np.array_equal(np.isnan(table), [False, False, False, True, True])
        np.testing.assert_allclose(table, exact, rtol=0.0, atol=2e-4, equal_nan=True)

    def test_box_wholly_off_the_grid_has_exactly_zero_mass(self, gaussian_cloud):
        kde = GaussianKDE().fit(gaussian_cloud)
        inf = np.inf
        lowers = np.array([[5.0, 0.4], [0.4, -9.0], [-inf, 30.0]])
        uppers = np.array([[6.0, 0.6], [0.6, -8.0], [inf, inf]])
        assert np.array_equal(kde.region_mass_batch(lowers, uppers), np.zeros(3))

    @pytest.mark.parametrize("dim", [3, 4])
    def test_three_and_more_dimensions_keep_the_exact_sum(self, dim):
        rng = np.random.default_rng(dim)
        kde = GaussianKDE().fit(rng.uniform(size=(400, dim)))
        assert kde._table is None
        lowers, uppers = _random_boxes(rng, kde._samples, 50)
        assert np.array_equal(
            kde.region_mass_batch(lowers, uppers), kde._exact_mass_batch(lowers, uppers)
        )

    def test_bandwidth_too_small_for_the_budget_keeps_the_exact_sum(self, uniform_cloud):
        kde = GaussianKDE(bandwidth=1e-3).fit(uniform_cloud)
        assert kde._table is None
        lowers, uppers = _random_boxes(np.random.default_rng(3), kde._samples, 50)
        assert np.array_equal(
            kde.region_mass_batch(lowers, uppers), kde._exact_mass_batch(lowers, uppers)
        )

    def test_table_within_budget(self, gaussian_cloud):
        kde = GaussianKDE().fit(gaussian_cloud)
        assert kde._table.values.size <= TABLE_MAX_CELLS
        assert np.all(kde._table.step <= kde.bandwidths_ / 10)

    def test_same_samples_give_bit_identical_tables(self, gaussian_cloud):
        first = GaussianKDE().fit(gaussian_cloud)._table
        second = GaussianKDE().fit(gaussian_cloud.copy())._table
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.origin, second.origin)
        assert np.array_equal(first.step, second.step)

    def test_pickle_round_trip_gives_equal_masses(self, gaussian_cloud):
        kde = GaussianKDE().fit(gaussian_cloud)
        restored = pickle.loads(pickle.dumps(kde))
        lowers, uppers = _random_boxes(np.random.default_rng(4), kde._samples, 200)
        assert np.array_equal(
            restored.region_mass_batch(lowers, uppers), kde.region_mass_batch(lowers, uppers)
        )

    def test_kde_pickled_without_table_tabulates_on_load(self, gaussian_cloud):
        kde = GaussianKDE().fit(gaussian_cloud)
        legacy = copy.copy(kde)
        del legacy.__dict__["_table"]
        restored = pickle.loads(pickle.dumps(legacy))
        assert np.array_equal(restored._table.values, kde._table.values)
        unfitted = pickle.loads(pickle.dumps(GaussianKDE()))
        assert unfitted._table is None

    def test_default_surf_fit_reads_the_table(self, fitted_surf, density_query, monkeypatch):
        assert fitted_surf.density_._estimator._table is not None

        def exact_sum_called(*_args):
            raise AssertionError("a default 2-D find reached the exact sum")

        monkeypatch.setattr(GaussianKDE, "_exact_mass_batch", exact_sum_called)
        assert fitted_surf.find_regions(density_query).proposals
