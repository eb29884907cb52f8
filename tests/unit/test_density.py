"""Unit tests for the density-estimation substrate (KDE and region mass)."""

import numpy as np
import pytest

from repro.data.regions import Region
from repro.density.kde import GaussianKDE
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
