"""Density-estimation substrate: the Gaussian KDE and its region mass.

SuRF approximates the data distribution ``p_A(a)`` with Kernel Density
Estimation (over a sample for large datasets) and uses the probability mass of
a candidate region under that estimate to steer glowworms away from empty
space (Eq. 8 of the paper).  A 1-D or 2-D KDE tabulates its joint CDF at fit
time, so a box mass is ``2^d`` interpolated table reads (~1e-4 from the exact
value); higher dimensions sum the closed form over the KDE's samples.
"""

from repro.density.kde import GaussianKDE
from repro.density.region_mass import RegionMassEstimator

__all__ = ["GaussianKDE", "RegionMassEstimator"]
