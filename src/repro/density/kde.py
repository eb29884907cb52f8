"""Gaussian kernel density estimation with product kernels.

The estimator uses a diagonal (per-dimension) bandwidth so that the
probability mass of an axis-aligned hyper-rectangle has a closed form as a
product of Gaussian CDF differences — exactly what Eq. 8 of the paper needs.

That closed form costs two ``ndtr`` calls per sample and dimension for every
box.  When it fits in :data:`TABLE_MAX_CELLS` grid points, ``fit`` therefore
tabulates the KDE's joint CDF ``F`` once on a uniform per-dimension grid that
spans the data plus :data:`TABLE_MARGIN` bandwidths on each side, with a step
of at most ``h / TABLE_STEPS_PER_BANDWIDTH``.  A box mass is then
inclusion–exclusion over the box's ``2^d`` corners, each corner read from the
table by multilinear interpolation clamped to the grid.  Multilinear
interpolation of a sampled CDF is exactly the CDF of the KDE's mass spread
uniformly over each grid cell, so tabulated masses stay in ``[0, 1]`` and
monotone under containment up to rounding; against the exact sum their error
is ~1e-4 absolute.  Every step of ``h / 10`` puts at least 161 points on each
axis, so only 1-D and 2-D fits ever get a table; higher dimensions, and fixed
bandwidths too small for the budget, keep the exact sum, which is also the
oracle the tests hold the table to.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np
from scipy.special import ndtr

from repro.data.regions import Region
from repro.exceptions import NotFittedError, ValidationError
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_array

#: Largest tabulated CDF, in grid points (2 MB of float64).
TABLE_MAX_CELLS = 2 ** 18
#: Bandwidths of grid beyond the data on each side; the KDE's CDF moves by
#: less than ``ndtr(-8) ≈ 6e-16`` past it.
TABLE_MARGIN = 8.0
#: Grid points per bandwidth: the grid step is at most ``h / 10``.
TABLE_STEPS_PER_BANDWIDTH = 10
#: Bound on the temporaries of one chunk of the table build, in float64
#: values (2 MB).
BUILD_CHUNK_VALUES = 250_000


class GaussianKDE:
    """Product-kernel Gaussian KDE with Scott/Silverman or fixed bandwidths.

    After ``fit``, every query method is read-only.

    Parameters
    ----------
    bandwidth:
        ``"scott"`` (default), ``"silverman"`` or a positive float / per-dimension
        array of bandwidth multipliers.
    max_samples:
        If the fitted data has more rows than this, a uniform subsample is used —
        mirroring the paper's note that the KDE is built "over a sample for
        large-scale datasets".
    random_state:
        Seed for the subsample.
    """

    def __init__(
        self,
        bandwidth: Union[str, float, np.ndarray] = "scott",
        max_samples: int = 20_000,
        random_state=None,
    ):
        self.bandwidth = bandwidth
        self.max_samples = int(max_samples)
        self.random_state = random_state

        self._samples: Optional[np.ndarray] = None
        self._bandwidths: Optional[np.ndarray] = None
        self._table: Optional[_CDFTable] = None

    def __setstate__(self, state: dict) -> None:
        # A KDE pickled before the table existed tabulates on load, so that no
        # query method ever writes to a fitted estimator.
        if "_table" not in state:
            samples = state.get("_samples")
            state["_table"] = (
                None if samples is None else _CDFTable.build(samples, state["_bandwidths"])
            )
        self.__dict__.update(state)

    # ------------------------------------------------------------------ fitting
    def fit(self, points) -> "GaussianKDE":
        """Fit the KDE to ``points`` of shape ``(n, d)`` and tabulate its CDF
        when the grid fits the budget."""
        points = check_array(points, name="points", ndim=2)
        if points.shape[0] < 2:
            raise ValidationError("at least two points are required to fit a KDE")
        if points.shape[0] > self.max_samples:
            rng = ensure_rng(self.random_state)
            rows = rng.choice(points.shape[0], size=self.max_samples, replace=False)
            points = points[rows]
        self._samples = points
        self._bandwidths = self._compute_bandwidths(points)
        self._table = _CDFTable.build(points, self._bandwidths)
        return self

    def _compute_bandwidths(self, points: np.ndarray) -> np.ndarray:
        num_samples, dim = points.shape
        spread = points.std(axis=0)
        spread = np.where(spread <= 0, 1e-6, spread)
        if isinstance(self.bandwidth, str):
            rule = self.bandwidth.lower()
            if rule == "scott":
                factor = num_samples ** (-1.0 / (dim + 4))
            elif rule == "silverman":
                factor = (num_samples * (dim + 2) / 4.0) ** (-1.0 / (dim + 4))
            else:
                raise ValidationError(
                    f"bandwidth must be 'scott', 'silverman' or a number, got {self.bandwidth!r}"
                )
            return factor * spread
        bandwidths = np.asarray(self.bandwidth, dtype=np.float64)
        if bandwidths.ndim == 0:
            bandwidths = np.full(dim, float(bandwidths))
        if bandwidths.shape != (dim,):
            raise ValidationError(f"bandwidth array must have shape ({dim},)")
        if np.any(bandwidths <= 0):
            raise ValidationError("bandwidths must be strictly positive")
        return bandwidths

    def _check_fitted(self) -> None:
        if self._samples is None:
            raise NotFittedError("GaussianKDE must be fitted before use")

    # ------------------------------------------------------------------ queries
    @property
    def dim(self) -> int:
        """Dimensionality of the fitted data."""
        self._check_fitted()
        return self._samples.shape[1]

    @property
    def bandwidths_(self) -> np.ndarray:
        """Fitted per-dimension bandwidths."""
        self._check_fitted()
        return self._bandwidths.copy()

    def region_mass(self, region: Region) -> float:
        """Probability mass of an axis-aligned region under the KDE."""
        self._check_fitted()
        if region.dim != self.dim:
            raise ValidationError(
                f"region has dimensionality {region.dim}, KDE has {self.dim}"
            )
        return float(self.region_mass_batch(region.lower[None, :], region.upper[None, :])[0])

    def region_mass_batch(self, lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
        """Probability mass of many axis-aligned boxes at once: read from the
        tabulated CDF when the fit built one, else the exact per-sample sum.

        Parameters
        ----------
        lowers / uppers:
            Arrays of shape ``(m, d)`` with the lower/upper corners of ``m`` boxes.
        """
        self._check_fitted()
        lowers = np.asarray(lowers, dtype=np.float64)
        uppers = np.asarray(uppers, dtype=np.float64)
        if lowers.ndim != 2 or lowers.shape != uppers.shape or lowers.shape[1] != self.dim:
            raise ValidationError(
                f"lowers and uppers must both have shape (m, {self.dim})"
            )
        if self._table is not None:
            return self._table.box_mass(lowers, uppers)
        return self._exact_mass_batch(lowers, uppers)

    def _exact_mass_batch(self, lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
        """The closed form: per sample, the product over dimensions of two
        normal-CDF differences, averaged over samples."""
        samples = self._samples
        bandwidths = self._bandwidths
        masses = np.empty(lowers.shape[0], dtype=np.float64)
        # Chunk over query boxes to bound the (m, n_samples, d) intermediate.
        chunk = max(1, int(2_000_000 / max(samples.shape[0], 1)))
        for start in range(0, lowers.shape[0], chunk):
            upper_z = (uppers[start : start + chunk, None, :] - samples[None, :, :]) / bandwidths
            lower_z = (lowers[start : start + chunk, None, :] - samples[None, :, :]) / bandwidths
            per_dim = ndtr(upper_z) - ndtr(lower_z)
            masses[start : start + chunk] = np.prod(per_dim, axis=2).mean(axis=1)
        return masses


class _CDFTable:
    """A KDE's joint CDF sampled on a uniform per-dimension grid.

    ``values[i_1, ..., i_d]`` is ``F(origin + i * step)``.  Built only through
    :meth:`build`, which returns ``None`` when the grid would exceed
    :data:`TABLE_MAX_CELLS` points.
    """

    def __init__(self, origin: np.ndarray, step: np.ndarray, values: np.ndarray):
        self.origin = origin
        self.step = step
        self.values = values

    @classmethod
    def build(cls, samples: np.ndarray, bandwidths: np.ndarray) -> Optional["_CDFTable"]:
        """Tabulate the product-kernel KDE of ``samples`` (shape ``(n, d)``).

        Per dimension ``j`` the kernel CDFs at the grid points form an
        ``(n, G_j)`` matrix ``C_j``; ``F`` is the sample mean of their outer
        products, i.e. one matmul of the row-wise (Khatri–Rao) product of
        ``C_1 .. C_{d-1}`` against ``C_d``.  Samples are processed in fixed
        chunks so the temporaries stay near ``BUILD_CHUNK_VALUES`` values, and the
        same samples always give a bit-identical table.
        """
        low = samples.min(axis=0) - TABLE_MARGIN * bandwidths
        high = samples.max(axis=0) + TABLE_MARGIN * bandwidths
        points = np.ceil((high - low) * TABLE_STEPS_PER_BANDWIDTH / bandwidths) + 1
        # A float product: a tiny fixed bandwidth must not overflow the count.
        if float(np.prod(points)) > TABLE_MAX_CELLS:
            return None
        shape = tuple(int(count) for count in points)
        step = (high - low) / (points - 1)
        axes = [low[j] + step[j] * np.arange(count) for j, count in enumerate(shape)]
        leading = int(np.prod(shape[:-1]))
        num_samples = samples.shape[0]
        values = np.zeros((leading, shape[-1]))
        chunk = max(1, BUILD_CHUNK_VALUES // (sum(shape) + leading))
        for start in range(0, num_samples, chunk):
            block = samples[start : start + chunk]
            rows = np.ones((block.shape[0], 1))
            for j in range(len(shape) - 1):
                cdf = _kernel_cdfs(axes[j], block[:, j], bandwidths[j])
                rows = (rows[:, :, None] * cdf[:, None, :]).reshape(block.shape[0], -1)
            values += rows.T @ _kernel_cdfs(axes[-1], block[:, -1], bandwidths[-1])
        values /= num_samples
        return cls(low, step, values.reshape(shape))

    def box_mass(self, lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
        """Masses of the boxes ``[lowers, uppers]`` (each ``(m, d)``).

        Corners off the grid (``±inf`` included) clamp to its edge, so a box
        wholly off the grid gets mass exactly 0.  A NaN corner gives a NaN
        mass.
        """
        num_boxes, dim = lowers.shape
        shape = self.values.shape
        last = np.asarray(shape, dtype=np.float64)[:, None] - 1
        # (m, d, 2): both faces of every dimension, in grid units.
        faces = np.stack([lowers, uppers], axis=2)
        position = np.clip((faces - self.origin[:, None]) / self.step[:, None], 0.0, last)
        cell = np.minimum(np.floor(np.nan_to_num(position, nan=0.0)), last - 1)
        fraction = position - cell
        cell = cell.astype(np.intp)
        # Flat table index of every (face, cell vertex) pair of every
        # dimension: shape (m, face_1, vertex_1, ..., face_d, vertex_d).
        flat = np.zeros((num_boxes,) + (1,) * (2 * dim), dtype=np.intp)
        for j in range(dim):
            offsets = (cell[:, j, :, None] + np.arange(2)) * int(np.prod(shape[j + 1 :]))
            after = (1,) * (2 * (dim - j - 1))
            flat = flat + offsets.reshape((num_boxes,) + (1,) * (2 * j) + (2, 2) + after)
        corners = self.values.ravel().take(flat)
        # Last dimension first: interpolate inside the cell, then difference
        # the two faces.  Bit-equal faces (both clamped to one grid edge)
        # difference to exactly 0.
        for j in reversed(range(dim)):
            weight = fraction[:, j, :].reshape((num_boxes,) + (1,) * (2 * j) + (2,))
            corners = corners[..., 0] * (1.0 - weight) + corners[..., 1] * weight
            corners = corners[..., 1] - corners[..., 0]
        return corners


def _kernel_cdfs(grid: np.ndarray, centres: np.ndarray, bandwidth: float) -> np.ndarray:
    """``ndtr((grid - c) / h)`` for every centre ``c``: shape ``(len(centres), len(grid))``."""
    z = (grid[None, :] - centres[:, None]) / bandwidth
    return ndtr(z, out=z)
