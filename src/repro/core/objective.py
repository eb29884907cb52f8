"""Objective functions for region mining (Eqs. 2 and 4 of the paper).

Both objectives reward a large constraint margin ``|y_R - f(x, l)|`` in the
requested direction and penalise region size through the exponent ``c``:

* :class:`RatioObjective` — Eq. 2, ``(y_R - f) / (prod_i l_i)^c``.  Defined for
  infeasible regions too (with a negative value), which is exactly the
  weakness Fig. 7 demonstrates.
* :class:`LogObjective` — Eq. 4, ``log(y_R - f) - c Σ_i log(l_i)``.  Undefined
  (``-inf``) whenever the constraint is violated, so the optimiser implicitly
  rejects infeasible regions.

Objectives score a whole ``(m, 2d)`` matrix of ``[x, l]`` solution vectors at
once through :meth:`RegionObjective.evaluate_batch`, the callable the swarm
optimisers take.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Literal

import numpy as np

from repro.core.query import RegionQuery
from repro.exceptions import ValidationError
from repro.utils.validation import check_batch_values

#: A statistic estimator over a batch of solution vectors, shape ``(m, 2d) -> (m,)``.
BatchStatisticFn = Callable[[np.ndarray], np.ndarray]


class RegionObjective(ABC):
    """Base class for region-mining objectives.

    Parameters
    ----------
    statistic:
        Estimator of the statistic over a ``(m, 2d)`` matrix of ``[x, l]``
        vectors, returning shape ``(m,)``: ``SurrogateModel.predict`` for SuRF,
        ``DataEngine.evaluate_batch`` for the true function.
    query:
        The threshold query being answered.
    """

    def __init__(self, statistic: BatchStatisticFn, query: RegionQuery):
        if not callable(statistic):
            raise ValidationError("statistic must be callable")
        self.statistic = statistic
        self.query = query

    def _margins_and_half_lengths(self, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Constraint margins and half lengths of the rows of a ``(m, 2d)`` matrix."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] % 2 != 0:
            raise ValidationError(f"vectors must be a (m, 2d) matrix, got shape {vectors.shape}")
        statistics = check_batch_values(self.statistic(vectors), vectors.shape[0], name="statistic")
        return self.query.margin(statistics), vectors[:, vectors.shape[1] // 2 :]

    @abstractmethod
    def evaluate_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Objective values for a ``(m, 2d)`` matrix of solution vectors (``-inf`` if undefined)."""


class LogObjective(RegionObjective):
    """The log objective of Eq. 4: ``log(margin) - c Σ_i log(l_i)``.

    Returns ``-inf`` when the margin is non-positive or any half length is
    non-positive, which is how the constraint is enforced implicitly.
    """

    def evaluate_batch(self, vectors: np.ndarray) -> np.ndarray:
        margins, half_lengths = self._margins_and_half_lengths(vectors)
        feasible = (margins > 0) & np.all(half_lengths > 0, axis=1)
        values = np.full(margins.shape[0], -np.inf)
        if np.any(feasible):
            size_term = self.query.size_penalty * np.sum(np.log(half_lengths[feasible]), axis=1)
            values[feasible] = np.log(margins[feasible]) - size_term
        return values


class RatioObjective(RegionObjective):
    """The raw ratio objective of Eq. 2: ``margin / (prod_i l_i)^c``.

    Stays defined (and negative) for infeasible regions — retained to
    reproduce the sensitivity analysis of Fig. 7.  Rows with a non-positive
    half length score ``-inf``.
    """

    def evaluate_batch(self, vectors: np.ndarray) -> np.ndarray:
        margins, half_lengths = self._margins_and_half_lengths(vectors)
        values = np.full(margins.shape[0], -np.inf)
        positive = np.all(half_lengths > 0, axis=1)
        if np.any(positive):
            # Exponentiate only rows with positive half lengths: a negative
            # product under a fractional ``size_penalty`` is NaN and warns.
            volume_term = np.prod(half_lengths[positive], axis=1) ** self.query.size_penalty
            valid = volume_term > 0
            rows = np.flatnonzero(positive)[valid]
            values[rows] = margins[rows] / volume_term[valid]
        return values


ObjectiveKind = Literal["log", "ratio"]


def make_objective(kind: ObjectiveKind, statistic: BatchStatisticFn, query: RegionQuery) -> RegionObjective:
    """Factory for objectives by name (``"log"`` for Eq. 4, ``"ratio"`` for Eq. 2)."""
    kind = str(kind).lower()
    if kind == "log":
        return LogObjective(statistic, query)
    if kind == "ratio":
        return RatioObjective(statistic, query)
    raise ValidationError(f"unknown objective kind {kind!r}; expected 'log' or 'ratio'")
