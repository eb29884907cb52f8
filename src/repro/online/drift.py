"""Rolling surrogate-residual drift detection for the online learning loop.

The surrogate ``f̂`` is only as good as the workload it was trained on; when
the query traffic (or the underlying data) drifts, exact evaluations harvested
from the query log start disagreeing with the surrogate's predictions.
:class:`DriftMonitor` watches exactly that signal: it keeps a rolling window
of prediction residuals ``ŷ - y`` and compares the window's RMSE against the
baseline RMSE the surrogate had when it was (re)trained.

Knobs
-----
``window``
    How many of the most recent residuals the rolling RMSE is computed over.
``threshold``
    Drift fires when ``rolling RMSE > threshold × baseline RMSE``.  2.0 means
    "the surrogate is now twice as wrong as it was at training time".
``min_observations``
    Residuals needed in the window before drift may fire at all — guards
    against a handful of unlucky pairs tripping a full refit.
``baseline_rmse``
    The reference error level.  Set it from the training report (or let
    :class:`~repro.online.trainer.IncrementalTrainer` measure it on the
    training workload); :meth:`rebaseline` resets it after a refit.

The window deliberately spans *incremental* refreshes: each batch's residuals
are measured out-of-sample against the surrogate serving at the time, before
the pairs are folded in, so if the rolling RMSE stays elevated across several
warm-start refreshes the ensemble genuinely is not keeping up and escalation
to a full refit is exactly what should happen.  Only a full refit (which
resets the model structurally) clears the window, via :meth:`rebaseline`.

A mean shift of ``s`` in the statistic inflates the residual RMSE to roughly
``sqrt(baseline² + s²)``, so with the default ``threshold=2.0`` any shift
larger than ``√3 ≈ 1.7`` baseline-RMSEs triggers the full-refit fallback.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.exceptions import ValidationError

#: Floor applied to the baseline RMSE so a perfectly-fitting surrogate
#: (baseline 0) does not make every later residual look like infinite drift.
_BASELINE_FLOOR = 1e-12


class DriftMonitor:
    """Rolling-window residual monitor that flags surrogate drift.

    Feed it ``(predictions, targets)`` batches with :meth:`observe` as exact
    evaluations arrive; read :attr:`drifted` to decide between a cheap
    warm-start refresh and a full refit.  Not thread-safe on its own — the
    online trainer serialises access.
    """

    def __init__(
        self,
        window: int = 200,
        threshold: float = 2.0,
        min_observations: int = 30,
        baseline_rmse: Optional[float] = None,
    ):
        if window < 1:
            raise ValidationError(f"window must be >= 1, got {window}")
        if threshold <= 0:
            raise ValidationError(f"threshold must be > 0, got {threshold}")
        if min_observations < 1:
            raise ValidationError(f"min_observations must be >= 1, got {min_observations}")
        if baseline_rmse is not None and (not np.isfinite(baseline_rmse) or baseline_rmse < 0):
            raise ValidationError(f"baseline_rmse must be finite and >= 0, got {baseline_rmse}")
        self.window = int(window)
        self.threshold = float(threshold)
        self.min_observations = int(min_observations)
        self._baseline_rmse = float(baseline_rmse) if baseline_rmse is not None else None
        self._residuals: "deque[float]" = deque(maxlen=self.window)

    # ------------------------------------------------------------------ state
    @property
    def baseline_rmse(self) -> Optional[float]:
        """The reference RMSE drift is measured against (``None`` until set)."""
        return self._baseline_rmse

    @property
    def num_observations(self) -> int:
        """Residuals currently inside the rolling window."""
        return len(self._residuals)

    # ------------------------------------------------------------------ feeding
    def observe(self, predictions, targets) -> None:
        """Append the residuals of a batch of exact evaluations to the window.

        Non-finite pairs (an engine may report NaN for degenerate regions) are
        skipped rather than poisoning the rolling RMSE.
        """
        predictions = np.asarray(predictions, dtype=np.float64).ravel()
        targets = np.asarray(targets, dtype=np.float64).ravel()
        if predictions.shape != targets.shape:
            raise ValidationError(
                f"predictions and targets must align, got {predictions.shape} and {targets.shape}"
            )
        residuals = predictions - targets
        for residual in residuals[np.isfinite(residuals)]:
            self._residuals.append(float(residual))

    def rebaseline(self, baseline_rmse: float) -> None:
        """Reset after a (re)fit: clear the window and install a new baseline."""
        if not np.isfinite(baseline_rmse) or baseline_rmse < 0:
            raise ValidationError(f"baseline_rmse must be finite and >= 0, got {baseline_rmse}")
        self._baseline_rmse = float(baseline_rmse)
        self._residuals.clear()

    # ------------------------------------------------------------------ reading
    @property
    def rolling_rmse(self) -> Optional[float]:
        """RMSE of the residuals currently in the window (``None`` when empty)."""
        if not self._residuals:
            return None
        residuals = np.asarray(self._residuals)
        return float(np.sqrt(np.mean(residuals**2)))

    @property
    def drift_score(self) -> Optional[float]:
        """``rolling RMSE / baseline RMSE`` — ``None`` until both are known."""
        rolling = self.rolling_rmse
        if rolling is None or self._baseline_rmse is None:
            return None
        return rolling / max(self._baseline_rmse, _BASELINE_FLOOR)

    @property
    def drifted(self) -> bool:
        """Whether the surrogate's live error exceeds ``threshold ×`` its baseline."""
        if len(self._residuals) < self.min_observations:
            return False
        score = self.drift_score
        return score is not None and score > self.threshold
