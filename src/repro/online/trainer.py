"""Folding harvested query-log pairs back into the surrogate.

:class:`IncrementalTrainer` owns the online training state — the cumulative
training workload, the fitted surrogate, the Eq. 5 satisfiability model and a
:class:`~repro.online.drift.DriftMonitor` — and exposes one operation:
:meth:`refresh`, which folds a batch of freshly harvested evaluations into all
three.  Two training paths exist:

* **incremental** (the default): warm-start boosting — the existing ensemble
  is kept and a few extra trees are fitted to its residuals on the enlarged
  workload (:meth:`~repro.surrogate.training.SurrogateTrainer.train_incremental`).
  Cheap: cost scales with ``warm_start_rounds``, not ``n_estimators``.
* **full refit**: a fresh estimator trained from scratch on the enlarged
  workload.  Used when the drift monitor reports that the surrogate's live
  residuals have blown past their training-time baseline (warm-started trees
  can chase a drifted workload for a while, but a structurally stale ensemble
  eventually needs rebuilding), or when the caller forces it.

Every produced model is a *new object*; nothing the caller may currently be
serving from is mutated, which is what lets :class:`repro.api.ServiceKernel`
hot-swap the result atomically.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.satisfiability import SatisfiabilityModel
from repro.exceptions import NotFittedError, ValidationError
from repro.ml.metrics import root_mean_squared_error
from repro.online.drift import DriftMonitor
from repro.surrogate.model import SurrogateModel
from repro.surrogate.training import SurrogateTrainer
from repro.surrogate.workload import RegionEvaluation, RegionWorkload


@dataclass(frozen=True)
class RefreshOutcome:
    """What one :meth:`IncrementalTrainer.refresh` call did.

    ``mode`` is ``"noop"`` (no new pairs — nothing rebuilt), ``"incremental"``
    (warm-start rounds) or ``"full"`` (fresh refit, drift-triggered or
    forced).  ``rmse_before``/``rmse_after`` are the surrogate's RMSE on the
    batch of new pairs, before and after folding them in — the live measure of
    how much the refresh helped on the traffic actually being served.
    ``drift_score``/``drifted`` describe the *pre-refresh* surrogate's rolling
    residuals — the evidence that drove the mode decision, not the refreshed
    model's quality (that is ``rmse_after``).
    """

    mode: str
    num_new_pairs: int
    workload_size: int
    drift_score: Optional[float]
    drifted: bool
    rmse_before: Optional[float]
    rmse_after: Optional[float]
    seconds: float


class IncrementalTrainer:
    """Maintains a surrogate + satisfiability model against a growing workload.

    Parameters
    ----------
    trainer:
        The :class:`~repro.surrogate.training.SurrogateTrainer` used for both
        paths (its estimator family and feature augmentation are reused).
    workload:
        The evaluations the surrogate was originally trained on.
    surrogate:
        The currently fitted surrogate for ``workload``.
    satisfiability:
        The Eq. 5 model for ``workload`` (rebuilt from targets when omitted).
    warm_start_rounds:
        Boosting rounds added per incremental refresh.
    drift_monitor:
        Rolling residual monitor; when omitted one is created with its
        baseline set to the surrogate's RMSE on ``workload``.
    full_refit_on_drift:
        Whether a drifted monitor escalates the refresh to a full refit.
    max_workload_size:
        Optional cap on the cumulative training workload; when exceeded the
        oldest evaluations are dropped (the Eq. 5 CDF keeps covering the full
        harvested history regardless).
    """

    def __init__(
        self,
        trainer: SurrogateTrainer,
        workload: RegionWorkload,
        surrogate: SurrogateModel,
        satisfiability: Optional[SatisfiabilityModel] = None,
        warm_start_rounds: int = 25,
        drift_monitor: Optional[DriftMonitor] = None,
        full_refit_on_drift: bool = True,
        max_workload_size: Optional[int] = None,
    ):
        if not isinstance(trainer, SurrogateTrainer):
            raise ValidationError(f"trainer must be a SurrogateTrainer, got {type(trainer)!r}")
        if warm_start_rounds < 1:
            raise ValidationError(f"warm_start_rounds must be >= 1, got {warm_start_rounds}")
        if max_workload_size is not None and max_workload_size < 1:
            raise ValidationError(f"max_workload_size must be >= 1, got {max_workload_size}")
        self.trainer = trainer
        self.warm_start_rounds = int(warm_start_rounds)
        self.full_refit_on_drift = bool(full_refit_on_drift)
        self.max_workload_size = max_workload_size
        self._workload = workload
        self._surrogate = surrogate
        self._satisfiability = (
            satisfiability
            if satisfiability is not None
            else SatisfiabilityModel.from_workload(workload)
        )
        if drift_monitor is None:
            drift_monitor = DriftMonitor()
        if drift_monitor.baseline_rmse is None:
            drift_monitor.rebaseline(self._surrogate.rmse(workload.features, workload.targets))
        self.drift_monitor = drift_monitor

    @classmethod
    def from_finder(cls, finder, **kwargs) -> "IncrementalTrainer":
        """Build from a fitted :class:`~repro.core.finder.SuRF`.

        The cumulative workload is reconstructed from the features/targets the
        finder stored at fit time (also carried by version-2 artifact
        bundles); a version-1 bundle has no targets and cannot seed an online
        loop.
        """
        if finder.surrogate_ is None or finder.workload_features_ is None:
            raise NotFittedError("IncrementalTrainer requires a fitted finder")
        if finder.workload_targets_ is None:
            raise NotFittedError(
                "this finder carries no workload targets (pre-v2 bundle?); "
                "refit it or construct IncrementalTrainer with an explicit workload"
            )
        features = np.asarray(finder.workload_features_, dtype=np.float64)
        targets = np.asarray(finder.workload_targets_, dtype=np.float64)
        dim = features.shape[1] // 2
        from repro.data.regions import Region

        workload = RegionWorkload(
            [
                RegionEvaluation(Region(vector[:dim], vector[dim:]), float(target))
                for vector, target in zip(features, targets)
            ]
        )
        return cls(
            trainer=finder.trainer,
            workload=workload,
            surrogate=finder.surrogate_,
            satisfiability=finder.satisfiability_,
            **kwargs,
        )

    # ------------------------------------------------------------------ state
    @property
    def workload(self) -> RegionWorkload:
        """The cumulative training workload."""
        return self._workload

    @property
    def surrogate(self) -> SurrogateModel:
        """The current surrogate."""
        return self._surrogate

    @property
    def satisfiability(self) -> SatisfiabilityModel:
        """The current Eq. 5 satisfiability model."""
        return self._satisfiability

    # ------------------------------------------------------------------ refreshing
    def refresh(
        self,
        new_evaluations: Sequence[RegionEvaluation],
        force_full: bool = False,
    ) -> RefreshOutcome:
        """Fold ``new_evaluations`` into the surrogate and Eq. 5 model.

        With no new pairs (and no ``force_full``) this is a strict no-op: the
        existing models are returned untouched, so anything serving from them
        stays bit-identical.  Not thread-safe against itself — callers
        (e.g. :meth:`repro.api.ServiceKernel.refresh`) serialise refreshes.
        """
        start = time.perf_counter()
        new_evaluations = list(new_evaluations)
        if not new_evaluations and not force_full:
            return RefreshOutcome(
                mode="noop",
                num_new_pairs=0,
                workload_size=len(self._workload),
                drift_score=self.drift_monitor.drift_score,
                drifted=False,
                rmse_before=None,
                rmse_after=None,
                seconds=time.perf_counter() - start,
            )

        # The refresh is transactional: the monitor is updated on a copy and
        # committed only after training succeeds, so a failed refresh that is
        # retried (the service does not advance its log cursor on an error)
        # cannot observe the same residuals twice and inflate the drift score.
        monitor = copy.deepcopy(self.drift_monitor)
        rmse_before = None
        new_targets = np.empty(0)
        if new_evaluations:
            new_workload = RegionWorkload(new_evaluations)
            if new_workload.region_dim != self._workload.region_dim:
                raise ValidationError(
                    f"new evaluations are {new_workload.region_dim}-dimensional, "
                    f"workload is {self._workload.region_dim}-dimensional"
                )
            predictions = self._surrogate.predict(new_workload.features)
            new_targets = new_workload.targets
            finite = np.isfinite(new_targets) & np.isfinite(predictions)
            if finite.any():
                rmse_before = root_mean_squared_error(new_targets[finite], predictions[finite])
            monitor.observe(predictions, new_targets)
            merged = self._workload.merged_with(new_workload)
        else:
            merged = self._workload
        if self.max_workload_size is not None and len(merged) > self.max_workload_size:
            recent = list(merged)[-self.max_workload_size :]
            merged = RegionWorkload(recent)

        drifted = monitor.drifted
        drift_score = monitor.drift_score
        if force_full or (drifted and self.full_refit_on_drift):
            mode = "full"
            surrogate = self.trainer.train(merged)
            monitor.rebaseline(surrogate.rmse(merged.features, merged.targets))
        else:
            mode = "incremental"
            surrogate = self.trainer.train_incremental(
                self._surrogate, merged, extra_rounds=self.warm_start_rounds
            )
        self.drift_monitor = monitor

        rmse_after = None
        if new_evaluations:
            predictions = surrogate.predict(new_workload.features)
            finite = np.isfinite(new_targets) & np.isfinite(predictions)
            if finite.any():
                rmse_after = root_mean_squared_error(new_targets[finite], predictions[finite])
            self._satisfiability = self._satisfiability.extended_with(new_targets)

        self._workload = merged
        self._surrogate = surrogate
        return RefreshOutcome(
            mode=mode,
            num_new_pairs=len(new_evaluations),
            workload_size=len(merged),
            drift_score=drift_score,
            drifted=drifted,
            rmse_before=rmse_before,
            rmse_after=rmse_after,
            seconds=time.perf_counter() - start,
        )
