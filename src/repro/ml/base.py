"""Estimator protocol shared by all regressors in :mod:`repro.ml`.

The interface intentionally mirrors the small subset of the scikit-learn API
the paper relies on (``fit``/``predict``/``get_params``/``set_params``), which
keeps the surrogate-training code agnostic to the model family.
"""

from __future__ import annotations

import copy
import inspect
from abc import ABC, abstractmethod
from typing import Any, Dict

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.utils.validation import check_array


class BaseEstimator(ABC):
    """Base class for regressors with scikit-learn-style parameter handling."""

    # ------------------------------------------------------------------ parameters
    @classmethod
    def _parameter_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        return [
            name
            for name, parameter in signature.parameters.items()
            if name != "self" and parameter.kind != inspect.Parameter.VAR_KEYWORD
        ]

    def get_params(self) -> Dict[str, Any]:
        """Return the constructor parameters of this estimator."""
        return {name: getattr(self, name) for name in self._parameter_names()}

    def set_params(self, **params) -> "BaseEstimator":
        """Set constructor parameters in place and return ``self``."""
        valid = set(self._parameter_names())
        for name, value in params.items():
            if name not in valid:
                raise ValidationError(
                    f"{type(self).__name__} has no parameter {name!r}; valid: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    # ------------------------------------------------------------------ fitting protocol
    @abstractmethod
    def fit(self, features: np.ndarray, targets: np.ndarray) -> "BaseEstimator":
        """Fit the estimator on ``features`` (``(n, p)``) and ``targets`` (``(n,)``)."""

    @abstractmethod
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for ``features`` (``(n, p)``), returning shape ``(n,)``."""

    def score(self, features: np.ndarray, targets: np.ndarray) -> float:
        """Coefficient of determination R² on the given data."""
        from repro.ml.metrics import r2_score

        return r2_score(targets, self.predict(features))

    # ------------------------------------------------------------------ shared validation
    def _validate_fit_inputs(self, features, targets) -> tuple[np.ndarray, np.ndarray]:
        features = check_array(features, name="features", ndim=2)
        targets = check_array(targets, name="targets", ndim=1)
        if features.shape[0] != targets.shape[0]:
            raise ValidationError(
                f"features has {features.shape[0]} rows but targets has {targets.shape[0]}"
            )
        return features, targets

    def _validate_predict_inputs(self, features, expected_features: int) -> np.ndarray:
        features = check_array(features, name="features", ndim=2)
        if features.shape[1] != expected_features:
            raise ValidationError(
                f"estimator was fitted with {expected_features} features, got {features.shape[1]}"
            )
        return features

    def _check_fitted(self, attribute: str) -> None:
        if not hasattr(self, attribute) or getattr(self, attribute) is None:
            raise NotFittedError(f"{type(self).__name__} must be fitted before calling predict()")

    # ------------------------------------------------------------------ compiled inference
    def compile(self):
        """Compile this fitted estimator into flat SoA tables and keep them on it.

        Returns the tables the estimator already keeps, otherwise flattens the
        fitted trees once and stores the
        :class:`~repro.ml.compiled.CompiledPredictor` on the estimator — so the
        tables pickle (and ship inside artifact bundles) with the model.
        Raises :class:`~repro.exceptions.ValidationError` for estimator
        families the compiler does not support or for unfitted estimators;
        probe with :meth:`repro.ml.compiled.CompiledPredictor.compilable`.
        """
        from repro.ml.compiled import CompiledPredictor

        if getattr(self, "_compiled", None) is None:
            self._compiled = CompiledPredictor(self)
        return self._compiled

    def _predict_compiled(self, features) -> np.ndarray:
        """Predict through the compiled tables — the only way a tree model predicts.

        Trained and loaded models already carry their tables, so this only
        reads them; an estimator unpickled without tables (a version 1–2
        bundle, a hand-built tree) compiles once, on its first predict.
        """
        compiled = getattr(self, "_compiled", None)
        if compiled is None:
            compiled = self.compile()
        return compiled.predict(features)

    def _invalidate_compiled(self) -> None:
        """Drop any cached compiled predictor.  Every ``fit`` path must call
        this so the compiled tables can never go stale behind a refit (or a
        warm-start continuation, which appends trees to the live ensemble)."""
        self._compiled = None

    @property
    def is_compiled(self) -> bool:
        """Whether a compiled predictor is currently cached on this estimator."""
        return getattr(self, "_compiled", None) is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"


def clone(estimator: BaseEstimator) -> BaseEstimator:
    """Return an unfitted copy of ``estimator`` with identical parameters."""
    return type(estimator)(**copy.deepcopy(estimator.get_params()))
