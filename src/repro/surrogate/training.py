"""Training surrogate models from past region evaluations.

Reproduces the paper's training protocol: a gradient-boosted model (the
XGBoost stand-in) optionally hyper-tuned with grid-search K-fold CV over
``learning_rate``, ``max_depth``, ``n_estimators`` and ``reg_lambda``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.ml.base import BaseEstimator, clone
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.metrics import root_mean_squared_error
from repro.ml.model_selection import GridSearchCV, train_test_split
from repro.surrogate.model import SurrogateModel
from repro.surrogate.workload import RegionWorkload


def default_estimator(random_state=None) -> GradientBoostingRegressor:
    """The default surrogate family: gradient-boosted trees with XGBoost-like knobs."""
    return GradientBoostingRegressor(
        n_estimators=150,
        learning_rate=0.1,
        max_depth=5,
        reg_lambda=1.0,
        early_stopping_rounds=10,
        random_state=random_state,
    )


def _estimator_from_name(name: str, options: Dict[str, object], random_state) -> BaseEstimator:
    """Build an estimator from a :data:`repro.ml.SURROGATES` family name.

    The trainer's seed is threaded into families that accept ``random_state``
    (kNN and the linear models do not) unless the options already pin one.
    """
    from repro.ml import SURROGATES

    family = SURROGATES.resolve(name)
    if "random_state" not in options and random_state is not None:
        try:
            return family(**options, random_state=random_state)
        except TypeError:
            pass
    return family(**options)


def _compile_if_possible(estimator: BaseEstimator) -> None:
    """Compile a freshly fitted tree model into SoA tables, once.

    Called by :meth:`SurrogateTrainer.train` and
    :meth:`SurrogateTrainer.train_incremental` right after ``fit``, before the
    trainer's own RMSE predictions read the tables.  Every surrogate leaves
    the trainer query-ready: no ``find`` compiles, and a served model's
    ``predict`` only reads its tables.  Families without a compiled form (kNN,
    linear) pass through untouched.
    """
    from repro.ml.compiled import CompiledPredictor

    if CompiledPredictor.compilable(estimator):
        estimator.compile()


def default_param_grid(small: bool = True) -> Dict[str, Sequence]:
    """Hyper-parameter grid mirroring the paper's GridSearch ranges.

    The paper's full grid has 144 combinations (`3×4×3×4`); the ``small``
    variant keeps the same parameters with fewer values so hyper-tuning remains
    tractable in CI while exercising the identical code path.
    """
    if small:
        return {
            "learning_rate": [0.1, 0.01],
            "max_depth": [3, 5],
            "n_estimators": [50, 100],
            "reg_lambda": [1.0, 0.1],
        }
    return {
        "learning_rate": [0.1, 0.01, 0.001],
        "max_depth": [3, 5, 7, 9],
        "n_estimators": [100, 200, 300],
        "reg_lambda": [1.0, 0.1, 0.01, 0.001],
    }


@dataclass
class TrainingReport:
    """Bookkeeping of one surrogate training run (feeds Figs. 6, 11 and 12)."""

    num_training_examples: int
    training_seconds: float
    hypertuned: bool
    best_params: Optional[Dict[str, object]]
    train_rmse: float
    test_rmse: Optional[float]
    cv_results: list = field(default_factory=list, repr=False)


class SurrogateTrainer:
    """Trains a :class:`SurrogateModel` from a :class:`RegionWorkload`.

    Parameters
    ----------
    estimator:
        Prototype regressor; the default gradient-boosted model is used when
        omitted.  A string names a family in the :data:`repro.ml.SURROGATES`
        registry (``"boosting"``, ``"forest"``, ``"knn"``, ``"ridge"``, ...)
        and may come with ``estimator_options`` — this is what makes trainers
        constructible from plain config dicts.
    estimator_options:
        Keyword arguments for the named estimator family (ignored unless
        ``estimator`` is a string; ``random_state`` is filled in from the
        trainer's seed when the family accepts one and none is given).
    hypertune:
        Whether to run grid-search CV before the final fit.
    param_grid:
        Grid used when ``hypertune`` is enabled (defaults to :func:`default_param_grid`).
    cv:
        Number of cross-validation folds for hyper-tuning.
    holdout_fraction:
        Fraction of the workload held out to report an out-of-sample RMSE;
        0 disables the holdout (all evaluations are used for training).
    augment_features:
        Append the engineered features of
        :func:`repro.surrogate.features.augment_region_vectors` (region corners
        and log-volume) before training.  The fitted :class:`SurrogateModel`
        applies the same map transparently at prediction time.
    random_state:
        Seed for the holdout split and CV shuffling.
    """

    def __init__(
        self,
        estimator=None,
        hypertune: bool = False,
        param_grid: Optional[Dict[str, Sequence]] = None,
        cv: int = 3,
        holdout_fraction: float = 0.2,
        augment_features: bool = True,
        random_state=None,
        estimator_options: Optional[Dict[str, object]] = None,
    ):
        if not 0 <= holdout_fraction < 1:
            raise ValidationError(f"holdout_fraction must be in [0, 1), got {holdout_fraction}")
        if isinstance(estimator, str):
            estimator = _estimator_from_name(
                estimator, dict(estimator_options or {}), random_state
            )
        elif estimator_options:
            raise ValidationError(
                "estimator_options only apply when estimator is a family name"
            )
        self.estimator = estimator if estimator is not None else default_estimator(random_state)
        self.hypertune = bool(hypertune)
        self.param_grid = dict(param_grid) if param_grid is not None else default_param_grid()
        self.cv = int(cv)
        self.holdout_fraction = float(holdout_fraction)
        self.augment_features = bool(augment_features)
        self.random_state = random_state

        self.last_report_: Optional[TrainingReport] = None

    def train_from_engine(
        self,
        engine,
        num_evaluations: int,
        min_fraction: float = 0.01,
        max_fraction: float = 0.5,
        random_state=None,
    ) -> SurrogateModel:
        """Generate a workload against ``engine`` and train on it in one step.

        Workload generation goes through the engine's batched evaluation path
        (:meth:`repro.data.engine.DataEngine.evaluate_batch`), so producing the
        training set costs one broadcast over the data instead of
        ``num_evaluations`` scalar scans.
        """
        from repro.surrogate.workload import generate_workload

        workload = generate_workload(
            engine,
            num_evaluations,
            min_fraction=min_fraction,
            max_fraction=max_fraction,
            random_state=random_state if random_state is not None else self.random_state,
        )
        return self.train(workload)

    def train(self, workload: RegionWorkload) -> SurrogateModel:
        """Train a surrogate on ``workload`` and record a :class:`TrainingReport`."""
        features = workload.features
        targets = workload.targets
        if self.augment_features:
            from repro.surrogate.features import augment_region_vectors

            features = augment_region_vectors(features)

        if self.holdout_fraction > 0 and len(workload) >= 10:
            features_train, features_test, targets_train, targets_test = train_test_split(
                features, targets, test_size=self.holdout_fraction, random_state=self.random_state
            )
        else:
            features_train, targets_train = features, targets
            features_test = targets_test = None

        start = time.perf_counter()
        best_params: Optional[Dict[str, object]] = None
        cv_results: list = []
        if self.hypertune:
            search = GridSearchCV(
                clone(self.estimator),
                self.param_grid,
                cv=self.cv,
                scoring=root_mean_squared_error,
                greater_is_better=False,
                refit=True,
                random_state=self.random_state,
            )
            search.fit(features_train, targets_train)
            fitted = search.best_estimator_
            best_params = search.best_params_
            cv_results = search.results_
        else:
            fitted = clone(self.estimator)
            fitted.fit(features_train, targets_train)
        elapsed = time.perf_counter() - start
        _compile_if_possible(fitted)

        train_rmse = root_mean_squared_error(targets_train, fitted.predict(features_train))
        test_rmse = None
        if features_test is not None:
            test_rmse = root_mean_squared_error(targets_test, fitted.predict(features_test))

        self.last_report_ = TrainingReport(
            num_training_examples=features_train.shape[0],
            training_seconds=elapsed,
            hypertuned=self.hypertune,
            best_params=best_params,
            train_rmse=train_rmse,
            test_rmse=test_rmse,
            cv_results=cv_results,
        )
        return SurrogateModel(fitted, workload.region_dim, augment_features=self.augment_features)

    def train_incremental(
        self,
        surrogate: SurrogateModel,
        workload: RegionWorkload,
        extra_rounds: int = 25,
    ) -> SurrogateModel:
        """Fold ``workload`` into a trained surrogate with warm-start boosting.

        Instead of refitting the whole ensemble, the fitted estimator is
        deep-copied (the surrogate being served is never touched — a serving
        layer can keep answering from it while this runs) and boosted for
        ``extra_rounds`` additional trees on ``workload`` — typically the
        original training evaluations merged with freshly harvested pairs.
        The new rounds fit the *residuals* of the existing model on the
        enlarged data, which is what makes incremental refresh ~``n_estimators
        / extra_rounds`` times cheaper than a full retrain.

        The estimator must support the scikit-learn ``warm_start`` idiom
        (``warm_start`` constructor parameter plus continuation on refit), as
        :class:`~repro.ml.boosting.GradientBoostingRegressor` does.
        """
        import pickle

        if not isinstance(surrogate, SurrogateModel):
            raise ValidationError(f"expected a SurrogateModel, got {type(surrogate)!r}")
        if extra_rounds < 1:
            raise ValidationError(f"extra_rounds must be >= 1, got {extra_rounds}")
        if surrogate.region_dim != workload.region_dim:
            raise ValidationError(
                f"surrogate expects {surrogate.region_dim}-dimensional regions, "
                f"workload holds {workload.region_dim}-dimensional ones"
            )
        # A pickle round trip clones the fitted ensemble ~3x faster than
        # copy.deepcopy (the estimators are plain data objects) and keeps the
        # served surrogate untouched while the copy is boosted further.
        estimator = pickle.loads(pickle.dumps(surrogate.estimator))
        if "warm_start" not in estimator.get_params():
            raise ValidationError(
                f"{type(estimator).__name__} does not support warm_start; "
                "incremental training requires a warm-startable estimator"
            )
        current_rounds = getattr(estimator, "num_trees_", None)
        if current_rounds is None:
            current_rounds = int(estimator.get_params().get("n_estimators", 0))
        estimator.set_params(warm_start=True, n_estimators=int(current_rounds) + int(extra_rounds))

        features = workload.features
        targets = workload.targets
        if surrogate.augments_features:
            from repro.surrogate.features import augment_region_vectors

            features = augment_region_vectors(features)

        start = time.perf_counter()
        estimator.fit(features, targets)
        elapsed = time.perf_counter() - start
        _compile_if_possible(estimator)

        # The boosting loop already tracks per-round training RMSE; reuse the
        # final entry instead of re-running the whole ensemble over the data.
        train_scores = getattr(estimator, "train_scores_", None)
        if train_scores:
            train_rmse = float(train_scores[-1])
        else:
            train_rmse = root_mean_squared_error(targets, estimator.predict(features))
        self.last_report_ = TrainingReport(
            num_training_examples=features.shape[0],
            training_seconds=elapsed,
            hypertuned=False,
            best_params=None,
            train_rmse=train_rmse,
            test_rmse=None,
        )
        return SurrogateModel(
            estimator, workload.region_dim, augment_features=surrogate.augments_features
        )
