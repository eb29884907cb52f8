"""From-scratch machine-learning substrate.

The paper trains its surrogate models with scikit-learn / XGBoost; neither is
available offline, so this package provides the pieces the paper actually
uses, implemented on top of numpy only:

* regression trees and gradient-boosted trees with shrinkage and L2 leaf
  regularisation (the XGBoost-style hyper-parameters the paper tunes:
  ``learning_rate``, ``max_depth``, ``n_estimators``, ``reg_lambda``),
* random forest, k-nearest-neighbours and ridge regression as alternative
  surrogate families,
* compiled inference (:mod:`repro.ml.compiled`): fitted trees and tree
  ensembles flattened into structure-of-arrays node tables and traversed by a
  vectorised level-synchronous kernel — the only way the tree models predict,
* train/test splitting, K-fold cross-validation and grid-search
  hyper-parameter tuning,
* regression metrics (RMSE, MAE, R²).
"""

from repro.ml.base import BaseEstimator, clone
from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.compiled import CompiledPredictor
from repro.ml.forest import RandomForestRegressor
from repro.ml.knn import KNeighborsRegressor
from repro.ml.linear import LinearRegression, RidgeRegression
from repro.ml.metrics import mean_absolute_error, mean_squared_error, r2_score, root_mean_squared_error
from repro.ml.model_selection import GridSearchCV, KFold, cross_val_score, train_test_split
from repro.ml.preprocessing import MinMaxScaler, StandardScaler
from repro.ml.tree import DecisionTreeRegressor
from repro.utils.registry import Registry

#: Plugin registry of surrogate estimator families, keyed by short name.
#: ``SurrogateTrainer(estimator="forest")`` and config-driven construction
#: through :mod:`repro.api.registries` resolve names here; register new
#: families via ``SURROGATES.register(name, estimator_cls)``.  Every tree
#: family predicts through the compiled kernel, so ``"compiled-boosting"`` and
#: ``"compiled-gbrt"`` are kept only as aliases of ``"boosting"``.
SURROGATES = Registry("surrogate family")
SURROGATES.register(
    "boosting",
    GradientBoostingRegressor,
    aliases=("gbrt", "xgboost-like", "compiled-boosting", "compiled-gbrt"),
)
SURROGATES.register("forest", RandomForestRegressor, aliases=("random-forest",))
SURROGATES.register("tree", DecisionTreeRegressor)
SURROGATES.register("knn", KNeighborsRegressor)
SURROGATES.register("linear", LinearRegression)
SURROGATES.register("ridge", RidgeRegression)

__all__ = [
    "BaseEstimator",
    "clone",
    "DecisionTreeRegressor",
    "GradientBoostingRegressor",
    "CompiledPredictor",
    "RandomForestRegressor",
    "KNeighborsRegressor",
    "LinearRegression",
    "RidgeRegression",
    "mean_squared_error",
    "root_mean_squared_error",
    "mean_absolute_error",
    "r2_score",
    "train_test_split",
    "KFold",
    "cross_val_score",
    "GridSearchCV",
    "StandardScaler",
    "MinMaxScaler",
    "SURROGATES",
]
