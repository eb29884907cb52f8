"""Declarative plugin registries: the whole system from a plain config dict.

Every pluggable family in the library keeps a string-keyed
:class:`~repro.utils.registry.Registry` next to its built-ins; this module is
the one place that re-exports them all and adds the ``resolve_*`` helpers and
config-dict constructors the experiment runners and examples build on:

=============  ==========================================  =======================
registry       built-in names                              lives in
=============  ==========================================  =======================
STATISTICS     count/density, average/aggregate, sum,      :mod:`repro.data.statistics`
               variance, median, ratio
BACKENDS       numpy, chunked, sqlite, sharded             :mod:`repro.backends`
SURROGATES     boosting, forest, tree, knn, linear, ridge  :mod:`repro.ml`
OPTIMIZERS     gso, pso                                    :mod:`repro.optim`
=============  ==========================================  =======================

The tree families predict through the flat SoA kernel of
:mod:`repro.ml.compiled`; ``compiled-boosting`` (``compiled-gbrt``) remains
an alias of ``boosting`` so existing config dicts still resolve.

Third-party code registers new implementations (``BACKENDS.register("my-db",
factory)``) and they become constructible everywhere a name is accepted —
``DataEngine(backend="my-db")``, ``SurrogateTrainer(estimator="my-family")``,
:func:`engine_from_config`, the experiment runners.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Union

from repro.backends import BACKENDS, DataBackend
from repro.data.dataset import Dataset
from repro.data.engine import DataEngine
from repro.data.statistics import STATISTICS, StatisticSpec, make_statistic
from repro.exceptions import ValidationError
from repro.ml import SURROGATES
from repro.optim import OPTIMIZERS
from repro.utils.registry import Registry


def resolve_statistic(name: str) -> Callable[..., StatisticSpec]:
    """The statistic factory registered under ``name`` (see :data:`STATISTICS`)."""
    return STATISTICS.resolve(name)


def resolve_backend(name: str) -> Callable[..., DataBackend]:
    """The backend factory registered under ``name`` (see :data:`BACKENDS`)."""
    return BACKENDS.resolve(name)


def resolve_surrogate(name: str) -> Callable:
    """The surrogate estimator family registered under ``name`` (see :data:`SURROGATES`)."""
    return SURROGATES.resolve(name)


def resolve_optimizer(name: str) -> Callable:
    """The optimiser class registered under ``name`` (see :data:`OPTIMIZERS`)."""
    return OPTIMIZERS.resolve(name)


def statistic_from_config(config: Union[str, StatisticSpec, Mapping[str, Any]]) -> StatisticSpec:
    """Build a statistic from a name, a ``{"name": ..., **options}`` dict, or
    pass a live :class:`StatisticSpec` through untouched."""
    if isinstance(config, StatisticSpec):
        return config
    if isinstance(config, str):
        return make_statistic(config)
    if isinstance(config, Mapping):
        options = dict(config)
        try:
            name = options.pop("name")
        except KeyError:
            raise ValidationError("statistic config dict needs a 'name' key") from None
        return make_statistic(name, **options)
    raise ValidationError(f"cannot build a statistic from {type(config)!r}")


def engine_from_config(dataset: Dataset, config: Mapping[str, Any]) -> DataEngine:
    """Construct a :class:`DataEngine` from a plain config dict.

    Recognised keys: ``statistic`` (name, ``{"name": ...}`` dict or live
    spec — required), ``backend`` (registry name or live backend),
    ``backend_options`` (dict), ``use_index`` / ``cells_per_dim`` (numpy
    backend's grid index).  Everything is resolved through the registries, so
    registered plugins work exactly like built-ins::

        engine = engine_from_config(dataset, {
            "statistic": {"name": "average", "target_column": "fare"},
            "backend": "sqlite",
            "backend_options": {"path": "crimes.db"},
        })
    """
    if not isinstance(config, Mapping):
        raise ValidationError(f"engine config must be a mapping, got {type(config)!r}")
    options = dict(config)
    try:
        statistic = statistic_from_config(options.pop("statistic"))
    except KeyError:
        raise ValidationError("engine config needs a 'statistic' key") from None
    known = {"backend", "backend_options", "use_index", "cells_per_dim"}
    unknown = sorted(set(options) - known)
    if unknown:
        raise ValidationError(
            f"engine config has unknown key(s) {unknown}; known keys: {sorted(known | {'statistic'})}"
        )
    return DataEngine(dataset, statistic, **options)


def kernel_from_config(
    finder_or_path,
    config: Optional[Mapping[str, Any]] = None,
):
    """Construct a :class:`~repro.api.kernel.ServiceKernel` from a config dict.

    ``finder_or_path`` is a fitted finder or a bundle path; ``config`` holds
    the kernel options (``cache_size``, ``min_satisfiability``, ...), with
    unknown keys rejected by name.
    """
    from repro.api.kernel import ServiceKernel, check_service_options
    from repro.core.finder import SuRF

    options = dict(config or {})
    check_service_options(options, where="kernel_from_config")
    if isinstance(finder_or_path, SuRF):
        return ServiceKernel(finder_or_path, **options)
    return ServiceKernel.from_bundle(finder_or_path, **options)


__all__ = [
    "Registry",
    "STATISTICS",
    "BACKENDS",
    "SURROGATES",
    "OPTIMIZERS",
    "resolve_statistic",
    "resolve_backend",
    "resolve_surrogate",
    "resolve_optimizer",
    "statistic_from_config",
    "engine_from_config",
    "kernel_from_config",
]
