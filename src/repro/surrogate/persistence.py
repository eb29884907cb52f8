"""Saving and loading workloads, trained surrogates and whole finder bundles.

Surrogates are meant to be trained once (possibly on a beefier machine) and
then shipped to analysts, so the library provides a small persistence layer:

* workloads (past region evaluations) are stored as ``.npz`` archives holding
  the feature matrix and target vector — portable and inspectable;
* trained :class:`~repro.surrogate.model.SurrogateModel` objects are stored
  with :mod:`pickle`, which is sufficient because every estimator in
  :mod:`repro.ml` is a plain Python object;
* a whole fitted :class:`~repro.core.finder.SuRF` round-trips to a single
  *artifact bundle* (:func:`save_bundle` / :func:`load_bundle`) carrying the
  surrogate, solution space, density model, satisfiability model, workload
  features and configuration — everything query serving needs, nothing the
  raw data ever touches.  Bundles are versioned pickles with a format header
  so loads fail loudly on foreign or future files.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.data.regions import Region
from repro.exceptions import NotFittedError, ValidationError
from repro.ml.compiled import CompiledPredictor
from repro.surrogate.model import SurrogateModel
from repro.surrogate.workload import RegionEvaluation, RegionWorkload

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.finder import SuRF

PathLike = Union[str, Path]

#: Header values identifying a SuRF artifact bundle on disk.
BUNDLE_FORMAT = "surf-bundle"
#: Version 2 adds the workload targets, which the online learning loop needs
#: to reconstruct its cumulative training workload; version-1 bundles load
#: with targets absent (``workload_targets_ is None`` — serving works, but
#: any online refresh, incremental or full, refuses with ``NotFittedError``).
#: Version 3 ships the surrogate's compiled SoA node tables inside the pickled
#: estimator (:mod:`repro.ml.compiled`), so a loaded bundle serves queries
#: through the vectorised kernel without paying recompilation; versions 1–2
#: still load (the estimator compiles on its first predict).  Version 4 drops
#: the ``density_method`` setting: the Eq. 8 density model is always the KDE,
#: and loads ignore the key in older bundles.
BUNDLE_VERSION = 4


def save_workload(workload: RegionWorkload, path: PathLike) -> Path:
    """Write a workload to ``path`` as a ``.npz`` archive and return the written path.

    ``numpy.savez_compressed`` appends ``.npz`` to any filename that does not
    already end in it; the returned path is the file that actually exists on
    disk (not a suffix-mangled guess), so it can be handed straight to
    :func:`load_workload` or shipped elsewhere.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, features=workload.features, targets=workload.targets)
    return path if path.name.endswith(".npz") else path.with_name(path.name + ".npz")


def load_workload(path: PathLike) -> RegionWorkload:
    """Load a workload previously written by :func:`save_workload`."""
    path = Path(path)
    if not path.exists() and path.with_name(path.name + ".npz").exists():
        path = path.with_name(path.name + ".npz")
    with np.load(path) as archive:
        if "features" not in archive or "targets" not in archive:
            raise ValidationError(f"{path} is not a workload archive (missing features/targets)")
        features = archive["features"]
        targets = archive["targets"]
    if features.ndim != 2 or features.shape[1] % 2 != 0:
        raise ValidationError(f"workload archive has malformed features of shape {features.shape}")
    if targets.shape[0] != features.shape[0]:
        raise ValidationError("workload archive features and targets have different lengths")
    dim = features.shape[1] // 2
    evaluations = [
        RegionEvaluation(Region(vector[:dim], vector[dim:]), float(target))
        for vector, target in zip(features, targets)
    ]
    return RegionWorkload(evaluations)


def save_surrogate(surrogate: SurrogateModel, path: PathLike) -> Path:
    """Serialise a trained surrogate model to ``path`` with pickle."""
    if not isinstance(surrogate, SurrogateModel):
        raise ValidationError(f"expected a SurrogateModel, got {type(surrogate)!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        pickle.dump(surrogate, handle)
    return path


def load_surrogate(path: PathLike) -> SurrogateModel:
    """Load a surrogate model previously written by :func:`save_surrogate`."""
    with open(path, "rb") as handle:
        surrogate = pickle.load(handle)
    if not isinstance(surrogate, SurrogateModel):
        raise ValidationError(f"{path} does not contain a SurrogateModel")
    return surrogate


# --------------------------------------------------------------------------- bundles
def save_bundle(finder: "SuRF", path: PathLike) -> Path:
    """Write a fitted :class:`~repro.core.finder.SuRF` to a single bundle file.

    The bundle is self-contained: fitted state (surrogate, solution space,
    density model, satisfiability model, workload features) plus every
    constructor setting, so :func:`load_bundle` rebuilds a finder whose seeded
    ``find_regions`` calls are bit-identical to the original's.  Train once,
    ship the file to analysts.
    """
    from repro.core.finder import SuRF

    if not isinstance(finder, SuRF):
        raise ValidationError(f"expected a SuRF finder, got {type(finder)!r}")
    if finder.surrogate_ is None or finder.solution_space_ is None:
        raise NotFittedError("only a fitted SuRF can be saved to a bundle")
    # Ship the compiled SoA tables inside the bundle, so served models never
    # recompile.  Trained surrogates already carry them; one loaded from a
    # version 1–2 bundle that has not predicted yet compiles here.
    estimator = getattr(finder.surrogate_, "estimator", None)
    if estimator is not None and CompiledPredictor.compilable(estimator):
        estimator.compile()
    payload = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "config": {
            "objective": finder.objective_kind,
            "use_density_guidance": finder.use_density_guidance,
            "min_half_fraction": finder.min_half_fraction,
            "max_half_fraction": finder.max_half_fraction,
            "overlap_threshold": finder.overlap_threshold,
            "warm_start_fraction": finder.warm_start_fraction,
            "random_state": finder.random_state,
        },
        "trainer": finder.trainer,
        "gso_parameters": finder.gso_parameters,
        "surrogate": finder.surrogate_,
        "solution_space": finder.solution_space_,
        "density": finder.density_,
        "satisfiability": finder.satisfiability_,
        "workload_features": finder.workload_features_,
        "workload_targets": finder.workload_targets_,
        "workload_size": finder.workload_size_,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        pickle.dump(payload, handle)
    return path


def load_bundle(path: PathLike, finder_cls: type = None) -> "SuRF":
    """Load a fitted :class:`~repro.core.finder.SuRF` from a bundle file.

    ``finder_cls`` lets :class:`SuRF` subclasses reconstruct themselves
    (``MySuRF.load(path)`` threads the subclass through); it must accept the
    same constructor arguments as :class:`SuRF`.
    """
    from repro.core.finder import SuRF

    if finder_cls is None:
        finder_cls = SuRF
    elif not (isinstance(finder_cls, type) and issubclass(finder_cls, SuRF)):
        raise ValidationError(f"finder_cls must be SuRF or a subclass, got {finder_cls!r}")
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    if not isinstance(payload, dict) or payload.get("format") != BUNDLE_FORMAT:
        raise ValidationError(f"{path} is not a SuRF artifact bundle")
    version = payload.get("version")
    if not isinstance(version, int) or not 1 <= version <= BUNDLE_VERSION:
        raise ValidationError(
            f"{path} is a version-{version} bundle; this build reads versions 1..{BUNDLE_VERSION}"
        )
    config = payload["config"]
    finder = finder_cls(
        trainer=payload["trainer"],
        objective=config["objective"],
        use_density_guidance=config["use_density_guidance"],
        gso_parameters=payload["gso_parameters"],
        min_half_fraction=config["min_half_fraction"],
        max_half_fraction=config["max_half_fraction"],
        overlap_threshold=config["overlap_threshold"],
        warm_start_fraction=config["warm_start_fraction"],
        random_state=config["random_state"],
    )
    finder.surrogate_ = payload["surrogate"]
    finder.solution_space_ = payload["solution_space"]
    finder.density_ = payload["density"]
    finder.satisfiability_ = payload["satisfiability"]
    finder.workload_features_ = payload["workload_features"]
    finder.workload_targets_ = payload.get("workload_targets")
    finder.workload_size_ = payload["workload_size"]
    return finder
