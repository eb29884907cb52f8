"""The SuRF finder: surrogate models + KDE-guided glowworm swarm optimisation.

This is the paper's headline system.  A :class:`SuRF` instance is

1. *fitted* on a workload of past region evaluations (training the surrogate
   ``f̂``) and, optionally, on a sample of the raw data (fitting the KDE used
   to steer particles, Eq. 8), then
2. *queried* with a :class:`~repro.core.query.RegionQuery`; the finder runs
   GSO over the ``2d``-dimensional region solution space using the surrogate
   in place of the back-end system and returns distinct region proposals.

No data access happens at query time — that is the source of SuRF's
scalability in Table I.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.core.objective import ObjectiveKind, RegionObjective, make_objective
from repro.core.postprocess import RegionProposal, proposals_from_result
from repro.core.query import RegionQuery, SolutionSpace
from repro.core.satisfiability import SatisfiabilityModel
from repro.data.engine import DataEngine
from repro.density.region_mass import RegionMassEstimator
from repro.exceptions import NotFittedError, ValidationError
from repro.optim.gso import GlowwormSwarmOptimizer, GSOParameters
from repro.optim.result import OptimizationResult
from repro.surrogate.model import SurrogateModel
from repro.surrogate.training import SurrogateTrainer
from repro.surrogate.workload import RegionWorkload, generate_workload


@dataclass
class RegionSearchResult:
    """Everything produced by one ``find_regions`` call."""

    query: RegionQuery
    proposals: List[RegionProposal]
    optimization: OptimizationResult
    solution_space: SolutionSpace
    elapsed_seconds: float

    @property
    def regions(self) -> List:
        """Just the proposed regions, ordered by decreasing objective value."""
        return [proposal.region for proposal in self.proposals]

    def all_feasible_regions(self) -> List:
        """Regions of *every* feasible converged particle (no de-duplication).

        The paper's accuracy experiments treat all converged particles as
        proposed regions; this accessor exposes the same view, while
        ``proposals`` holds the de-duplicated representatives.
        """
        from repro.data.regions import Region

        return [Region.from_vector(vector) for vector in self.optimization.feasible_positions]

    @property
    def num_regions(self) -> int:
        """Number of distinct proposals."""
        return len(self.proposals)

    def best(self) -> Optional[RegionProposal]:
        """The highest-objective proposal, or ``None`` when nothing was found."""
        return self.proposals[0] if self.proposals else None


class SuRF:
    """SUrrogate Region Finder.

    Parameters
    ----------
    trainer:
        Surrogate training configuration; the default trains a gradient-boosted
        model without hyper-tuning.
    objective:
        ``"log"`` for the paper's Eq. 4 objective (default) or ``"ratio"`` for Eq. 2.
    use_density_guidance:
        Whether to re-weight neighbour selection by KDE region mass (Eq. 8).
        Requires a data sample at fit time; silently disabled otherwise.
    gso_parameters:
        Swarm parameters; when omitted they are scaled to the solution-space
        dimensionality with :meth:`GSOParameters.for_dimension`.
    min_half_fraction / max_half_fraction:
        Admissible region half-lengths as a fraction of the data extent.
    overlap_threshold:
        IoU above which two converged particles count as the same proposal.
    warm_start_fraction:
        Fraction of the swarm initialised at past-evaluation regions that are
        feasible under the current query (sampled uniformly among them; the
        remainder of the swarm is uniform random over the solution space).
        This "leverages historical region evaluations" for initialisation as
        well as for the surrogate and keeps the swarm from starting with no
        feasible particle at all; set to 0 for the plain uniform initialisation.
    random_state:
        Seed forwarded to the optimiser when it has no explicit seed.
    """

    def __init__(
        self,
        trainer: Optional[SurrogateTrainer] = None,
        objective: ObjectiveKind = "log",
        use_density_guidance: bool = True,
        gso_parameters: Optional[GSOParameters] = None,
        min_half_fraction: float = 0.005,
        max_half_fraction: float = 0.5,
        overlap_threshold: float = 0.5,
        warm_start_fraction: float = 0.25,
        random_state: Optional[int] = None,
    ):
        if not 0 <= warm_start_fraction <= 1:
            raise ValidationError(f"warm_start_fraction must be in [0, 1], got {warm_start_fraction}")
        self.trainer = trainer if trainer is not None else SurrogateTrainer(random_state=random_state)
        self.objective_kind = objective
        self.use_density_guidance = bool(use_density_guidance)
        self.gso_parameters = gso_parameters
        self.min_half_fraction = float(min_half_fraction)
        self.max_half_fraction = float(max_half_fraction)
        self.overlap_threshold = float(overlap_threshold)
        self.warm_start_fraction = float(warm_start_fraction)
        self.random_state = random_state

        self.surrogate_: Optional[SurrogateModel] = None
        self.solution_space_: Optional[SolutionSpace] = None
        self.density_: Optional[RegionMassEstimator] = None
        self.satisfiability_: Optional[SatisfiabilityModel] = None
        self.workload_features_: Optional[np.ndarray] = None
        self.workload_targets_: Optional[np.ndarray] = None
        self.workload_size_: int = 0

    # ------------------------------------------------------------------ fitting
    def fit(self, workload: RegionWorkload, data_sample: Optional[np.ndarray] = None) -> "SuRF":
        """Train the surrogate from past evaluations and (optionally) the density model.

        Parameters
        ----------
        workload:
            Past region evaluations ``([x, l], y)``.
        data_sample:
            Optional ``(n, d)`` sample of raw data vectors used only for the
            KDE guidance of Eq. 8.  SuRF never touches it at query time.
        """
        self.surrogate_ = self.trainer.train(workload)
        self.solution_space_ = SolutionSpace.from_workload_features(
            workload.features,
            min_half_fraction=self.min_half_fraction,
            max_half_fraction=self.max_half_fraction,
        )
        self.satisfiability_ = SatisfiabilityModel.from_workload(workload)
        self.workload_features_ = workload.features
        self.workload_targets_ = workload.targets
        self.workload_size_ = len(workload)
        self.density_ = None
        if self.use_density_guidance and data_sample is not None:
            sample = np.asarray(data_sample, dtype=np.float64)
            if sample.ndim != 2 or sample.shape[1] != workload.region_dim:
                raise ValidationError(
                    "data_sample must be a (n, d) array matching the workload's region dimensionality"
                )
            self.density_ = RegionMassEstimator(random_state=self.random_state).fit(sample)
        return self

    @classmethod
    def from_engine(
        cls,
        engine: DataEngine,
        num_evaluations: int = 2_000,
        data_sample_size: Optional[int] = 1_000,
        random_state: Optional[int] = None,
        **kwargs,
    ) -> "SuRF":
        """Convenience constructor: generate a workload from ``engine`` and fit.

        This is the typical offline phase: the back-end is queried once to
        produce past evaluations (or they are harvested from logs) and the
        surrogate is trained on them.
        """
        finder = cls(random_state=random_state, **kwargs)
        workload = generate_workload(engine, num_evaluations, random_state=random_state)
        data_sample = None
        if finder.use_density_guidance and data_sample_size:
            columns = engine.region_columns
            dataset = engine.dataset
            sample_size = min(int(data_sample_size), dataset.num_rows)
            data_sample = dataset.sample(sample_size, random_state=random_state).select_columns(columns).values
        return finder.fit(workload, data_sample=data_sample)

    def _check_fitted(self) -> None:
        if self.surrogate_ is None or self.solution_space_ is None:
            raise NotFittedError("SuRF must be fitted with a workload before finding regions")

    # ------------------------------------------------------------------ querying
    def build_objective(self, query: RegionQuery) -> RegionObjective:
        """The objective ``Ĵ`` (surrogate-backed) used for a given query."""
        self._check_fitted()
        return make_objective(self.objective_kind, self.surrogate_.predict, query)

    def find_regions(
        self,
        query: RegionQuery,
        gso_parameters: Optional[GSOParameters] = None,
        max_proposals: Optional[int] = None,
        profile_hook=None,
    ) -> RegionSearchResult:
        """Mine regions satisfying ``query`` using the surrogate and GSO.

        ``profile_hook`` (e.g. :class:`repro.obs.GSORunProfile`) is forwarded
        to the optimiser for per-iteration profiling; it never touches the
        RNG stream, so results are identical with or without it.
        """
        self._check_fitted()
        start = time.perf_counter()

        space = self.solution_space_
        objective = self.build_objective(query)
        parameters = gso_parameters or self.gso_parameters
        if parameters is None:
            parameters = GSOParameters.for_dimension(
                space.solution_dim,
                num_particles=max(100, 25 * space.solution_dim),
                random_state=self.random_state,
            )
        initial_positions = self._initial_positions(objective, parameters, space)

        lower, upper = space.bounds_vectors()
        optimizer = GlowwormSwarmOptimizer(
            objective=objective.evaluate_batch,
            lower_bounds=lower,
            upper_bounds=upper,
            parameters=parameters,
            batch_selection_weight=None if self.density_ is None else self.density_.mass_of_vectors,
            initial_positions=initial_positions,
            profile_hook=profile_hook,
        )
        result = optimizer.run()
        proposals = proposals_from_result(
            result,
            objective,
            overlap_threshold=self.overlap_threshold,
            max_proposals=max_proposals,
        )
        elapsed = time.perf_counter() - start
        return RegionSearchResult(
            query=query,
            proposals=proposals,
            optimization=result,
            solution_space=space,
            elapsed_seconds=elapsed,
        )

    def _initial_positions(
        self,
        objective: RegionObjective,
        parameters: GSOParameters,
        space: SolutionSpace,
    ) -> Optional[np.ndarray]:
        """Warm-start part of the swarm at the best past-evaluation regions.

        Returns ``None`` (uniform initialisation) when warm starting is disabled
        or no past evaluation scores a finite objective under the query.
        """
        if self.warm_start_fraction <= 0 or self.workload_features_ is None:
            return None
        num_particles = parameters.num_particles
        num_seeded = int(round(self.warm_start_fraction * num_particles))
        if num_seeded == 0:
            return None

        scores = objective.evaluate_batch(self.workload_features_)
        feasible = np.flatnonzero(np.isfinite(scores))
        if feasible.size == 0:
            return None
        rng = self._warm_start_rng()
        # Sample uniformly among feasible past evaluations so every discovered mode
        # is represented, rather than biasing all seeds towards the single best one.
        chosen = rng.choice(feasible, size=min(num_seeded, feasible.size), replace=False)
        seeds = self.workload_features_[chosen]

        lower, upper = space.bounds_vectors()
        positions = rng.uniform(lower, upper, size=(num_particles, space.solution_dim))
        positions[: seeds.shape[0]] = np.clip(seeds, lower, upper)
        return positions

    def _warm_start_rng(self) -> np.random.Generator:
        """An RNG stream for warm-start sampling, independent of the optimiser's.

        The optimiser seeds its own stream with ``default_rng(random_state)``;
        seeding warm starts with the same integer would make both consume
        correlated draws, so this spawns a child of the seed sequence instead —
        still deterministic for a fixed seed, but statistically independent of
        the swarm's movement stream.  A caller-supplied ``Generator`` (see
        :func:`repro.utils.rng.ensure_rng`) is a single live stream shared with
        the optimiser; drawing from it directly cannot replay any draws, so it
        is returned unchanged.
        """
        if isinstance(self.random_state, np.random.Generator):
            return self.random_state
        return np.random.default_rng(np.random.SeedSequence(self.random_state).spawn(1)[0])

    # ------------------------------------------------------------------ introspection
    def predict_statistic(self, region) -> float:
        """Surrogate prediction of the statistic for a region (no data access)."""
        self._check_fitted()
        return self.surrogate_.predict_region(region)

    def satisfiability(self, query: RegionQuery) -> float:
        """Eq. 5: probability that ``query`` is satisfiable at all.

        Estimated from the empirical CDF of the statistic over the training
        workload — an ``O(log W)`` binary search, no data access and no swarm
        run.  A serving layer uses this to reject hopeless thresholds before
        spending a full GSO run on them.
        """
        self._check_fitted()
        if self.satisfiability_ is None:
            raise NotFittedError("this SuRF was fitted without a satisfiability model")
        return self.satisfiability_.probability(query)

    # ------------------------------------------------------------------ persistence
    def save(self, path) -> Path:
        """Serialise the whole fitted finder to a single on-disk artifact bundle.

        The bundle carries the surrogate, solution space, density model,
        satisfiability model, workload features and every constructor setting,
        so :meth:`load` reconstructs a finder whose seeded queries are
        bit-identical to the original's.  See
        :func:`repro.surrogate.persistence.save_bundle`.
        """
        from repro.surrogate.persistence import save_bundle

        return save_bundle(self, path)

    @classmethod
    def load(cls, path) -> "SuRF":
        """Load a fitted finder from a bundle written by :meth:`save`.

        Called on a subclass, reconstructs that subclass (it must accept the
        same constructor arguments).
        """
        from repro.surrogate.persistence import load_bundle

        return load_bundle(path, finder_cls=cls)
