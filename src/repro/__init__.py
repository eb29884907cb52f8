"""SuRF — SUrrogate Region Finder (ICDE 2020) reproduction.

The public API re-exports the pieces most users need:

* :class:`repro.SuRF` — the surrogate-model + glowworm-swarm region finder,
* :class:`repro.RegionQuery` / :class:`repro.Region` — queries and results,
* the **front door** (:mod:`repro.api`) — typed :class:`repro.FindRequest` /
  :class:`repro.FindResponse` envelopes served by a composable middleware
  kernel (:class:`repro.ServiceKernel`) with multi-tenant routing
  (:class:`repro.ModelRegistry`) and declarative plugin registries for
  statistics, backends, surrogate families and optimisers,
* the online learning loop (:mod:`repro.online`) — :class:`repro.QueryLog`
  harvesting, :class:`repro.IncrementalTrainer` warm-start refreshes with a
  :class:`repro.DriftMonitor`-guarded full-refit fallback, and hot-swap
  serving via ``ServiceKernel.refresh`` / :class:`repro.RefreshPolicy`,
* the data substrate (:mod:`repro.data`) with pluggable scan backends
  (:mod:`repro.backends` — in-memory NumPy, out-of-core memory-mapped chunks,
  SQLite, sharded parallel evaluation), the surrogate layer
  (:mod:`repro.surrogate`), baselines (:mod:`repro.baselines`) and the
  experiment runners reproducing each table/figure (:mod:`repro.experiments`).

Quickstart::

    from repro import SuRF, RegionQuery
    from repro.data import DataEngine, CountStatistic, make_crimes_like

    crimes = make_crimes_like(num_points=20_000, random_state=0)
    engine = DataEngine(crimes, CountStatistic())
    finder = SuRF.from_engine(engine, num_evaluations=2_000, random_state=0)
    result = finder.find_regions(RegionQuery(threshold=500, direction="above"))
    for proposal in result.proposals:
        print(proposal.region, proposal.predicted_value)
"""

from repro.api import (
    FindRequest,
    FindResponse,
    ModelRegistry,
    ProposalPayload,
    ServiceKernel,
    ServiceStats,
)
from repro.backends import (
    ChunkedBackend,
    DataBackend,
    NumpyBackend,
    ShardedBackend,
    SQLiteBackend,
    make_backend,
)
from repro.core.evaluation import average_iou, compliance_rate
from repro.core.finder import RegionSearchResult, SuRF
from repro.core.objective import LogObjective, RatioObjective
from repro.core.postprocess import RegionProposal
from repro.core.query import RegionQuery, SolutionSpace
from repro.core.satisfiability import SatisfiabilityModel
from repro.data.dataset import Dataset
from repro.data.engine import DataEngine
from repro.data.regions import Region
from repro.online import DriftMonitor, IncrementalTrainer, QueryLog, RefreshOutcome, RefreshPolicy
from repro.surrogate.training import SurrogateTrainer
from repro.surrogate.workload import RegionWorkload, generate_workload

__version__ = "1.0.0"

__all__ = [
    "SuRF",
    "RegionSearchResult",
    "RegionQuery",
    "SolutionSpace",
    "SatisfiabilityModel",
    "RegionProposal",
    "Region",
    "Dataset",
    "DataEngine",
    "DataBackend",
    "NumpyBackend",
    "ChunkedBackend",
    "SQLiteBackend",
    "ShardedBackend",
    "make_backend",
    "RegionWorkload",
    "generate_workload",
    "SurrogateTrainer",
    "FindRequest",
    "FindResponse",
    "ProposalPayload",
    "ServiceKernel",
    "ModelRegistry",
    "ServiceStats",
    "QueryLog",
    "DriftMonitor",
    "IncrementalTrainer",
    "RefreshOutcome",
    "RefreshPolicy",
    "LogObjective",
    "RatioObjective",
    "average_iou",
    "compliance_rate",
    "__version__",
]
