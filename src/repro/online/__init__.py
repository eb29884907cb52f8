"""Online learning loop: query-log harvesting, incremental refresh, hot swap.

The paper's surrogate is trained on "pairs ``([x, l], y)`` harvested from the
query log"; this package closes that loop for a live deployment:

1. :class:`QueryLog` — an append-only, capped ring buffer of exact region
   evaluations, recorded by the serving layer (and by anything else that
   observes ground truth), persisted in the same ``.npz`` layout as training
   workloads.
2. :class:`IncrementalTrainer` — folds logged pairs into the surrogate with
   warm-start boosting rounds, escalating to a full refit when the
   :class:`DriftMonitor`'s rolling residuals say the model has drifted, and
   refreshes the Eq. 5 satisfiability CDF from the enlarged sample.
3. :class:`RefreshPolicy` — a background thread that triggers
   :meth:`repro.api.ServiceKernel.refresh` once enough new pairs accumulate;
   the kernel hot-swaps the refreshed models atomically under its lock.
"""

from repro.online.drift import DriftMonitor
from repro.online.policy import RefreshPolicy
from repro.online.query_log import QueryLog
from repro.online.trainer import IncrementalTrainer, RefreshOutcome

__all__ = [
    "QueryLog",
    "DriftMonitor",
    "IncrementalTrainer",
    "RefreshOutcome",
    "RefreshPolicy",
]
