"""Baseline region-mining methods the paper compares SuRF against.

* :class:`NaiveGridSearch` — the Section II-A exhaustive discretised search.
* :class:`PRIM` — Friedman & Fisher's Patient Rule Induction Method.
* :class:`TrueFunctionGSO` — GSO driven by the true statistic (``f+GlowWorm``).
"""

from repro.baselines.naive import NaiveGridSearch
from repro.baselines.prim import PRIM, PrimBox
from repro.baselines.true_gso import TrueFunctionGSO

__all__ = ["NaiveGridSearch", "PRIM", "PrimBox", "TrueFunctionGSO"]
