"""Campaign-scale design-space exploration: batch evaluation, caching, aggregation.

The seed :func:`repro.core.explore` evaluated one network on one device with
a scalar nested loop, recomputing identical ``(m, r)`` transform and
complexity work for every budget x frequency combination.  This subsystem
turns that into a campaign engine:

* :mod:`repro.dse.vectorized` — :func:`evaluate_cell_batch`, the NumPy
  batch engine that evaluates every grid: one ``(network, device)`` cell's
  whole ``m x r x budget x frequency`` grid as stacked array operations,
  bit-identical to the scalar model and an order of magnitude faster on
  Fig. 6-scale sweeps;
* :mod:`repro.dse.engine` — :func:`iter_explore`, a streaming evaluator over
  networks x devices x sweep specs that runs each cell through that
  engine, plus :func:`evaluate_design_cached`, the memoised single-point
  evaluator that per-probe search strategies use;
* :mod:`repro.dse.cache` — :class:`EvaluationCache`, a layered memo keyed on
  ``(network, device, calibration, m, r, budget, frequency, shared)`` behind
  :func:`evaluate_design_cached`;
* :mod:`repro.dse.batch` — :func:`evaluate_requests`, the heterogeneous
  batch entry point: a mixed list of (network, device, entry) requests
  grouped by cell and dispatched through the vectorized engine, one
  outcome per request — what the :mod:`repro.service` micro-batcher
  feeds;
* :mod:`repro.dse.campaign` — :class:`Campaign` / :class:`CampaignResult`,
  the campaign description and its aggregated outcome (per-network Pareto
  fronts, best-by-metric picks, comparison tables, JSON ``save``/``load``).

This package is the *evaluation engine*; the declarative layer on top of it
lives in :mod:`repro.experiments` (``ExperimentSpec`` + pluggable search
strategies + the ``python -m repro`` CLI).  ``Campaign.run()`` and
:func:`run_campaign` are thin shims over that API's exhaustive
``GridStrategy``.

Quickstart — a 3-network x 2-device campaign:

>>> from repro.dse import Campaign
>>> result = Campaign(
...     networks=("vgg16-d", "alexnet", "resnet18"),
...     devices=("xc7vx485t", "xc7vx690t"),
... ).run()
>>> result.best("throughput_gops").name
'F(7x7,3x3)-P11'
"""

from .batch import BatchOutcome, EvalRequest, evaluate_requests
from .cache import CacheStats, EvaluationCache, global_cache, network_fingerprint
from .campaign import (
    Campaign,
    CampaignResult,
    DEFAULT_OBJECTIVES,
    METRIC_DIRECTIONS,
    run_campaign,
)
from .engine import evaluate_design_cached, iter_explore
from .vectorized import (
    BatchResult,
    DOES_NOT_FIT,
    EXCEEDS_ERROR_BUDGET,
    evaluate_cell_batch,
)

__all__ = [
    "BatchOutcome",
    "EvalRequest",
    "evaluate_requests",
    "BatchResult",
    "DOES_NOT_FIT",
    "EXCEEDS_ERROR_BUDGET",
    "evaluate_cell_batch",
    "CacheStats",
    "EvaluationCache",
    "global_cache",
    "network_fingerprint",
    "Campaign",
    "CampaignResult",
    "DEFAULT_OBJECTIVES",
    "METRIC_DIRECTIONS",
    "run_campaign",
    "evaluate_design_cached",
    "iter_explore",
]
