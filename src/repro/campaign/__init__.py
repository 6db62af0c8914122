"""Campaign orchestration: the production layer over the runner.

Turns "run the evaluation" into a first-class service: a declarative
:class:`CampaignSpec` grid, a sharded multiprocessing executor that
runs each shard as exact sub-grids through ``Backend.run_grid``, with
per-unit timeout budgets and bounded retry, one per-campaign unit book
(:class:`~repro.campaign.book.UnitBook`) shared by every driver, an
append-only JSONL journal for exact checkpoint/resume, and per-worker
telemetry.  Sits between
:mod:`repro.env` (which executes one unit) and :mod:`repro.analysis`
(which aggregates the assembled :class:`TuningResult` objects).

Quick tour:

>>> from repro.campaign import CampaignSpec, ExecutorConfig, run_campaign
>>> spec = CampaignSpec(
...     kinds=("PTE",), device_names=("AMD",),
...     test_names=("rev_poloc_rr_w_mut",), environment_count=4,
... )
>>> outcome = run_campaign(
...     spec, journal_path="campaign.jsonl",
...     config=ExecutorConfig(workers=4),
... )                                               # doctest: +SKIP
>>> outcome.results                                 # doctest: +SKIP
{<EnvironmentKind.PTE>: TuningResult(...)}
"""

from repro.campaign.book import assemble_results
from repro.campaign.journal import CampaignJournal, JournalRecord
from repro.campaign.metrics import CampaignMetrics, WorkerCounters
from repro.campaign.scheduler import (
    CampaignFailure,
    CampaignOutcome,
    CampaignScheduler,
    CampaignStatus,
    ExecutorConfig,
    campaign_status,
    resume_campaign,
    run_campaign,
    verify_order_independence,
)
from repro.campaign.spec import (
    CampaignError,
    CampaignSpec,
    UnitKey,
    WorkUnit,
    paper_spec,
    smoke_spec,
)
from repro.campaign.worker import (
    FaultPlan,
    ShardResult,
    TransientWorkerError,
    UnitOutcome,
)

__all__ = [
    "CampaignError",
    "CampaignFailure",
    "CampaignJournal",
    "CampaignMetrics",
    "CampaignOutcome",
    "CampaignScheduler",
    "CampaignSpec",
    "CampaignStatus",
    "ExecutorConfig",
    "FaultPlan",
    "JournalRecord",
    "ShardResult",
    "TransientWorkerError",
    "UnitKey",
    "UnitOutcome",
    "WorkUnit",
    "WorkerCounters",
    "assemble_results",
    "campaign_status",
    "paper_spec",
    "resume_campaign",
    "run_campaign",
    "smoke_spec",
    "verify_order_independence",
]
