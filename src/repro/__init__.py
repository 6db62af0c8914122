"""MC Mutants: mutation testing for memory consistency specifications.

A from-scratch reproduction of *"MC Mutants: Evaluating and Improving
Testing for Memory Consistency Specifications"* (Levine et al.,
ASPLOS 2023), with the paper's GPU testbed replaced by a simulated
relaxed-memory device (see DESIGN.md for the substitution rationale).

Quick tour (see ``examples/quickstart.py``):

>>> from repro import build_suite, make_device, site_baseline, Runner
>>> suite = build_suite()                     # 20 conformance + 32 mutants
>>> device = make_device("intel", buggy=True) # carries the CoRR bug
>>> run = Runner().run(
...     device, suite.find("rev_poloc_rr_w"), site_baseline(), seed=0
... )

Subpackages:

* :mod:`repro.memory_model` — events, relations, memory models, and the
  exhaustive candidate-execution oracle (Sec. 2).
* :mod:`repro.litmus` — litmus-test programs, outcomes, the classic
  test library, WGSL shader generation.
* :mod:`repro.mutation` — the three mutators and the verified Table 2
  suite (Sec. 3).
* :mod:`repro.gpu` — the simulated devices, operational executor,
  analytic batch model, and injectable historical bugs.
* :mod:`repro.env` — SITE/PTE testing environments, the co-prime
  permutation, runners, and tuning (Sec. 4.1, 5.1).
* :mod:`repro.confidence` — reproducibility scores, Algorithm 1, CTS
  curation (Sec. 4.2).
* :mod:`repro.analysis` — statistics, Figure 5/6 and Table 2/3/4
  builders, reporting, JSON persistence (Sec. 5).
* :mod:`repro.campaign` — sharded parallel campaign orchestration:
  declarative work-unit grids, a multiprocessing executor with retry
  and timeouts, JSONL checkpoint/resume journals, run telemetry.
* :mod:`repro.backends` — pluggable execution backends (analytic,
  operational, tensor) behind one registry, plus the
  cross-backend validation harness.
* :mod:`repro.synthesis` — automated cycle enumeration and
  litmus/mutant synthesis: generates verified suites beyond the
  hand-written Table 2 set and recovers that set as a self-check.
"""

from repro.backends import (
    AnalyticBackend,
    Backend,
    OperationalBackend,
    make_backend,
    registered_backends,
)
from repro.confidence import (
    TARGET_FLOOR,
    TARGET_MAX,
    ceiling_rate,
    curate,
    merge_environments,
    merge_suite,
    reproducibility_score,
    required_kills,
    total_reproducibility,
)
from repro.env import (
    EnvironmentKind,
    EnvironmentParameters,
    Runner,
    TestingEnvironment,
    TuningResult,
    pte_baseline,
    random_environments,
    site_baseline,
    tuning_run,
)
from repro.errors import ReproError
from repro.gpu import (
    Device,
    Workload,
    make_device,
    study_devices,
)
from repro.litmus import (
    BehaviorSpec,
    LitmusTest,
    Outcome,
    TestOracle,
    generate_wgsl,
    library,
)
from repro.memory_model import (
    Execution,
    MemoryModel,
    REL_ACQ_SC_PER_LOCATION,
    SC,
    SC_PER_LOCATION,
)
from repro.mutation import (
    MutationSuite,
    MutatorKind,
    build_suite,
    default_suite,
)
from repro.campaign import (
    CampaignSpec,
    ExecutorConfig,
    campaign_status,
    paper_spec,
    resume_campaign,
    run_campaign,
    smoke_spec,
    verify_order_independence,
)
from repro.synthesis import (
    SynthesisConfig,
    SynthesizedSuite,
    load_suite,
    save_suite,
    synthesize,
)
from repro.analysis import (
    figure5,
    figure6,
    render_figure5_rates,
    render_figure5_scores,
    render_figure6,
    render_table2,
    render_table3,
    render_table4,
    table4,
)

__version__ = "1.0.0"

__all__ = [
    "AnalyticBackend",
    "Backend",
    "BehaviorSpec",
    "CampaignSpec",
    "Device",
    "EnvironmentKind",
    "EnvironmentParameters",
    "Execution",
    "ExecutorConfig",
    "LitmusTest",
    "MemoryModel",
    "MutationSuite",
    "MutatorKind",
    "OperationalBackend",
    "Outcome",
    "REL_ACQ_SC_PER_LOCATION",
    "ReproError",
    "Runner",
    "SC",
    "SC_PER_LOCATION",
    "SynthesisConfig",
    "SynthesizedSuite",
    "TARGET_FLOOR",
    "TARGET_MAX",
    "TestOracle",
    "TestingEnvironment",
    "TuningResult",
    "Workload",
    "build_suite",
    "campaign_status",
    "ceiling_rate",
    "curate",
    "default_suite",
    "figure5",
    "figure6",
    "generate_wgsl",
    "library",
    "load_suite",
    "make_backend",
    "make_device",
    "merge_environments",
    "merge_suite",
    "paper_spec",
    "pte_baseline",
    "random_environments",
    "registered_backends",
    "render_figure5_rates",
    "render_figure5_scores",
    "render_figure6",
    "render_table2",
    "render_table3",
    "render_table4",
    "reproducibility_score",
    "required_kills",
    "resume_campaign",
    "run_campaign",
    "save_suite",
    "site_baseline",
    "smoke_spec",
    "study_devices",
    "synthesize",
    "table4",
    "total_reproducibility",
    "tuning_run",
    "verify_order_independence",
]
