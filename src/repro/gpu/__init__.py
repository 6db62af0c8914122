"""The simulated GPU substrate.

The paper runs litmus tests on four physical GPUs through WebGPU; this
package replaces the hardware with an operational relaxed-memory
simulator (store buffers with fence barriers, issue-order relaxation,
chunked interleaving — coherence holds by construction) plus an
analytic batch model for rate computations at PTE scale, per-vendor
behaviour profiles (Table 3), and injectable models of the three
historical MCS bugs the paper studies (Sec. 5.4).
"""

from repro.gpu.bugs import (
    ALL_BUGS,
    AMD_MP_RELACQ,
    BugKind,
    BugModel,
    BugSet,
    INTEL_CORR,
    NO_BUGS,
    NVIDIA_KEPLER_MP_CO,
    bug_by_kind,
)
from repro.gpu.characteristics import (
    Mechanism,
    TestCharacteristics,
    characterize,
)
from repro.gpu.device import (
    Device,
    historical_bugs,
    make_device,
    study_devices,
)
from repro.gpu.executor import compile_test, run_instance
from repro.gpu.batch import BatchModel
from repro.gpu.memory import CoherentMemory, StoreBuffer
from repro.gpu.profiles import (
    ALL_PROFILES,
    AMD_RADEON_PRO,
    APPLE_M1,
    CostModel,
    DeviceProfile,
    DeviceType,
    ExecutionTuning,
    INTEL_IRIS_PLUS,
    NVIDIA_KEPLER,
    NVIDIA_RTX_2080,
    STUDY_PROFILES,
    Vendor,
    Workload,
    profile_by_name,
)

__all__ = [
    "ALL_BUGS",
    "ALL_PROFILES",
    "AMD_MP_RELACQ",
    "AMD_RADEON_PRO",
    "APPLE_M1",
    "BatchModel",
    "BugKind",
    "BugModel",
    "BugSet",
    "CoherentMemory",
    "CostModel",
    "Device",
    "DeviceProfile",
    "DeviceType",
    "ExecutionTuning",
    "INTEL_CORR",
    "INTEL_IRIS_PLUS",
    "Mechanism",
    "NO_BUGS",
    "NVIDIA_KEPLER",
    "NVIDIA_KEPLER_MP_CO",
    "NVIDIA_RTX_2080",
    "STUDY_PROFILES",
    "StoreBuffer",
    "TestCharacteristics",
    "Vendor",
    "Workload",
    "bug_by_kind",
    "characterize",
    "compile_test",
    "historical_bugs",
    "make_device",
    "profile_by_name",
    "run_instance",
    "study_devices",
]
