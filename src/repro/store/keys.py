"""Computing store addresses for campaign work units.

The address of one unit result is
:func:`repro.env.runner.result_digest` over the canonical
:func:`repro.env.runner.result_key`, extended with the backend's name
and behaviour version.  This module materialises a campaign spec exactly
the way the worker does (same device factory, same test resolution,
same environment regeneration, same iteration-count rule) and maps
every work unit to its digest, so the scheduler, the service, and the
store itself can never disagree about what a unit is called.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Dict

from repro.env.runner import result_digest, result_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.spec import CampaignSpec


def content_fingerprint(payload: Dict[str, Any]) -> str:
    """A short integrity hash over one JSON-serializable payload."""
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def unit_digests(spec: "CampaignSpec") -> Dict[int, str]:
    """Every work unit's store digest, keyed by unit index.

    Materialises the spec through the worker's own
    :func:`~repro.campaign.worker.build_state` — the one code path
    that resolves test names (synthesized suite first), constructs
    devices (including ``buggy`` bug injection), regenerates
    environments, and instantiates the backend — so a digest reflects
    precisely what executing the unit would compute.

    The iteration count folded into each key follows the runner's
    resolution rule: the spec's ``iterations_override`` when set, else
    the environment kind's default budget.
    """
    # Imported lazily: repro.campaign imports repro.store (the
    # scheduler partitions against it), so the module-level direction
    # must stay store → env only.
    from repro.campaign.worker import build_state

    state = build_state(spec)
    backend = state.backend
    digests: Dict[int, str] = {}
    for unit in state.units:
        environment = state.environments[(unit.kind.name, unit.env_key)]
        iterations = environment.iterations(spec.iterations_override)
        key = result_key(
            state.tests[unit.test_name],
            state.devices[unit.device_name],
            environment,
            seed=spec.seed,
            iterations=iterations,
        )
        digests[unit.index] = result_digest(
            backend.name, backend.version, key
        )
    return digests
