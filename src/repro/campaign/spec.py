"""Campaign specifications: the declarative form of an evaluation.

A :class:`CampaignSpec` names a grid of (test × device × environment ×
iterations) work units — the paper's evaluation is one such grid: 150
environments × 4 tuning families × 32 mutants × 4 devices.  The spec
is pure data: environments are regenerated from (kind, count, seed),
devices and tests are referenced by name, and every work unit derives
its RNG stream from the campaign seed and its own stable key
(:func:`repro.env.runner.unit_seed_sequence`).  That makes a spec
compact enough to embed in a journal header, and makes results
independent of execution order and worker count.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.env.environment import EnvironmentKind, TestingEnvironment
from repro.env.tuning import environments_for
from repro.errors import EnvironmentError_, ReproError

#: Version 2 renamed ``mode`` to ``backend`` (validated against the
#: :mod:`repro.backends` registry) and made the operational instance
#: cap an optional backend option instead of an always-present field.
#: Version 3 added ``suite_path``: a campaign over a synthesized suite
#: (:mod:`repro.synthesis`) records the suite file so workers resolve
#: generated test names from it.  Version 4 added the persistent
#: result store knobs ``store_path`` and ``store_policy``
#: (:mod:`repro.store`); both are *execution* knobs, excluded from the
#: grid fingerprint, so turning a store on or off never orphans a
#: journal.  Version 5 records the backend's ``equivalence`` contract
#: (:data:`repro.backends.EQUIVALENCE_CONTRACTS`) in the serialized
#: payload — derived from the backend, never set directly — so resume
#: refuses to continue a journal whose recorded contract (say
#: ``bitwise``) no longer matches what the named backend now promises
#: (say ``statistical``): the journal's completed units and the new
#: units would not be draw-compatible.  Version 1–4 payloads are still
#: readable (see :meth:`from_dict`).
SPEC_VERSION = 5

#: Spec fields that configure execution machinery rather than the work
#: grid; scrubbed from the fingerprint so toggling them preserves
#: journal identity (resume with a store, record without one, etc.).
#: ``equivalence`` is derived metadata about the backend (already a
#: grid field), so it is scrubbed too — v4 journals fingerprint
#: identically under v5.
_NON_GRID_FIELDS = ("store_path", "store_policy", "equivalence")

#: Identifies one work unit across processes and resumed campaigns.
UnitKey = Tuple[str, int, str, str]  # (kind name, env_key, device, test)


class CampaignError(ReproError):
    """Raised for malformed specs, journals, or failed campaigns."""


def payload_fingerprint(payload: Dict[str, Any]) -> str:
    """The grid fingerprint of one serialized spec payload.

    Hashes the payload *as given* (minus the non-grid execution
    fields), which is exactly how every historical spec version
    computed its fingerprint — version 1–3 payloads have no non-grid
    fields, so hashing a v1 journal header's stored payload reproduces
    the fingerprint that header recorded.  This is what lets
    :meth:`repro.campaign.journal.CampaignJournal.load_spec` validate
    headers written by any spec version without re-serializing them
    through the current :meth:`CampaignSpec.to_dict`.
    """
    scrubbed = {
        key: value
        for key, value in payload.items()
        if key not in _NON_GRID_FIELDS
    }
    canonical = json.dumps(scrubbed, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class WorkUnit:
    """One (kind, environment, device, test) cell of the campaign grid."""

    index: int
    kind: EnvironmentKind
    env_key: int
    device_name: str
    test_name: str

    @property
    def key(self) -> UnitKey:
        return (self.kind.name, self.env_key, self.device_name,
                self.test_name)


@dataclass(frozen=True)
class CampaignSpec:
    """A deterministic grid of work units plus execution knobs.

    The unit order matches :meth:`Runner.run_matrix` (environments
    outermost, then devices, then tests, one block per kind), so a
    campaign assembled in unit order is byte-identical to the serial
    tuning path for the same seed.
    """

    name: str = "campaign"
    kinds: Tuple[str, ...] = tuple(kind.name for kind in EnvironmentKind)
    device_names: Tuple[str, ...] = ("NVIDIA", "AMD", "Intel", "M1")
    test_names: Tuple[str, ...] = ()
    environment_count: int = 150
    seed: int = 0
    iterations_override: Optional[int] = None
    backend: str = "analytic"
    buggy: bool = False
    max_operational_instances: Optional[int] = None
    #: Path to a synthesized-suite JSON file; when set, workers resolve
    #: test names from that suite before the built-in registries.
    suite_path: Optional[str] = None
    #: Directory of the persistent :mod:`repro.store` result store.
    store_path: Optional[str] = None
    #: ``"off"`` (no store), ``"record"`` (write completed units), or
    #: ``"reuse"`` (skip execution of units the store already knows,
    #: and record the rest).
    store_policy: str = "off"
    _kind_members: Tuple[EnvironmentKind, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if not self.kinds:
            raise CampaignError("a campaign needs at least one kind")
        if not self.device_names:
            raise CampaignError("a campaign needs at least one device")
        if not self.test_names:
            raise CampaignError("a campaign needs at least one test")
        if self.environment_count < 0:
            raise CampaignError("environment_count must be non-negative")
        # One validation point for backend names and options: the
        # repro.backends registry (imported lazily to avoid a cycle).
        from repro.backends import make_backend

        try:
            make_backend(
                self.backend,
                max_operational_instances=self.max_operational_instances,
            )
        except EnvironmentError_ as error:
            raise CampaignError(str(error))
        from repro.store import STORE_POLICIES

        if self.store_policy not in STORE_POLICIES:
            raise CampaignError(
                f"unknown store_policy: {self.store_policy!r} "
                f"(want one of {', '.join(STORE_POLICIES)})"
            )
        try:
            members = tuple(EnvironmentKind[name] for name in self.kinds)
        except KeyError as error:
            raise CampaignError(f"unknown environment kind: {error}")
        object.__setattr__(self, "_kind_members", members)

    # -- the grid ---------------------------------------------------------

    @property
    def kind_members(self) -> Tuple[EnvironmentKind, ...]:
        return self._kind_members

    def environments(self, kind: EnvironmentKind) -> List[TestingEnvironment]:
        """The (regenerated, deterministic) environments of one kind."""
        return environments_for(kind, self.environment_count, self.seed)

    def units(self) -> List[WorkUnit]:
        """Every work unit, in canonical (serial-path) order."""
        units: List[WorkUnit] = []
        for kind in self.kind_members:
            for environment in self.environments(kind):
                for device_name in self.device_names:
                    for test_name in self.test_names:
                        units.append(
                            WorkUnit(
                                index=len(units),
                                kind=kind,
                                env_key=environment.env_key,
                                device_name=device_name,
                                test_name=test_name,
                            )
                        )
        return units

    def unit_count(self) -> int:
        per_kind = len(self.device_names) * len(self.test_names)
        total = 0
        for kind in self.kind_members:
            envs = 1 if not kind.stressed else self.environment_count
            total += envs * per_kind
        return total

    # -- identity ---------------------------------------------------------

    def equivalence(self) -> str:
        """The selected backend's equivalence contract (derived)."""
        from repro.backends import resolve

        return resolve(self.backend).equivalence

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": SPEC_VERSION,
            "equivalence": self.equivalence(),
            "name": self.name,
            "kinds": list(self.kinds),
            "device_names": list(self.device_names),
            "test_names": list(self.test_names),
            "environment_count": self.environment_count,
            "seed": self.seed,
            "iterations_override": self.iterations_override,
            "backend": self.backend,
            "buggy": self.buggy,
            "max_operational_instances": self.max_operational_instances,
            "suite_path": self.suite_path,
            "store_path": self.store_path,
            "store_policy": self.store_policy,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CampaignSpec":
        version = payload.get("version")
        if version == 1:
            # Version 1 called the backend "mode" and always carried a
            # max_operational_instances, even for backends that ignored
            # it; keep the cap only where it was actually in effect.
            backend = payload.get("mode", "analytic")
            cap = payload.get("max_operational_instances")
            if backend != "operational":
                cap = None
        elif version in (2, 3, 4, SPEC_VERSION):
            backend = payload.get("backend", "analytic")
            cap = payload.get("max_operational_instances")
        else:
            raise CampaignError(
                f"unsupported campaign spec version: {version!r}"
            )
        # Version 5 payloads carry the backend's equivalence contract;
        # a journal recorded under one contract must not silently
        # resume under another (completed bitwise units are not
        # draw-compatible with a statistical backend's, and vice
        # versa).  Pre-v5 payloads recorded no contract, so the check
        # is keyed on the version, not on the key's presence, and they
        # keep loading.
        recorded = (
            payload.get("equivalence") if version >= 5 else None
        )
        if recorded is not None:
            from repro.backends import resolve

            try:
                current = resolve(backend).equivalence
            except EnvironmentError_ as error:
                raise CampaignError(str(error))
            if recorded != current:
                raise CampaignError(
                    f"campaign was recorded under the {recorded!r} "
                    f"equivalence contract, but backend {backend!r} "
                    f"now promises {current!r}; refusing to mix "
                    f"contracts across resume — start a fresh "
                    f"campaign (or pick a {recorded!r} backend)"
                )
        try:
            return cls(
                name=payload["name"],
                kinds=tuple(payload["kinds"]),
                device_names=tuple(payload["device_names"]),
                test_names=tuple(payload["test_names"]),
                environment_count=payload["environment_count"],
                seed=payload["seed"],
                iterations_override=payload["iterations_override"],
                backend=backend,
                buggy=payload.get("buggy", False),
                max_operational_instances=cap,
                suite_path=payload.get("suite_path"),
                store_path=payload.get("store_path"),
                store_policy=payload.get("store_policy", "off"),
            )
        except KeyError as error:
            raise CampaignError(f"malformed campaign spec: missing {error}")

    def fingerprint(self) -> str:
        """A stable identity for resume-compatibility checks."""
        return payload_fingerprint(self.to_dict())


def paper_spec(
    test_names: Sequence[str],
    environment_count: int = 150,
    seed: int = 42,
    kinds: Optional[Sequence[str]] = None,
    device_names: Optional[Sequence[str]] = None,
    name: str = "reproduce-all",
    backend: str = "analytic",
    max_operational_instances: Optional[int] = None,
    suite_path: Optional[str] = None,
    store_path: Optional[str] = None,
    store_policy: str = "off",
) -> CampaignSpec:
    """The full Sec. 5.1 evaluation grid (scaled by arguments)."""
    return CampaignSpec(
        name=name,
        kinds=tuple(kinds) if kinds else tuple(
            kind.name for kind in EnvironmentKind
        ),
        device_names=tuple(device_names) if device_names
        else ("NVIDIA", "AMD", "Intel", "M1"),
        test_names=tuple(test_names),
        environment_count=environment_count,
        seed=seed,
        backend=backend,
        max_operational_instances=max_operational_instances,
        suite_path=suite_path,
        store_path=store_path,
        store_policy=store_policy,
    )


def smoke_spec(
    test_names: Sequence[str],
    seed: int = 0,
    backend: str = "analytic",
    max_operational_instances: Optional[int] = None,
    suite_path: Optional[str] = None,
    store_path: Optional[str] = None,
    store_policy: str = "off",
) -> CampaignSpec:
    """A seconds-scale spec for CI smoke runs (`campaign run --smoke`)."""
    return CampaignSpec(
        name="smoke",
        kinds=("SITE_BASELINE", "PTE"),
        device_names=("AMD", "Intel"),
        test_names=tuple(test_names[:4]),
        environment_count=3,
        seed=seed,
        backend=backend,
        max_operational_instances=max_operational_instances,
        suite_path=suite_path,
        store_path=store_path,
        store_policy=store_policy,
    )
