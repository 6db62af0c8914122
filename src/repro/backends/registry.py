"""The backend registry: one canonical name → class lookup.

Before this registry existed, ``Runner`` and ``CampaignSpec`` each
hand-rolled a ``("analytic", "operational")`` membership check with
slightly different error messages.  Both now delegate here, so there
is exactly one place that knows which backends exist and one error
message that lists them.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple, Type

from repro.backends.base import EQUIVALENCE_CONTRACTS, Backend
from repro.errors import EnvironmentError_

_REGISTRY: "Dict[str, Type[Backend]]" = {}

#: Retired names that still resolve, so specs and journals pinning
#: them keep loading: ``vectorized`` was the analytic model's grid
#: pass before it folded into ``analytic`` (bit-identical by contract).
RETIRED_NAMES = {"vectorized": "analytic"}


def register(backend_class: Type[Backend]) -> Type[Backend]:
    """Register a backend class under its ``name`` (usable as a
    decorator); re-registering a name is an error, not a shadow."""
    name = backend_class.name
    if not name:
        raise EnvironmentError_(
            f"backend class {backend_class.__name__} has no name"
        )
    if backend_class.equivalence not in EQUIVALENCE_CONTRACTS:
        raise EnvironmentError_(
            f"backend {name!r} declares unknown equivalence contract "
            f"{backend_class.equivalence!r} (want one of "
            + ", ".join(EQUIVALENCE_CONTRACTS)
            + ")"
        )
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not backend_class:
        raise EnvironmentError_(
            f"backend name {name!r} is already registered to "
            f"{existing.__name__}"
        )
    _REGISTRY[name] = backend_class
    return backend_class


def registered_backends() -> Tuple[str, ...]:
    """Every registered backend name, sorted (retired names excluded)."""
    return tuple(sorted(_REGISTRY))


def resolve(name: str) -> Type[Backend]:
    """The single canonical backend lookup.

    Raises :class:`EnvironmentError_` with a message listing the
    registered backends — the one error both ``Runner`` and
    ``CampaignSpec`` surface for a bad backend name.  A retired name
    resolves to the backend that absorbed it.
    """
    try:
        return _REGISTRY[RETIRED_NAMES.get(name, name)]
    except KeyError:
        raise EnvironmentError_(
            f"unknown backend {name!r}; registered backends: "
            + ", ".join(registered_backends())
        ) from None


def validate_options(
    backend_class: Type[Backend], options: Dict[str, Any]
) -> None:
    """Reject options the backend would otherwise silently drop."""
    unknown = sorted(set(options) - set(backend_class.option_names))
    if unknown:
        accepted = ", ".join(sorted(backend_class.option_names)) or "none"
        raise EnvironmentError_(
            f"backend {backend_class.name!r} does not accept option(s) "
            f"{', '.join(repr(name) for name in unknown)} "
            f"(accepted: {accepted})"
        )


def make_backend(name: str, **options: Any) -> Backend:
    """Construct a backend by registry name, validating its options.

    ``None``-valued options mean "not provided" and are dropped before
    validation, so callers can plumb optional knobs through without
    tracking which backend they selected.
    """
    backend_class = resolve(name)
    provided = {
        key: value for key, value in options.items() if value is not None
    }
    validate_options(backend_class, provided)
    return backend_class(**provided)
