"""The kernel-tier registry: one vocabulary and one resolver for every family.

Every hot path of the repository runs behind interchangeable kernel
*tiers* that are bit-identical to each other.  This module is the only
place a tier is chosen:

- :data:`TIERS` maps each kernel *family* to the tiers it implements;
- :data:`TIER_ORDER` is the one vocabulary, ordered
  ``reference < numpy < numba < numba-parallel``;
- :func:`resolve` picks a family's tier (explicit name >
  ``REPRO_BACKEND`` environment variable > auto);
- the single try-import of numba lives here (:data:`NUMBA_AVAILABLE`,
  :data:`NUMBA_IMPORT_ERROR`, and the ``njit`` / ``prange`` decorators
  the JIT modules compile with).

Resolution rules:

1. An explicit ``name`` wins; otherwise a non-blank ``REPRO_BACKEND``;
   otherwise auto, which picks ``numba`` when it is importable and
   ``numpy`` when not.  Names are case- and space-insensitive.
2. A name outside the vocabulary raises one
   :class:`~repro.errors.ConfigurationError`, whose text is the same for
   every family apart from the family's own name.
3. A known name that the family lacks, or that cannot run on this host
   (a numba tier without numba), degrades to the nearest tier: the
   highest available tier at or below the requested one, else the lowest
   available tier.  Each degradation logs one ``backend-fallback`` event
   with ``family``, ``requested``, ``using`` and ``source`` to the
   process-global metrics registry (and to the caller's registry when
   one is passed).  Runs keep working; the degradation stays observable.
"""

from __future__ import annotations

import os

from repro.errors import ConfigurationError
from repro.metrics import MetricsRegistry, global_registry

__all__ = [
    "ENV_VAR",
    "NUMBA_AVAILABLE",
    "NUMBA_IMPORT_ERROR",
    "TIERS",
    "TIER_ORDER",
    "available",
    "njit",
    "prange",
    "resolve",
]

#: Environment variable consulted when no explicit tier is given.
ENV_VAR = "REPRO_BACKEND"

#: The tier vocabulary, lowest first.
TIER_ORDER = ("reference", "numpy", "numba", "numba-parallel")

#: Kernel family -> the tiers it implements (in vocabulary order).
TIERS: dict[str, tuple[str, ...]] = {
    "placement": ("numpy", "numba"),
    "supermarket": ("numpy", "numba"),
    "peeling": ("numpy", "numba"),
    "hash": ("numpy", "numba"),
    "keymap": ("reference", "numpy", "numba", "numba-parallel"),
}

_NUMBA_TIERS = frozenset({"numba", "numba-parallel"})
_RANK = {tier: i for i, tier in enumerate(TIER_ORDER)}

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit, prange

    NUMBA_AVAILABLE = True
    NUMBA_IMPORT_ERROR: Exception | None = None
except Exception as _exc:  # ImportError, or a broken install
    njit = None
    prange = None
    NUMBA_AVAILABLE = False
    NUMBA_IMPORT_ERROR = _exc


def available(family: str) -> tuple[str, ...]:
    """Tiers of ``family`` that can run in this process."""
    return tuple(
        t for t in TIERS[family] if NUMBA_AVAILABLE or t not in _NUMBA_TIERS
    )


def resolve(
    family: str,
    name: str | None = None,
    *,
    metrics: MetricsRegistry | None = None,
) -> str:
    """The tier ``family`` runs: explicit ``name`` > ``REPRO_BACKEND`` > auto.

    Returns a member of :func:`available` for ``family``.  Unknown names
    raise :class:`~repro.errors.ConfigurationError`; a known name the
    family cannot run degrades to the nearest tier and logs one
    ``backend-fallback`` event (see the module docstring).
    """
    tiers = available(family)
    source = "explicit"
    if name is None:
        name = os.environ.get(ENV_VAR, "").strip() or None
        source = "env"
    if name is None:
        return "numba" if "numba" in tiers else "numpy"
    requested = name.strip().lower()
    if requested not in _RANK:
        origin = ENV_VAR if source == "env" else "the backend argument"
        raise ConfigurationError(
            f"unknown kernel backend {name!r} (from {origin}) for the "
            f"{family!r} kernels; known tiers: {', '.join(TIER_ORDER)}"
        )
    if requested in tiers:
        return requested
    below = [t for t in tiers if _RANK[t] <= _RANK[requested]]
    using = below[-1] if below else tiers[0]
    fields = dict(family=family, requested=requested, using=using, source=source)
    global_registry().event("backend-fallback", **fields)
    if metrics is not None and metrics is not global_registry():
        metrics.event("backend-fallback", **fields)
    return using

