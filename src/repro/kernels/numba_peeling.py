"""Optional Numba JIT peeling backend.

Compiles the synchronous-round peeling process of
:mod:`repro.kernels.peeling` with ``@njit(cache=True)``: the same flat
``(degree, edge_xor)`` accumulators, the same per-round frontier →
claim → dedupe-ascending → scatter steps, so the backend is **exactly
equivalent** to the numpy kernel and the reference oracle on success,
``peeled_order``, ``core_edges``, and ``rounds`` (asserted in
``tests/kernels/test_peeling_backends.py`` whenever numba is installed).

Differences are purely mechanical: the claim dedupe is a sort plus
adjacent-duplicate scan instead of ``np.unique``, and contract
violations are signalled with a status code (numba cannot raise the
repository's exception types) that the driver in :mod:`repro.kernels`
converts to :class:`~repro.errors.SimulationError`.

Numba is an optional dependency: importing this module never raises.
The one numba import lives in :mod:`repro.kernels.registry`, which
degrades a ``numba`` request to numpy (logging a ``backend-fallback``
event) when numba is not importable.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.registry import NUMBA_AVAILABLE, njit

__all__ = [
    "PEEL_OK",
    "PEEL_BAD_CLAIM",
    "peel_arrays_numba",
]


#: Status codes returned by the compiled loop (numba cannot raise our
#: exception types); the driver maps non-zero codes to SimulationError.
PEEL_OK = 0
PEEL_BAD_CLAIM = 1


if NUMBA_AVAILABLE:  # pragma: no cover - exercised only where numba is installed

    @njit(cache=True)
    def _peel_core(edges, degree, edge_xor, alive, peeled_order):
        m, d = edges.shape
        n = degree.shape[0]
        # Frontier/claim buffers sized for the worst case: the initial
        # frontier holds at most n vertices, later frontiers at most
        # m*d touched incidences (duplicates included — they collapse
        # in the per-round dedupe, but they occupy slots first).
        cap = n if n > m * d else m * d
        frontier = np.empty(cap, dtype=np.int64)
        fsize = 0
        for v in range(n):
            if degree[v] == 1:
                frontier[fsize] = v
                fsize += 1
        nxt = np.empty(m * d, dtype=np.int64)
        claims = np.empty(cap, dtype=np.int64)
        n_peeled = 0
        rounds = 0
        while fsize > 0:
            # Claim + dedupe (sort, then skip adjacent duplicates) — the
            # ascending scan reproduces np.unique's ordering exactly.
            for i in range(fsize):
                claims[i] = edge_xor[frontier[i]] - 1
            sub = claims[:fsize]
            sub.sort()
            batch_start = n_peeled
            prev = np.int64(-1)
            for i in range(fsize):
                e = sub[i]
                if e == prev:
                    continue
                prev = e
                if e < 0 or e >= m or not alive[e]:
                    return n_peeled, rounds, PEEL_BAD_CLAIM
                alive[e] = False
                peeled_order[n_peeled] = e
                n_peeled += 1
            rounds += 1
            # Scatter removals; collect touched vertices for the next
            # frontier (duplicates collapse in the next round's dedupe).
            nsize = 0
            for i in range(batch_start, n_peeled):
                e = peeled_order[i]
                eid = e + 1
                for j in range(d):
                    v = edges[e, j]
                    degree[v] -= 1
                    edge_xor[v] ^= eid
                    nxt[nsize] = v
                    nsize += 1
            fsize = 0
            for i in range(nsize):
                v = nxt[i]
                if degree[v] == 1:
                    frontier[fsize] = v
                    fsize += 1
        return n_peeled, rounds, PEEL_OK


def peel_arrays_numba(edges, degree, edge_xor):
    """Run the compiled peeling loop; returns ``(n_peeled, order, alive, rounds, status)``.

    ``degree`` and ``edge_xor`` are the freshly built accumulators from
    :func:`repro.kernels.peeling.build_accumulators` (consumed — mutated
    in place).  Only called by the driver when numba resolved.
    """
    if not NUMBA_AVAILABLE:  # pragma: no cover - registry prevents this
        raise RuntimeError("numba peeling selected but numba is not importable")
    m = edges.shape[0]
    alive = np.ones(m, dtype=np.bool_)
    peeled_order = np.empty(m, dtype=np.int64)
    n_peeled, rounds, status = _peel_core(
        edges, degree, edge_xor, alive, peeled_order
    )
    return n_peeled, peeled_order, alive, rounds, status
