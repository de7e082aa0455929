"""Optional Numba JIT placement backend.

Consumes exactly the same packed-candidate arrays as the numpy backend
(:mod:`repro.kernels.generate`) and walks them with the plain sequential
loop the process definition describes, compiled with ``@njit(cache=True)``.
Because the numpy backend's out-of-order commit schedule is a pure
function of those arrays and provably order-independent, the two backends
are **bit-identical** for the same seed (asserted in
``tests/kernels/test_equivalence.py`` whenever numba is installed).

Numba is an optional dependency: importing this module never raises.
The one numba import lives in :mod:`repro.kernels.registry`, which
degrades a ``numba`` request to numpy (logging a ``backend-fallback``
event) when numba is not importable.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.generate import KernelLayout
from repro.kernels.registry import NUMBA_AVAILABLE, njit

__all__ = ["NumbaBackend"]


if NUMBA_AVAILABLE:  # pragma: no cover - exercised only where numba is installed

    @njit(cache=True)
    def _place_sequential(
        loads: np.ndarray, pc: np.ndarray, cidx_mask: np.int64, key_shift: np.int64
    ) -> None:
        d, trials, steps_p = pc.shape
        steps = steps_p - 1
        for t in range(trials):
            for b in range(steps):
                best_key = np.int64(0x7FFFFFFFFFFFFFFF)
                best_ci = np.int64(0)
                for j in range(d):
                    p = np.int64(pc[j, t, b])
                    ci = p & cidx_mask
                    key = (np.int64(loads[ci]) << key_shift) + p
                    if key < best_key:
                        best_key = key
                        best_ci = ci
                loads[best_ci] += 1


class NumbaBackend:
    """JIT-compiled whole-block sequential loop (requires numba)."""

    name = "numba"

    def make_workspace(
        self, *, d: int, trials: int, window: int, bins_p: int, dtype=np.int32
    ) -> None:
        """Return ``None``: the sequential loop carries no scratch state."""
        return None

    def place(
        self,
        loads: np.ndarray,
        pc: np.ndarray,
        *,
        layout: KernelLayout,
        workspace: None = None,
    ) -> int:
        """Place every ball of ``pc`` into ``loads``; returns 1 (one pass)."""
        if not NUMBA_AVAILABLE:  # pragma: no cover - registry prevents this
            raise RuntimeError("numba backend selected but numba is not importable")
        _place_sequential(loads, pc, layout.cidx_mask, np.int64(layout.key_shift))
        return 1
