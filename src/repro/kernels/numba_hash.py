"""Optional Numba JIT tier for the hash-family kernels.

Compiles the two primitives of :mod:`repro.kernels.hash_schemes` —
simple-tabulation gather and pairwise affine over the Mersenne prime
``2^61 - 1`` — as ``@njit(cache=True)`` loops over the same flat-table /
limb-split layouts the numpy tier uses, so the tiers are **bit-identical**
(asserted in ``tests/kernels/test_hash_schemes.py`` whenever numba is
installed).  Every intermediate is kept explicitly ``uint64``: numba
promotes mixed uint64/int64 arithmetic to float64, which would silently
destroy exactness, so all constants are wrapped.

Numba is an optional dependency: importing this module never raises.
The one numba import lives in :mod:`repro.kernels.registry`, which
keeps :mod:`repro.kernels.hash_schemes` on the numpy tier (logging a
``backend-fallback`` event) when numba is not importable.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.registry import NUMBA_AVAILABLE, NUMBA_IMPORT_ERROR, njit

__all__ = [
    "pairwise_u64",
    "tabulation_u64",
]


if NUMBA_AVAILABLE:  # pragma: no cover - exercised only where numba is installed

    @njit(cache=True)
    def tabulation_u64(keys: np.ndarray, flat: np.ndarray,
                       out: np.ndarray) -> None:
        """Simple tabulation: eight table loads XOR-folded per key."""
        mask = np.uint64(0xFF)
        for i in range(keys.shape[0]):
            x = keys[i]
            acc = np.uint64(0)
            for c in range(8):
                acc ^= flat[np.uint64(c * 256) + ((x >> np.uint64(8 * c)) & mask)]
            out[i] = acc

    @njit(cache=True)
    def pairwise_u64(keys: np.ndarray, a: np.uint64, b: np.uint64,
                     out: np.ndarray) -> None:
        """Exact ``(a·x + b) mod (2^61-1)`` via 32-bit limb splitting.

        Same derivation as the numpy tier
        (:func:`repro.kernels.hash_schemes._pairwise_numpy`): cross
        terms re-enter through ``2^64 ≡ 8 (mod p)`` and
        ``2^32 = 2^61 / 2^29``, every intermediate below 2^63.
        """
        p = np.uint64((1 << 61) - 1)
        sh61 = np.uint64(61)
        sh32 = np.uint64(32)
        sh29 = np.uint64(29)
        mask32 = np.uint64((1 << 32) - 1)
        mask29 = np.uint64((1 << 29) - 1)
        a_hi = a >> sh32
        a_lo = a & mask32
        for i in range(keys.shape[0]):
            x = keys[i]
            x = (x >> sh61) + (x & p)
            x = (x >> sh61) + (x & p)
            if x >= p:
                x -= p
            x_hi = x >> sh32
            x_lo = x & mask32
            term1 = (a_hi * x_hi) << np.uint64(3)
            mid = a_hi * x_lo + a_lo * x_hi
            term2 = (mid >> sh29) + ((mid & mask29) << sh32)
            t3 = a_lo * x_lo
            term3 = (t3 >> sh61) + (t3 & p)
            total = term1 + term2 + term3 + b
            total = (total >> sh61) + (total & p)
            total = (total >> sh61) + (total & p)
            if total >= p:
                total -= p
            out[i] = total

else:  # pragma: no cover - the numpy tier handles everything

    def tabulation_u64(keys, flat, out):  # noqa: D103 - unreachable stub
        raise RuntimeError("numba is not available") from NUMBA_IMPORT_ERROR

    def pairwise_u64(keys, a, b, out):  # noqa: D103 - unreachable stub
        raise RuntimeError("numba is not available") from NUMBA_IMPORT_ERROR
