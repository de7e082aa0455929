"""Optional Numba JIT backend for the open-addressed keymap kernel.

Walks exactly the probe sequence :mod:`repro.hashing.probe` defines —
one splitmix64 pass per key, high bits for the start slot, low bits
forced odd for the stride — as a straight sequential loop per key,
compiled with ``@njit(cache=True)``.  Sequential execution makes the
batch semantics (set-default inserts, duplicate-key ordering,
delete-miss behavior) trivially identical to the dict oracle; the
cross-backend suites in ``tests/kernels/test_keymap.py`` assert exact
equality anyway.

Lookups additionally come in a ``parallel=True`` / ``prange`` variant
(the ``"numba-parallel"`` keymap backend): lookups never write to the
table, so rows are embarrassingly parallel.

Numba is an optional dependency: importing this module never raises.
The one numba import lives in :mod:`repro.kernels.registry`, which
degrades a numba tier to numpy (logging a ``backend-fallback`` event)
when numba is not importable.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.registry import NUMBA_AVAILABLE, njit, prange

__all__ = [
    "delete_njit",
    "insert_njit",
    "lookup_njit",
    "lookup_parallel_njit",
    "rebuild_njit",
]


if NUMBA_AVAILABLE:  # pragma: no cover - exercised only where numba is installed

    @njit(cache=True, inline="always")
    def _probe(key: np.int64, seed: np.uint64, cap_bits: np.int64):
        # splitmix64 finalizer (Stafford mix13), bit-identical to
        # repro.hashing.probe.splitmix64_scalar.  All-uint64 arithmetic:
        # mixing in signed ints would promote to float64 under numba.
        x = np.uint64(key) ^ seed
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
        start = np.int64(x >> np.uint64(np.int64(64) - cap_bits))
        low = x & np.uint64((np.int64(1) << cap_bits) - np.int64(1))
        stride = np.int64(low | np.uint64(1))
        return start, stride

    @njit(cache=True)
    def insert_njit(tkeys, tvals, cap_bits, keys, vals, prev, seed):
        """Set-default batch insert; fills ``prev``; returns (inserted, probes)."""
        n = keys.shape[0]
        smask = (np.int64(1) << cap_bits) - np.int64(1)
        inserted = 0
        probes = 0
        for i in range(n):
            k = keys[i]
            cur, stride = _probe(k, seed, cap_bits)
            while True:
                probes += 1
                v = tvals[cur]
                if v == -1:
                    tkeys[cur] = k
                    tvals[cur] = vals[i]
                    prev[i] = -1
                    inserted += 1
                    break
                if v >= 0 and tkeys[cur] == k:
                    prev[i] = v
                    break
                cur = (cur + stride) & smask
        return inserted, probes

    @njit(cache=True)
    def rebuild_njit(tkeys, tvals, cap_bits, keys, vals, seed):
        """Insert distinct keys into a fresh table (the rehash kernel)."""
        n = keys.shape[0]
        smask = (np.int64(1) << cap_bits) - np.int64(1)
        for i in range(n):
            k = keys[i]
            cur, stride = _probe(k, seed, cap_bits)
            while tvals[cur] != -1:
                cur = (cur + stride) & smask
            tkeys[cur] = k
            tvals[cur] = vals[i]

    @njit(cache=True)
    def delete_njit(tkeys, tvals, cap_bits, keys, prev, seed):
        """Tombstone batch delete; fills ``prev``; returns (deleted, probes)."""
        n = keys.shape[0]
        smask = (np.int64(1) << cap_bits) - np.int64(1)
        deleted = 0
        probes = 0
        for i in range(n):
            k = keys[i]
            cur, stride = _probe(k, seed, cap_bits)
            while True:
                probes += 1
                v = tvals[cur]
                if v == -1:
                    prev[i] = -1
                    break
                if v >= 0 and tkeys[cur] == k:
                    prev[i] = v
                    tvals[cur] = -2
                    deleted += 1
                    break
                cur = (cur + stride) & smask
        return deleted, probes

    @njit(cache=True)
    def lookup_njit(tkeys, tvals, cap_bits, keys, out, seed):
        """Batch lookup; fills ``out``; returns probes."""
        n = keys.shape[0]
        smask = (np.int64(1) << cap_bits) - np.int64(1)
        probes = 0
        for i in range(n):
            k = keys[i]
            cur, stride = _probe(k, seed, cap_bits)
            while True:
                probes += 1
                v = tvals[cur]
                if v == -1:
                    out[i] = -1
                    break
                if v >= 0 and tkeys[cur] == k:
                    out[i] = v
                    break
                cur = (cur + stride) & smask
        return probes

    @njit(cache=True, parallel=True)
    def lookup_parallel_njit(tkeys, tvals, cap_bits, keys, out, seed):
        """``prange`` batch lookup; fills ``out``; returns probes."""
        n = keys.shape[0]
        smask = (np.int64(1) << cap_bits) - np.int64(1)
        probes = 0
        for i in prange(n):
            k = keys[i]
            cur, stride = _probe(k, seed, cap_bits)
            local = 0
            while True:
                local += 1
                v = tvals[cur]
                if v == -1:
                    out[i] = -1
                    break
                if v >= 0 and tkeys[cur] == k:
                    out[i] = v
                    break
                cur = (cur + stride) & smask
            probes += local
        return probes
