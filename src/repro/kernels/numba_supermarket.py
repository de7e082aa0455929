"""Optional Numba JIT backend for the supermarket CTMC kernel.

Implements exactly the draw-stream and state-evolution contract of
:mod:`repro.kernels.supermarket` — same lazily refilled blocks, same fused
event coin, same dense busy set with slot swap-remove, same sequential
scalar float accumulation — so it is **bit-identical** to the reference
loop and the numpy backend for the same seed, and leaves the generator in
the same state (asserted in ``tests/kernels/test_supermarket_backends.py``
whenever numba is installed).

Structure: all randomness and array growth stay in the Python driver
(:func:`simulate_supermarket_numba`); the ``@njit`` advance function runs
events against flat preallocated arrays and returns a *reason code*
whenever it needs the driver — more draws, more FIFO slots, more tail
levels, termination, or a stability abort.  Resource checks happen
**before** an event commits any state, so re-entry replays the pending
event exactly.  Per-queue FIFOs are intrusive linked lists over one slab
of job slots (``job_time`` / ``job_next`` plus per-queue head/tail and a
free list), grown geometrically up to ``max_total_jobs + 2`` slots.

Numba is an optional dependency: importing this module never raises, and
:mod:`repro.kernels.registry` degrades a ``numba`` request to numpy
(with a logged event) when it is absent.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StabilityError
from repro.hashing.base import ChoiceScheme
from repro.kernels.blockrng import (
    CHOICE_BLOCK,
    EVENT_BLOCK,
    TIE_BITS,
    refill_choice_block,
    refill_event_block,
)
from repro.kernels.registry import NUMBA_AVAILABLE, njit
from repro.kernels.supermarket import (
    SupermarketStats,
    stability_message,
)

__all__ = ["simulate_supermarket_numba"]

# Reason codes returned by the JIT advance function.
_DONE = 0  # terminating event reached (not committed)
_NEED_EVENTS = 1  # exponential/uniform block exhausted
_NEED_CHOICES = 2  # choice/tie block exhausted
_NEED_SLOTS = 3  # job-slot free list exhausted
_UNSTABLE = 4  # population exceeded max_total_jobs (committed)
_NEED_LEVELS = 5  # tail-histogram arrays too short

# istate layout (int64 scalars shuttled across the JIT boundary).
_JOBS, _BUSY, _SCOUNT, _NARR, _NDEP, _EVI, _CHI, _FREE = range(8)
# fstate layout (float64 scalars).
_NOW, _SSUM, _AREA, _BUSYAREA = range(4)


if NUMBA_AVAILABLE:  # pragma: no cover - exercised only where numba is installed

    @njit(cache=True)
    def _advance(
        expo,
        evu,
        choices,
        ties,
        qlen,
        busy,
        job_time,
        job_next,
        q_head,
        q_tail,
        counts,
        tail_area,
        last_t,
        fstate,
        istate,
        ar,
        sim_time,
        burn_in,
        d,
        max_jobs,
        track_tails,
        left_ties,
    ):
        n_events = expo.shape[0]
        n_choices = choices.shape[0] // d
        n_levels = counts.shape[0]
        now = fstate[_NOW]
        s_sum = fstate[_SSUM]
        area = fstate[_AREA]
        busy_area = fstate[_BUSYAREA]
        jobs = istate[_JOBS]
        b = istate[_BUSY]
        s_count = istate[_SCOUNT]
        n_arr = istate[_NARR]
        n_dep = istate[_NDEP]
        ev_i = istate[_EVI]
        ch_i = istate[_CHI]
        free_head = istate[_FREE]
        while True:
            if ev_i >= n_events:
                reason = _NEED_EVENTS
                break
            rate = ar + b
            t_new = now + expo[ev_i] / rate
            if t_new >= sim_time:
                reason = _DONE
                break
            x = evu[ev_i] * rate
            if x < ar:  # arrival (checks first: nothing committed yet)
                if ch_i >= n_choices:
                    reason = _NEED_CHOICES
                    break
                if free_head < 0:
                    reason = _NEED_SLOTS
                    break
                base = ch_i * d
                tgt = choices[base]
                if left_ties:
                    bk = qlen[tgt]
                    for j in range(1, d):
                        q = choices[base + j]
                        k = qlen[q]
                        if k < bk:
                            bk = k
                            tgt = q
                else:
                    bk = (qlen[tgt] << TIE_BITS) | ties[base]
                    for j in range(1, d):
                        q = choices[base + j]
                        k = (qlen[q] << TIE_BITS) | ties[base + j]
                        if k < bk:
                            bk = k
                            tgt = q
                if track_tails and qlen[tgt] + 2 >= n_levels:
                    reason = _NEED_LEVELS
                    break
                # Commit.
                start = now if now > burn_in else burn_in
                if t_new > start:
                    dt = t_new - start
                    area += jobs * dt
                    busy_area += b * dt
                now = t_new
                ev_i += 1
                ch_i += 1
                slot = free_head
                free_head = job_next[slot]
                job_time[slot] = now
                job_next[slot] = -1
                if q_tail[tgt] < 0:
                    q_head[tgt] = slot
                else:
                    job_next[q_tail[tgt]] = slot
                q_tail[tgt] = slot
                if qlen[tgt] == 0:
                    busy[b] = tgt
                    b += 1
                qlen[tgt] += 1
                jobs += 1
                n_arr += 1
                if track_tails:
                    new_len = qlen[tgt]
                    lev = new_len - 1
                    s = last_t[lev]
                    if s < burn_in:
                        s = burn_in
                    if now > s:
                        tail_area[lev] += counts[lev] * (now - s)
                    last_t[lev] = now
                    s = last_t[new_len]
                    if s < burn_in:
                        s = burn_in
                    if now > s:
                        tail_area[new_len] += counts[new_len] * (now - s)
                    last_t[new_len] = now
                    counts[lev] -= 1
                    counts[new_len] += 1
                if jobs > max_jobs:
                    reason = _UNSTABLE
                    break
            else:  # departure from busy slot int(x - ar)
                start = now if now > burn_in else burn_in
                if t_new > start:
                    dt = t_new - start
                    area += jobs * dt
                    busy_area += b * dt
                now = t_new
                ev_i += 1
                j = int(x - ar)
                if j >= b:
                    j = b - 1
                q = busy[j]
                slot = q_head[q]
                t_arr = job_time[slot]
                q_head[q] = job_next[slot]
                if q_head[q] < 0:
                    q_tail[q] = -1
                job_next[slot] = free_head
                free_head = slot
                if t_arr >= burn_in:
                    s_count += 1
                    s_sum += now - t_arr
                qlen[q] -= 1
                if qlen[q] == 0:
                    b -= 1
                    busy[j] = busy[b]
                jobs -= 1
                n_dep += 1
                if track_tails:
                    old_len = qlen[q] + 1
                    lev = old_len - 1
                    s = last_t[lev]
                    if s < burn_in:
                        s = burn_in
                    if now > s:
                        tail_area[lev] += counts[lev] * (now - s)
                    last_t[lev] = now
                    s = last_t[old_len]
                    if s < burn_in:
                        s = burn_in
                    if now > s:
                        tail_area[old_len] += counts[old_len] * (now - s)
                    last_t[old_len] = now
                    counts[old_len] -= 1
                    counts[lev] += 1
        fstate[_NOW] = now
        fstate[_SSUM] = s_sum
        fstate[_AREA] = area
        fstate[_BUSYAREA] = busy_area
        istate[_JOBS] = jobs
        istate[_BUSY] = b
        istate[_SCOUNT] = s_count
        istate[_NARR] = n_arr
        istate[_NDEP] = n_dep
        istate[_EVI] = ev_i
        istate[_CHI] = ch_i
        istate[_FREE] = free_head
        return reason


def simulate_supermarket_numba(
    scheme: ChoiceScheme,
    lam: float,
    sim_time: float,
    burn_in: float,
    rng: np.random.Generator,
    max_total_jobs: int,
    track_tails: bool,
    left_ties: bool,
) -> SupermarketStats:
    """Drive the JIT advance loop; bit-identical to the reference oracle.

    Arguments are pre-validated by
    :func:`repro.kernels.run_supermarket_kernel`, which only dispatches
    here when numba resolved successfully.
    """
    if not NUMBA_AVAILABLE:  # pragma: no cover - registry prevents this
        raise RuntimeError("numba backend selected but numba is not importable")
    n = scheme.n_bins
    d = scheme.d
    ar = lam * n

    qlen = np.zeros(n, dtype=np.int64)
    busy = np.zeros(n, dtype=np.int64)
    cap = int(min(max_total_jobs + 2, max(4 * n, 1024)))
    job_time = np.zeros(cap, dtype=np.float64)
    job_next = np.arange(1, cap + 1, dtype=np.int64)
    job_next[-1] = -1
    q_head = np.full(n, -1, dtype=np.int64)
    q_tail = np.full(n, -1, dtype=np.int64)
    levels = 64 if track_tails else 1
    counts = np.zeros(levels, dtype=np.int64)
    tail_area = np.zeros(levels, dtype=np.float64)
    last_t = np.zeros(levels, dtype=np.float64)
    if track_tails:
        counts[0] = n

    fstate = np.zeros(4, dtype=np.float64)
    istate = np.zeros(8, dtype=np.int64)
    istate[_EVI] = EVENT_BLOCK  # cursors start exhausted: lazy refills
    istate[_CHI] = CHOICE_BLOCK
    expo = np.zeros(EVENT_BLOCK, dtype=np.float64)
    evu = np.zeros(EVENT_BLOCK, dtype=np.float64)
    choices = np.zeros(CHOICE_BLOCK * d, dtype=np.int64)
    ties = np.zeros(CHOICE_BLOCK * d, dtype=np.int64)

    while True:
        reason = _advance(
            expo,
            evu,
            choices,
            ties,
            qlen,
            busy,
            job_time,
            job_next,
            q_head,
            q_tail,
            counts,
            tail_area,
            last_t,
            fstate,
            istate,
            ar,
            sim_time,
            burn_in,
            d,
            max_total_jobs,
            track_tails,
            left_ties,
        )
        if reason == _DONE:
            break
        if reason == _NEED_EVENTS:
            expo, evu = refill_event_block(rng)
            istate[_EVI] = 0
        elif reason == _NEED_CHOICES:
            cb, tb = refill_choice_block(scheme, rng)
            choices = np.ascontiguousarray(cb).reshape(-1)
            ties = tb.reshape(-1)
            istate[_CHI] = 0
        elif reason == _NEED_SLOTS:
            new_cap = int(min(cap * 2, max_total_jobs + 2))
            job_time = np.concatenate(
                [job_time, np.zeros(new_cap - cap, dtype=np.float64)]
            )
            nxt = np.arange(cap + 1, new_cap + 1, dtype=np.int64)
            nxt[-1] = istate[_FREE]  # chain onto the (empty) old free list
            job_next = np.concatenate([job_next, nxt])
            istate[_FREE] = cap
            cap = new_cap
        elif reason == _NEED_LEVELS:
            counts = np.concatenate([counts, np.zeros_like(counts)])
            tail_area = np.concatenate([tail_area, np.zeros_like(tail_area)])
            last_t = np.concatenate([last_t, np.zeros_like(last_t)])
        else:  # _UNSTABLE
            raise StabilityError(
                stability_message(max_total_jobs, float(fstate[_NOW]))
            )

    # Final flush at sim_time (the terminating event was never committed).
    now = float(fstate[_NOW])
    area = float(fstate[_AREA])
    busy_area = float(fstate[_BUSYAREA])
    jobs = int(istate[_JOBS])
    b = int(istate[_BUSY])
    start = now if now > burn_in else burn_in
    if sim_time > start:
        dt = sim_time - start
        area += jobs * dt
        busy_area += b * dt
    tails_out = None
    if track_tails:
        for lev in range(len(counts)):
            s = float(last_t[lev])
            if s < burn_in:
                s = burn_in
            if sim_time > s:
                tail_area[lev] += counts[lev] * (sim_time - s)
            last_t[lev] = sim_time
        tails_out = tail_area
    return SupermarketStats(
        s_count=int(istate[_SCOUNT]),
        s_sum=float(fstate[_SSUM]),
        area=area,
        busy_area=busy_area,
        n_arrivals=int(istate[_NARR]),
        n_departures=int(istate[_NDEP]),
        tail_area=tails_out,
    )
