"""Workloads, output checks and layer tracing of the repo benchmark.

Four single-process workloads drive the public API of :mod:`repro`:

- ``tables``: balls-into-bins cells (paper Tables 1, 4 and 6) through
  :func:`repro.run_experiment`; all work is in ``kernels.generate`` and
  ``kernels.place``.
- ``queueing``: short supermarket CTMC runs (Table 8) through
  :func:`repro.queueing.simulate_supermarket`; the only workload that
  enters ``kernels.supermarket``.
- ``service-read``: a preloaded, presized :class:`repro.service.KeyedStore`
  under a lookup-heavy, zipf-skewed closed loop; ``kernels.keymap``
  lookup dominates.
- ``service-write``: an empty store under an insert/delete closed loop
  over a wide, cold key window; keymap growth (rehash) runs on the
  serving path.

A workload is a list of *requests* (one table cell, one CTMC run, one
closed-loop step) grouped in *rounds*.  Every round of a run repeats the
same request kinds, so a run that stops at a round boundary always
measures the same mix.  Inputs are made in set-up from the workload seed
and never timed.  Each request's output is checked; a failed check
counts the request as failed.

Tracing (``trace=True``) alternates untraced and traced rounds.  Traced
rounds time the calls into each layer's public functions from here and
read the counters the library keeps in :mod:`repro.metrics`; nothing is
instrumented inside the library.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import copy
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro import ExperimentSpec, make_scheme, run_experiment
from repro.fluid.balls_bins_ode import solve_balls_bins
from repro.fluid.supermarket import (
    equilibrium_mean_queue_length,
    equilibrium_mean_sojourn_time,
    solve_supermarket,
)
from repro.kernels import make_keymap
from repro.metrics import MetricsRegistry, global_registry
from repro.queueing import simulate_supermarket
from repro.service import KeyedStore
from repro.service.workloads import WorkloadSpec, generate_stream

WORKLOADS = ("tables", "queueing", "service-read", "service-write")
SCHEMES = ("double", "random")
DS = (3, 4)
LAMBDAS = (0.9, 0.99)

#: Per-layer metric names and units, emitted by every traced run.  A layer
#: a workload never enters reads 0.
PER_LAYER_UNITS = {
    "kernels.generate.ns_per_ball": "ns",
    "kernels.place.ns_per_ball": "ns",
    "kernels.balls_placed": "count",
    "core.runner.self_s": "s",
    "kernels.supermarket.ns_per_event": "ns",
    "kernels.supermarket.events": "count",
    "queueing.self_s": "s",
    "service.insert.p50_ms": "ms",
    "service.delete.p50_ms": "ms",
    "service.lookup.p50_ms": "ms",
    "service.step.p99_ms": "ms",
    "hashing.keyed.ns_per_key": "ns",
    "kernels.keymap.insert.ns_per_key": "ns",
    "kernels.keymap.delete.ns_per_key": "ns",
    "kernels.keymap.lookup.ns_per_key": "ns",
    "service.place.ns_per_key": "ns",
    "kernels.keymap.probes_per_op": "ratio",
    "kernels.keymap.rehashes": "count",
    "kernels.keymap.rehash_slots": "count",
    "service.delete_hit_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


#: End-to-end metric names and units, emitted by every untraced run.
END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


@dataclass
class Request:
    """One timed request: wall seconds, work units, check verdict, kind."""

    wall: float
    work: int
    ok: bool
    kind: str


@dataclass
class Trace:
    """Per-layer accumulators filled by traced rounds."""

    sums: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    rounds: int = 0

    def add(self, name: str, value: float) -> None:
        self.sums[name] = self.sums.get(name, 0.0) + value

    def count(self, name: str, value: float) -> None:
        """Add to an exact count, which covers the first traced round.

        The work of a round is a pure function of the seed and the round
        index, so this count repeats exactly for one seed however many
        rounds the run's time allows.
        """
        if self.rounds == 1:
            self.counts[name] = self.counts.get(name, 0.0) + value

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def ratio(self, num: str, den: str, scale: float = 1.0) -> float:
        d = self.sums.get(den, 0.0)
        return scale * self.sums.get(num, 0.0) / d if d else 0.0

    def median(self, name: str, scale: float = 1.0) -> float:
        xs = self.samples.get(name)
        return scale * statistics.median(xs) if xs else 0.0


def _timer_total(registry: MetricsRegistry, name: str) -> float:
    timer = registry.snapshot()["timers"].get(name)
    return timer["total"] if timer else 0.0


def _request_seeds(seed: int, round_index: int, count: int) -> list[int]:
    """Per-request library seeds, a pure function of (seed, round)."""
    ss = np.random.SeedSequence([seed, round_index])
    return [int(s) for s in ss.generate_state(count)]


# -- tables ----------------------------------------------------------------


@dataclass(frozen=True)
class TablesSize:
    balls: int
    geometries: tuple[tuple[int, int], ...]


TABLES_SIZES = {
    # (n, m): Table 1/6 light load m = n at n = 2^14 and 2^16, and the
    # Table 4 heavy load m = 16n at n = 2^14.  Every cell throws the same
    # 2^18 balls; the heavy cell at n = 2^16 would need 2^20 balls in one
    # trial (~0.6 s a cell), too long for a median over many requests.
    "full": TablesSize(2**18, ((2**14, 2**14), (2**14, 2**18), (2**16, 2**16))),
    "tiny": TablesSize(2**13, ((2**8, 2**8), (2**8, 2**12), (2**10, 2**10))),
}

#: Allowed deviation of a load-tail fraction from the fluid limit: six
#: binomial standard errors over all bins of the cell, plus a finite-n
#: allowance.
TAIL_SE_MULT = 6.0
TAIL_FINITE_N = 0.005


class Tables:
    """Balls-into-bins cells through ``run_experiment`` with ``workers=1``."""

    def __init__(self, seed: int, size: str, refs: dict) -> None:
        cfg = TABLES_SIZES[size]
        self.seed = seed
        self.cells = []
        for scheme in SCHEMES:
            for d in DS:
                for n, m in cfg.geometries:
                    trials = cfg.balls // m
                    spec = ExperimentSpec(
                        n=n, d=d, n_balls=m, trials=trials, workers=1
                    )
                    self.cells.append(
                        (f"{scheme}/d{d}/n{n}/m{m}", make_scheme(scheme, n, d),
                         spec, refs[(d, m // n)])
                    )

    def run_round(self, r: int, trace: Trace | None) -> list[Request]:
        reg = global_registry()
        out = []
        seeds = _request_seeds(self.seed, r, len(self.cells))
        for (kind, scheme, spec, fluid), s in zip(self.cells, seeds):
            spec = spec.replace(seed=s)
            if trace is not None:
                g0 = _timer_total(reg, "kernel.generate_seconds")
                p0 = _timer_total(reg, "kernel.place_seconds")
                b0 = reg.get_counter("kernel.balls_placed")
            t0 = time.perf_counter()
            res = run_experiment(scheme, spec)
            wall = time.perf_counter() - t0
            if trace is not None:
                gen = _timer_total(reg, "kernel.generate_seconds") - g0
                place = _timer_total(reg, "kernel.place_seconds") - p0
                trace.add("generate_s", gen)
                trace.add("place_s", place)
                balls = reg.get_counter("kernel.balls_placed") - b0
                trace.add("balls", balls)
                trace.count("balls", balls)
                trace.sample("runner_self_s", wall - gen - place)
            ok = check_cell(res.distribution, spec, fluid)
            out.append(Request(wall, spec.trials * spec.balls, ok, kind))
        return out

    def layers(self, trace: Trace) -> dict[str, float]:
        return {
            "kernels.generate.ns_per_ball": trace.ratio("generate_s", "balls", 1e9),
            "kernels.place.ns_per_ball": trace.ratio("place_s", "balls", 1e9),
            # Balls of one round: every round runs the same cells.
            "kernels.balls_placed": trace.counts.get("balls", 0.0),
            "core.runner.self_s": trace.median("runner_self_s"),
        }


def check_cell(dist, spec: ExperimentSpec, fluid_tails: np.ndarray) -> bool:
    """Ball conservation and load tails against the fluid limit."""
    counts = dist.counts
    if dist.trials != spec.trials or int(counts.sum()) != spec.trials * spec.n:
        return False
    placed = int((np.arange(counts.size) * counts).sum())
    if placed != spec.trials * spec.balls:
        return False
    tails = dist.tail_fractions
    size = max(tails.size, fluid_tails.size)
    sim = np.zeros(size)
    sim[: tails.size] = tails
    ref = np.zeros(size)
    ref[: fluid_tails.size] = fluid_tails
    se = np.sqrt(ref * (1.0 - ref) / (spec.trials * spec.n))
    return bool(np.all(np.abs(sim - ref) <= TAIL_SE_MULT * se + TAIL_FINITE_N))


# -- queueing --------------------------------------------------------------


@dataclass(frozen=True)
class QueueingSize:
    n: int
    sim_time: float
    burn_in: float


QUEUEING_SIZES = {
    "full": QueueingSize(2**10, 12.0, 4.0),
    "tiny": QueueingSize(2**8, 12.0, 4.0),
}

#: Relative standard deviations of three CTMC outputs, measured over 30
#: seeds per cell at n = 2^10, scaled by sqrt(n) (final population) or
#: sqrt(n * window) (time averages).  Checks allow ``QUEUE_SD_MULT`` of
#: them.
POP_SD_SQRT_N = 1.5
AVG_SD_SQRT_NW = 3.0
QUEUE_SD_MULT = 7.0
#: Jobs still in service at the horizon are left out of the sojourn mean
#: but not out of the population average; at this horizon that puts the
#: sojourn mean ~14% below the Little's-law value.
SOJOURN_ALLOWANCE = 0.15
FLUID_GRID = 48


def fluid_transient(lam: float, d: int, size: QueueingSize) -> tuple[float, float]:
    """Fluid mean queue length from empty: at the horizon, and averaged
    over the measurement window ``[burn_in, sim_time]``."""
    ts = np.linspace(0.0, size.sim_time, FLUID_GRID + 1)
    lengths = [0.0]
    tails = None
    for t0, t1 in zip(ts[:-1], ts[1:]):
        sol = solve_supermarket(lam, d, t1 - t0, start_tails=tails)
        tails = sol.tails
        lengths.append(sol.mean_queue_length)
    lengths = np.array(lengths)
    w = ts >= size.burn_in
    avg = np.trapezoid(lengths[w], ts[w]) / (size.sim_time - size.burn_in)
    return float(lengths[-1]), float(avg)


class Queueing:
    """Independent short supermarket CTMC runs (the Table 8 protocol)."""

    def __init__(self, seed: int, size: str, refs: dict) -> None:
        self.size = QUEUEING_SIZES[size]
        self.seed = seed
        self.cells = []
        for scheme in SCHEMES:
            for d in DS:
                for lam in LAMBDAS:
                    self.cells.append(
                        (f"{scheme}/d{d}/lam{lam}", make_scheme(scheme, self.size.n, d),
                         lam, d, refs[(lam, d)])
                    )

    def run_round(self, r: int, trace: Trace | None) -> list[Request]:
        reg = global_registry()
        size = self.size
        out = []
        seeds = _request_seeds(self.seed, r, len(self.cells))
        for (kind, scheme, lam, d, fluid), s in zip(self.cells, seeds):
            if trace is not None:
                k0 = _timer_total(reg, "kernel.supermarket_seconds")
                e0 = reg.get_counter("kernel.supermarket_events")
            t0 = time.perf_counter()
            res = simulate_supermarket(
                scheme, lam, size.sim_time, burn_in=size.burn_in, seed=s
            )
            wall = time.perf_counter() - t0
            if trace is not None:
                kern = _timer_total(reg, "kernel.supermarket_seconds") - k0
                trace.add("kernel_s", kern)
                events = reg.get_counter("kernel.supermarket_events") - e0
                trace.add("events", events)
                trace.count("events", events)
                trace.sample("queueing_self_s", wall - kern)
            ok = check_queueing(res, lam, d, size, fluid)
            out.append(Request(wall, res.n_events or 0, ok, kind))
        return out

    def layers(self, trace: Trace) -> dict[str, float]:
        return {
            "kernels.supermarket.ns_per_event": trace.ratio("kernel_s", "events", 1e9),
            "kernels.supermarket.events": trace.counts.get("events", 0.0),
            "queueing.self_s": trace.median("queueing_self_s"),
        }


def check_queueing(res, lam: float, d: int, size: QueueingSize, fluid) -> bool:
    """Population and sojourn time against the fluid limit.

    The final population is ``n_arrivals - n_departures`` (the system
    starts empty); it must match the fluid transient at the horizon.  The
    time-averaged queue length must match the fluid average over the
    window, and the sojourn mean must match
    ``equilibrium_mean_sojourn_time`` scaled by the share of the
    equilibrium queue length the transient has reached.
    """
    n = size.n
    window = size.sim_time - size.burn_in
    final_len, avg_len = fluid
    if res.n_arrivals is None or res.n_departures is None:
        return False
    population = res.n_arrivals - res.n_departures
    if population < 0 or res.completed_jobs > res.n_departures:
        return False
    pop_tol = QUEUE_SD_MULT * POP_SD_SQRT_N / np.sqrt(n)
    avg_tol = QUEUE_SD_MULT * AVG_SD_SQRT_NW / np.sqrt(n * window)
    if abs(population / (n * final_len) - 1.0) > pop_tol:
        return False
    if abs(res.mean_queue_length / avg_len - 1.0) > avg_tol:
        return False
    reached = avg_len / equilibrium_mean_queue_length(lam, d)
    sojourn_ref = equilibrium_mean_sojourn_time(lam, d) * reached
    return abs(res.mean_sojourn_time / sojourn_ref - 1.0) <= (
        SOJOURN_ALLOWANCE + avg_tol
    )


# -- service ---------------------------------------------------------------


@dataclass(frozen=True)
class ServiceSize:
    n_bins: int
    preload: int
    presize: int
    #: One epoch of closed-loop steps; its keys start after the preload.
    epoch: WorkloadSpec


SERVICE_SIZES = {
    ("service-read", "full"): ServiceSize(
        2**16, 2**20, 2**20,
        WorkloadSpec(
            n_keys=512 * 1024, batch=1024, churn=0.25, lookups=8,
            popularity="zipf", window=2**18, key_start=2**20 + 1,
        ),
    ),
    ("service-write", "full"): ServiceSize(
        2**16, 0, 0,
        WorkloadSpec(n_keys=256 * 2048, batch=2048, churn=1.0, window=2**20),
    ),
    ("service-read", "tiny"): ServiceSize(
        2**10, 2**14, 2**14,
        WorkloadSpec(
            n_keys=16 * 64, batch=64, churn=0.25, lookups=8,
            popularity="zipf", window=2**12, key_start=2**14 + 1,
        ),
    ),
    ("service-write", "tiny"): ServiceSize(
        2**10, 0, 0,
        WorkloadSpec(n_keys=16 * 128, batch=128, churn=1.0, window=2**14),
    ),
}

#: Keys per step whose candidates and lookups are checked.
CHECK_SAMPLE = 64


def is_candidate(store: KeyedStore, keys: np.ndarray, bins: np.ndarray) -> bool:
    """True when every ``bins[i]`` is one of ``keys[i]``'s hashed choices."""
    if keys.size == 0:
        return True
    cand = store.keyed.choices_planar(keys)
    return bool((cand == bins[None, :]).any(axis=0).all())


class Service:
    """A closed loop with one caller against one :class:`KeyedStore`.

    Each round (epoch) starts from a copy of the store built in set-up
    and replays the same steps, so every epoch does identical work.
    """

    def __init__(self, seed: int, size: str, workload: str, traced: bool) -> None:
        self.size = cfg = SERVICE_SIZES[(workload, size)]
        self.registry = MetricsRegistry()
        self.template = KeyedStore(
            cfg.n_bins, 2, scheme="double", seed=seed,
            expected_keys=cfg.presize, metrics=self.registry,
        )
        if cfg.preload:
            self.template.insert_many(np.arange(1, cfg.preload + 1, dtype=np.int64))
        self.steps = [
            (b.inserts, b.deletes, b.lookups)
            for b in generate_stream(cfg.epoch, seed=seed + 1)
        ]
        self.sample_rng_seed = seed + 2
        self.shadow_registry = MetricsRegistry()
        self.shadow_template = None
        if traced:
            # The keymap replay mirrors the store's map: same presize,
            # same tier, same preloaded keys and bins.
            self.shadow_template = make_keymap(
                expected=cfg.presize, backend=self.template.backend,
                metrics=self.shadow_registry,
            )
            if cfg.preload:
                self.shadow_template.insert_many(*self.template.assignments)

    def _copy(self, obj):
        # Share the registries: they hold locks and collect every epoch.
        memo = {id(r): r for r in (self.registry, self.shadow_registry)}
        return copy.deepcopy(obj, memo)

    def run_round(self, r: int, trace: Trace | None) -> list[Request]:
        cfg = self.size
        reg = self.registry
        store = self._copy(self.template)
        shadow = None
        if trace is not None:
            shadow = self._copy(self.shadow_template)
            rh0 = reg.get_counter("keymap.rehashes")
            rs0 = reg.get_counter("keymap.rehash_slots")
        rng = np.random.default_rng([self.sample_rng_seed, r])
        live = store.size
        out = []
        for ins, dels, looks in self.steps:
            if trace is None:
                t0 = time.perf_counter()
                bins = store.insert_many(ins)
                freed = store.delete_many(dels)
                found = store.lookup_many(looks)
                wall = time.perf_counter() - t0
            else:
                bins, freed, found, wall = self._traced_step(
                    store, shadow, ins, dels, looks, trace
                )
            hits = int(np.count_nonzero(freed >= 0))
            live += ins.size - hits
            ok = check_step(store, rng, ins, bins, dels, freed, looks, found, live)
            out.append(Request(wall, ins.size + dels.size + looks.size, ok, "step"))
        if trace is not None:
            trace.count("rehashes", reg.get_counter("keymap.rehashes") - rh0)
            trace.count("rehash_slots", reg.get_counter("keymap.rehash_slots") - rs0)
        return out

    def _traced_step(self, store, shadow, ins, dels, looks, trace: Trace):
        reg = self.registry
        pc = time.perf_counter
        probes0 = reg.get_counter("keymap.probes")
        t0 = pc()
        bins = store.insert_many(ins)
        t1 = pc()
        freed = store.delete_many(dels)
        t2 = pc()
        found = store.lookup_many(looks)
        t3 = pc()
        trace.add("probes", reg.get_counter("keymap.probes") - probes0)
        trace.add("keymap_ops", ins.size + dels.size + looks.size)
        trace.sample("insert_s", t1 - t0)
        trace.sample("delete_s", t2 - t1)
        if looks.size:
            trace.sample("lookup_s", t3 - t2)
        trace.sample("step_s", t3 - t0)
        trace.add("delete_attempts", dels.size)
        trace.add("delete_hits", int(np.count_nonzero(freed >= 0)))
        # Replays of the layers below insert_many, on the same keys.
        h0 = pc()
        store.keyed.choices_planar(ins)
        h1 = pc()
        shadow.insert_many(ins, bins)
        h2 = pc()
        shadow.delete_many(dels)
        h3 = pc()
        shadow.lookup_many(looks)
        h4 = pc()
        trace.add("insert_call_s", t1 - t0)
        trace.add("hash_s", h1 - h0)
        trace.add("km_insert_s", h2 - h1)
        trace.add("km_delete_s", h3 - h2)
        trace.add("km_lookup_s", h4 - h3)
        trace.add("inserted", ins.size)
        trace.add("deleted", dels.size)
        trace.add("looked_up", looks.size)
        return bins, freed, found, t3 - t0

    def layers(self, trace: Trace) -> dict[str, float]:
        s = trace.sums
        place = s.get("insert_call_s", 0.0) - s.get("hash_s", 0.0) - s.get(
            "km_insert_s", 0.0
        )
        inserted = s.get("inserted", 0.0)
        return {
            "service.insert.p50_ms": trace.median("insert_s", 1e3),
            "service.delete.p50_ms": trace.median("delete_s", 1e3),
            "service.lookup.p50_ms": trace.median("lookup_s", 1e3),
            "service.step.p99_ms": 1e3 * quantile(trace.samples.get("step_s", []), 0.99),
            "hashing.keyed.ns_per_key": trace.ratio("hash_s", "inserted", 1e9),
            "kernels.keymap.insert.ns_per_key": trace.ratio("km_insert_s", "inserted", 1e9),
            "kernels.keymap.delete.ns_per_key": trace.ratio("km_delete_s", "deleted", 1e9),
            "kernels.keymap.lookup.ns_per_key": trace.ratio("km_lookup_s", "looked_up", 1e9),
            "service.place.ns_per_key": 1e9 * place / inserted if inserted else 0.0,
            "kernels.keymap.probes_per_op": trace.ratio("probes", "keymap_ops"),
            "kernels.keymap.rehashes": trace.counts.get("rehashes", 0.0),
            "kernels.keymap.rehash_slots": trace.counts.get("rehash_slots", 0.0),
            "service.delete_hit_ratio": trace.ratio("delete_hits", "delete_attempts"),
        }


def check_step(
    store: KeyedStore,
    rng: np.random.Generator,
    ins: np.ndarray,
    bins: np.ndarray,
    dels: np.ndarray,
    freed: np.ndarray,
    looks: np.ndarray,
    found: np.ndarray,
    live: int,
) -> bool:
    """Output checks of one closed-loop step (run outside the timed call).

    - every sampled insert, hit delete and hit lookup names one of the
      key's hashed candidates;
    - lookups of keys inserted in this step return the bin ``insert_many``
      returned, or ``-1`` when this step's deletes freed them;
    - a fresh lookup of sampled inserted keys agrees the same way;
    - ``size`` matches the live count implied by the returned outputs,
      and ``loads.sum() == size``.
    """
    n = store.n_bins
    if bins.shape != ins.shape or freed.shape != dels.shape:
        return False
    if found.shape != looks.shape:
        return False
    if np.any((bins < 0) | (bins >= n)):
        return False
    if store.size != live or int(store.loads.sum()) != store.size:
        return False
    idx = rng.integers(0, ins.size, size=min(CHECK_SAMPLE, ins.size))
    if not is_candidate(store, ins[idx], bins[idx]):
        return False
    hit_del = np.flatnonzero(freed >= 0)[:CHECK_SAMPLE]
    if not is_candidate(store, dels[hit_del], freed[hit_del]):
        return False
    hit_look = np.flatnonzero(found >= 0)[:CHECK_SAMPLE]
    if not is_candidate(store, looks[hit_look], found[hit_look]):
        return False
    freed_now = np.isin(ins, dels[freed >= 0])
    expected = np.where(freed_now, -1, bins)
    mine = (looks >= ins[0]) & (looks <= ins[-1])
    if not np.array_equal(found[mine], expected[looks[mine] - ins[0]]):
        return False
    return bool(np.array_equal(store.lookup_many(ins[idx]), expected[idx]))


# -- running a workload ----------------------------------------------------


def quantile(xs: list[float], q: float) -> float:
    if not xs:
        return 0.0
    return float(np.quantile(np.asarray(xs), q))


def references(workload: str, size: str) -> dict:
    """Fluid-limit references of the output checks.

    They are the benchmark's own check work, so they are computed once,
    before and outside the timed set-up: load tails per (d, m/n) for
    ``tables``, fluid transients per (lambda, d) for ``queueing``.
    """
    if workload == "tables":
        return {
            (d, m // n): solve_balls_bins(d, m // n, max_load=m // n + 12).tails
            for d in DS
            for n, m in TABLES_SIZES[size].geometries
        }
    if workload == "queueing":
        cfg = QUEUEING_SIZES[size]
        return {(lam, d): fluid_transient(lam, d, cfg) for d in DS for lam in LAMBDAS}
    return {}


def build(workload: str, seed: int, size: str, traced: bool, refs: dict):
    """Set up one workload: its schemes, stores and inputs."""
    if workload == "tables":
        return Tables(seed, size, refs)
    if workload == "queueing":
        return Queueing(seed, size, refs)
    if workload in ("service-read", "service-write"):
        return Service(seed, size, workload, traced)
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    setup_build_s: float
    bench: object


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    size: str = "full",
    setups: int = 3,
) -> RunResult:
    """Set up ``setups`` times (timed), then run rounds for ``seconds``.

    The fluid references of the output checks are computed first and
    untimed.  The last set-up is the one measured.  Rounds run whole: the
    run stops at the first round boundary past the deadline.  A traced run
    alternates untraced and traced rounds and runs at least one of each;
    ``trace.overhead_ratio`` is the mean wall of a traced round over that
    of an untraced one, each from the round's start to its end, so the
    tracing work (snapshots, replays) is in it.
    """
    refs = references(workload, size)
    build_times = []
    bench = None
    for _ in range(max(1, setups)):
        bench = None  # free the previous set-up before timing the next
        t0 = time.perf_counter()
        bench = build(workload, seed, size, trace, refs)
        build_times.append(time.perf_counter() - t0)

    # A warm-up round fills caches and finishes lazy set-up; its outputs
    # are checked but its timings are dropped.
    warm = bench.run_round(0, None)
    plain: list[list[Request]] = []
    traced: list[list[Request]] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    tr = Trace()
    r = 1
    deadline = time.perf_counter() + seconds
    while r <= (2 if trace else 1) or time.perf_counter() < deadline:
        is_traced = trace and r % 2 == 0
        t0 = time.perf_counter()
        if is_traced:
            tr.rounds += 1
            traced.append(bench.run_round(r, tr))
        else:
            plain.append(bench.run_round(r, None))
        walls[is_traced].append(time.perf_counter() - t0)
        r += 1
    requests = warm + [q for rnd in plain + traced for q in rnd]
    failed = sum(not q.ok for q in requests)
    if trace:
        layers = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        layers.update(bench.layers(tr))
        layers["trace.overhead_ratio"] = statistics.mean(
            walls[True]
        ) / statistics.mean(walls[False])
        metrics = {k: (float(v), PER_LAYER_UNITS[k]) for k, v in layers.items()}
    else:
        metrics = end_to_end(plain)
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    return RunResult(
        attempted=len(requests),
        failed=failed,
        metrics=metrics,
        setup_build_s=statistics.median(build_times),
        bench=bench,
    )


def end_to_end(rounds: list[list[Request]]) -> dict[str, tuple[float, str]]:
    """Throughput and latency of the untraced rounds.

    ``throughput_per_s`` is all the work of the rounds over all their
    request wall: every request counts, the slow ones too (such as the
    service steps that rehash the keymap), and whole rounds keep the mix
    of requests fixed.  Latencies are grouped by request kind, and each
    kind counts once, so a kind's share of the requests does not move
    them.  ``latency_p50_ms`` is the mean over kinds of each kind's
    median latency.  ``latency_p90_ms`` is that times the 90th percentile
    of every request's latency over its kind's median: one tail pooled
    over all kinds.  With a single kind (the service workloads'
    closed-loop step) these are the plain median and 90th percentile.
    """
    requests = [q for rnd in rounds for q in rnd]
    walls: dict[str, list[float]] = {}
    for q in requests:
        walls.setdefault(q.kind, []).append(q.wall)
    medians = {k: statistics.median(v) for k, v in walls.items()}
    p50 = statistics.mean(medians.values())
    rel = [q.wall / medians[q.kind] for q in requests]
    work = sum(q.work for q in requests)
    return {
        "throughput_per_s": (work / sum(q.wall for q in requests), "1/s"),
        "latency_p50_ms": (1e3 * p50, "ms"),
        "latency_p90_ms": (1e3 * p50 * quantile(rel, 0.9), "ms"),
    }
