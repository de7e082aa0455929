"""Cross-backend and cross-engine equivalence.

Two independent guarantees:

1. **Bit-level**: the numba backend consumes the same packed draws as the
   numpy backend, so for the same seed the two must produce *identical*
   load tables (skipped where numba is not installed — CI runs it).
2. **Distributional**: the vectorized engine's blocked RNG consumption
   differs from the scalar reference loop, so equality is statistical:
   ``simulate_batch`` output must be indistinguishable (chi-square + TV)
   from aggregated :func:`simulate_single_trial` runs, for both fully
   random and double hashing, both tie-break rules.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.comparison import compare_distributions
from repro.core import simulate_batch, simulate_single_trial
from repro.hashing import DoubleHashingChoices, FullyRandomChoices
from repro.kernels import choose_window, generate_packed, plan_layout
from repro.kernels.registry import NUMBA_AVAILABLE
from repro.rng import default_generator

requires_numba = pytest.mark.skipif(
    not NUMBA_AVAILABLE, reason="numba not installed"
)


@requires_numba
class TestNumbaBitIdentical:
    GEOMETRIES = [
        (8, 3, 3, 32, "random"),
        (64, 4, 5, 200, "random"),
        (64, 4, 5, 200, "left"),
        (4, 4, 3, 64, "random"),
        (256, 3, 4, 512, "left"),
    ]

    @pytest.mark.parametrize("n,d,trials,steps,tie_break", GEOMETRIES)
    def test_backends_agree_on_packed_draws(self, n, d, trials, steps, tie_break):
        from repro.kernels import resolve_backend

        layout = plan_layout(n, d, tie_break, trials, steps)
        pc = generate_packed(
            FullyRandomChoices(n, d), trials, steps, default_generator(3), layout
        )
        results = {}
        for name in ("numpy", "numba"):
            impl = resolve_backend(name)
            work = np.zeros(trials * layout.bins_p, dtype=np.int32)
            ws = impl.make_workspace(
                d=d, trials=trials, window=choose_window(n, d),
                bins_p=layout.bins_p,
            )
            impl.place(work, pc, layout=layout, workspace=ws)
            results[name] = work.reshape(trials, layout.bins_p)[:, :n].copy()
        assert np.array_equal(results["numpy"], results["numba"])

    @pytest.mark.parametrize("scheme_cls", [FullyRandomChoices, DoubleHashingChoices])
    def test_simulate_batch_backend_invariant(self, scheme_cls):
        n, d, trials = 256, 3, 8
        a = simulate_batch(scheme_cls(n, d), n, trials, seed=17, backend="numpy")
        b = simulate_batch(scheme_cls(n, d), n, trials, seed=17, backend="numba")
        assert np.array_equal(a.loads, b.loads)


def _reference_distribution(scheme_factory, n, n_balls, trials, seed, tie_break):
    dist = None
    for t in range(trials):
        one = simulate_single_trial(
            scheme_factory(), n_balls, seed=seed + t, tie_break=tie_break
        )
        dist = one if dist is None else dist.merged_with(one)
    return dist


class TestScalarReferenceEquivalence:
    """simulate_batch vs the scalar loop, statistically."""

    N, BALLS, TRIALS = 512, 512, 60

    @pytest.mark.parametrize(
        "make,tie_break",
        [
            (lambda: FullyRandomChoices(512, 3), "random"),
            (lambda: DoubleHashingChoices(512, 3), "random"),
            (lambda: DoubleHashingChoices(512, 2), "left"),
        ],
        ids=["random-d3", "double-d3", "double-d2-left"],
    )
    def test_indistinguishable_from_scalar_loop(self, make, tie_break):
        batch = simulate_batch(
            make(), self.BALLS, self.TRIALS, seed=100, tie_break=tie_break
        ).distribution()
        ref = _reference_distribution(
            make, self.N, self.BALLS, self.TRIALS, seed=5000, tie_break=tie_break
        )
        report = compare_distributions(batch, ref)
        assert report.indistinguishable, report

    def test_mean_max_load_matches_scalar_loop(self):
        """Max load is tie-break sensitive: a kernel bug that conserved
        totals but misplaced ties would move this statistic."""
        n, trials = 256, 80
        batch = simulate_batch(DoubleHashingChoices(n, 2), n, trials, seed=21)
        batch_max = batch.loads.max(axis=1).astype(float)
        ref_max = [
            simulate_single_trial(
                DoubleHashingChoices(n, 2), n, seed=7000 + t, return_loads=True
            ).max()
            for t in range(trials)
        ]
        # Means within 3 pooled standard errors.
        se = np.sqrt(
            (batch_max.var() + np.var(ref_max)) / trials
        )
        assert abs(batch_max.mean() - np.mean(ref_max)) < 3 * max(se, 1e-9)
