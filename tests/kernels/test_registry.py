"""The kernel-tier registry: every ``REPRO_BACKEND`` value x every family.

One vocabulary and one resolver serve all kernel families, so the same
environment value must mean the same thing everywhere: a known tier the
family lacks (or cannot run here) degrades to the nearest tier with one
logged ``backend-fallback`` event naming the family, and an unknown
value fails at once with one ``ConfigurationError`` text.  Whatever tier
resolves, every family's results are bit-identical to its numpy tier.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.core import run_experiment
from repro.errors import ConfigurationError
from repro.experiments import ExperimentSpec
from repro.experiments.cli import build_parser
from repro.hashing import DoubleHashingChoices, FullyRandomChoices
from repro.hashing.registry import make_keyed_scheme
from repro.kernels.registry import (
    ENV_VAR,
    NUMBA_AVAILABLE,
    TIER_ORDER,
    TIERS,
    available,
    resolve,
)
from repro.metrics import MetricsRegistry, global_registry
from repro.peeling import build_hypergraph, peel
from repro.queueing import simulate_supermarket
from repro.service import KeyedStore

REPO_ROOT = Path(__file__).resolve().parents[2]

FAMILIES = tuple(TIERS)

#: Every environment value the matrix covers (None = unset).
ENV_VALUES = (None, "", *TIER_ORDER, " NumPy ", "bogus")
VALID_VALUES = tuple(v for v in ENV_VALUES if v != "bogus")

_AUTO = "numba" if NUMBA_AVAILABLE else "numpy"

#: Expected tier per (normalized request, family), written out by hand
#: for both kinds of host rather than derived from the resolver.
_EXPECTED_WITHOUT_NUMBA = {
    "reference": {"keymap": "reference"},
    "numpy": {},
    "numba": {},
    "numba-parallel": {},
}
_EXPECTED_WITH_NUMBA = {
    "reference": {"keymap": "reference"},
    "numpy": {},
    "numba": {f: "numba" for f in TIERS},
    "numba-parallel": {f: "numba" for f in TIERS} | {"keymap": "numba-parallel"},
}


def _expected(value, family):
    if value is None or not value.strip():
        return _AUTO
    table = _EXPECTED_WITH_NUMBA if NUMBA_AVAILABLE else _EXPECTED_WITHOUT_NUMBA
    return table[value.strip().lower()].get(family, "numpy")


def _set_env(monkeypatch, value):
    if value is None:
        monkeypatch.delenv(ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(ENV_VAR, value)


def _fallbacks(events):
    return [e for e in events if e["kind"] == "backend-fallback"]


class TestVocabulary:
    def test_tiers_are_ordered_subsets_of_the_vocabulary(self):
        assert TIER_ORDER == ("reference", "numpy", "numba", "numba-parallel")
        for family, tiers in TIERS.items():
            assert tiers, family
            assert list(tiers) == sorted(tiers, key=TIER_ORDER.index), family

    def test_numpy_always_available(self):
        for family in FAMILIES:
            assert "numpy" in available(family)
            assert ("numba" in available(family)) == NUMBA_AVAILABLE

    def test_spec_accepts_every_tier_and_rejects_others(self):
        for tier in TIER_ORDER:
            assert ExperimentSpec(backend=tier).backend == tier
        with pytest.raises(ConfigurationError):
            ExperimentSpec(backend="bogus")

    def test_every_cli_backend_flag_offers_the_vocabulary(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
        )
        flags = 0
        for sub in subparsers.choices.values():
            for action in sub._actions:
                if "--backend" in action.option_strings:
                    assert tuple(action.choices) == TIER_ORDER
                    flags += 1
        assert flags >= 4  # tables, serve, peeling, certify


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("value", ENV_VALUES, ids=repr)
def test_env_value_resolves_per_family(monkeypatch, family, value):
    _set_env(monkeypatch, value)
    reg = MetricsRegistry()
    before = len(global_registry().events)
    if value == "bogus":
        with pytest.raises(ConfigurationError) as err:
            resolve(family, metrics=reg)
        text = str(err.value)
        assert f"{family!r}" in text and "'bogus'" in text
        assert ENV_VAR in text and ", ".join(TIER_ORDER) in text
        assert not _fallbacks(reg.events)
        return
    tier = resolve(family, metrics=reg)
    assert tier in TIERS[family] and tier in available(family)
    assert tier == _expected(value, family)
    degraded = value is not None and value.strip() != "" and (
        tier != value.strip().lower()
    )
    events = _fallbacks(reg.events)
    global_events = _fallbacks(global_registry().events[before:])
    if degraded:
        assert len(events) == 1 and len(global_events) == 1
        assert events[0]["family"] == family
        assert events[0]["requested"] == value.strip().lower()
        assert events[0]["using"] == tier
        assert events[0]["source"] == "env"
    else:
        assert events == [] and global_events == []


def test_bogus_text_is_the_same_from_every_family(monkeypatch):
    _set_env(monkeypatch, "bogus")
    texts = set()
    for family in FAMILIES:
        with pytest.raises(ConfigurationError) as err:
            resolve(family)
        texts.add(str(err.value).replace(repr(family), "<family>"))
    assert len(texts) == 1


def test_explicit_name_wins_over_env(monkeypatch):
    _set_env(monkeypatch, "bogus")
    for family in FAMILIES:
        assert resolve(family, "numpy") == "numpy"


def test_explicit_fallback_records_source():
    reg = MetricsRegistry()
    assert resolve("placement", "reference", metrics=reg) == "numpy"
    (event,) = _fallbacks(reg.events)
    assert event["source"] == "explicit"
    assert event["family"] == "placement"


# --------------------------------------------------------------------------
# Every family's entry point, under every valid value, vs its numpy tier.
# --------------------------------------------------------------------------

_KEYS = np.arange(1, 3001, dtype=np.int64) * 7919


def _family_outputs():
    spec = ExperimentSpec(n=64, d=3, trials=4, seed=1, chunks=2)
    placement = run_experiment(DoubleHashingChoices(64, 3), spec)
    queueing = simulate_supermarket(FullyRandomChoices(32, 2), 0.6, 20.0, seed=3)
    graph = build_hypergraph(DoubleHashingChoices(96, 3), 70, seed=4)
    peeled = peel(graph)
    store = KeyedStore(256, 2, seed=5, metrics=MetricsRegistry())
    bins = store.insert_many(_KEYS)
    tab = make_keyed_scheme("tabulation", 256, 3, seed=6).choices(_KEYS)
    return {
        "run_experiment": placement.distribution.counts,
        "simulate_supermarket": (
            queueing.mean_sojourn_time, queueing.completed_jobs
        ),
        "peel": (peeled.success, tuple(peeled.peeled_order),
                 tuple(peeled.core_edges), peeled.rounds),
        "KeyedStore": (tuple(bins), tuple(store.lookup_many(_KEYS))),
        "tabulation": tab,
    }


@pytest.fixture(scope="module")
def numpy_outputs():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(ENV_VAR, "numpy")
        return _family_outputs()


@pytest.mark.parametrize("value", VALID_VALUES, ids=repr)
def test_results_bit_identical_to_numpy_tier(monkeypatch, numpy_outputs, value):
    _set_env(monkeypatch, value)
    outputs = _family_outputs()
    for name, expected in numpy_outputs.items():
        got = outputs[name]
        if isinstance(expected, np.ndarray):
            assert np.array_equal(got, expected), name
        else:
            assert got == expected, name


class TestFailFast:
    def test_run_experiment_bad_env_raises_before_any_chunk(self, monkeypatch):
        _set_env(monkeypatch, "bogus")
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            run_experiment(
                DoubleHashingChoices(64, 3),
                ExperimentSpec(n=64, d=3, trials=4, seed=1),
                metrics=reg,
            )
        assert reg.get_counter("engine.retries") == 0
        assert reg.chunks == []

    def test_run_experiment_logs_one_fallback_per_run(self, monkeypatch):
        _set_env(monkeypatch, "reference")
        reg = MetricsRegistry()
        run_experiment(
            DoubleHashingChoices(64, 3),
            ExperimentSpec(n=64, d=3, trials=4, seed=1, chunks=4),
            metrics=reg,
        )
        (event,) = _fallbacks(reg.events)
        assert event["family"] == "placement"


def _render_tier_table():
    lines = [
        "| family | " + " | ".join(f"`{t}`" for t in TIER_ORDER) + " |",
        "|---|" + "---|" * len(TIER_ORDER),
    ]
    for family, tiers in TIERS.items():
        cells = ("yes" if t in tiers else "—" for t in TIER_ORDER)
        lines.append(f"| {family} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def test_performance_doc_table_matches_registry():
    doc = (REPO_ROOT / "docs" / "performance.md").read_text()
    match = re.search(
        r"<!-- tier-table:begin[^>]*-->\n\n(.*?)\n\n<!-- tier-table:end -->",
        doc,
        re.S,
    )
    assert match, "docs/performance.md lost its tier-table markers"
    assert match.group(1) == _render_tier_table()
