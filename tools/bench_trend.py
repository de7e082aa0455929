#!/usr/bin/env python
"""Collate the per-family BENCH_*.json reports into docs/performance.md.

Every benchmark family writes a JSON artifact at the repo root
(``BENCH_kernels.json``, ``BENCH_supermarket.json``,
``BENCH_peeling.json``, ``BENCH_service.json``, ``BENCH_schemes.json``)
holding dicts of contestant -> metrics: ``<metric>_per_second``
throughputs next to same-run ratios.  A ratio named ``<op>_vs_<base>``
belongs to the metric ``<op>_...`` (``lookup_vs_reference`` to
``lookup_ops_per_second``); the generic ``speedup_vs_<base>`` /
``throughput_vs_<base>`` belongs to the contestant's first metric only.
This tool renders one throughput table over all of them — the single
place to see every hot path's recorded numbers side by side — and
maintains it between marker comments in ``docs/performance.md``::

    python tools/bench_trend.py            # rewrite the table in place
    python tools/bench_trend.py --check    # exit 1 when the doc is stale

The ``--check`` mode runs in the docs CI job, so a regenerated benchmark
JSON without a regenerated document (or vice versa) fails the build —
the same drift contract the certification anchors use.

Tiers recorded as ``{"status": "unavailable", ...}`` (numba on hosts
without it) are listed as such rather than silently dropped.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_PATH = REPO_ROOT / "docs" / "performance.md"

BEGIN_MARK = "<!-- bench-trend:begin (generated by tools/bench_trend.py) -->"
END_MARK = "<!-- bench-trend:end -->"

#: (family, json filename, sections: name -> key path to the contestant
#: dict).  A ``"*"`` step fans out over every key at that level (the
#: schemes bench nests its sections under each kernel tier), naming the
#: section ``"<key> <name>"``.
FAMILIES = (
    ("kernels", "BENCH_kernels.json", {"placement": ("results",)}),
    ("supermarket", "BENCH_supermarket.json", {"ctmc": ("results",)}),
    ("peeling", "BENCH_peeling.json", {"decode": ("results",)}),
    ("service", "BENCH_service.json", {"schemes": ("results",),
                                       "keymap": ("backends",)}),
    ("schemes", "BENCH_schemes.json", {
        "hashing": ("tiers", "*", "hashing"),
        "placement": ("tiers", "*", "placement"),
    }),
)

_GENERIC_RATIOS = ("speedup_vs_", "throughput_vs_")


def _format_ratio(key, value):
    return f"{value:.2f}x vs {key.split('_vs_', 1)[1]}"


def _ratio(entry, metric, primary):
    """The ratio column for ``metric`` (a ``*_per_second`` stem)."""
    op = metric.split("_", 1)[0]
    for key, value in entry.items():
        if key.startswith(f"{op}_vs_"):
            return _format_ratio(key, value)
    if primary:
        for key, value in entry.items():
            if key.startswith(_GENERIC_RATIOS):
                return _format_ratio(key, value)
    return "—"


def _metric_rows(family, section, contestant, entry):
    """Rows for one contestant: one per ``*_per_second`` metric."""
    if entry.get("status") == "unavailable":
        return [(family, section, contestant, "—", "unavailable", "—")]
    metrics = [k for k in entry if k.endswith("_per_second")]
    rows = []
    for i, key in enumerate(metrics):
        metric = key[: -len("_per_second")]
        rows.append((
            family, section, contestant, metric.replace("_", " "),
            f"{entry[key]:,.0f}/s", _ratio(entry, metric, primary=i == 0),
        ))
    return rows


def _sections(report, name, path):
    """``(section name, contestant dict)`` pairs reached by ``path``."""
    if not path:
        yield name, report
        return
    step, rest = path[0], path[1:]
    if step == "*":
        for key, sub in report.items():
            if isinstance(sub, dict):
                for _, found in _sections(sub, name, rest):
                    yield f"{key} {name}", found
    elif isinstance(report.get(step), dict):
        yield from _sections(report[step], name, rest)


def collect(root: Path | None = None):
    """All table rows from the BENCH_*.json files present under ``root``."""
    root = REPO_ROOT if root is None else root
    rows = []
    for family, filename, sections in FAMILIES:
        path = root / filename
        if not path.exists():
            continue
        report = json.loads(path.read_text())
        for name, key_path in sections.items():
            for section, results in _sections(report, name, key_path):
                for contestant, entry in results.items():
                    if isinstance(entry, dict):
                        rows.extend(
                            _metric_rows(family, section, contestant, entry)
                        )
    return rows


def render(rows) -> str:
    """The marker-delimited markdown block for ``rows``."""
    lines = [
        BEGIN_MARK,
        "",
        "| family | section | contestant | metric | throughput | ratio |",
        "|---|---|---|---|---|---|",
    ]
    for family, section, contestant, metric, value, ratio in rows:
        lines.append(
            f"| {family} | {section} | {contestant} | {metric} "
            f"| {value} | {ratio} |"
        )
    lines += ["", END_MARK]
    return "\n".join(lines)


def splice(doc: str, block: str) -> str:
    """``doc`` with its marker block replaced (or appended) by ``block``."""
    begin = doc.find(BEGIN_MARK)
    end = doc.find(END_MARK)
    if begin != -1 and end != -1:
        return doc[:begin] + block + doc[end + len(END_MARK):]
    section = (
        "\n## Recorded throughput, all benchmark families\n\n"
        "Regenerated by `python tools/bench_trend.py` from the shipped\n"
        "`BENCH_*.json` artifacts; the docs CI job runs it with `--check`,\n"
        "so this table cannot drift from the JSON.\n\n"
    )
    return doc.rstrip("\n") + "\n" + section + block + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="verify the doc table matches the JSON; do not rewrite",
    )
    parser.add_argument(
        "--doc", default=str(DOC_PATH),
        help="markdown file holding the marker-delimited table",
    )
    args = parser.parse_args(argv)

    doc_path = Path(args.doc)
    doc = doc_path.read_text()
    updated = splice(doc, render(collect()))
    if args.check:
        if updated != doc:
            print(
                f"ERROR: {doc_path} bench table is stale; run "
                "`python tools/bench_trend.py` and commit the result",
                file=sys.stderr,
            )
            return 1
        print(f"{doc_path}: bench table matches the BENCH_*.json artifacts")
        return 0
    if updated != doc:
        doc_path.write_text(updated)
        print(f"rewrote bench table in {doc_path}")
    else:
        print(f"{doc_path} already up to date")
    return 0


if __name__ == "__main__":
    sys.exit(main())
