"""Run one workload of the repo benchmark and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tables --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the provenance block.  ``--size tiny`` shrinks every workload for tests.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA_VERSION = 1
#: Library knobs unset before anything is imported, so the default tiers
#: users get are what is measured.
ENV_KNOBS = ("REPRO_BACKEND", "REPRO_SCHEME", "REPRO_WORKERS")
#: Fresh interpreters timed for the import share of ``setup_s``.
IMPORT_SAMPLES = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def import_seconds(env: dict[str, str]) -> float:
    """Median wall of a fresh interpreter running ``import repro``."""
    walls = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro"],
            env=env, cwd=ROOT, check=True, timeout=120,
        )
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args, result) -> dict:
    import numpy as np

    from repro.kernels import available_backends, resolve_backend
    from repro.metrics import global_registry

    store = getattr(result.bench, "template", None)
    engine_tier = resolve_backend().name
    return {
        "schema": SCHEMA_VERSION,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_available": "numba" in available_backends(),
        "tiers": {
            "placement": engine_tier,
            "supermarket": engine_tier,
            "keymap": store.backend if store is not None else None,
        },
        "fallback_events": [
            e for e in global_registry().events if e["kind"] == "backend-fallback"
        ],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "unset_env": list(ENV_KNOBS),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for knob in ENV_KNOBS:
        os.environ.pop(knob, None)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(SRC))
    import bench

    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import_s = import_seconds(env) if args.trace == 0 else 0.0
    result = bench.run_workload(
        args.workload, args.seed, args.seconds,
        trace=bool(args.trace), size=args.size,
    )
    metrics = dict(result.metrics)
    if args.trace == 0:
        metrics["setup_s"] = (import_s + result.setup_build_s, "s")
    print(json.dumps({"provenance": provenance(args, result)}))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
