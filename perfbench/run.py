"""Run one workload of the repo-wide benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_online --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing attached;
``--trace 1`` runs the workload's fixed traced pass and reports the
per-layer metrics.  Both print a human-readable report (host block,
every metric with its unit and sample count, requests sent/completed/
failed, every correctness check) and end with one JSON line::

    {"correct": true, "attempted": 412, "failed": 0, "metrics": {...}}

The exit code is 0 when the run finished, whether or not its checks
passed (a failed operation is counted, and a metric it left unmeasured
reads NaN); 2 when the program under test is not in the checkout; 3 when
the metrics it measured are not the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The engines are single-threaded and their matrices are tiny, so extra
# BLAS threads add only scheduling noise.  Set before numpy loads.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def host_block() -> dict:
    """Where and what this run measured."""
    import numpy as np
    from repro.telemetry import current_git_rev

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    # Look for a repository at the checkout root only, never above it.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "git_rev": current_git_rev(cwd=str(ROOT)),
    }


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing: no "
              f"src/repro package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import workloads

    if args.trace:
        result = workloads.trace_workload(args.workload, args.seed)
    else:
        result = workloads.run_workload(args.workload, args.seed,
                                        args.seconds)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    emitted = {name: m.unit for name, m in result.metrics.items()}
    if emitted != declared:
        print(f"error: metrics {sorted(emitted.items())} do not match "
              f"BENCHMARK.json {sorted(declared.items())}", file=sys.stderr)
        return 3
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_block(),
        "requests": {"sent": result.sent, "completed": result.completed,
                     "failed": result.failed},
        "metrics": {name: {"value": m.value, "unit": m.unit,
                           "samples": m.samples}
                    for name, m in result.metrics.items()},
        "checks": result.checks,
        "notes": result.notes,
    }
    print(json.dumps(report, indent=2, default=str))
    print(json.dumps({
        "correct": bool(result.checks) and all(result.checks.values()),
        "attempted": max(result.sent, 1),
        "failed": result.failed,
        "metrics": {name: {"value": m.value, "unit": m.unit}
                    for name, m in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
