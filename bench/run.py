"""Benchmark command for docgraph.

    python3 bench/run.py --workload {train_long,train_short,score} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. It generates a synthetic corpus from the
seed under ``bench/_work/``, drives the ``docgraph`` package in ``src/``,
checks its outputs and prints two JSON lines: the run's metadata, then
the result ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, and the spans go to ``bench/_traces/``. A failed
output check prints no result and exits with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "docgraph").is_dir():
        print(f"error: no docgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread, and DOCGRAPH_THREADS unset (the user default); both
    # must be in place before numpy and docgraph are imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("DOCGRAPH_THREADS", None)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload '{args.workload}'; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    work = BENCH / "_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            spans = BENCH / "_traces" / f"{wl.name}-seed{args.seed}.spans.jsonl"
            result = workloads.run_traced(wl, args.seed, args.seconds, work, spans)
        else:
            result = workloads.run_untraced(wl, args.seed, args.seconds, work)
    except workloads.CheckFailed as err:
        print(f"error: output check failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "DOCGRAPH_THREADS": os.environ.get("DOCGRAPH_THREADS"),
        **result.info,
    }
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
