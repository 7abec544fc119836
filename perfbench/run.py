"""Benchmark of the aad pipeline: one workload per run, one JSON line of results.

    python3 perfbench/run.py --workload knock --seed 42 --seconds 20 --trace 0

Run it from the root of a checkout. It imports ``aad`` from ``src/`` (pure
Python, nothing to build), works in ``.perfbench/`` and removes its files
when it ends. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}

with every ``end_to_end`` metric of BENCHMARK.json for ``--trace 0`` and
every ``per_layer`` metric for ``--trace 1``. Lines before it, starting
with ``#``, give provenance and the quality of each dataset. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("knock", "rare", "stream")


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def _tree_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(tree_hash: str) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=60)
        commit = proc.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "commit": commit,
        "tree_sha256": tree_hash,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="how long the timed loop runs (it always covers every dataset once)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run instead of end-to-end metrics")
    p.add_argument("--scale", default="ci", choices=("ci", "tiny", "paper"),
                   help="input sizes: ci (default), tiny (self-test), paper (the paper's datasets)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "aad" / "__init__.py").is_file():
        print(f"error: no aad sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # BLAS threads are fixed before numpy loads: one per CPU this process may use.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(_nproc())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    tree_hash = _tree_hash()
    state = ROOT / ".perfbench"
    work = state / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = wl.Run(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        scale_name=args.scale, work=work,
        digests=wl.DigestBook(state / "digests.json", tree_hash),
    )
    try:
        wl.run_workload(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.digests.save()

    try:
        if args.trace:
            values, wanted = wl.per_layer(run), spec["per_layer"]
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            values, wanted = wl.end_to_end(run, peak_rss_mb), spec["end_to_end"]
    except (statistics.StatisticsError, IndexError):
        print("error: too few operations completed to measure; failures:", *run.tally.failures,
              sep="\n  ", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1

    print("# provenance " + json.dumps(provenance(tree_hash), sort_keys=True))
    print("# samples " + json.dumps({
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "setups": len(run.setup_s), "timed_ops": len(run.op_s),
        "traced_ops": len(run.traced_op_s), "clips": len(run.clip_s),
    }))
    for record in run.per_dataset:
        print("# dataset " + json.dumps(record, sort_keys=True))
    for failure in run.tally.failures:
        print("# failed " + failure)
    failed = len(run.tally.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.tally.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
