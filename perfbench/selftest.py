"""Fast self-test of the benchmark: ``python3 perfbench/selftest.py`` (under a minute).

1. Runs every workload at the ``tiny`` scale (seconds of audio, one LSTM-AE
   epoch), untraced and traced, and checks that the last line of output is
   the result object with every metric of BENCHMARK.json and its unit.
2. Checks that the output checks trip: a tampered score file changes the
   determinism digest, a non-finite score in a score file is reported, and a
   detector that returns a non-finite score fails its clip.

Tiny detectors are undertrained, so a tiny run may fall below the paper's
AUC floors; those are the only failures it may report.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 3


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_printed_metrics(spec: dict) -> None:
    for workload in ("knock", "rare", "stream"):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--scale", "tiny",
                 "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            where = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{where} exited {proc.returncode}: {proc.stderr[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{where}: keys {sorted(result)}")
            expect(result["attempted"] >= 1, f"{where}: nothing attempted")
            failures = [line for line in lines if line.startswith("# failed ")]
            expect(result["failed"] == len(failures), f"{where}: failed count != failure lines")
            expect(all("below floor" in line for line in failures), f"{where}: {failures}")
            printed = {name: v["unit"] for name, v in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            expect(printed == wanted, f"{where}: metrics/units {printed} != {wanted}")
            for name, v in result["metrics"].items():
                expect(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]),
                       f"{where}: {name} = {v['value']!r}")
            print(f"ok  {where}: {len(printed)} metrics, {result['attempted']} operations, "
                  f"{result['failed']} below the AUC floors")


def check_tamper_detection() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import workloads as wl

    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=state))
    try:
        run = wl.Run(workload="knock", seed=SEED, seconds=0.0, trace=False, scale_name="tiny",
                     work=tmp, digests=wl.DigestBook(tmp / "digests.json", "selftest"))
        ds = wl._setup_bench_dataset(run, 0)
        out = tmp / "bench"
        expect(wl._cli(["bench", "--manifest", ds.root / "manifest.tsv", "--out", out,
                        "--seed", ds.seed, *wl._config_file(run)]) == 0, "aad bench failed")
        baseline, digest = wl.check_bench_outputs(out, "knock")
        expect(run.digests.check("scores", digest) == [], "first digest must be accepted")

        scores = out / "kmeans.scores"
        values = scores.read_text().splitlines()
        values[0] = repr(float(values[0]) * (1 + 1e-12))
        scores.write_text("\n".join(values) + "\n")
        problems, tampered = wl.check_bench_outputs(out, "knock")
        expect(run.digests.check("scores", tampered) != [], "tampered score file not caught")
        print("ok  tampered score file changes the digest")

        values[0] = "nan"
        scores.write_text("\n".join(values) + "\n")
        problems, _ = wl.check_bench_outputs(out, "knock")
        expect(any("non-finite" in p for p in problems) and len(problems) > len(baseline),
               f"non-finite score not caught: {problems}")
        print("ok  non-finite score in a score file is reported")

        detectors, thresholds = wl.deploy(out)
        _, clip_scores, _, clip_problems = wl.score_clip(ds.clips[0], detectors, thresholds, run.cfg)
        expect(clip_scores is not None and clip_problems == [], f"clean clip failed: {clip_problems}")
        detectors["kmeans"].model.centroids[:] = np.nan
        _, _, _, clip_problems = wl.score_clip(ds.clips[0], detectors, thresholds, run.cfg)
        expect(clip_problems != [], "non-finite clip score not caught")
        print("ok  non-finite clip score fails the clip")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_tamper_detection()
    check_printed_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
