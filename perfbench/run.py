"""Benchmark entry point: one workload and seed in, one JSON result line out.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the program is used
from ``src/`` as it stands.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones.  Lines before the last
describe the host and any failed checks; the last line is
``{"correct", "attempted", "failed", "metrics"}``.  Run files go to
``.perfbench/`` at the repository root.  See README.md beside this file.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0  # every run must end within 180 s


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for p in (99, 95, 90, 80, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p} {q:.6g} s"
    return "no percentile has 10 passes beyond it"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2^64)")
    if not (ROOT / "src" / "spinlock" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'spinlock'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    began = time.perf_counter()

    run_dir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # one BLAS thread: the only parallelism is the workload's own threads argument
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("SPINLOCK_THREADS", None)
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]

    def run(extra: list[str]) -> None:
        subprocess.run(
            worker + extra,
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=TIME_LIMIT_S - (time.perf_counter() - began),
        )

    try:
        setup = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                start = time.perf_counter()
                run(["--setup-only", "--run-dir", str(run_dir / f"setup{i}")])
                setup.append(time.perf_counter() - start)
        run(["--run-dir", str(run_dir), "--seconds", str(args.seconds), "--trace", str(args.trace)])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 1
    report = json.loads((run_dir / "worker.json").read_text())

    untraced = [p["seconds"] for p in report["passes"] if not p["traced"]]
    if args.trace:
        values = report["per_layer"]
        section = "per_layer"
    else:
        pass_s = statistics.median(untraced)
        values = {
            "setup_s": statistics.median(setup),
            "pass_s": pass_s,
            "points_per_s": report["work"]["points"] / pass_s,
            "samples_per_s": report["work"]["samples"] / pass_s,
            "peak_rss_mb": report["peak_rss_mb"],
        }
        section = "end_to_end"
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}

    attempted, failed = report["attempted"], report["failed"]
    print(f"host {json.dumps(report['host'], sort_keys=True)}")
    print(f"pass_s median {statistics.median(untraced):.6g} s, {tail(untraced)}, {len(untraced)} untraced passes")
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for line in report["failures"]:
        print(f"FAILED {line}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    (run_dir / "result.json").write_text(
        json.dumps({"host": report["host"], "metrics": metrics, "failures": report["failures"]}, indent=1)
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
