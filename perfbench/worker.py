"""One workload process: set up, run timed passes, check each, report.

run.py starts it in a fresh interpreter with PYTHONPATH naming the program's
source and BLAS pinned to one thread:

    python3 perfbench/worker.py --workload sweep --seed 1 --run-dir DIR \\
        [--setup-only | --seconds 30 --trace 0]

``--setup-only`` imports ``spinlock.cli``, writes the seeded inputs and
exits; run.py times it as one set-up sample.  Otherwise passes repeat until
``--seconds`` have elapsed and the report goes to ``DIR/worker.json``.
With ``--trace 1`` the passes alternate untraced and traced, spans go to
``DIR/spans.jsonl`` and the report carries the per-layer figures.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import workloads

MAX_REPORTED_FAILURES = 20


def host_facts(seed: int) -> dict:
    import importlib.metadata

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        from spinlock.kernels import active_backend

        backend = active_backend()
    except ImportError:
        backend = "no kernels module"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "backend": backend,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import spinlock.cli  # noqa: F401  the program's import is part of set-up

    wl = workloads.WORKLOADS[args.workload](args.run_dir, args.seed)
    wl.build_inputs()
    if args.setup_only:
        return 0

    import checks

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    passes: list[dict] = []
    attempted = failed = 0
    failures: list[str] = []
    first: dict[str, str] | None = None
    diagnostics: dict[str, float] = {}
    deadline = time.perf_counter() + args.seconds
    # start a pass only if it should end by the deadline, give or take half a pass
    while len(passes) < (2 if tracer else 1) or (
        time.perf_counter() + statistics.median(p["seconds"] for p in passes) / 2 < deadline
    ):
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install(f"pass{len(passes)}")
        start = time.perf_counter()
        try:
            result = wl.run_pass()
        finally:
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.uninstall()
        passes.append({"seconds": elapsed, "traced": traced})

        if result["api"]:
            (wl.out_dir / "api.json").write_text(json.dumps(result["api"], sort_keys=True))
        ledger = checks.check(wl, result)
        # same inputs, same bytes: across passes, and traced against untraced
        now = digests(wl.out_dir)
        first = first or now
        for name in sorted(set(now) | set(first)):
            if now.get(name) != first.get(name):
                ledger.op(name.rsplit(".", 1)[0]).append(f"{name} differs from the first pass")
        attempted += len(ledger.ops)
        failed += len(ledger.failures)
        failures.extend(ledger.failures[: MAX_REPORTED_FAILURES - len(failures)])
        diagnostics = ledger.diagnostics

    report = {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "diagnostics": diagnostics,
        "work": dict(zip(("points", "samples"), wl.work())),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "host": host_facts(args.seed),
    }
    if tracer:
        layers = tracing.layer_metrics(tracer.spans)
        layers["montecarlo.z_rms"] = diagnostics.get("z_rms", 0.0)
        layers["montecarlo.z_max"] = diagnostics.get("z_max", 0.0)
        layers["squeezing.bch_error.fitted_slope"] = diagnostics.get("bch_slope", 0.0)
        timed = lambda t: statistics.median(p["seconds"] for p in passes if p["traced"] is t)
        layers["trace.overhead_ratio"] = timed(True) / timed(False)
        report["per_layer"] = layers
        tracer.write(args.run_dir / "spans.jsonl")
    (args.run_dir / "worker.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
