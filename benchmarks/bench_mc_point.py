"""Wall time and traced peak memory of Monte Carlo fringe-contrast points and curves.

    python3 benchmarks/bench_mc_point.py --label change

Measures the checkout this file sits in (its ``src/``).  For samples in
{2e3, 1e5, 2e6}, random tones Q in {3, 9} and both integrands it runs one
``fringe_contrast_mc`` call on one thread and records the best wall time
over a few repeats (tracemalloc off) and the tracemalloc peak of one more
call.  It then does the same for the two shipped curves: the 301-point
``configs/contrast_squeezed.json`` contrast curve and the 3 x 49-point
``configs/sensitivity.json`` sensitivity curves, on one thread.  The rows
are printed and stored under ``--label`` in ``BENCH_mc_stream.json`` at
the repository root, next to the rows of other labels already there; to
compare two commits, run each checkout's copy of this script with its own
label and the same ``--output``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = (2_000, 100_000, 2_000_000)
RANDOM_TONES = (3, 9)
# best-of repeats per sample count: the 2e6-sample points take about 1 s
REPEATS = {2_000: 7, 100_000: 5, 2_000_000: 2}
CURVES = ("contrast_squeezed.json", "sensitivity.json")
CURVE_REPEATS = 9  # best-of; a curve takes about 0.1 s


def measure(samples: int, n_tones: int, integrand: str) -> dict:
    from spinlock.lockin import LockInSchedule
    from spinlock.montecarlo import McConfig, fringe_contrast_mc
    from spinlock.noise import NoiseComponent

    tones = [NoiseComponent(3.0 + k, 37.0 + 13.0 * k) for k in range(n_tones)]
    mc = McConfig(
        samples=samples, master_seed=7, n_atoms=50, chi=625.0, squeeze_duration=1.6e-5
    )
    schedule = LockInSchedule(n_pulses=7, tau_arm=5e-3)

    def point():
        return fringe_contrast_mc(tones, schedule, mc, integrand=integrand)

    tracemalloc.start()
    try:
        point()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    walls = []
    for _ in range(REPEATS[samples]):
        start = time.perf_counter()
        point()
        walls.append(time.perf_counter() - start)
    return {
        "samples": samples,
        "random_tones": n_tones,
        "integrand": integrand,
        "wall_s": min(walls),
        "repeats": len(walls),
        "peak_mb": peak / 2**20,
    }


def measure_curve(config: str) -> dict:
    from spinlock.config import load_config
    from spinlock.montecarlo import McConfig, contrast_curve, sensitivity_curve

    cfg = load_config(str(ROOT / "configs" / config))
    mc = McConfig(
        samples=cfg.samples,
        master_seed=cfg.master_seed,
        n_atoms=cfg.n_atoms[0],
        chi=cfg.chi,
        squeeze_duration=cfg.squeeze_duration,
    )
    kwargs = dict(integrand=cfg.integrand, toggle=cfg.toggle, threads=1)
    if cfg.experiment == "contrast":
        grid = [x * 1e-3 for x in cfg.tau_arm_grid_ms]
        points = len(grid)

        def curve():
            return contrast_curve(cfg.components(), cfg.n_pulses, grid, mc, **kwargs)

    else:
        grid = [x * 1e-3 for x in cfg.duration_grid_ms]
        points = len(grid) * len(cfg.n_atoms)

        def curve():
            return sensitivity_curve(
                cfg.components(), cfg.n_atoms, grid, cfg.n_pulses, mc, **kwargs
            )

    curve()  # first-call set-up
    tracemalloc.start()
    try:
        curve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    walls = []
    for _ in range(CURVE_REPEATS):
        start = time.perf_counter()
        curve()
        walls.append(time.perf_counter() - start)
    return {
        "config": config,
        "points": points,
        "samples": cfg.samples,
        "threads": 1,
        "wall_s": min(walls),
        "repeats": len(walls),
        "peak_mb": peak / 2**20,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--output", type=Path, default=ROOT / "BENCH_mc_stream.json")
    args = parser.parse_args()
    # one BLAS thread, as in perfbench: the kernel's only matrix product is tiny
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    measure(SAMPLES[0], RANDOM_TONES[0], "ramsey")  # first-call set-up stays out of the rows
    rows = []
    print(f"{'samples':>9} {'Q':>2} {'integrand':>9} {'wall_s':>9} {'peak_MB':>9}")
    for samples in SAMPLES:
        for n_tones in RANDOM_TONES:
            for integrand in ("ramsey", "eq23"):
                row = measure(samples, n_tones, integrand)
                rows.append(row)
                print(
                    f"{samples:>9} {n_tones:>2} {integrand:>9} "
                    f"{row['wall_s']:>9.4f} {row['peak_mb']:>9.2f}"
                )
    curves = []
    print(f"{'config':>24} {'points':>6} {'wall_s':>9} {'peak_MB':>9}")
    for config in CURVES:
        row = measure_curve(config)
        curves.append(row)
        print(f"{config:>24} {row['points']:>6} {row['wall_s']:>9.4f} {row['peak_mb']:>9.2f}")
    report = json.loads(args.output.read_text()) if args.output.exists() else {}
    report.setdefault("description", __doc__.splitlines()[0])
    report.setdefault("runs", {})[args.label] = {
        "host": f"{platform.processor() or platform.machine()}, {os.cpu_count()} cores",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "points": rows,
        "curves": curves,
    }
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
