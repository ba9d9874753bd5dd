"""Wall time and traced peak memory of the exact layers: BCH, oracle grids, moments.

    python3 benchmarks/bench_exact_layers.py --label "$(git rev-parse --short HEAD)"

Measures the checkout this file sits in (its ``src/``), on one BLAS thread.
It records the best wall time over a few repeats (tracemalloc off) and the
tracemalloc peak of one more call for:

- ``squeezing.bch_error`` at (N_s, N) = (10, 20) for the four g tau values of
  ``configs/verify_bch.json``, timed together;
- the oracle-compare grid of ``configs/oracle_compare.json`` through
  ``cli.run_oracle_compare`` (4 atom numbers x 72 comparisons);
- ``dicke.full_space_oracle`` for the 192 sequential (``product`` and
  ``reversed``) comparisons of that grid, one schedule per call, as the
  ``exact`` workload of ``perfbench`` runs them;
- ``dicke.full_space_oracle`` at its cap, N = 8, on one step of each
  generator: the first call, which builds the 2^N tables (its wall time and
  tracemalloc peak), and the best of the calls after it (a row records the
  error where a checkout rejects the size);
- ``dicke.schedule_expectations`` of ``[jz2 0.01, jx 0.3]`` (the ``exact``
  workload's twist-then-rotate) at N = 250, 2000 and 10,000;
- ``squeezing.bch_error`` at the photon limit, (N_s, N) = (200, 48) at
  g tau = 1e-2 and (200, 10,000) at g tau = 1e-6 (a row records the error
  where a checkout rejects the size);
- ``analytic.oracle_grid(200, (0, 0, 0, 0.3), (0, 0.4), (0.5, 1), ("single",))``,
  a stacked summed-generator grid whose twisted rows need ten times the
  Chebyshev terms of the others.

The rows are printed and stored under ``--label`` in
``BENCH_exact_batch.json`` at the repository root, next to the rows of other
labels already there. A label is the commit whose program a row measured, so
a later run never overwrites it; to compare two commits, run each checkout's
copy of this script with its own commit as label and the same ``--output``.
Runs of commits before bae147b also hold ``u4_sequence`` rows: the block
train was a library layer then, and is now the tests' reference.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BCH_SHAPE = (10, 20)
# (N_s, N, g tau, best-of repeats)
BCH_LIMIT_CASES = ((200, 48, 1e-2, 3), (200, 10_000, 1e-6, 9))
SCHEDULE_ATOMS = (250, 2000, 10_000)
ORACLE_CAP = 8
MIXED_GRID = (200, (0.0, 0.0, 0.0, 0.3), (0.0, 0.4), (0.5, 1.0), ("single",))
REPEATS = 9  # best-of for the BCH points and the oracle grids


def timed(fn, repeats: int) -> tuple[float, float]:
    """Best wall time of ``repeats`` calls and the tracemalloc peak of one more (MB)."""
    fn()  # first-call set-up stays out of the rows
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return min(walls), peak / 2**20


def bch_row() -> dict:
    from spinlock import squeezing

    grid = json.loads((ROOT / "configs" / "verify_bch.json").read_text())["bch"]["g_tau_grid"]
    n_photons, n_atoms = BCH_SHAPE

    def points():
        for g_tau in grid:
            params = squeezing.SqueezeParams.from_g_tau(1.0, g_tau, n_photons)
            squeezing.bch_error(params, n_photons, n_atoms)

    wall, peak = timed(points, REPEATS)
    return {
        "n_photons": n_photons,
        "n_atoms": n_atoms,
        "g_tau": grid,
        "wall_s": wall,
        "repeats": REPEATS,
        "peak_mb": peak,
    }


def oracle_row() -> dict:
    from spinlock import cli
    from spinlock.config import load_config

    cfg = load_config(str(ROOT / "configs" / "oracle_compare.json"))
    comparisons = len(cfg.compare_n_atoms) * len(cfg.compare_alphas) * len(
        cfg.compare_betas
    ) * len(cfg.compare_gammas) * len(cfg.compare_orderings)
    wall, peak = timed(lambda: cli.run_oracle_compare(cfg, 1), REPEATS)
    return {"comparisons": comparisons, "wall_s": wall, "repeats": REPEATS, "peak_mb": peak}


def full_space_row() -> dict:
    from spinlock import dicke

    c = json.loads((ROOT / "configs" / "oracle_compare.json").read_text())["compare"]
    schedules = []
    grid = (c[key] for key in ("n_atoms", "alphas", "betas", "gammas", "orderings"))
    for n, a, b, g, ordering in itertools.product(*grid):
        if ordering == "single":
            continue
        steps = [dicke.PulseStep("jz2", a), dicke.PulseStep("jz", b), dicke.PulseStep("jx", g)]
        if ordering == "reversed":
            steps.reverse()
        schedules.append((n, steps))

    def calls():
        for n, steps in schedules:
            dicke.full_space_oracle(n, steps)

    wall, peak = timed(calls, REPEATS)
    return {"calls": len(schedules), "wall_s": wall, "repeats": REPEATS, "peak_mb": peak}


def oracle_cap_row() -> dict:
    from spinlock import dicke
    from spinlock.errors import ConfigError

    steps = [dicke.PulseStep(name, 0.3) for name in dicke.GENERATOR_NAMES]
    row = {"n_atoms": ORACLE_CAP, "steps": [[s.generator, s.angle] for s in steps]}

    def call():
        return dicke.full_space_oracle(ORACLE_CAP, steps)

    start = time.perf_counter()
    try:
        call()  # the first N = 8 call of this process builds the tables
    except ConfigError as exc:
        row["error"] = f"ConfigError: {exc}"
        return row
    row["first_call_s"] = time.perf_counter() - start
    dicke._bit_tables.cache_clear()
    tracemalloc.start()
    try:
        call()
        row["first_call_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    wall, peak = timed(call, REPEATS)
    row.update(wall_s=wall, repeats=REPEATS, peak_mb=peak)
    return row


def schedule_rows() -> list[dict]:
    from spinlock import dicke

    steps = [dicke.PulseStep("jz2", 0.01), dicke.PulseStep("jx", 0.3)]
    rows = []
    for n_atoms in SCHEDULE_ATOMS:
        wall, peak = timed(lambda: dicke.schedule_expectations(n_atoms, steps), REPEATS)
        rows.append({"n_atoms": n_atoms, "wall_s": wall, "repeats": REPEATS, "peak_mb": peak})
    return rows


def bch_limit_rows() -> list[dict]:
    from spinlock import squeezing
    from spinlock.errors import ConfigError

    rows = []
    for n_photons, n_atoms, g_tau, repeats in BCH_LIMIT_CASES:
        params = squeezing.SqueezeParams.from_g_tau(1.0, g_tau, n_photons)
        row = {"n_photons": n_photons, "n_atoms": n_atoms, "g_tau": g_tau}
        try:
            wall, peak = timed(lambda: squeezing.bch_error(params, n_photons, n_atoms), repeats)
        except ConfigError as exc:
            row["error"] = f"ConfigError: {exc}"
        else:
            row.update(wall_s=wall, repeats=repeats, peak_mb=peak)
        rows.append(row)
    return rows


def mixed_grid_row() -> dict:
    from spinlock import analytic

    wall, peak = timed(lambda: analytic.oracle_grid(*MIXED_GRID), REPEATS)
    n_atoms, alphas, betas, gammas, orderings = MIXED_GRID
    return {
        "n_atoms": n_atoms,
        "alphas": list(alphas),
        "betas": list(betas),
        "gammas": list(gammas),
        "orderings": list(orderings),
        "wall_s": wall,
        "repeats": REPEATS,
        "peak_mb": peak,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--output", type=Path, default=ROOT / "BENCH_exact_batch.json")
    args = parser.parse_args()
    # one BLAS thread, as in perfbench
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    bch = bch_row()
    print(f"bch_error x{len(bch['g_tau'])} at {BCH_SHAPE}: {bch['wall_s']:.5f} s, {bch['peak_mb']:.2f} MB")
    oracle = oracle_row()
    print(
        f"oracle grid ({oracle['comparisons']} comparisons): "
        f"{oracle['wall_s']:.5f} s, {oracle['peak_mb']:.2f} MB"
    )
    full = full_space_row()
    print(
        f"full_space_oracle x{full['calls']}: "
        f"{full['wall_s']:.5f} s, {full['peak_mb']:.2f} MB"
    )
    cap = oracle_cap_row()
    if "error" in cap:
        print(f"full_space_oracle N={ORACLE_CAP}: {cap['error']}")
    else:
        print(
            f"full_space_oracle N={ORACLE_CAP}: first call {cap['first_call_s']:.5f} s, "
            f"{cap['first_call_peak_mb']:.2f} MB; then {cap['wall_s']:.6f} s, "
            f"{cap['peak_mb']:.2f} MB"
        )
    schedule = schedule_rows()
    for row in schedule:
        print(
            f"schedule_expectations N={row['n_atoms']}: "
            f"{row['wall_s']:.5f} s, {row['peak_mb']:.2f} MB"
        )
    limits = bch_limit_rows()
    for row in limits:
        shape = f"({row['n_photons']}, {row['n_atoms']}) at g tau {row['g_tau']}"
        if "error" in row:
            print(f"bch_error {shape}: {row['error']}")
        else:
            print(f"bch_error {shape}: {row['wall_s']:.5f} s, {row['peak_mb']:.2f} MB")
    mixed = mixed_grid_row()
    print(f"mixed-twist oracle grid: {mixed['wall_s']:.5f} s, {mixed['peak_mb']:.2f} MB")
    report = json.loads(args.output.read_text()) if args.output.exists() else {}
    report.setdefault("description", __doc__.splitlines()[0])
    report.setdefault("runs", {})[args.label] = {
        "host": f"{platform.processor() or platform.machine()}, {os.cpu_count()} cores",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bch_error": bch,
        "oracle_grid": oracle,
        "full_space_oracle": full,
        "full_space_oracle_cap": cap,
        "schedule_expectations": schedule,
        "bch_error_limits": limits,
        "mixed_oracle_grid": mixed,
    }
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
