"""Wall time and traced peak memory of Monte Carlo fringe-contrast points and curves.

    python3 benchmarks/bench_mc_point.py --label "$(git rev-parse --short HEAD)"

Measures the checkout this file sits in (its ``src/``).  It first times the
kernel's trig on one block of phases (4096 samples x 9 tones, drawn from
[-pi, 3pi) like theta + phi): ns per element, best of a few calls, of
``np.sin``, ``np.cos`` and the kernel's ``_cos``, next to the
SIMD extensions numpy found on the host (set ``NPY_DISABLE_CPU_FEATURES`` to
time a narrower dispatch), and ns per tone-sample of ``montecarlo._draw``
filling one block of 4096 samples x 3 and x 9 tones from a point's stream,
best of a few hundred calls, and us per ``montecarlo._stream`` set-up (a
point's SeedSequence and PCG64), best of a few repeats of a few thousand
points.  For samples in
{2e3, 1e5, 2e6}, random tones Q in {3, 9} and both integrands it runs one
``fringe_contrast_mc`` call on one thread and records the best wall time
over a few repeats (tracemalloc off) and the tracemalloc peak of one more
call.  It then does the same for the two shipped curves: the 301-point
``configs/contrast_squeezed.json`` contrast curve and the 3 x 49-point
``configs/sensitivity.json`` sensitivity curves, on one thread, once
sampled and once as the closed-form ramsey mean (``exact=True``, the
estimator the CLI runs for these configs), and for a
sampled curve of 64 short points, 2000 samples each with 3 random tones,
it records the best wall time, ns per tone-sample and the minor page
faults (``ru_minflt``) of one call after a warm-up.  For the eq23 readout
stage it runs one 100,000-sample point with 9 random tones under the
shipped 7-pulse drive and records, best of a few repeats, the time spent
inside ``kernels.readout`` and the number of its calls.  It times the
benchmark's ``deep_mc`` curve (``perfbench/configs/deep_mc.json``, 16 eq23
points of 100,000 samples) on 1 and on 2 threads, alternating, and records
each median and their ratio, the thread-scaling figure.  Last it runs the benchmark's
``sweep`` pass (``perfbench/workloads.py``: both shipped contrast curves,
the sensitivity curves and the noise preview through ``spinlock.cli.main``,
one thread) a few times after a warm-up, and records the median wall time
and the minor page faults of each pass.  The rows
are printed and stored under ``--label`` in ``BENCH_mc_stream.json`` at
the repository root, next to the rows of other labels already there.  A
label is the commit whose program a row measured, so a later run never
overwrites it; to compare two commits, run each checkout's copy of this
script with its own commit as label and the same ``--output``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
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
TRIG_SHAPE = (4096, 9)  # one streamed block at 9 random tones
TRIG_REPEATS = 50  # best-of; a call takes about 1 ms
DRAW_SHAPES = ((4096, 3), (4096, 9))  # one streamed block at the shipped tone counts
DRAW_REPEATS = 200  # best-of; a call takes about 0.1 ms
STREAM_POINTS = 2000  # stream set-ups per repeat; one takes about 10 us
STREAM_REPEATS = 5  # best-of
SHORT_CURVE = dict(points=64, samples=2000, random_tones=3)
SHORT_CURVE_REPEATS = 15  # best-of; a curve takes about 5 ms
READOUT_POINT = dict(samples=100_000, random_tones=9)
READOUT_REPEATS = 7  # best-of; a point takes about 10 ms
DEEP_MC_REPEATS = 9  # per thread count; a curve takes about 0.1-0.15 s
SWEEP_PASSES = 10  # a pass takes about 0.1 s
# passes before those: in a fresh process the heap still grows by a few pages
# in some of the first ten or so passes, at this commit and its parent
SWEEP_WARMUP = 15


def measure_trig() -> dict:
    import numpy as np
    from spinlock import kernels

    x = np.random.default_rng(0).uniform(-math.pi, 3 * math.pi, TRIG_SHAPE)
    out = np.empty_like(x)
    ns = {}
    for name, fn in (
        ("np.sin", np.sin),
        ("np.cos", np.cos),
        ("kernels._cos", kernels._cos),
    ):
        fn(x, out=out)  # first-call set-up
        walls = []
        for _ in range(TRIG_REPEATS):
            start = time.perf_counter()
            fn(x, out=out)
            walls.append(time.perf_counter() - start)
        ns[name] = min(walls) / x.size * 1e9
    return {
        "shape": list(TRIG_SHAPE),
        "repeats": TRIG_REPEATS,
        "simd_found": np.show_config(mode="dicts")["SIMD Extensions"]["found"],
        "ns_per_element": ns,
    }


def measure_draw() -> dict:
    import numpy as np
    from spinlock import montecarlo

    ns = {}
    for shape in DRAW_SHAPES:
        stream = montecarlo._stream(7, 0)
        block = np.empty(shape)
        montecarlo._draw(stream, block)  # first-call set-up
        walls = []
        for _ in range(DRAW_REPEATS):
            start = time.perf_counter()
            montecarlo._draw(stream, block)
            walls.append(time.perf_counter() - start)
        ns["x".join(map(str, shape))] = min(walls) / block.size * 1e9
    return {"repeats": DRAW_REPEATS, "ns_per_tone_sample": ns}


def measure_stream() -> dict:
    from spinlock import montecarlo

    montecarlo._stream(7, 0)  # first-call set-up
    walls = []
    for _ in range(STREAM_REPEATS):
        start = time.perf_counter()
        for i in range(STREAM_POINTS):
            montecarlo._stream(7, i)
        walls.append(time.perf_counter() - start)
    return {
        "points": STREAM_POINTS,
        "repeats": STREAM_REPEATS,
        "us_per_stream": min(walls) / STREAM_POINTS * 1e6,
    }


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure_short_point_curve() -> dict:
    from spinlock.montecarlo import McConfig, contrast_curve
    from spinlock.noise import NoiseComponent

    tones = [NoiseComponent(3.0 + k, 37.0 + 13.0 * k) for k in range(SHORT_CURVE["random_tones"])]
    mc = McConfig(
        samples=SHORT_CURVE["samples"], master_seed=7, n_atoms=50, chi=625.0,
        squeeze_duration=1.6e-5,
    )
    grid = [1e-3 + 8e-5 * i for i in range(SHORT_CURVE["points"])]

    def curve():
        return contrast_curve(tones, 7, grid, mc)

    curve()  # first-call set-up
    faults = minor_faults()
    curve()
    faults = minor_faults() - faults
    walls = []
    for _ in range(SHORT_CURVE_REPEATS):
        start = time.perf_counter()
        curve()
        walls.append(time.perf_counter() - start)
    tone_samples = SHORT_CURVE["points"] * SHORT_CURVE["samples"] * SHORT_CURVE["random_tones"]
    return {
        **SHORT_CURVE,
        "wall_s": min(walls),
        "repeats": len(walls),
        "ns_per_tone_sample": min(walls) / tone_samples * 1e9,
        "minor_faults": faults,
    }


def measure_eq23_readout() -> dict:
    from spinlock import kernels
    from spinlock.lockin import LockInSchedule
    from spinlock.montecarlo import McConfig, fringe_contrast_mc
    from spinlock.noise import NoiseComponent

    tones = [
        NoiseComponent(3.0 + k, 37.0 + 13.0 * k) for k in range(READOUT_POINT["random_tones"])
    ]
    mc = McConfig(
        samples=READOUT_POINT["samples"], master_seed=7, n_atoms=50, chi=625.0,
        squeeze_duration=1.6e-5,
    )
    schedule = LockInSchedule(n_pulses=7, tau_arm=5e-3)
    readout = kernels.readout
    spent = []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return readout(*args, **kwargs)
        finally:
            spent.append(time.perf_counter() - start)

    kernels.readout = timed  # the sampler calls it through the module
    try:
        fringe_contrast_mc(tones, schedule, mc, integrand="eq23")  # first-call set-up
        totals, calls = [], 0
        for _ in range(READOUT_REPEATS):
            spent.clear()
            fringe_contrast_mc(tones, schedule, mc, integrand="eq23")
            totals.append(sum(spent))
            calls = len(spent)
    finally:
        kernels.readout = readout
    return {
        **READOUT_POINT,
        "n_pulses": schedule.n_pulses,
        "readout_s": min(totals),
        "repeats": len(totals),
        "calls_per_point": calls,
    }


def measure_deep_mc_threads() -> dict:
    from spinlock.config import load_config
    from spinlock.montecarlo import McConfig, contrast_curve

    cfg = load_config(str(ROOT / "perfbench" / "configs" / "deep_mc.json"))
    mc = McConfig(
        samples=cfg.samples,
        master_seed=cfg.master_seed,
        n_atoms=cfg.n_atoms[0],
        chi=cfg.chi,
        squeeze_duration=cfg.squeeze_duration,
    )
    grid = [x * 1e-3 for x in cfg.tau_arm_grid_ms]

    def curve(threads):
        return contrast_curve(
            cfg.components(), cfg.n_pulses, grid, mc, integrand=cfg.integrand,
            toggle=cfg.toggle, threads=threads,
        )

    walls = {1: [], 2: []}
    for threads in walls:  # first-call set-up, the pool's included
        curve(threads)
    for i in range(DEEP_MC_REPEATS):
        for threads in (1, 2) if i % 2 == 0 else (2, 1):
            start = time.perf_counter()
            curve(threads)
            walls[threads].append(time.perf_counter() - start)
    medians = {threads: statistics.median(w) for threads, w in walls.items()}
    return {
        "points": len(grid),
        "samples": cfg.samples,
        "repeats": DEEP_MC_REPEATS,
        "median_s": {str(threads): m for threads, m in medians.items()},
        "two_over_one_thread": medians[2] / medians[1],
    }


def measure_sweep_pass() -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as run_dir:
        sweep = workloads.Sweep(Path(run_dir), 7)
        sweep.build_inputs()
        for _ in range(SWEEP_WARMUP):  # first calls, and the heap settling
            sweep.run_pass()
        walls, faults = [], []
        for _ in range(SWEEP_PASSES):
            before = minor_faults()
            start = time.perf_counter()
            sweep.run_pass()
            walls.append(time.perf_counter() - start)
            faults.append(minor_faults() - before)
    return {
        "passes": SWEEP_PASSES,
        "median_s": statistics.median(walls),
        "minor_faults_per_pass": faults,
    }


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


def measure_curve(config: str, exact: bool) -> dict:
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
    kwargs = dict(integrand=cfg.integrand, toggle=cfg.toggle, threads=1, exact=exact)
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
        "estimator": "exact" if exact else "mc",
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

    trig = measure_trig()
    print(f"ns per element, SIMD found {' '.join(trig['simd_found'])}:")
    for name, ns in trig["ns_per_element"].items():
        print(f"{name:>13} {ns:>6.2f}")
    draw = measure_draw()
    print("ns per tone-sample of montecarlo._draw:")
    for shape, ns in draw["ns_per_tone_sample"].items():
        print(f"{shape:>13} {ns:>6.2f}")
    stream = measure_stream()
    print(f"us per montecarlo._stream set-up: {stream['us_per_stream']:.2f}")
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
    print(f"{'config':>24} {'estimator':>9} {'points':>6} {'wall_s':>9} {'peak_MB':>9}")
    for exact in (False, True):
        for config in CURVES:
            row = measure_curve(config, exact)
            curves.append(row)
            print(
                f"{config:>24} {row['estimator']:>9} {row['points']:>6} "
                f"{row['wall_s']:>9.4f} {row['peak_mb']:>9.2f}"
            )
    short = measure_short_point_curve()
    print(
        f"short-point curve, {short['points']} x {short['samples']} samples: "
        f"{short['wall_s'] * 1e3:.2f} ms, {short['ns_per_tone_sample']:.2f} ns per "
        f"tone-sample, {short['minor_faults']} minor faults"
    )
    readout = measure_eq23_readout()
    print(
        f"eq23 readout of a {readout['samples']}-sample point, {readout['random_tones']} tones: "
        f"{readout['readout_s'] * 1e3:.2f} ms in {readout['calls_per_point']} calls"
    )
    deep = measure_deep_mc_threads()
    print(
        f"deep_mc curve: median {deep['median_s']['1']:.4f} s on 1 thread, "
        f"{deep['median_s']['2']:.4f} s on 2 ({deep['two_over_one_thread']:.2f}x)"
    )
    sweep = measure_sweep_pass()
    print(
        f"sweep pass: median {sweep['median_s']:.4f} s, minor faults per pass "
        f"{sweep['minor_faults_per_pass']}"
    )
    report = json.loads(args.output.read_text()) if args.output.exists() else {}
    report.setdefault("description", __doc__.splitlines()[0])
    report.setdefault("runs", {})[args.label] = {
        "host": f"{platform.processor() or platform.machine()}, {os.cpu_count()} cores",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "trig": trig,
        "draw": draw,
        "stream": stream,
        "points": rows,
        "curves": curves,
        "short_point_curve": short,
        "eq23_readout": readout,
        "deep_mc_threads": deep,
        "sweep_pass": sweep,
    }
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
