"""Acceptance suite: one end-to-end check per headline guarantee.

Each test prints a single "criterion NN PASS/FAIL ..." line before its
assertion, so `pytest -s tests/test_acceptance.py` (or the -rP report)
doubles as an acceptance summary.  Tolerances are part of the contract and
must not be loosened here.
"""
import json
import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from spinlock import cli, dicke
from spinlock.analytic import min_detectable_phase
from spinlock.dicke import (
    PhaseTriple,
    PulseStep,
    build_collective_ops,
    full_space_oracle,
    schedule_expectations,
)
from spinlock.montecarlo import (
    McConfig,
    contrast_curve,
    fringe_contrast_mc,
    measurement_range,
    sensitivity_curve,
)
from spinlock.lockin import LockInSchedule
from spinlock.squeezing import SqueezeParams, bch_error

from blocks import dense, scatter_levels, spin_matrices, stokes, u4_sequence


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def commutator_residual(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> float:
    worst = 0.0
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        worst = max(worst, np.abs(a @ b - b @ a - 1j * c).max())
    return worst


def test_criterion_01_css_moments():
    values = schedule_expectations(50, [])
    errors = (
        abs(values["jx"] - 25.0),
        abs(values["jz"] - 0.0),
        abs(values["jz2"] - 12.5),
    )
    worst = max(errors)
    report(1, worst <= 1e-12, f"x-CSS N=50 (Jx, Jz, Jz^2) max error {worst:.2e} (tol 1e-12)")


def test_criterion_02_sql_reduction():
    worst = max(
        abs(min_detectable_phase(PhaseTriple(0.0, 0.0, 0.0), n) * math.sqrt(n) - 1.0)
        for n in range(1, 101)
    )
    report(2, worst <= 1e-12, f"dphi*sqrt(N)=1 for N=1..100, max error {worst:.2e} (tol 1e-12)")


def test_criterion_03_su2_and_stokes_algebra():
    worst_comm = 0.0
    worst_eig = 0.0
    for n in range(1, 21):
        ops = build_collective_ops(n)
        worst_comm = max(
            worst_comm,
            commutator_residual(dense(ops.jx), dense(ops.jy), dense(ops.jz)),
        )
        sx, sy, sz = (dense(op) for op in stokes(n))
        worst_comm = max(worst_comm, commutator_residual(sx, sy, sz))
        top = np.linalg.eigvalsh(sx).max()
        worst_eig = max(worst_eig, abs(top - n / 2))
    ok = worst_comm < 1e-12 and worst_eig <= 1e-10
    report(
        3,
        ok,
        f"commutator residual {worst_comm:.2e} (tol 1e-12), "
        f"max eig(Sx) error {worst_eig:.2e} (tol 1e-10), N=1..20",
    )


def test_criterion_04_oracle_soundness():
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(120):
        n_atoms = int(rng.integers(1, 9))
        steps = [
            PulseStep(
                generator=str(rng.choice(["jz2", "jz", "jx", "jy"])),
                angle=float(rng.uniform(-np.pi, np.pi)),
            )
            for _ in range(int(rng.integers(1, 7)))
        ]
        got = schedule_expectations(n_atoms, steps)
        want = full_space_oracle(n_atoms, steps)
        worst = max(worst, max(abs(got[k] - want[k]) for k in want))
    report(
        4,
        worst <= 1e-10,
        f"Dicke vs 2^N product space, 120 random schedules at N=1..8, "
        f"max diff {worst:.2e} (tol 1e-10)",
    )


def test_criterion_05_bch_cubic_and_twisting():
    grid = (1e-3, 2e-3, 5e-3, 1e-2)
    errors = [
        bch_error(SqueezeParams.from_g_tau(1.0, g_tau, 4), 4, 4) for g_tau in grid
    ]
    slope = npoly.polyfit(np.log(grid), np.log(errors), 1)[1]

    n_photons = n_atoms = 4
    _, _, jz = spin_matrices(n_atoms + 1)
    atom = dicke.css_state(n_atoms, np.pi / 2, 0.0)
    photon = np.eye(n_photons + 1)[0]  # the maximum-Sx, all x-polarized state
    psi0 = np.kron(photon, atom)
    diffs = {}
    for g_tau in (5e-3, 1e-2):
        params = SqueezeParams.from_g_tau(1.0, g_tau, n_photons)
        out = scatter_levels(u4_sequence(params, n_photons, n_atoms)) @ psi0
        twist = params.chi * 4 * params.tau  # = (g tau)^2 N_s / 2
        target = np.kron(photon, np.exp(-1j * twist * np.diag(jz).real ** 2) * atom)
        overlap = np.vdot(target, out)
        diffs[g_tau] = float(np.linalg.norm(out * (abs(overlap) / overlap) - target))
    cubic_ratio = diffs[1e-2] / diffs[5e-3]
    ok = abs(slope - 3.0) <= 0.3 and diffs[1e-2] < 1e-4 and abs(cubic_ratio - 8.0) <= 2.4
    report(
        5,
        ok,
        f"(4,4) error slope {slope:.4f} (3.0 +/- 0.3), twisting mismatch {diffs[1e-2]:.2e} "
        f"at g*tau=1e-2 (tol 1e-4), remainder ratio {cubic_ratio:.2f} (8 +/- 2.4)",
    )


def dense_mc(samples: int, squeeze_duration: float = 1.6e-5, n_atoms: int = 50) -> McConfig:
    return McConfig(
        samples=samples,
        master_seed=7,
        n_atoms=n_atoms,
        chi=625.0,
        squeeze_duration=squeeze_duration,
    )


def test_criterion_06_lockin_dips(three_tone_noise):
    # contrast is an amplitude: compare |estimate| at each dip with both
    # half-millisecond neighbors, in combined-standard-error units
    grid_ms = (4.5, 5.0, 5.5, 9.5, 10.0, 10.5)
    curve = contrast_curve(
        three_tone_noise,
        7,
        [t * 1e-3 for t in grid_ms],
        dense_mc(samples=20000),
    )
    points = dict(zip(grid_ms, curve))
    z_scores = []
    for dip, lo, hi in ((5.0, 4.5, 5.5), (10.0, 9.5, 10.5)):
        for neighbor in (lo, hi):
            gap = abs(points[neighbor].estimate) - abs(points[dip].estimate)
            sigma = math.hypot(points[neighbor].stderr, points[dip].stderr)
            z_scores.append(gap / sigma)
    worst = min(z_scores)
    report(
        6,
        worst >= 3.0,
        f"dips at 5 and 10 ms below both neighbors, weakest margin {worst:.1f} "
        "combined stderr (need >= 3)",
    )


def test_criterion_07_squeezing_widens_range(three_tone_noise):
    grid_s = [t * 1e-3 for t in np.arange(1.0, 25.0 + 1e-9, 0.08)]

    def window(mc: McConfig) -> tuple[float, float]:
        curve = contrast_curve(three_tone_noise, 7, grid_s, mc)
        return measurement_range(curve, threshold=0.9)

    squeezed = window(dense_mc(samples=2000))
    unsqueezed = window(dense_mc(samples=2000, squeeze_duration=0.0))
    many_atoms = window(dense_mc(samples=2000, n_atoms=500))
    width_sq = squeezed[1] - squeezed[0]
    width_un = unsqueezed[1] - unsqueezed[0]
    ok = width_sq >= width_un and many_atoms[1] >= squeezed[1]
    report(
        7,
        ok,
        f"contrast>=0.9 window: squeezed {width_sq:.2f} ms vs unsqueezed {width_un:.2f} ms; "
        f"upper endpoint N=500 {many_atoms[1]:.2f} ms vs N=50 {squeezed[1]:.2f} ms",
    )


def test_criterion_08_sensitivity_ordering(three_tone_noise):
    grid_s = [t * 1e-3 for t in np.arange(16.0, 400.0 + 1e-9, 8.0)]
    curves = sensitivity_curve(
        three_tone_noise,
        [50, 300, 500],
        grid_s,
        7,
        dense_mc(samples=2000),
    )
    minima = {
        n: min(p.estimate for p in pts if math.isfinite(p.estimate))
        for n, pts in curves.items()
    }
    ok = minima[50] > minima[300] > minima[500]
    report(
        8,
        ok,
        "min sensitivity Hz/sqrt(Hz) decreases with atom number: "
        f"{minima[50]:.4f} (N=50) > {minima[300]:.4f} (N=300) > {minima[500]:.4f} (N=500)",
    )


def test_criterion_09_thread_count_determinism(tmp_path, three_tone_noise):
    del three_tone_noise  # same tones are spelled out in the config below
    doc = {
        "experiment": "contrast",
        "physics": {
            "n_atoms": 50,
            "n_photons": 50,
            "g": 1e6,
            "tau": 1e-10,
            "squeeze_duration": 1.6e-5,
        },
        "lockin": {
            "n_pulses": 7,
            "tau_arm_grid_ms": {"start": 2.0, "stop": 5.0, "step": 0.1},
        },
        "noise": [
            {"units": "pT", "amplitude": 540, "freq_hz": 50},
            {"units": "pT", "amplitude": 390, "freq_hz": 100},
            {"units": "Hz2-slow", "amplitude": 40, "freq_hz": 2.1},
        ],
        "mc": {"samples": 2000, "master_seed": 7},
    }
    # ramsey rows are the closed form; eq23 rows under these three random
    # tones have no converged series, so the thread pool samples them
    sizes = {}
    ok = True
    for integrand, estimator in (("ramsey", "# estimator exact"), ("eq23", "# estimator mc ")):
        cfg = tmp_path / f"{integrand}.json"
        cfg.write_text(json.dumps({**doc, "contrast_integrand": integrand}))
        out1 = tmp_path / f"{integrand}-threads1.csv"
        out8 = tmp_path / f"{integrand}-threads8.csv"
        code1 = cli.main(["contrast", "--config", str(cfg), "--output", str(out1), "--threads", "1"])
        code8 = cli.main(["contrast", "--config", str(cfg), "--output", str(out8), "--threads", "8"])
        ok = ok and code1 == 0 and code8 == 0 and out1.read_bytes() == out8.read_bytes()
        ok = ok and estimator in out1.read_text()
        sizes[integrand] = f"{out1.stat().st_size} bytes, {len(out1.read_text().splitlines())} lines"
    report(
        9,
        ok,
        f"1-thread and 8-thread sweeps byte-identical (ramsey {sizes['ramsey']}; "
        f"eq23 {sizes['eq23']})",
    )


def test_criterion_10_mc_convergence(three_tone_noise):
    schedule = LockInSchedule(n_pulses=7, tau_arm=5e-3)
    base = fringe_contrast_mc(three_tone_noise, schedule, dense_mc(samples=2000))
    quad = fringe_contrast_mc(three_tone_noise, schedule, dense_mc(samples=8000))
    ratio = quad.stderr / (base.stderr / 2.0)
    ok = abs(ratio - 1.0) <= 0.3
    report(
        10,
        ok,
        f"stderr 2000 samples {base.stderr:.5f} -> 8000 samples {quad.stderr:.5f}; "
        f"measured/expected halving {ratio:.3f} (within 30%)",
    )
