"""Correctness checks of one pass, against references that share no program code.

* sweep: the ramsey contrast has a closed form by the Jacobi-Anger identity,
  E = prod_k J0(r_k) (cos b0 - (sin_fac/cos_fac) sin b0), and so has the
  per-sample spread; each Monte Carlo point is compared in z-units of the
  exact standard error.  The noise preview must be a sum of the configured
  tones.
* deep_mc: eq23 has no closed form; points are compared with a committed
  high-sample table (``data/deep_mc_reference.json``) in combined-stderr
  z-units.
* exact: <Jx> = (N/2) cos^(N-1)(alpha) survives the jx rotation, <Jy> = <Jz> = 0,
  <Jz^2> follows the Kitagawa-Ueda moments; the oracle grid is compared with
  the 2^N product-space simulation; BCH errors must scale as (g tau)^3.

Thresholds hold at any seed: |z| <= 6 has a false-alarm rate of 2e-9 per point.
Only numpy is used, so a lazy scipy import in the program stays visible.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import expand_grid

Z_MAX = 6.0
Z_RMS_MAX = {"sweep": 1.5, "deep_mc": 2.0}  # chi^2 tails below 1e-6 at 749 / 16 points
STDERR_RATIO = (0.8, 1.25)  # reported stderr over the exact one
EXACT_ATOL = 1e-10  # an estimator reporting stderr 0 must match to rounding
REL_TOL = 1e-9
GYRO_HZ_PER_NT = 28.0
J0_NODES = 64  # midpoint rule on a periodic integrand: 7e-16 up to x = 30
REFERENCE = Path(__file__).resolve().parent / "data" / "deep_mc_reference.json"

CSV_COLUMNS = {
    "contrast": ["tau_arm_ms", "contrast", "stderr", "n_atoms", "alpha"],
    "sensitivity": ["T_ms", "sensitivity_hz_per_sqrt_hz", "stderr", "n_atoms"],
    "verify-bch": ["g_tau", "bch_error"],
    "oracle-compare": [
        "n_atoms", "alpha", "beta", "gamma", "ordering",
        "quantity", "formula", "oracle", "abs_diff",
    ],
    "noise-preview": ["t_s", "noise_hz"],
}


class Ledger:
    """Operations of one pass; an operation with any problem has failed."""

    def __init__(self):
        self.ops: dict[str, list[str]] = {}
        self.diagnostics: dict[str, float] = {}

    def op(self, label: str) -> list[str]:
        return self.ops.setdefault(label, [])

    @property
    def failures(self) -> list[str]:
        return [f"{k}: {'; '.join(v)}" for k, v in self.ops.items() if v]


def read_csv(path: Path, experiment: str):
    """(comment lines, rows as lists of floats or strings) of a CLI result."""
    lines = path.read_text().splitlines()
    comments = [line[2:] for line in lines if line.startswith("# ")]
    body = [line for line in lines if not line.startswith("#")]
    table = list(csv.reader(body))
    if not table or table[0] != CSV_COLUMNS[experiment]:
        raise ValueError(f"columns {table[0] if table else None}")
    if any(len(row) != len(table[0]) for row in table):
        raise ValueError("ragged rows")
    numeric = [c not in ("ordering", "quantity") for c in table[0]]
    return comments, [
        [float(v) if num else v for v, num in zip(row, numeric)] for row in table[1:]
    ]


def j0(x) -> np.ndarray:
    """Bessel J0(x) = (1/pi) int_0^pi cos(x sin t) dt by the midpoint rule."""
    t = (np.arange(J0_NODES) + 0.5) * (math.pi / J0_NODES)
    return np.cos(np.multiply.outer(np.asarray(x, dtype=float), np.sin(t))).mean(axis=-1)


def tone_hz(tone: dict) -> float:
    if tone["units"] == "pT":
        return tone["amplitude"] * 1e-3 * tone.get("gyro_hz_per_nt", GYRO_HZ_PER_NT)
    if tone["units"] == "Hz":
        return tone["amplitude"]
    return tone["amplitude"] / tone["freq_hz"]  # Hz2-slow


def alpha_of(doc: dict) -> float:
    p = doc["physics"]
    chi = p.get("chi_override", p["n_photons"] * p["g"] ** 2 * p["tau"] / 8.0)
    return chi * p["squeeze_duration"]


def corr_factors(alpha: float, n_atoms: int) -> tuple[float, float]:
    """cos^(N-1)(alpha), sin^(N-1)(alpha), with no partners for N = 1."""
    if n_atoms == 1:
        return 1.0, 0.0
    return math.cos(alpha) ** (n_atoms - 1), math.sin(alpha) ** (n_atoms - 1)


def ramsey_moments(doc: dict, tau_arm_s: float, n_atoms: int) -> tuple[float, float]:
    """Exact mean and per-sample standard deviation of the ramsey integrand.

    Tone k adds Im(P_k e^{i theta_k}) to the phase, with
    P_k = (A_k/f_k) sum_i s_i (e^{i x_(i+1)} - e^{i x_i}) over the toggling
    intervals; a uniform theta_k averages e^{i n beta} by J0(n |P_k|).
    """
    n_pulses = doc["lockin"]["n_pulses"]
    edges = tau_arm_s * np.arange(n_pulses + 2)
    signs = (-1.0) ** np.arange(n_pulses + 1) if doc.get("toggle", True) else 1.0
    beta0, radii = 0.0, []
    for tone in doc["noise"]:
        f = tone["freq_hz"]
        phasor = tone_hz(tone) / f * np.sum(signs * np.diff(np.exp(2j * math.pi * f * edges)))
        if tone.get("phase") is None:
            radii.append(abs(phasor))
        else:
            beta0 += (phasor * np.exp(1j * tone["phase"])).imag
    c1 = float(np.prod(j0(radii)))
    c2 = float(np.prod(j0(2.0 * np.asarray(radii))))
    cos_fac, sin_fac = corr_factors(alpha_of(doc), n_atoms)
    t = sin_fac / cos_fac
    mean = c1 * (math.cos(beta0) - t * math.sin(beta0))
    e_cc = (1 + math.cos(2 * beta0) * c2) / 2
    e_ss = (1 - math.cos(2 * beta0) * c2) / 2
    e_sc = math.sin(2 * beta0) * c2 / 2
    second = e_cc - 2 * t * e_sc + t * t * e_ss
    return mean, math.sqrt(max(second - mean * mean, 0.0))


def _rms(zs: list[float]) -> float:
    return math.sqrt(sum(z * z for z in zs) / len(zs)) if zs else 0.0


def contrast_point(problems, zs, est, stderr, mean, sigma) -> None:
    """One Monte Carlo contrast against its exact mean and standard error."""
    if stderr == 0.0 or sigma == 0.0:
        if not abs(est - mean) <= EXACT_ATOL:
            problems.append(f"exact estimate {est!r} != reference {mean!r}")
        return
    z = (est - mean) / sigma
    zs.append(z)
    if not abs(z) <= Z_MAX:
        problems.append(f"z = {z:.2f} (estimate {est!r}, reference {mean!r})")
    ratio = stderr / sigma
    if not STDERR_RATIO[0] <= ratio <= STDERR_RATIO[1]:
        problems.append(f"stderr {stderr!r} is {ratio:.3f} x the exact {sigma!r}")


def _load(ledger: Ledger, wl, result: dict, stem: str):
    """Exit code and parsed CSV of one config run; None after a failure."""
    problems = ledger.op(stem)
    rc = result["runs"].get(stem)
    if rc != 0:
        problems.append(f"cli returned {rc!r}")
        return None
    try:
        return read_csv(wl.out_dir / f"{stem}.csv", wl.configs[stem]["experiment"])
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable output: {exc}")
        return None


def _rows(ledger: Ledger, wl, result: dict, stem: str, labels: list[str], per_label: int = 1):
    """Register one operation per label and return the CSV rows, ``per_label``
    rows each; without a complete result every operation fails."""
    for label in labels:
        ledger.op(label)
    loaded = _load(ledger, wl, result, stem)
    if loaded is not None and len(loaded[1]) == per_label * len(labels):
        return loaded[1]
    if loaded is not None:
        ledger.op(stem).append(f"{len(loaded[1])} rows, expected {per_label * len(labels)}")
    for label in labels:
        ledger.op(label).append(f"no result from {stem}")
    return None


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_contrast(ledger: Ledger, wl, result: dict, stem: str, zs: list[float]) -> None:
    doc = wl.configs[stem]
    grid = expand_grid(doc["lockin"]["tau_arm_grid_ms"])
    labels = [f"{stem}[{i}]" for i in range(len(grid))]
    rows = _rows(ledger, wl, result, stem, labels)
    if rows is None:
        return
    n_atoms = doc["physics"]["n_atoms"]
    samples = doc["mc"]["samples"]
    alpha = alpha_of(doc)
    point_zs: list[float] = []
    for label, tau_ms, (x, est, stderr, n, a) in zip(labels, grid, rows):
        problems = ledger.op(label)
        if not (_close(x, tau_ms) and n == n_atoms and _close(a, alpha, 1e-12)):
            problems.append(f"row ({x}, {n}, {a}) is not grid point {tau_ms}")
            continue
        mean, sd = ramsey_moments(doc, tau_ms * 1e-3, n_atoms)
        contrast_point(problems, point_zs, est, stderr, mean, sd / math.sqrt(samples))
    if _rms(point_zs) > Z_RMS_MAX["sweep"]:
        ledger.op(stem).append(f"rms z {_rms(point_zs):.3f}")
    zs.extend(point_zs)


def check_sensitivity(ledger: Ledger, wl, result: dict, stem: str, zs: list[float]) -> None:
    """S = dphi0 sqrt(T_cycle) / (2 pi T_coh E) with dphi0 = 1/(sqrt(N) cos^(N-1) a)."""
    doc = wl.configs[stem]
    grid = expand_grid(doc["lockin"]["duration_grid_ms"])
    atoms = doc["physics"]["n_atoms"]
    cases = [(n, t) for n in atoms for t in grid]
    labels = [f"{stem}[{n},{t!r}]" for n, t in cases]
    rows = _rows(ledger, wl, result, stem, labels)
    if rows is None:
        return
    n_pulses = doc["lockin"]["n_pulses"]
    samples = doc["mc"]["samples"]
    alpha = alpha_of(doc)
    point_zs: list[float] = []
    for label, (n_atoms, t_ms), (x, s, s_err, n) in zip(labels, cases, rows):
        problems = ledger.op(label)
        if not (_close(x, t_ms) and n == n_atoms):
            problems.append(f"row ({x}, {n}) is not grid point ({t_ms}, {n_atoms})")
            continue
        tau_arm = t_ms * 1e-3 / (n_pulses + 1)
        mean, sd = ramsey_moments(doc, tau_arm, n_atoms)
        sigma = sd / math.sqrt(samples)
        cos_fac, _ = corr_factors(alpha, n_atoms)
        t_cycle = doc["physics"]["squeeze_duration"] + (n_pulses + 1) * tau_arm
        scale = math.sqrt(t_cycle) / (math.sqrt(n_atoms) * cos_fac * 2 * math.pi * n_pulses * tau_arm)
        if s == math.inf:  # the program reports no fringe: contrast <= 0
            if mean > Z_MAX * sigma:
                problems.append(f"infinite sensitivity where contrast is {mean!r}")
        elif not (isinstance(s, float) and 0 < s < math.inf):
            problems.append(f"sensitivity {s!r}")
        else:
            contrast = scale / s
            contrast_point(problems, point_zs, contrast, contrast * s_err / s, mean, sigma)
    if _rms(point_zs) > Z_RMS_MAX["sweep"]:
        ledger.op(stem).append(f"rms z {_rms(point_zs):.3f}")
    zs.extend(point_zs)


def check_noise_preview(ledger: Ledger, wl, result: dict, stem: str) -> None:
    """The preview must be a sum of the configured tones at their amplitudes."""
    doc = wl.configs[stem]
    loaded = _load(ledger, wl, result, stem)
    problems = ledger.op(stem)
    n_points = doc["preview"]["n_points"]
    if loaded is None or len(loaded[1]) != n_points:
        problems.append(f"no {n_points}-point preview")
        return
    lockin = doc["lockin"]
    window = expand_grid(lockin["tau_arm_grid_ms"])[0] * 1e-3 * (lockin["n_pulses"] + 1)
    t, noise = np.array(loaded[1], dtype=float).T
    if not np.abs(t - np.linspace(0.0, window, n_points)).max() <= 1e-12:
        problems.append("time axis is not the interrogation window")
        return
    freqs = np.array([tone["freq_hz"] for tone in doc["noise"]])
    basis = np.hstack([np.cos(2 * math.pi * np.outer(t, freqs)), np.sin(2 * math.pi * np.outer(t, freqs))])
    coef, *_ = np.linalg.lstsq(basis, noise, rcond=None)
    amplitudes = np.hypot(coef[: freqs.size], coef[freqs.size :])
    expected = np.array([tone_hz(tone) for tone in doc["noise"]])
    residual = np.abs(basis @ coef - noise).max()
    if not (residual <= 1e-9 * expected.sum() and np.allclose(amplitudes, expected, rtol=1e-6)):
        problems.append(f"not the configured tones: amplitudes {amplitudes}, residual {residual:.2e}")


def check_sweep(ledger: Ledger, wl, result: dict) -> None:
    zs: list[float] = []
    check_contrast(ledger, wl, result, "contrast_squeezed", zs)
    check_contrast(ledger, wl, result, "contrast_unsqueezed", zs)
    check_sensitivity(ledger, wl, result, "sensitivity", zs)
    check_noise_preview(ledger, wl, result, "noise_preview")
    ledger.diagnostics.update(z_rms=_rms(zs), z_max=max(map(abs, zs), default=0.0))


def load_reference(doc: dict) -> dict:
    """The committed eq23 table; it must describe the same physics as ``doc``."""
    table = json.loads(REFERENCE.read_text())
    strip = lambda d: {k: v for k, v in d.items() if k not in ("mc", "output")}
    if strip(table["config"]) != strip(doc):
        raise RuntimeError(f"{REFERENCE} was made for another config; rerun make_reference.py")
    return table


def check_deep_mc(ledger: Ledger, wl, result: dict) -> None:
    stem = "deep_mc"
    doc = wl.configs[stem]
    table = load_reference(doc)
    refs = table["points"]
    labels = [f"{stem}[{i}]" for i in range(len(refs))]
    rows = _rows(ledger, wl, result, stem, labels)
    if rows is None:
        return
    samples = doc["mc"]["samples"]
    zs: list[float] = []
    for label, ref, (x, est, stderr, _, _) in zip(labels, refs, rows):
        problems = ledger.op(label)
        if not _close(x, ref["tau_arm_ms"]):
            problems.append(f"tau {x} is not grid point {ref['tau_arm_ms']}")
            continue
        # the per-sample spread of the reference predicts this run's stderr
        expected = ref["stderr"] * math.sqrt(table["samples"] / samples)
        z = (est - ref["contrast"]) / math.hypot(stderr, ref["stderr"])
        zs.append(z)
        if not abs(z) <= Z_MAX:
            problems.append(f"z = {z:.2f} (estimate {est!r}, reference {ref['contrast']!r})")
        if stderr and not STDERR_RATIO[0] <= stderr / expected <= STDERR_RATIO[1]:
            problems.append(f"stderr {stderr!r} is {stderr / expected:.3f} x the reference")
    if _rms(zs) > Z_RMS_MAX["deep_mc"]:
        ledger.op(stem).append(f"rms z {_rms(zs):.3f}")
    ledger.diagnostics.update(z_rms=_rms(zs), z_max=max(map(abs, zs), default=0.0))


def _collective(n: int) -> dict[str, np.ndarray]:
    """Jx, Jz, Jz^2 on the 2^n product space as Kronecker sums of spin-1/2."""
    single = {
        "jx": np.array([[0, 1], [1, 0]], dtype=complex) / 2,
        "jz": np.array([[1, 0], [0, -1]], dtype=complex) / 2,
    }
    ops = {}
    for name, s in single.items():
        total = np.zeros((2**n, 2**n), dtype=complex)
        for site in range(n):
            total += np.kron(np.kron(np.eye(2**site), s), np.eye(2 ** (n - site - 1)))
        ops[name] = total
    ops["jz2"] = ops["jz"] @ ops["jz"]
    return ops


def summed_generator_reference(n: int, alpha: float, beta: float, gamma: float) -> dict:
    """<Jx>, <Jz>, <Jz^2> after exp(-i(alpha Jz^2 + beta Jz + gamma Jx)) on |+x>^n."""
    ops = _collective(n)
    w, v = np.linalg.eigh(alpha * ops["jz2"] + beta * ops["jz"] + gamma * ops["jx"])
    psi = np.full(2**n, 2 ** (-n / 2), dtype=complex)
    psi = v @ (np.exp(-1j * w) * (v.conj().T @ psi))
    return {k: float(np.vdot(psi, op @ psi).real) for k, op in ops.items()}


def check_dicke(ledger: Ledger, wl, result: dict) -> None:
    """Closed forms for the twisted-then-rotated x-CSS (Kitagawa-Ueda 1993)."""
    a, th = wl.alpha, wl.theta
    for n in wl.dicke_atoms:
        problems = ledger.op(f"dicke[{n}]")
        got = result["api"].get(f"dicke/{n}")
        if not isinstance(got, dict):
            problems.append(f"{got!r}")
            continue
        half = n / 2
        jy2 = n / 4 + n * (n - 1) / 8 * (1 - math.cos(2 * a) ** (n - 2))
        cross = n * (n - 1) / 2 * math.sin(a) * math.cos(a) ** (n - 2)
        want = {
            "jx": half * math.cos(a) ** (n - 1),
            "jy": 0.0,
            "jz": 0.0,
            "jz2": math.cos(th) ** 2 * n / 4 + math.sin(th) ** 2 * jy2
            + math.sin(th) * math.cos(th) * cross,
        }
        for key, value in want.items():
            if not abs(got.get(key, math.nan) - value) <= REL_TOL * max(half, abs(value)):
                problems.append(f"<{key}> = {got.get(key)!r}, expected {value!r}")


def check_oracle_compare(ledger: Ledger, wl, result: dict) -> None:
    stem = "oracle_compare"
    grid = wl.oracle_grid()
    labels = [f"{stem}[{','.join(map(str, case))}]" for case in grid]
    rows = _rows(ledger, wl, result, stem, labels, per_label=3)
    if rows is None:
        return
    for k, (label, case) in enumerate(zip(labels, grid)):
        problems = ledger.op(label)
        n, a, b, g, ordering = case
        block = rows[3 * k : 3 * k + 3]
        if [tuple(r[:5]) for r in block] != [case] * 3 or [r[5] for r in block] != ["jx", "jz", "dphi"]:
            problems.append("rows out of grid order")
            continue
        vals = {r[5]: (r[6], r[7], r[8]) for r in block}
        if ordering == "single":
            ref = summed_generator_reference(n, a, b, g)
        else:
            ref = result["api"].get(f"full/{n}/{a!r}/{b!r}/{g!r}/{ordering}")
            if not isinstance(ref, dict):
                problems.append(f"full-space oracle: {ref!r}")
                continue
        for q in ("jx", "jz"):
            if not abs(vals[q][1] - ref[q]) <= REL_TOL * max(1.0, n / 2):
                problems.append(f"{q} oracle {vals[q][1]!r} != 2^N value {ref[q]!r}")
        if abs(ref["jx"]) > 1e-6:
            dphi = math.sqrt(max(ref["jz2"] - ref["jz"] ** 2, 0.0)) / ref["jx"]
            if not abs(vals["dphi"][1] - dphi) <= 1e-7 * max(1.0, abs(dphi)):
                problems.append(f"dphi oracle {vals['dphi'][1]!r} != 2^N value {dphi!r}")
        # the printed formulas, recomputed, and their residual column
        cos_fac, sin_fac = corr_factors(a, n)
        formula = {
            "jx": n / 2 * (cos_fac * math.cos(b) - sin_fac * math.sin(b)),
            "jz": n / 2 * (cos_fac * math.sin(b) + sin_fac * math.cos(b)) * math.sin(g),
        }
        for q, value in formula.items():
            if not abs(vals[q][0] - value) <= 1e-12 * max(1.0, n / 2):
                problems.append(f"{q} formula {vals[q][0]!r} != {value!r}")
        for q, (f, o, d) in vals.items():
            if math.isfinite(f) and math.isfinite(o) and not _close(d, abs(f - o), 1e-12):
                problems.append(f"{q} abs_diff {d!r} != |formula - oracle|")
        # at alpha = 0 the product-ordering formulas are exact
        if a == 0.0 and ordering == "product":
            exact = ["jx", "jz"] + (["dphi"] if g == 0.0 else [])
            for q in exact:
                if not vals[q][2] <= 1e-12 * max(1.0, n / 2, abs(vals[q][1])):
                    problems.append(f"alpha=0 {q} residual {vals[q][2]!r}")


def _bch_points(problems: list[list[str]], grid, errors) -> float:
    """Each error must be C (g tau)^3 for one C; returns the log-log slope."""
    if not all(isinstance(e, float) and 0 < e < math.inf for e in errors):
        for p, e in zip(problems, errors):
            p.append(f"bch_error {e!r}")
        return math.nan
    ratios = [e / g**3 for g, e in zip(grid, errors)]
    typical = float(np.median(ratios))
    for p, r in zip(problems, ratios):
        if not abs(r / typical - 1) <= 0.02:
            p.append(f"bch_error / (g tau)^3 = {r:.4g}, others {typical:.4g}")
    return float(np.polyfit(np.log(grid), np.log(errors), 1)[0])


def check_bch(ledger: Ledger, wl, result: dict) -> None:
    stem = "verify_bch"
    grid = wl.configs[stem]["bch"]["g_tau_grid"]
    cli_ops = [ledger.op(f"{stem}[{g!r}]") for g in grid]
    api_ops = [ledger.op(f"bch231[{g!r}]") for g in grid]
    loaded = _load(ledger, wl, result, stem)
    if loaded is None or [row[0] for row in loaded[1]] != grid:
        for p in cli_ops:
            p.append(f"no result from {stem}")
    else:
        slope = _bch_points(cli_ops, grid, [row[1] for row in loaded[1]])
        if not abs(slope - 3) <= 0.05:
            ledger.op(stem).append(f"fitted slope {slope:.6f}, expected 3")
    slope = _bch_points(api_ops, grid, [result["api"].get(f"bch/{g!r}") for g in grid])
    ledger.diagnostics["bch_slope"] = slope
    if not abs(slope - 3) <= 0.05:
        for p in api_ops:
            p.append(f"fitted slope {slope:.6f}, expected 3")


def check_exact(ledger: Ledger, wl, result: dict) -> None:
    check_dicke(ledger, wl, result)
    check_oracle_compare(ledger, wl, result)
    check_bch(ledger, wl, result)


CHECKS = {"sweep": check_sweep, "deep_mc": check_deep_mc, "exact": check_exact}


def check(wl, result: dict) -> Ledger:
    """The pass's ledger; a check that raises is itself a failed operation."""
    ledger = Ledger()
    try:
        CHECKS[wl.name](ledger, wl, result)
    except Exception as exc:
        ledger.op("checks").append(f"raised {type(exc).__name__}: {exc}")
    return ledger
