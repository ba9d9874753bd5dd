"""Monte-Carlo fringe contrast, measurement range, and sensitivity sweeps.

Reproducibility contract: every result is a pure function of (config,
master_seed), independent of worker count, evaluation order and block
size.  Each point has its own PCG64 stream keyed by
(master_seed, point_index), read in order: sample j of a point with Q
random tones takes the stream's uniforms jQ ... jQ+Q-1, so any scheduling
of the work reproduces identical draws, and each point's reduction sums
its own index-ordered values.

The phase kernel runs once for the whole grid; then each point is one
task of the thread pool.  A point streams its samples through blocks of
at most _BLOCK_SAMPLES, so it holds 8 bytes per sample plus two blocks,
its draws and a scratch.  Each worker reuses one _Workspace for all its
points: the draw buffer (the kernel takes its tangents in it), a scratch
buffer of the same size and the rows of sums and values, so the hot loop
allocates nothing in steady state.  Sensitivity curves share the draws
and tone sums across atom numbers: a duration's stream is keyed by its
grid index alone, so only the readout runs once per atom number.
fringe_contrast_mc evaluates a grid of one point, keyed by its
point_index.

The ramsey integrand's mean also has a closed form, which _expectation
evaluates on the same grid with stderr 0 and no stream at all; the curves
take it with exact=True, and the sampler stays the check on it.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import analytic, kernels
from .dicke import PhaseTriple
from .errors import ConfigError, EmptyRangeError, NumericsError, _check_integer, _check_real
from .lockin import LockInSchedule, phase_kernel_grid
from .noise import NoiseComponent

INTEGRANDS = ("ramsey", "eq23")
_TWO_PI = 2.0 * math.pi
# samples per streamed block of a point: the smallest block at full
# speed.  For 100,000-sample, 12-tone eq23 points on 2 threads (2-core Xeon,
# 2 MB L2 per core) 1024 took 14% longer than 4096.  A 16,384-sample block
# ran the deep_mc benchmark 5-14% faster, but its peak RSS read 45.5 MB
# against 42.1 MB, so points keep the smaller block
_BLOCK_SAMPLES = 4096
# Bessel J0 takes the midpoint rule below this argument, at most 101 nodes,
# and the Hankel expansion from it on, so its time and memory stay O(x.size)
# at any noise amplitude; every shipped argument (below 5) is a midpoint one
_J0_FAR = 25.0
MAX_SEED = 2**64


@dataclass(frozen=True)
class McConfig:
    """Sampling and physics knobs of one Monte-Carlo estimate.

    The twisting phase entering the fringe formulas is
    alpha = chi * squeeze_duration.
    """

    samples: int
    master_seed: int
    n_atoms: int
    chi: float
    squeeze_duration: float

    def __post_init__(self):
        _check_integer("samples", self.samples, 1)
        _check_integer("master_seed", self.master_seed, 0, MAX_SEED - 1)
        _check_integer("n_atoms", self.n_atoms, 1)
        for name in ("chi", "squeeze_duration"):
            _check_real(name, getattr(self, name), 0)

    @property
    def alpha(self) -> float:
        return self.chi * self.squeeze_duration


@dataclass(frozen=True)
class CurvePoint:
    """One sweep point: abscissa in ms, estimate, and its standard error."""

    x: float
    estimate: float
    stderr: float

    def __post_init__(self):
        # only NaN and negatives fail; inf is the stderr of a point with no fringe
        if not self.stderr >= 0:
            _check_real("stderr", self.stderr, 0)


def _stream(master_seed: int, point_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((master_seed, point_index)))
    )


def _draw(gen: np.random.Generator, half_theta: np.ndarray) -> np.ndarray:
    """Fill half_theta, a C-contiguous (count, n_tones) array, with the half
    phases theta/2 in [0, pi) of gen's next count samples: its next
    count * n_tones uniforms in order, times pi."""
    gen.random(out=half_theta)
    half_theta *= math.pi
    return half_theta


def _split_fixed(
    components: Sequence[NoiseComponent], a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fold pinned-phase tones into a constant offset; keep the random
    ones' weights 2 r_k = 2 hypot(a_k, b_k).

    a and b have shape (..., Q), one row per schedule; the offsets have
    shape (...,) and the weights shape (..., Q_random).  A random tone's
    phase phi_k = atan2(b_k, a_k) is dropped: theta_k + phi_k is as uniform
    as theta_k, so no estimate's law depends on it (see kernels).
    """
    beta0 = np.zeros(a.shape[:-1])
    free: list[int] = []
    for k, comp in enumerate(components):
        if comp.phase is None:
            free.append(k)
        else:
            beta0 += a[..., k] * math.sin(comp.phase) + b[..., k] * math.cos(comp.phase)
    idx = np.array(free, dtype=int)
    # C order, so each point's row of weights is contiguous in a grid of any
    # size: np.einsum picks its summation loop by the operands' strides, so a
    # strided row would change a point's last bits between a curve and a grid
    # of one
    weights = np.ascontiguousarray(2.0 * np.hypot(a[..., idx], b[..., idx]))
    return beta0, weights


def _fringe(mc: McConfig, integrand: str, n_pulses: int) -> tuple:
    """The readout's scalar arguments for one atom number."""
    if integrand not in INTEGRANDS:
        raise ConfigError(
            f"unknown integrand {integrand!r}; expected one of {INTEGRANDS}"
        )
    cos_fac = analytic.cos_factor(mc.alpha, mc.n_atoms)
    sin_fac = analytic.sin_factor(mc.alpha, mc.n_atoms)
    # the ramsey integrand divides by cos_fac; past this ratio the sin_fac
    # term is amplified into arbitrarily large "contrasts"
    if integrand == "ramsey" and (
        cos_fac == 0 or abs(sin_fac) > abs(cos_fac) / analytic.DENOMINATOR_TOL
    ):
        raise NumericsError(
            f"twisting angle alpha={mc.alpha!r}: cos^(N-1)={cos_fac:.3e} is too small "
            f"against sin^(N-1)={sin_fac:.3e} to normalize the ramsey fringe"
        )
    # eq23 divides by the slope amplitude hypot(cos_fac, sin_fac), which
    # underflows to 0 at large N and twist (N = 5000, alpha = pi/4)
    if integrand == "eq23" and math.hypot(cos_fac, sin_fac) <= analytic.DENOMINATOR_TOL:
        raise NumericsError(
            f"N={mc.n_atoms}, alpha={mc.alpha!r}: cos^(N-1)={cos_fac:.3e} and "
            f"sin^(N-1)={sin_fac:.3e} leave no eq23 fringe slope to divide by"
        )
    # the bracketing drive is the N pi pulses acting about x
    gamma = n_pulses * math.pi
    return cos_fac, sin_fac, 1.0 / mc.n_atoms, math.sin(gamma), integrand == "eq23"


class _Workspace:
    """One worker's buffers, reused from block to block and point to point.

    They serve points of `samples` samples with n_tones random tones: the
    draws (block, n_tones), which the kernel consumes in place; a flat
    scratch buffer, holding t^2 for the tone sum or the readout's two
    temporaries; the tone sums; and, for more than one fringe, a row of
    values.  All are views of one allocation: glibc serves a freed block
    that large again from its heap without trimming it, so a run's later
    curves take no page faults.
    """

    def __init__(self, samples: int, n_tones: int, fringes: int):
        block = min(samples, _BLOCK_SAMPLES)
        sizes = [
            block * n_tones,
            max(n_tones, 2) * block,
            samples,
            samples if fringes > 1 else 0,
        ]
        draws, self.scratch, self.sums, values = np.split(
            np.empty(sum(sizes)), np.cumsum(sizes)[:-1]
        )
        self.draws = draws.reshape(block, n_tones)
        self.values = values if fringes > 1 else self.sums


def _point_values(
    master_seed: int,
    point_index: int,
    samples: int,
    beta0: float,
    weights: np.ndarray,
    fringes: Sequence[tuple],
    work: _Workspace,
):
    """Yield one point's (samples,) fringe values, once per entry of
    fringes (one atom number each), in rows of work.

    The point draws from the stream keyed by point_index and has offset
    beta0 and random-tone weights 2 r_k.  The draws and the tone sums run
    once, block by block; only the readout runs per fringe, and the last
    one writes over the tone sums.  A yielded array is overwritten by the
    next one.
    """
    draws, sums = work.draws, work.sums
    block = len(draws)
    tone_scratch = work.scratch[: draws.size].reshape(draws.shape)
    readout_scratch = work.scratch[: 2 * block].reshape(2, block)
    stream = _stream(master_seed, point_index)
    for start in range(0, samples, block):
        width = min(block, samples - start)
        kernels.tone_sum(
            _draw(stream, draws[:width]),
            weights,
            out=sums[start : start + width],
            scratch=tone_scratch[:width],
        )
    for j, fringe in enumerate(fringes):
        values = sums if j == len(fringes) - 1 else work.values
        for start in range(0, samples, block):
            width = min(block, samples - start)
            cols = slice(start, start + width)
            kernels.readout(
                sums[cols], beta0, *fringe, out=values[cols], scratch=readout_scratch[:, :width]
            )
        yield values


def _reduce(values: np.ndarray) -> tuple[float, float]:
    """Estimate and stderr of (S,) values: the mean, and
    sample-std/sqrt(S) (0 for a single sample or a constant row).

    The one mean serves the estimate and the deviations, in the operation
    order of np.mean and np.std(ddof=1), so both are the same bits as those
    calls.  The reduction owns values: it overwrites them with the squared
    deviations instead of holding a second (S,) array.
    """
    samples = len(values)
    estimate = float(np.add.reduce(values) / samples)
    # a constant row (all phases pinned, or no noise at all) has zero
    # spread; the std would report ~1e-16 from the rounding of the mean
    if samples == 1 or np.ptp(values) == 0.0:
        return estimate, 0.0
    np.subtract(values, estimate, out=values)
    np.square(values, out=values)
    std = math.sqrt(np.add.reduce(values) / (samples - 1))
    return estimate, std / math.sqrt(samples)


def _run_indexed(task, count: int, threads: int) -> list:
    """task(i) for i in range(count), any scheduling, results in order."""
    if threads <= 1:
        return [task(i) for i in range(count)]
    # imported here: a one-thread run never loads concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(task, range(count)))


def _evaluate(
    components: Sequence[NoiseComponent],
    n_pulses: int,
    tau_arms: Sequence[float],
    mcs: Sequence[McConfig],
    integrand: str,
    toggle: bool,
    threads: int,
    first_index: int = 0,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Contrast estimates and stderrs, shape (P,) each, on a grid of P arm
    times, for each McConfig of mcs (they differ only in n_atoms).

    Point p draws from the stream keyed by point_index=first_index + p.
    Each point is one task of the thread pool, and each thread keeps one
    workspace for all the points it runs.
    """
    fringes = [_fringe(mc, integrand, n_pulses) for mc in mcs]
    a, b = phase_kernel_grid(components, n_pulses, tau_arms, toggle)
    beta0, weights = _split_fixed(components, a, b)
    samples, master_seed = mcs[0].samples, mcs[0].master_seed
    local = threading.local()

    def task(p: int) -> list[tuple[float, float]]:
        if not hasattr(local, "work"):
            local.work = _Workspace(samples, weights.shape[-1], len(fringes))
        values = _point_values(
            master_seed, first_index + p, samples, float(beta0[p]), weights[p], fringes, local.work
        )
        return [_reduce(v) for v in values]

    # (P, atom numbers, 2): each point's (estimate, stderr) per atom number
    results = np.array(_run_indexed(task, len(tau_arms), threads))
    return [(results[:, j, 0], results[:, j, 1]) for j in range(len(mcs))]


def _hankel_series(terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of P and x Q in J0's Hankel expansion, as polynomials in
    1/x^2 (Abramowitz & Stegun 9.2.9-10 at nu = 0): P = a_0 - a_2/x^2 + ...
    and Q = -a_1/x + a_3/x^3 - ..., with a_k = prod_{j<=k} (2j-1)^2 / (8j)."""
    a = np.cumprod([1.0] + [(2 * k - 1) ** 2 / (8 * k) for k in range(1, terms)])
    signs = (-1.0) ** np.arange(terms // 2)
    return signs * a[0::2], -signs * a[1::2]


# 20 terms: at x = _J0_FAR the first one left out, a_20/25^20, is 4e-18
_HANKEL_P, _HANKEL_Q = _hankel_series(20)


def _j0(x: np.ndarray) -> np.ndarray:
    """Bessel J0 of each x >= 0.

    Below _J0_FAR it is the midpoint rule on
    J0(x) = (1/pi) int_0^pi cos(x sin t) dt.  The integrand is smooth and
    pi-periodic, so M nodes integrate it up to 2 |J_2M(x)|, the first
    Fourier term they alias.  M = ceil(x + 12 x^(1/3) + 40) at the largest
    such x puts that far below rounding.  From _J0_FAR on it is the Hankel
    expansion J0(x) = sqrt(2/(pi x)) (P cos chi - Q sin chi) with
    chi = x - pi/4 (Abramowitz & Stegun 9.2.5), whose terms there shrink
    past rounding before they start to grow.  The tests hold both to 1e-15
    of an independent J0 on [0, 1e6].
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    far = x >= _J0_FAR
    y = x[~far]
    top = float(y.max(initial=0.0))
    nodes = math.ceil(top + 12.0 * top ** (1.0 / 3.0) + 40.0)
    t = (np.arange(nodes) + 0.5) * (math.pi / nodes)
    out[~far] = np.cos(np.multiply.outer(y, np.sin(t))).sum(axis=-1) / nodes
    if far.any():  # no shipped run has one: it skips the series' 40 calls
        y = x[far]
        w = 1.0 / y
        u = w * w  # not 1/y^2, which overflows past 1e154
        p = q = 0.0
        for p_coef, q_coef in zip(_HANKEL_P[::-1], _HANKEL_Q[::-1]):
            p = p * u + p_coef
            q = q * u + q_coef
        chi = y - 0.25 * math.pi
        out[far] = np.sqrt(2.0 / math.pi * w) * (p * np.cos(chi) - q * w * np.sin(chi))
    return out


def _expectation(
    components: Sequence[NoiseComponent],
    n_pulses: int,
    tau_arms: Sequence[float],
    mcs: Sequence[McConfig],
    integrand: str,
    toggle: bool,
    threads: int,
    first_index: int = 0,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """_evaluate's contrasts without sampling: the exact mean of the ramsey
    integrand over the random tone phases, with stderr 0.

    The readout is (R/c) cos(beta + psi) at beta = beta0 + sum_k r_k
    sin(theta_k), and with independent uniform theta_k the Jacobi-Anger
    identity (Abramowitz & Stegun 9.1.42-45) gives E[e^{i beta}] =
    e^{i beta0} prod_k J0(r_k).  So the mean is
    (R/c) cos(beta0 + psi) prod_k J0(r_k).  No stream is read, so neither
    threads, first_index nor the samples and seed of mcs enter.  eq23 has
    no such form: asking for it is a ConfigError.
    """
    del threads, first_index
    if integrand == "eq23":
        raise ConfigError("the closed form covers the ramsey integrand only; eq23 is sampled")
    fringes = [_fringe(mc, integrand, n_pulses) for mc in mcs]
    a, b = phase_kernel_grid(components, n_pulses, tau_arms, toggle)
    beta0, weights = _split_fixed(components, a, b)
    damping = np.prod(_j0(0.5 * weights), axis=-1)
    results = []
    for cos_fac, sin_fac, *_ in fringes:
        norm = math.hypot(cos_fac, sin_fac) / cos_fac  # R/c
        estimates = norm * np.cos(beta0 + math.atan2(sin_fac, cos_fac)) * damping
        results.append((estimates, np.zeros_like(estimates)))
    return results


def fringe_contrast_mc(
    components: Sequence[NoiseComponent],
    schedule: LockInSchedule,
    mc: McConfig,
    *,
    integrand: str = "ramsey",
    toggle: bool = True,
    point_index: int = 0,
) -> CurvePoint:
    """Monte-Carlo fringe contrast E[cos(detected phase)] with stderr.

    The estimate is the mean of per-sample fringe values over iid uniform
    tone phases; stderr is sample-std/sqrt(samples) (0 for a single
    sample).  Deterministic given (mc, point_index), a nonnegative
    integer.  The point is a grid of one, so it has the same bits as inside
    any curve.
    """
    _check_integer("point_index", point_index, 0)
    [((estimate,), (stderr,))] = _evaluate(
        components, schedule.n_pulses, [schedule.tau_arm], [mc], integrand, toggle, 1,
        first_index=point_index,
    )
    return CurvePoint(x=schedule.tau_arm * 1e3, estimate=float(estimate), stderr=float(stderr))


def contrast_curve(
    components: Sequence[NoiseComponent],
    n_pulses: int,
    tau_arm_grid_s: Sequence[float],
    mc: McConfig,
    *,
    integrand: str = "ramsey",
    toggle: bool = True,
    threads: int = 1,
    exact: bool = False,
) -> list[CurvePoint]:
    """Fringe contrast versus arm time; x reported in ms.

    Grid point i uses the phase stream keyed by point_index=i, so the curve
    is reproducible point-by-point regardless of grid slicing or threads.  With exact=True the ramsey contrast is the closed-form mean
    instead, with stderr 0 (see _expectation); eq23 is then a ConfigError.
    """
    grid = [float(t) for t in tau_arm_grid_s]
    if not grid:
        raise ConfigError("tau_arm grid must be nonempty")
    evaluate = _expectation if exact else _evaluate
    [(estimates, stderrs)] = evaluate(
        components, n_pulses, grid, [mc], integrand, toggle, threads
    )
    return [
        CurvePoint(x=tau * 1e3, estimate=e, stderr=s)
        for tau, e, s in zip(grid, estimates.tolist(), stderrs.tolist())
    ]


def measurement_range(
    curve: Sequence[CurvePoint], threshold: float = 0.9
) -> tuple[float, float]:
    """Widest contiguous x-interval where the estimate stays >= threshold.

    Returns (x_low, x_high) in the curve's units (ms); ties go to the
    earliest run.  Raises EmptyRangeError when no point qualifies.
    """
    if not curve:
        raise ConfigError("measurement_range needs a nonempty curve")
    _check_real("threshold", threshold, 0, 1, strict=True)
    best: tuple[float, float] | None = None
    best_span = -1.0
    run_start: int | None = None
    points = list(curve)
    for i, point in enumerate(points + [CurvePoint(0.0, -math.inf, 0.0)]):
        if i < len(points) and point.estimate >= threshold:
            if run_start is None:
                run_start = i
            continue
        if run_start is not None:
            span = points[i - 1].x - points[run_start].x
            if span > best_span:
                best_span = span
                best = (points[run_start].x, points[i - 1].x)
            run_start = None
    if best is None:
        raise EmptyRangeError(
            f"no contiguous run of contrast >= {threshold} on the grid"
        )
    return best


def sensitivity_point(
    contrast: CurvePoint,
    dphi0: float,
    squeeze_duration: float,
    n_pulses: int,
    tau_arm: float,
) -> CurvePoint:
    """Field sensitivity for one interrogation window, Hz per sqrt(Hz).

    S = dphi_eff / (2 pi T_coh) * sqrt(T_cycle) with
    dphi_eff = dphi0 / contrast, dphi0 = dphi(alpha, 0, 0) of the atom
    number, T_coh = N tau_arm (phase actually accumulates for N arms), and
    T_cycle = squeeze_duration + (N+1) tau_arm (pi and pi/2 pulses treated
    as instantaneous).  A nonpositive contrast means no fringe: infinite
    sensitivity.
    """
    t_coh = n_pulses * tau_arm
    t_cycle = squeeze_duration + (n_pulses + 1) * tau_arm
    scale = dphi0 * math.sqrt(t_cycle) / (_TWO_PI * t_coh)
    if contrast.estimate <= 0.0:
        return CurvePoint(x=contrast.x, estimate=math.inf, stderr=math.inf)
    estimate = scale / contrast.estimate
    stderr = estimate * contrast.stderr / contrast.estimate
    return CurvePoint(x=contrast.x, estimate=estimate, stderr=stderr)


def sensitivity_curve(
    components: Sequence[NoiseComponent],
    n_atoms_list: Sequence[int],
    duration_grid_s: Sequence[float],
    n_pulses: int,
    mc: McConfig,
    *,
    integrand: str = "ramsey",
    toggle: bool = True,
    threads: int = 1,
    exact: bool = False,
) -> dict[int, list[CurvePoint]]:
    """Sensitivity versus total interrogation window T, one curve per atom
    number; x reported in ms.

    T on the grid is the full window (N+1) tau_arm.  The phase stream for a
    given T is keyed by its grid index only, shared across atom numbers, so
    curves for different N_a differ by physics and not by sampling noise.
    With exact=True the contrasts are the closed-form ramsey means, with
    stderr 0, as in contrast_curve.
    """
    grid = [float(t) for t in duration_grid_s]
    atoms = list(n_atoms_list)
    if not grid:
        raise ConfigError("duration grid must be nonempty")
    if not atoms:
        raise ConfigError("n_atoms list must be nonempty")
    if len(set(atoms)) < len(atoms):
        raise ConfigError("physics.n_atoms must not repeat")
    tau_arms = [duration / (n_pulses + 1) for duration in grid]
    mcs = [replace(mc, n_atoms=n) for n in atoms]
    evaluate = _expectation if exact else _evaluate
    curves = evaluate(components, n_pulses, tau_arms, mcs, integrand, toggle, threads)
    result = {}
    for mc_n, (estimates, stderrs) in zip(mcs, curves):
        # dphi(alpha, 0, 0) depends on the atom number alone
        dphi0 = analytic.min_detectable_phase(PhaseTriple(mc_n.alpha, 0.0, 0.0), mc_n.n_atoms)
        result[mc_n.n_atoms] = [
            sensitivity_point(
                CurvePoint(x=duration * 1e3, estimate=e, stderr=s),
                dphi0, mc_n.squeeze_duration, n_pulses, tau_arm,
            )
            for duration, tau_arm, e, s in zip(
                grid, tau_arms, estimates.tolist(), stderrs.tolist()
            )
        ]
    return result
