"""Monte-Carlo fringe contrast, measurement range, and sensitivity sweeps.

Reproducibility contract: every result is a pure function of (config,
master_seed), independent of worker count, evaluation order, chunking and
block size.  Each point has its own PCG64 stream keyed by
(master_seed, point_index), read in order: sample j of a point with Q
random tones takes the stream's uniforms jQ ... jQ+Q-1, so any scheduling
of the work reproduces identical draws, and each point's reduction sums
its own index-ordered row.

A curve is evaluated in chunks of whole points, up to _CHUNK_SAMPLES
samples per chunk, or one point when a point alone is larger.  The phase
kernel runs once for the whole grid; per chunk, each point's phases are
drawn from its own stream into one (C, S, Q) buffer, and the tone sum,
the readout and the mean/std reduction each run once over all C points.
A point longer than _BLOCK_SAMPLES streams through blocks of that size,
so it holds 8 bytes per sample plus two blocks, its draws and a scratch.  Each worker reuses one
_Workspace for all its chunks: the draw buffer (the kernel takes its
tangents in it), a scratch buffer of the same size and the rows of sums
and values, so the hot loop allocates nothing in steady state.
Sensitivity curves share the draws and tone sums across atom numbers: a
duration's stream is keyed by its grid index alone, so only the readout
runs once per atom number.  fringe_contrast_mc evaluates a chunk of one
point.
"""
from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import analytic, kernels
from .dicke import PhaseTriple
from .errors import ConfigError, EmptyRangeError, NumericsError
from .lockin import LockInSchedule, phase_kernel_grid
from .noise import NoiseComponent

INTEGRANDS = ("ramsey", "eq23")
_TWO_PI = 2.0 * math.pi
# samples per chunk of short points: numpy calls over 4000-12,000 elements
# spend much of their time in call overhead, and 16,384 samples (8 points of
# 2000) run the 2000-sample curves faster than 8192, as fast as 32,768, and
# with the buffers reused take no page fault
_CHUNK_SAMPLES = 16384
# samples per streamed block of a long point: the smallest block at full
# speed.  For 100,000-sample, 12-tone eq23 points on 2 threads (2-core Xeon,
# 2 MB L2 per core) 1024 took 14% longer than 4096.  A 16,384-sample block
# ran the deep_mc benchmark 5-14% faster, but its peak RSS read 45.5 MB
# against 42.1 MB, so long points keep the smaller block: two constants
_BLOCK_SAMPLES = 4096
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
        if not isinstance(self.samples, (int, np.integer)) or self.samples < 1:
            raise ConfigError(f"samples must be a positive integer, got {self.samples!r}")
        if (
            not isinstance(self.master_seed, (int, np.integer))
            or not 0 <= self.master_seed < MAX_SEED
        ):
            raise ConfigError(
                f"master_seed must be an integer in [0, 2^64), got {self.master_seed!r}"
            )
        if not isinstance(self.n_atoms, (int, np.integer)) or self.n_atoms < 1:
            raise ConfigError(f"n_atoms must be a positive integer, got {self.n_atoms!r}")
        for name in ("chi", "squeeze_duration"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")

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
        if not self.stderr >= 0:
            raise ConfigError(f"stderr must be >= 0, got {self.stderr!r}")


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
    # C order, like any one row of it: np.einsum picks its summation loop by
    # the operands' strides, so a point's tone sum would change its last bits
    # between a chunk of the grid and a grid of one
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
    # the bracketing drive is the N pi pulses acting about x
    gamma = n_pulses * math.pi
    return cos_fac, sin_fac, 1.0 / mc.n_atoms, math.sin(gamma), integrand == "eq23"


class _Workspace:
    """One worker's buffers, reused from block to block and chunk to chunk.

    They serve chunks of up to `points` points of `samples` samples with
    n_tones random tones: the draws (points, block, n_tones), which the
    kernel consumes in place; a flat scratch buffer, holding t^2 for the
    tone sum or the readout's two temporaries; the tone sums; and, for
    more than one fringe, a row of values per point.  All are views of one
    allocation: glibc serves a freed block that large again from its heap
    without trimming it, so a run's later curves take no page faults.
    """

    def __init__(self, points: int, samples: int, n_tones: int, fringes: int):
        block = min(samples, _BLOCK_SAMPLES)
        sizes = [
            points * block * n_tones,
            max(n_tones, 2) * points * block,
            points * samples,
            points * samples if fringes > 1 else 0,
        ]
        draws, self.scratch, sums, values = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
        self.draws = draws.reshape(points, block, n_tones)
        self.sums = sums.reshape(points, samples)
        self.values = values.reshape(points, samples) if fringes > 1 else self.sums


def _chunk_values(
    master_seed: int,
    indices: Sequence[int],
    samples: int,
    terms: tuple[np.ndarray, np.ndarray],
    fringes: Sequence[tuple],
    work: _Workspace,
):
    """Yield the (C, samples) fringe values of a chunk of C points, once per
    entry of fringes (one atom number each), in rows of work.

    Point c draws from the stream keyed by indices[c] and has offset
    beta0[c] and random-tone weights[c], where (beta0, weights) = terms.
    The draws and the tone sums run once, block by block, over the whole
    chunk; only the readout runs per fringe, and the last one writes over
    the tone sums.  A yielded array is overwritten by the next one.
    """
    beta0, weights = terms
    points = len(indices)
    draws = work.draws[:points]
    block = draws.shape[1]
    tone_scratch = work.scratch[: draws.size].reshape(draws.shape)
    readout_scratch = work.scratch[: 2 * points * block].reshape(2, points, block)
    sums = work.sums[:points]
    streams = [_stream(master_seed, i) for i in indices]
    for start in range(0, samples, block):
        width = min(block, samples - start)
        for c, gen in enumerate(streams):
            _draw(gen, draws[c, :width])
        kernels.tone_sum(
            draws[:, :width],
            weights,
            out=sums[:, start : start + width],
            scratch=tone_scratch[:, :width],
        )
    for j, fringe in enumerate(fringes):
        values = sums if j == len(fringes) - 1 else work.values[:points]
        for start in range(0, samples, block):
            width = min(block, samples - start)
            cols = slice(start, start + width)
            kernels.readout(
                sums[:, cols],
                beta0,
                *fringe,
                out=values[:, cols],
                scratch=readout_scratch[..., :width],
            )
        yield values


def _reduce(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise estimate and stderr of (C, S) values: the mean, and
    sample-std/sqrt(S) (0 for a single sample or a constant row).

    The one row mean serves the estimate and the deviations, in the
    operation order of np.mean and np.std(ddof=1), so both are the same bits
    as those calls.  The reduction owns values: it overwrites them with the
    squared deviations instead of holding a second (C, S) array.
    """
    samples = values.shape[1]
    estimates = np.add.reduce(values, axis=1) / samples
    stderrs = np.zeros(len(values))
    if samples > 1:
        # a constant row (all phases pinned, or no noise at all) has zero
        # spread; the std would report ~1e-16 from the rounding of the mean
        spread = np.ptp(values, axis=1) != 0.0
        # row by row, like readout's offsets: a broadcast subtract has
        # numpy's iterator allocate 64 KB of buffers on every call
        for row, mean in zip(values, estimates.tolist()):
            np.subtract(row, mean, out=row)
        np.square(values, out=values)
        std = np.sqrt(np.add.reduce(values, axis=1) / (samples - 1))
        stderrs[spread] = std[spread] / math.sqrt(samples)
    return estimates, stderrs


def _point_values(
    components: Sequence[NoiseComponent],
    schedule: LockInSchedule,
    mc: McConfig,
    integrand: str,
    toggle: bool,
    point_index: int,
) -> np.ndarray:
    """One point's per-sample fringe values: a chunk of one."""
    fringe = _fringe(mc, integrand, schedule.n_pulses)
    a, b = phase_kernel_grid(components, schedule.n_pulses, [schedule.tau_arm], toggle)
    beta0, weights = _split_fixed(components, a, b)
    work = _Workspace(1, mc.samples, weights.shape[-1], 1)
    terms = (beta0, weights)
    return next(_chunk_values(mc.master_seed, [point_index], mc.samples, terms, [fringe], work))[0]


def _run_indexed(tasks, threads: int):
    """Evaluate index-keyed closures into a list, any scheduling, fixed order."""
    results = [None] * len(tasks)
    if threads <= 1:
        for i, task in enumerate(tasks):
            results[i] = task()
        return results
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {pool.submit(task): i for i, task in enumerate(tasks)}
        for future, i in futures.items():
            results[i] = future.result()
    return results


def _evaluate(
    components: Sequence[NoiseComponent],
    n_pulses: int,
    tau_arms: Sequence[float],
    mcs: Sequence[McConfig],
    integrand: str,
    toggle: bool,
    threads: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Contrast estimates and stderrs, shape (P,) each, on a grid of P arm
    times, for each McConfig of mcs (they differ only in n_atoms).

    Point p draws from the stream keyed by point_index=p.  The grid goes in
    chunks of whole points, up to _CHUNK_SAMPLES samples per chunk or one
    point; the chunks are the thread pool's tasks, and each thread keeps
    one workspace for all the chunks it runs.
    """
    fringes = [_fringe(mc, integrand, n_pulses) for mc in mcs]
    a, b = phase_kernel_grid(components, n_pulses, tau_arms, toggle)
    terms = _split_fixed(components, a, b)
    samples, master_seed = mcs[0].samples, mcs[0].master_seed
    per_chunk = max(1, _CHUNK_SAMPLES // samples)
    points = len(tau_arms)
    local = threading.local()

    def make_task(lo: int, hi: int):
        def task():
            if not hasattr(local, "work"):
                n_tones = terms[1].shape[-1]
                local.work = _Workspace(min(per_chunk, points), samples, n_tones, len(fringes))
            chunk = tuple(t[lo:hi] for t in terms)
            values = _chunk_values(master_seed, range(lo, hi), samples, chunk, fringes, local.work)
            return [_reduce(v) for v in values]

        return task

    tasks = [
        make_task(lo, min(lo + per_chunk, points)) for lo in range(0, points, per_chunk)
    ]
    chunks = _run_indexed(tasks, threads)
    return [
        tuple(np.concatenate([chunk[j][k] for chunk in chunks]) for k in (0, 1))
        for j in range(len(mcs))
    ]


def fringe_contrast_mc(
    components: Sequence[NoiseComponent],
    schedule: LockInSchedule,
    mc: McConfig,
    *,
    integrand: str = "ramsey",
    toggle: bool = True,
    point_index: int = 0,
    x_value: float | None = None,
) -> CurvePoint:
    """Monte-Carlo fringe contrast E[cos(detected phase)] with stderr.

    The estimate is the mean of per-sample fringe values over iid uniform
    tone phases; stderr is sample-std/sqrt(samples) (0 for a single
    sample).  Deterministic given (mc, point_index).  The point is a chunk
    of one, so it has the same bits as inside any curve.
    """
    values = _point_values(components, schedule, mc, integrand, toggle, point_index)
    (estimate,), (stderr,) = _reduce(values[None])
    x = schedule.tau_arm * 1e3 if x_value is None else x_value
    return CurvePoint(x=x, estimate=float(estimate), stderr=float(stderr))


def contrast_curve(
    components: Sequence[NoiseComponent],
    n_pulses: int,
    tau_arm_grid_s: Sequence[float],
    mc: McConfig,
    *,
    integrand: str = "ramsey",
    toggle: bool = True,
    threads: int = 1,
) -> list[CurvePoint]:
    """Fringe contrast versus arm time; x reported in ms.

    Grid point i uses the phase stream keyed by point_index=i, so the curve
    is reproducible point-by-point regardless of grid slicing, chunking or
    threads.
    """
    grid = [float(t) for t in tau_arm_grid_s]
    if not grid:
        raise ConfigError("tau_arm grid must be nonempty")
    [(estimates, stderrs)] = _evaluate(
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
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"threshold must be in (0, 1), got {threshold!r}")
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
    mc: McConfig,
    n_pulses: int,
    tau_arm: float,
) -> CurvePoint:
    """Field sensitivity for one interrogation window, Hz per sqrt(Hz).

    S = dphi_eff / (2 pi T_coh) * sqrt(T_cycle) with
    dphi_eff = dphi(alpha, 0, 0) / contrast, T_coh = N tau_arm (phase
    actually accumulates for N arms), and T_cycle = squeeze_duration +
    (N+1) tau_arm (pi and pi/2 pulses treated as instantaneous).  A
    nonpositive contrast means no fringe: infinite sensitivity.
    """
    dphi0 = analytic.min_detectable_phase(
        PhaseTriple(mc.alpha, 0.0, 0.0), mc.n_atoms
    )
    t_coh = n_pulses * tau_arm
    t_cycle = mc.squeeze_duration + (n_pulses + 1) * tau_arm
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
) -> dict[int, list[CurvePoint]]:
    """Sensitivity versus total interrogation window T, one curve per atom
    number; x reported in ms.

    T on the grid is the full window (N+1) tau_arm.  The phase stream for a
    given T is keyed by its grid index only, shared across atom numbers, so
    curves for different N_a differ by physics and not by sampling noise.
    """
    grid = [float(t) for t in duration_grid_s]
    atoms = [int(n) for n in n_atoms_list]
    if not grid:
        raise ConfigError("duration grid must be nonempty")
    if not atoms:
        raise ConfigError("n_atoms list must be nonempty")
    if len(set(atoms)) < len(atoms):
        raise ConfigError("physics.n_atoms must not repeat")
    tau_arms = [duration / (n_pulses + 1) for duration in grid]
    mcs = [replace(mc, n_atoms=n) for n in atoms]
    curves = _evaluate(
        components, n_pulses, tau_arms, mcs, integrand, toggle, threads
    )
    return {
        mc_n.n_atoms: [
            sensitivity_point(
                CurvePoint(x=duration * 1e3, estimate=e, stderr=s), mc_n, n_pulses, tau_arm
            )
            for duration, tau_arm, e, s in zip(
                grid, tau_arms, estimates.tolist(), stderrs.tolist()
            )
        ]
        for mc_n, (estimates, stderrs) in zip(mcs, curves)
    }
