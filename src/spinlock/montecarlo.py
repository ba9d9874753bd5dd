"""Monte-Carlo fringe contrast, measurement range, and sensitivity sweeps.

Reproducibility contract: every result is a pure function of (config,
master_seed), independent of worker count, evaluation order and block
size.  Each point has its own PCG64 stream keyed by
(master_seed, point_index), read in order: sample j of a point with Q
random tones takes the stream's uniforms jQ ... jQ+Q-1, so any scheduling
of the work reproduces identical draws, and each point's reduction sums
its own index-ordered values.

The phase kernel runs once for the whole grid; then each point is one
task of the thread pool.  A point streams its draws and tone sums through
blocks of at most _BLOCK_SAMPLES, so it holds 8 bytes per sample plus two
blocks, its draws and a scratch; its readout then runs in chunks as long
as the scratch.  Each worker reuses one _Workspace for all its points:
the draw buffer (the kernel takes its tangents in it), a scratch buffer
of the same size and the rows of sums and values, so the hot loop
allocates nothing in steady state.  Sensitivity curves
share the draws and tone sums across atom numbers: a duration's stream
is keyed by its grid index alone, so only the readout runs once per atom
number.  fringe_contrast_mc evaluates a grid of one point, keyed by its
point_index.

Both integrands' means also have closed forms, which _expectation
evaluates on the same grid with stderr 0 and no stream at all: ramsey's
is one product of Bessel J0s, eq23's a Fourier series (_eq23_means).  The
curves take them with exact=True, and the sampler stays the check on them.
"""
from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import analytic, kernels
from .dicke import PhaseTriple
from .errors import (
    ConfigError,
    EmptyRangeError,
    NumericsError,
    SeriesError,
    SpinlockError,
    _check_integer,
    _check_real,
)
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
# Bessel J0 takes a degree-12 Taylor polynomial about the nearest multiple
# of _J0_STEP below _J0_FAR and the Hankel expansion from it on, so each
# argument costs the same few passes however large it is
_J0_FAR = 25.0
_J0_STEP = 0.5
_J0_DEGREE = 12
# the eq23 series (_eq23_means) runs to K = _SERIES_FIRST, 2 K, 4 K, ... and
# a point has converged once the signed sums of its last two blocks of
# terms, [K/4, K/2) and [K/2, K), are each at most _SERIES_TOL; a point still
# short of that at K = _SERIES_LAST has not
_SERIES_FIRST = 256
_SERIES_LAST = 2**16
_SERIES_TOL = 1e-10
# the scales a = 1/(sqrt(N) R) the series takes: the tests hold its
# coefficients to quad at both ends.  Past a = 1 the FFT's aliasing grows as
# a^3 (5.6e-8 at a = 4), and past a = 1420 L_n^(-1)(a) overflows
_SERIES_SCALES = (1e-3, 1.0)
# the coefficients F_n, n < count, come from an FFT of max(_FFT_MIN,
# 2 count) nodes, with count = _FFT_MIN / 4 while K is at most that and
# count = _SERIES_LAST past it.  2^15 nodes hold F_n within 3e-13 of an
# independent quadrature at N = 50 and within 2e-10 at N = 1
_FFT_MIN = 2**15
# points of the series run to the end together: a (points, terms) array
# then holds at most 2 MB, and a grid whose series does not converge stops
# after the first group that has such a point
_SERIES_POINTS = 16
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
    # the n_pulses pi pulses leave sin(gamma) exactly 0: eq23's radicand is 1/N
    del n_pulses
    return cos_fac, sin_fac, 1.0 / mc.n_atoms, integrand == "eq23"


class _Workspace:
    """One worker's buffers, reused from block to block and point to point.

    They serve points of `samples` samples with n_tones random tones: the
    draws (block, n_tones), which the kernel consumes in place; a flat
    scratch buffer of at least two blocks, holding t^2 for the tone sum;
    the tone sums; and, for more than one fringe, a row of values.  All
    are views of one allocation: glibc serves a freed block that large
    again from its heap without trimming it, so a run's later curves take
    no page faults.  Once a point's tone sums exist the scratch is free,
    and the readout takes it as its one temporary.
    """

    def __init__(self, samples: int, n_tones: int, fringes: int):
        block = min(samples, _BLOCK_SAMPLES)
        sizes = [
            block * n_tones,
            max(n_tones, 2) * block,
            samples,
            samples if fringes > 1 else 0,
        ]
        try:
            buffer = np.empty(sum(sizes))
        except MemoryError:
            raise SpinlockError(
                f"mc.samples={samples}: the sampler's {8 * sum(sizes) / 2**30:.4g} GiB"
                " workspace cannot be allocated"
            ) from None
        draws, self.scratch, self.sums, values = np.split(buffer, np.cumsum(sizes)[:-1])
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

    The readout runs in chunks as long as work.scratch, 36,864 samples at
    9 tones (3 calls per 100,000-sample point, against 25 of 4096).  Its
    steps are about ten numpy calls per chunk, and on 4096 samples each
    lasts only 1-15 us, so two threads mostly wait on each other for the
    GIL: on a 2-core host two threads looping np.divide over 4096 elements
    got through 0.74-0.93x the work of one thread, against 1.74-1.93x over
    36,864.  Every step is elementwise, so no value depends on the chunk.
    """
    draws, sums = work.draws, work.sums
    block = len(draws)
    scratch = work.scratch
    tone_scratch = scratch[: draws.size].reshape(draws.shape)
    chunk = len(scratch)
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
        for start in range(0, samples, chunk):
            width = min(chunk, samples - start)
            cols = slice(start, start + width)
            kernels.readout(
                sums[cols], beta0, *fringe, out=values[cols], scratch=scratch[:width]
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


@functools.cache
def _j0_taylor() -> np.ndarray:
    """Row j holds J0^(j)(x0) / j! at x0 = 0, _J0_STEP, ..., _J0_FAR, for
    j <= _J0_DEGREE: a constant table, read-only, built on first use so
    that no import pays for it.

    J0^(j)(x) = (1/pi) int_0^pi Re[(i sin t)^j e^{i x sin t}] dt, and the
    midpoint rule with M nodes integrates this smooth pi-periodic integrand
    up to a Fourier term of order 2M, far below rounding for
    M = ceil(x + 12 x^(1/3) + 40) at x = _J0_FAR.  Each entry sums its nodes
    pairwise (np.sum): J0(x0) and J0'(x0) come out within 3.6e-16 of
    mpmath's.
    """
    centers = np.arange(round(_J0_FAR / _J0_STEP) + 1) * _J0_STEP
    nodes = math.ceil(_J0_FAR + 12.0 * _J0_FAR ** (1.0 / 3.0) + 40.0)
    s = np.sin((np.arange(nodes) + 0.5) * (math.pi / nodes))
    xs = np.multiply.outer(centers, s)
    # Re[(i s)^j e^{i x s}] is s^j times cos, -sin, -cos, sin (x s) as j mod 4 runs
    cycle = (np.cos(xs), -np.sin(xs), -np.cos(xs), np.sin(xs))
    table = np.array(
        [
            (cycle[j % 4] * s**j).sum(axis=-1) / (nodes * math.factorial(j))
            for j in range(_J0_DEGREE + 1)
        ]
    )
    table.flags.writeable = False
    return table


def _j0(x: np.ndarray) -> np.ndarray:
    """Bessel J0 of each x >= 0, in a time per argument that does not grow
    with it.

    Below _J0_FAR it is the Taylor polynomial of degree _J0_DEGREE about
    the nearest table point x0 (_j0_taylor), by Horner's rule in
    h = x - x0, |h| <= _J0_STEP / 2: |J0^(j)| <= 1, so the first term left
    out is below 0.25^13 / 13! = 2.4e-18.  h is exact, and every partial
    sum of Horner's rule is below 1.3, so rounding stays near 2 ulp of 1.  From _J0_FAR on
    it is the Hankel expansion J0(x) = sqrt(2/(pi x)) (P cos chi - Q sin chi)
    with chi = x - pi/4 (Abramowitz & Stegun 9.2.5), whose terms there
    shrink past rounding before they start to grow.  The tests hold both to
    1e-15 of an independent J0 on [0, 1e6].
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    far = x >= _J0_FAR
    y = x[~far]
    piece = np.rint(y * (1.0 / _J0_STEP)).astype(np.intp)
    h = y - piece * _J0_STEP
    table = _j0_taylor()
    value = table[-1].take(piece)
    for row in table[-2::-1]:
        value *= h
        value += row.take(piece)
    out[~far] = value
    if far.any():
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


def _laguerre_weights(a: float, count: int) -> np.ndarray:
    """alpha_n = e^{-a/2} L_n^(-1)(a) for n < count, from L_0 = 1 and
    L_1 = -a by (n + 1) L_{n+1} = (2n - a) L_n - (n - 1) L_{n-1}.

    Past n = a/4 every solution of the recurrence oscillates with an
    amplitude that falls as n^(-3/4), so it runs forward without growth;
    the tests hold it to scipy's eval_genlaguerre up to n = 2^16.
    """
    values = [1.0, -a][:count]
    prev, cur = 1.0, -a
    for n in range(1, count - 1):
        prev, cur = cur, ((2 * n - a) * cur - (n - 1) * prev) / (n + 1)
        values.append(cur)
    return math.exp(-0.5 * a) * np.array(values)


def _pole_product(a: float, size: int, count: int) -> np.ndarray:
    """The Fourier coefficients n < count of (I1 - 1 - D)(I2 - 1 - D), with
    I1 = e^{-i (a/2) cot(phi/2 + pi/4)}, I2 = e^{i (a/2) cot(phi/2 - pi/4)}
    and D = -(i a/4) cos phi, from an FFT of its values at the size nodes
    phi_j = (j + 1/2) 2 pi / size.

    I1 has its essential singularity at phi = -pi/2, where
    I2 - 1 = -i (a/2) tan(u/2) = D + O(u^2) in u = phi + pi/2, and I2 at
    pi/2, where I1 - 1 = D + O(u^2) in the same way.  So the product falls
    to 0 quadratically at both poles, where the FFT's aliasing of the
    infinitely fast oscillation is weakest, and the half-step nodes never
    sit on a pole.
    """
    from numpy import fft  # only a closed-form eq23 run loads numpy.fft

    half = (np.arange(size) + 0.5) * (math.pi / size)  # phi_j / 2
    d = -0.25j * a * np.cos(2.0 * half)
    product = np.expm1(-0.5j * a / np.tan(half + 0.25 * math.pi)) - d
    product *= np.expm1(0.5j * a / np.tan(half - 0.25 * math.pi)) - d
    # node j sits half a step past the FFT's 2 pi j / size
    shift = np.exp(-1j * (math.pi / size) * np.arange(count))
    return fft.fft(product)[:count] * shift / size


def _sec_coefficients(a: float, count: int) -> np.ndarray:
    """F_n for 0 <= n < count, the Fourier coefficients of
    g(phi) = cos(a sec phi) = sum_n F_n e^{i n phi}; F_{-n} = F_n, and F_n
    is 0 at odd n (g has period pi).

    sec phi = (cot(phi/2 + pi/4) - cot(phi/2 - pi/4)) / 2, so
    e^{-i a sec phi} = I1 I2 (_pole_product).  The Laguerre generating
    function sum_n L_n^(-1)(a) t^n = e^{-a t/(1 - t)} (Abramowitz & Stegun
    22.9.15) at t = e^{i(phi + pi/2)} gives
    I1 = sum_{n>=0} c_n e^{i n phi}, c_n = alpha_n i^n
    (_laguerre_weights), and I2 = sum_{n>=0} c_n e^{-i n phi}.  With
    A = I1 - 1 and B = I2 - 1,
    I1 I2 = I1 + I2 - 1 + D A + D B - D^2 + (A - D)(B - D),
    and every term but the last has exact coefficients: D = -(i a/8)
    (e^{i phi} + e^{-i phi}) shifts those of A and B by one.  Only the last,
    which vanishes quadratically at both poles, comes from an FFT, of
    max(_FFT_MIN, 2 count) nodes; a plain FFT of g aliases its two
    essential singularities and is still 4e-7 off at 2^24 nodes.  g is the
    real part of the even e^{-i a sec phi}, so F_n is the real part of its
    n-th coefficient, and at even n only the odd c_n, the imaginary ones,
    enter D A.
    """
    alphas = _laguerre_weights(a, count + 1)
    n = np.arange(count + 1)
    real = alphas * np.array([1.0, 0.0, -1.0, 0.0])[n % 4]  # Re c_n
    imag = alphas * np.array([0.0, 1.0, 0.0, -1.0])[n % 4]  # Im c_n
    # Re of D A at n: (a/8) (Im c_{n-1} + Im c_{n+1}), with c_{-1} = 0
    below = np.concatenate([[0.0], imag[: count - 1]])
    coefficients = real[:count] + 0.125 * a * (below + imag[1:])
    # the constant terms: -1 of I1 + I2 - 1, D B at 0, and -D^2 at 0 and 2
    coefficients[0] += alphas[0] - 1.0 + 0.125 * a * imag[1] + a * a / 32.0
    coefficients[2] += a * a / 64.0
    coefficients += _pole_product(a, max(_FFT_MIN, 2 * count), count).real
    return coefficients


def _term_bound(scale: float, radii: np.ndarray, n: int) -> np.ndarray:
    """A bound on each point's terms 2 |F_n| prod_k |J0(n r_k)| at order n
    and past it, at scale a: |J0(x)| <= min(1, sqrt(2/(pi x))), since
    x (J0(x)^2 + Y0(x)^2) rises to 2/pi, and |F_n| <= a^(1/4) n^(-3/4)
    from n = _SERIES_FIRST on over _SERIES_SCALES (the tests check it to
    2^16: |F_n| n^(3/4) a^(-1/4) peaks at 0.58 and tends to 1/sqrt(pi),
    the stationary phase at the poles of sec)."""
    envelope = np.prod(np.maximum(1.0, (0.5 * math.pi * n) * radii), axis=-1) ** -0.5
    return 2.0 * scale**0.25 * n**-0.75 * envelope


def _eq23_means(
    beta0: np.ndarray, radii: np.ndarray, fringes: Sequence[tuple]
) -> tuple[list[np.ndarray], int, float]:
    """The exact eq23 means, shape (P,) per fringe, at P points with offsets
    beta0 (P,) and random-tone radii r_k (P, Q), and the series' largest K
    and tail.

    The N pi pulses leave every sample's radicand at exactly 1/N (see
    kernels.readout), so a sample is g(beta + psi) with
    g(phi) = cos(a sec phi) and a = 1/(sqrt(N) R).  Over independent
    uniform tone phases E[e^{i n beta}] = e^{i n beta0} prod_k J0(n r_k)
    (Jacobi-Anger), so the mean is
    F_0 + 2 sum_{n>=1} F_n cos(n (beta0 + psi)) prod_k J0(n r_k), even n
    only (_sec_coefficients).  The sum runs over the blocks [0, 64),
    [64, 128), [128, 256), ..., one doubling at a time, and a point stops
    once the signed sums of its last two blocks are at most _SERIES_TOL at
    every fringe, from K = _SERIES_FIRST on (see _FFT_MIN for the
    coefficients each block takes).  The tail is the largest |signed sum|
    of a point's last two blocks.  A point's sums depend on its own inputs
    alone, in any grid, and _SERIES_POINTS of them run at a time.  Without
    a random tone the mean is the one readout value (K 0, tail 0.0).

    A SeriesError, carrying terms and tail, says before any coefficient is
    built that a is outside _SERIES_SCALES (0, inf), or that some point's
    _term_bound from K = _SERIES_LAST / 4 on is above _SERIES_TOL, so its
    last two blocks need not fall below it (0, that bound); after summing,
    that some point has not converged by _SERIES_LAST (_SERIES_LAST, its
    tail).
    """
    if not radii.shape[-1]:
        return [kernels.readout(beta0.copy(), 0.0, *fringe) for fringe in fringes], 0, 0.0
    scales, phases = [], []
    for cos_fac, sin_fac, inv_n, _ in fringes:
        scales.append(math.sqrt(inv_n) / math.hypot(cos_fac, sin_fac))
        if not _SERIES_SCALES[0] <= scales[-1] <= _SERIES_SCALES[1]:
            raise SeriesError(
                f"the eq23 series takes a = 1/(sqrt(N) R) in {list(_SERIES_SCALES)},"
                f" not {scales[-1]:.4g}", 0, math.inf,
            )
        phases.append(beta0 + math.atan2(sin_fac, cos_fac))
    bound = _term_bound(max(scales), radii, _SERIES_LAST // 4)
    if bound.max() > _SERIES_TOL:
        worst = int(bound.argmax())
        raise SeriesError(
            f"the eq23 series need not converge by K={_SERIES_LAST} at point {worst}:"
            f" its terms from K/4 on are bounded by {bound[worst]:.3g} only", 0,
            float(bound[worst]),
        )
    phases = np.array(phases)  # (fringes, P)
    means = np.zeros_like(phases)
    last = np.zeros_like(phases)  # each point's last block sum per fringe
    tails = np.zeros(len(beta0))  # its largest |sum| of the last two blocks
    terms = np.zeros(len(beta0), dtype=int)
    coefficients: dict[int, list[np.ndarray]] = {}
    for first in range(0, len(beta0), _SERIES_POINTS):
        live = np.arange(first, min(first + _SERIES_POINTS, len(beta0)))
        low, high = 0, _SERIES_FIRST // 4
        while live.size and high <= _SERIES_LAST:
            level = _FFT_MIN // 4 if high <= _FFT_MIN // 4 else _SERIES_LAST
            if level not in coefficients:
                coefficients[level] = [_sec_coefficients(a, level) for a in scales]
                for row in coefficients[level]:
                    row[1:] *= 2.0  # the term at -n
            n = np.arange(low, high, 2)
            damping = np.ones((live.size, n.size))
            for r in radii[live].T:
                damping *= _j0(np.multiply.outer(r, n))
            block = np.empty((len(scales), live.size))
            for j, row in enumerate(coefficients[level]):
                values = np.cos(np.multiply.outer(phases[j, live], n))
                values *= damping
                values *= row[n]
                block[j] = values.sum(axis=1)
            means[:, live] += block
            tails[live] = np.maximum(np.abs(block), np.abs(last[:, live])).max(axis=0)
            last[:, live] = block
            terms[live] = high
            if high >= _SERIES_FIRST:
                # a NaN tail stays live, so it cannot pass for converged
                live = live[~(tails[live] <= _SERIES_TOL)]
            low, high = high, 2 * high
        if live.size:
            raise SeriesError(
                f"the eq23 series has not converged by K={_SERIES_LAST} at point"
                f" {live[0]}: one of its last two blocks sums to {tails[live[0]]:.3g}",
                _SERIES_LAST, float(tails.max()),
            )
    return list(means), int(terms.max()), float(tails.max())


def _expectation(
    components: Sequence[NoiseComponent],
    n_pulses: int,
    tau_arms: Sequence[float],
    mcs: Sequence[McConfig],
    integrand: str,
    toggle: bool,
    threads: int,
    first_index: int = 0,
) -> tuple[list[tuple[np.ndarray, np.ndarray]], int, float]:
    """_evaluate's contrasts without sampling: the exact mean of the
    integrand over the random tone phases, with stderr 0; and the eq23
    series' largest K and tail (0 and 0.0 for ramsey, which has none).

    The ramsey readout is (R/c) cos(beta + psi) at
    beta = beta0 + sum_k r_k sin(theta_k), and with independent uniform
    theta_k the Jacobi-Anger identity (Abramowitz & Stegun 9.1.42-45) gives
    E[e^{i beta}] = e^{i beta0} prod_k J0(r_k).  So the mean is
    (R/c) cos(beta0 + psi) prod_k J0(r_k).  The eq23 mean is a Fourier
    series over the same products (_eq23_means), which raises a
    SeriesError where it cannot give it.  No stream is read, so neither
    threads, first_index nor the samples and seed of mcs enter.
    """
    del threads, first_index
    fringes = [_fringe(mc, integrand, n_pulses) for mc in mcs]
    a, b = phase_kernel_grid(components, n_pulses, tau_arms, toggle)
    beta0, weights = _split_fixed(components, a, b)
    if integrand == "eq23":
        means, terms, tail = _eq23_means(beta0, 0.5 * weights, fringes)
        return [(m, np.zeros_like(m)) for m in means], terms, tail
    damping = np.prod(_j0(0.5 * weights), axis=-1)
    results = []
    for cos_fac, sin_fac, *_ in fringes:
        norm = math.hypot(cos_fac, sin_fac) / cos_fac  # R/c
        estimates = norm * np.cos(beta0 + math.atan2(sin_fac, cos_fac)) * damping
        results.append((estimates, np.zeros_like(estimates)))
    return results, 0, 0.0


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
    report: dict | None = None,
) -> list[CurvePoint]:
    """Fringe contrast versus arm time; x reported in ms.

    Grid point i uses the phase stream keyed by point_index=i, so the curve
    is reproducible point-by-point regardless of grid slicing or threads.
    With exact=True the contrast is the closed-form mean instead, with
    stderr 0 (see _expectation), and report, when given, receives the eq23
    series' largest K ("terms") and "tail" (0 and 0.0 for ramsey); for eq23
    a SeriesError, which carries them instead, says that the series cannot
    give the mean.
    """
    grid = [float(t) for t in tau_arm_grid_s]
    if not grid:
        raise ConfigError("tau_arm grid must be nonempty")
    [(estimates, stderrs)] = _contrasts(
        components, n_pulses, grid, [mc], integrand, toggle, threads, exact=exact, report=report
    )
    return [
        CurvePoint(x=tau * 1e3, estimate=e, stderr=s)
        for tau, e, s in zip(grid, estimates.tolist(), stderrs.tolist())
    ]


def _contrasts(*args, exact: bool, report: dict | None):
    """_expectation(*args) or _evaluate(*args), as exact says, filling
    report with the former's largest K and tail."""
    if not exact:
        return _evaluate(*args)
    curves, terms, tail = _expectation(*args)
    if report is not None:
        report.update(terms=terms, tail=tail)
    return curves


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
    report: dict | None = None,
) -> dict[int, list[CurvePoint]]:
    """Sensitivity versus total interrogation window T, one curve per atom
    number; x reported in ms.

    T on the grid is the full window (N+1) tau_arm.  The phase stream for a
    given T is keyed by its grid index only, shared across atom numbers, so
    curves for different N_a differ by physics and not by sampling noise.
    With exact=True the contrasts are the closed-form means, with stderr 0,
    and report and a SeriesError serve as in contrast_curve.
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
    curves = _contrasts(
        components, n_pulses, tau_arms, mcs, integrand, toggle, threads, exact=exact, report=report
    )
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
