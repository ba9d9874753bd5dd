"""Monte-Carlo contrast kernel: sampled tone phases to per-sample fringe values.

The kernel is written in amplitude-phase form so that each tone-sample costs
one sine instead of a sine and a cosine:

    a_k sin(theta) + b_k cos(theta) = r_k sin(theta + phi_k),
        r_k = hypot(a_k, b_k),  phi_k = atan2(b_k, a_k);
    c cos(beta) - s sin(beta) = R cos(beta + psi),
        R = hypot(c, s),  psi = atan2(s, c),

with c = cos_fac and s = sin_fac (and c sin(beta) + s cos(beta) =
R sin(beta + psi)).  Per sample that is Q + 1 trig evaluations for the
ramsey integrand and Q + 3 for eq23, Q being the number of random tones,
or Q + 2 under the integer-pi drive, where readout skips the radicand.
The folded form agrees with the two-term expressions to rounding.

Each sine and cosine but one comes from a single tangent.  With
t = tan(h), sin(2h) / 2 = t / (1 + t^2) (_half_sin), so sin x =
2t / (1 + t^2) and cos x = (1 - t^2) / (1 + t^2) at t = tan(x/2) (_sin,
_cos).  numpy 2.4 dispatches float64 tan to SIMD loops but sends sin and
cos to scalar libm: on a 2-core AVX-512 host a block of 4096 x 9 phases
takes 3-5 ns per element through the half-angle forms against 18-26 ns
through np.sin (benchmarks/bench_mc_point.py).  They agree with np.sin and
np.cos to 2.22e-16 absolute over random arguments in [-pi, 3pi], [-50, 50]
and [1e3, 1e8].  So a ramsey sample costs Q + 1 tangents and an eq23
sample Q + 2 tangents and one np.cos, for eq23's fringe slope (Q + 1
tangents when the radicand is skipped).  On a host whose numpy dispatches
AVX2 at most, tan is no faster than libm and the half-angle forms take
7-14% longer than np.sin.  Results are byte-reproducible for a given numpy
build and SIMD dispatch.

tone_sum drops the tone phases phi_k.  Each random theta_k is uniform on
the circle and independent of the others, so theta_k + phi_k mod 2 pi is
uniform too, and sum_k r_k sin(theta_k + phi_k) has the law of
sum_k r_k sin(theta_k) (the Jacobi-Anger expansion, Abramowitz & Stegun
9.1.42-45: E[e^{i n beta}] depends on the r_k alone).  Every estimate and
stderr keeps its distribution; only the weights 2 r_k enter.  tone_sum
takes half phases theta/2, as the sampler draws them: the tangent's
argument is then theta/2 with no halving pass, and the weights 2 r_k carry
the sine's factor 2 with no doubling pass.  Both are power-of-two
rescalings, exact in floating point, so each term has the bits of
r_k _sin(theta).

The kernel is two stages.  tone_sum is the random-phase part, the sum of
r_k sin(theta_k) over the Q tones; readout turns it into fringe values for
one atom number.  A call serves S consecutive samples of one point: half
phases (S, Q) with weights of shape (Q,), and one offset.  Every step is
elementwise or a per-sample sum over the tones in a fixed order, so a
sample's value carries the same bits wherever it sits in a block.  Given
out= and scratch= buffers, neither stage allocates an array of the
block's size: tone_sum takes its tangents in place in the half phases it
is given (it consumes them), and every t^2 goes into the caller's
scratch.
"""
from __future__ import annotations

import math

import numpy as np


def tone_sum(
    half_theta: np.ndarray,
    weights: np.ndarray,
    *,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """sum_k r_k sin(theta_k) per sample, from the half phases theta/2.

    half_theta has shape (..., S, Q) and weights, the 2 r_k, shape (..., Q);
    the sums, shape (..., S), go into out when given, else into a new array.
    half_theta is consumed: it is overwritten with the sin(theta_k) / 2.
    scratch, when given, holds t^2 and has half_theta's shape.  A sum's last
    bits depend on the weights' memory layout (np.einsum picks its loop by
    the operands' strides), so the pipeline keeps them in C order.
    """
    _half_sin(half_theta, out=half_theta, scratch=scratch)
    # einsum sums each sample's tones in one order wherever the sample sits;
    # np.matmul would send a one-row block to a dot kernel and others to BLAS
    # gemv, which groups rows, so a row's bits would depend on where the
    # block boundaries fall (Q >= 3)
    return np.einsum("...sq,...q->...s", half_theta, weights, out=out)


def readout(
    tones: np.ndarray,
    beta0: float,
    cos_fac: float,
    sin_fac: float,
    inv_n: float,
    sin_gamma: float,
    eq23: bool,
    *,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Per-sample fringe values at beta = beta0 + tones.

    In the default mode the value is the normalized fringe amplitude
    (cos_fac cos(beta) - sin_fac sin(beta)) / cos_fac; in eq23 mode it is
    cos(delta_phi) with the phase-resolution formula evaluated at beta,
    radicand clamped at zero.  The values go into out when given (it may
    be tones itself), else into a new array.
    scratch, when given, has shape (2, *tones.shape) and holds the
    temporaries (ramsey uses scratch[0] only).

    The eq23 radicand is inv_n - (sin_gamma R sin(beta + psi))^2.  For the
    integer-pi drive sin_gamma is ~1e-15, so it rounds to inv_n on every
    sample; when inv_n - 4 (sin_gamma R)^2 == inv_n the readout takes the
    scalar sqrt(inv_n) instead of its six passes over the samples.  That
    is exact: |_sin| <= 1 + 2 ulp, so each squared projection is at most
    4 (sin_gamma R)^2 and, rounding being monotone, inv_n minus it rounds
    to inv_n too (for 1/N a normal float, N < 1e306).  A NaN factor fails
    the test and takes the general branch, which a drive with sin_gamma
    of order one (a pi/2 pulse) needs.
    """
    square, projection = (None, None) if scratch is None else scratch
    # phase = beta + psi, so the readout is a single cosine (and sine)
    phase = np.add(tones, beta0 + math.atan2(sin_fac, cos_fac), out=out)
    amplitude = math.hypot(cos_fac, sin_fac)
    if not eq23:
        _cos(phase, out=phase, scratch=square)
        phase *= amplitude / cos_fac
        return phase
    reach = sin_gamma * amplitude  # the projection's bound, up to |_sin| <= 1 + 2 ulp
    if inv_n - 4.0 * (reach * reach) == inv_n:
        # every sample's radicand rounds to inv_n exactly: skip its six passes
        radicand = math.sqrt(inv_n)
    else:
        projection = _sin(phase, out=projection, scratch=square)
        projection *= reach
        radicand = np.square(projection, out=projection)
        np.subtract(inv_n, radicand, out=radicand)
        np.maximum(radicand, 0.0, out=radicand)
        np.sqrt(radicand, out=radicand)
    # the slope keeps np.cos, which is never exactly 0 for a finite
    # argument; the half-angle 1 - t^2 is 0 wherever tan rounds to +-1
    np.cos(phase, out=phase)
    phase *= amplitude
    np.divide(radicand, phase, out=phase)
    return _cos(phase, out=phase, scratch=square)


def _half_sin(
    h: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """sin(2h) / 2 = t / (1 + t^2), t = tan(h), into out (which may be h; a
    new array if None); t^2 goes into scratch (a new array if None).

    Every step is elementwise and np.tan's SIMD loops give an element the
    same bits at any offset, length or stride, so a value does not depend on
    the block it is computed in.
    """
    t = np.tan(h, out=out)
    square = np.square(t, out=scratch)
    square += 1.0
    return np.divide(t, square, out=t)


def _sin(
    x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """sin(x) = 2 t / (1 + t^2), t = tan(x/2), into out; t^2 into scratch."""
    half = np.multiply(x, 0.5, out=out)
    _half_sin(half, out=half, scratch=scratch)
    half *= 2.0
    return half


def _cos(
    x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """cos(x) = (1 - t^2) / (1 + t^2), t = tan(x/2), into out; t^2 into scratch."""
    t = np.multiply(x, 0.5, out=out)
    np.tan(t, out=t)
    square = np.square(t, out=scratch)
    np.subtract(1.0, square, out=t)
    square += 1.0
    return np.divide(t, square, out=t)
