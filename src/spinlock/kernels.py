"""Monte-Carlo contrast kernel: sampled tone phases to per-sample fringe values.

The kernel is written in amplitude-phase form so that each tone-sample costs
one sine instead of a sine and a cosine:

    a_k sin(theta) + b_k cos(theta) = r_k sin(theta + phi_k),
        r_k = hypot(a_k, b_k),  phi_k = atan2(b_k, a_k);
    c cos(beta) - s sin(beta) = R cos(beta + psi),
        R = hypot(c, s),  psi = atan2(s, c),

with c = cos_fac and s = sin_fac (and c sin(beta) + s cos(beta) =
R sin(beta + psi)).  Per sample that is Q + 1 trig calls for the ramsey
integrand and Q + 3 for eq23, Q being the number of random tones.  The
folded form agrees with the two-term expressions to rounding; results are
byte-reproducible for a given numpy build.

The kernel is two stages.  tone_sum is the random-phase part, the sum of
r_k sin(theta_k + phi_k) over the Q tones; readout turns it into fringe
values for one atom number.  Both take a leading chunk axis, so one call
serves C points at once: theta (C, S, Q) with a, b of shape (C, Q), and
an offset broadcastable to (C, S).  Every step is elementwise or one
matrix-vector product per point, so a point's values carry the same bits
in a chunk as on their own.
"""
from __future__ import annotations

import math

import numpy as np


def tone_sum(
    theta: np.ndarray, a: np.ndarray, b: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """sin(theta) . a + cos(theta) . b per sample, in amplitude-phase form.

    theta has shape (..., S, Q) and a, b shape (..., Q); the sums, shape
    (..., S), go into out when given, else into a new array.  theta is not
    modified.
    """
    # every step after this one works in place: with a fresh temporary per
    # step the deep_mc benchmark's peak RSS (2 threads) had a median of 85 MB
    # over 5 runs, against 72 MB over 13 runs in place, at the same speed
    shifted = theta + np.arctan2(b, a)[..., None, :]
    np.sin(shifted, out=shifted)
    if out is None:
        out = np.empty(theta.shape[:-1])
    np.matmul(shifted, np.hypot(a, b)[..., None], out=out[..., None])
    return out


def readout(
    tones: np.ndarray,
    beta0: float | np.ndarray,
    cos_fac: float,
    sin_fac: float,
    inv_n: float,
    sin_gamma: float,
    eq23: bool,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-sample fringe values at beta = beta0 + tones.

    In the default mode the value is the normalized fringe amplitude
    (cos_fac cos(beta) - sin_fac sin(beta)) / cos_fac; in eq23 mode it is
    cos(delta_phi) with the phase-resolution formula evaluated at beta,
    radicand clamped at zero (sin_gamma is ~0 for integer-pi drive, so the
    clamp only absorbs rounding).  beta0 is a float or an array that
    broadcasts against tones (one offset per point of a chunk).  The values
    go into out when given (it may be tones itself), else into a new array.
    """
    # phase = beta + psi, so the readout is a single cosine (and sine)
    phase = np.add(tones, beta0 + math.atan2(sin_fac, cos_fac), out=out)
    amplitude = math.hypot(cos_fac, sin_fac)
    if not eq23:
        np.cos(phase, out=phase)
        phase *= amplitude / cos_fac
        return phase
    projection = np.sin(phase)
    projection *= sin_gamma * amplitude
    radicand = np.square(projection, out=projection)
    np.subtract(inv_n, radicand, out=radicand)
    np.maximum(radicand, 0.0, out=radicand)
    np.sqrt(radicand, out=radicand)
    np.cos(phase, out=phase)
    phase *= amplitude
    np.divide(radicand, phase, out=phase)
    return np.cos(phase, out=phase)

