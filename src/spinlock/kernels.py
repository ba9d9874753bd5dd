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
"""
from __future__ import annotations

import math

import numpy as np


def contrast_values(
    theta: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    beta0: float,
    cos_fac: float,
    sin_fac: float,
    inv_n: float,
    sin_gamma: float,
    eq23: bool,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-sample fringe values for sampled phases theta (n_samples, n_tones).

    beta = beta0 + sin(theta) . a + cos(theta) . b per sample.  In the
    default mode the value is the normalized fringe amplitude
    (cos_fac cos(beta) - sin_fac sin(beta)) / cos_fac; in eq23 mode it is
    cos(delta_phi) with the phase-resolution formula evaluated at beta,
    radicand clamped at zero (sin_gamma is ~0 for integer-pi drive, so the
    clamp only absorbs rounding).  The values go into out (float64, shape
    (n_samples,)) when given, else into a new array; theta is not modified.
    """
    # every step after this one works in place: with a fresh temporary per
    # step the deep_mc benchmark's peak RSS (2 threads) had a median of 85 MB
    # over 5 runs, against 72 MB over 13 runs in place, at the same speed
    shifted = theta + np.arctan2(b, a)
    np.sin(shifted, out=shifted)
    # phase = beta + psi, so the readout is a single cosine (and sine)
    phase = np.matmul(shifted, np.hypot(a, b), out=out)
    phase += beta0 + math.atan2(sin_fac, cos_fac)
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
