"""Pulse-train scheduling and noise-phase accumulation.

A lock-in interrogation bracketed by pi/2 pulses contains N equally spaced
pi pulses; the spin's sensitivity to the field between pulses is the +/-1
toggling square wave s(t), flipping at every pi pulse.  The accumulated
phase is beta = integral of 2 pi N(t) s(t) dt over the window, evaluated in
closed form per tone per inter-pulse interval (a sum of sine differences,
no quadrature).  The square wave demodulates: a tone at f = 1/(2 tau_arm)
adds coherently across intervals, a tone at f = 1/tau_arm cancels.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import _check_integer, _check_real
from .noise import NoiseComponent


@dataclass(frozen=True)
class LockInSchedule:
    """N pi pulses spaced tau_arm apart.

    The interrogation window is (N+1) * tau_arm: one arm before the first
    pulse, one after the last.
    """

    n_pulses: int
    tau_arm: float

    def __post_init__(self):
        _check_integer("n_pulses", self.n_pulses, 1)
        _check_real("tau_arm", self.tau_arm, 0, strict=True)

    @property
    def total_duration(self) -> float:
        return (self.n_pulses + 1) * self.tau_arm


def interval_signs(schedule: LockInSchedule, toggle: bool = True) -> np.ndarray:
    """s(t) on each of the N+1 inter-pulse intervals: +1, -1, +1, ..."""
    if not toggle:
        return np.ones(schedule.n_pulses + 1)
    return (-1.0) ** np.arange(schedule.n_pulses + 1)


def phase_kernel_grid(
    components: Sequence[NoiseComponent],
    n_pulses: int,
    tau_arms: Sequence[float],
    toggle: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-tone coefficients (a, b), shape (P, Q), for each of the P arm
    times of a grid with N = n_pulses: in row p,
    beta = sum_k a_k sin(theta_k) + b_k cos(theta_k).

    For tone k the exact interval integral gives
    (A_k/f_k) sum_i s_i [sin(theta_k + x_{i+1}) - sin(theta_k + x_i)]
    with x_i = 2 pi f_k t_i at the interval edges; expanding the sine
    separates the theta dependence into these two schedule-only
    coefficients, which is what makes the Monte-Carlo hot loop a dot
    product instead of a time integral.

    The N+1 signed interval differences are summed in interval order, one
    edge at a time over the whole (P, Q) grid, so memory stays O(P Q).
    OpenBLAS sums dot products shorter than 16 in that order too, so up to
    N = 14 this equals np.dot per tone bit for bit; past that the two
    differ in the last bits.
    """
    taus = np.asarray(tau_arms, dtype=float).reshape(-1)
    for tau in taus[~(np.isfinite(taus) & (taus > 0))][:1]:
        LockInSchedule(n_pulses, float(tau))  # raises on the first bad arm time
    signs = interval_signs(LockInSchedule(n_pulses, 1.0), toggle)  # checks n_pulses
    omega = np.array([2.0 * np.pi * comp.freq_hz for comp in components])
    weight = np.array([float(comp.amplitude_hz) / float(comp.freq_hz) for comp in components])
    # |a_k| and |b_k| are at most 2 (N+1) weight_k, so every phase made
    # from them (a tone's 2 hypot(a_k, b_k), the pinned tones' offset, a
    # sample's whole phase) stays below 8 (N+1) sum(weight); past the float
    # range it would be inf and the fringe NaN
    _check_real(
        f"the tones' phase bound 8 (N+1) sum(amplitude_hz / freq_hz) at N={n_pulses}",
        8.0 * len(signs) * sum(weight.tolist()),
    )
    a = np.zeros((taus.size, omega.size))
    b = np.zeros_like(a)
    x = np.zeros_like(a)  # 2 pi f t at the first edge, t = 0
    cos_prev, sin_prev = np.cos(x), np.sin(x)
    for i, sign in enumerate(signs, start=1):
        # edge i sits at tau_arm * i
        np.multiply((taus * float(i))[:, None], omega, out=x)
        cos_x, sin_x = np.cos(x), np.sin(x)
        a += sign * (cos_x - cos_prev)
        b += sign * (sin_x - sin_prev)
        cos_prev, sin_prev = cos_x, sin_x
    a *= weight
    b *= weight
    return a, b

