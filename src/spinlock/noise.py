"""Discrete-tone magnetic noise synthesis.

The field noise is modeled as a finite sum of cosine tones,
N(t) = sum_k A_k cos(theta_k + 2 pi f_k t), with A_k a frequency-equivalent
amplitude in Hz and theta_k either pinned or drawn uniformly per Monte-Carlo
sample.  Constructors convert the two lab-native unit conventions (field
amplitude in pT; slow-drift strength in Hz^2) into the Hz amplitude the
phase-accumulation integral needs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, _check_real

GYRO_HZ_PER_NT = 28.0


@dataclass(frozen=True)
class NoiseComponent:
    """One cosine tone: amplitude_hz * cos(phase + 2 pi freq_hz t).

    phase None means the phase is a random variable, drawn uniformly on
    [0, 2pi) per Monte-Carlo sample; a float pins it.
    """

    amplitude_hz: float
    freq_hz: float
    phase: float | None = None

    def __post_init__(self):
        _check_real("amplitude_hz", self.amplitude_hz, 0)
        _check_real("freq_hz", self.freq_hz, 0, strict=True)
        # the phase kernel weighs the tone by this ratio: past the float range
        # it would turn the tone's coefficients into NaN (as floats, so a
        # numpy scalar's overflow is no warning)
        _check_real("amplitude_hz / freq_hz", float(self.amplitude_hz) / float(self.freq_hz))
        if self.phase is not None:
            _check_real("phase", self.phase)

    @classmethod
    def from_field_pt(
        cls,
        amplitude_pt: float,
        freq_hz: float,
        phase: float | None = None,
        gyro_hz_per_nt: float = GYRO_HZ_PER_NT,
    ) -> "NoiseComponent":
        """Tone given as a field amplitude in pT, converted via the
        gyromagnetic ratio (default 28 Hz per nT)."""
        _check_real("amplitude_pt", amplitude_pt, 0)
        _check_real("gyro_hz_per_nt", gyro_hz_per_nt, 0, strict=True)
        return cls(
            amplitude_hz=amplitude_pt * 1e-3 * gyro_hz_per_nt,
            freq_hz=freq_hz,
            phase=phase,
        )

    @classmethod
    def from_slow_drift(
        cls, strength_hz2: float, freq_hz: float, phase: float | None = None
    ) -> "NoiseComponent":
        """Slow drift specified as an amplitude-frequency product in Hz^2;
        the tone amplitude is strength/freq."""
        _check_real("strength_hz2", strength_hz2, 0)
        # before the division, which would turn a bad frequency into a
        # ZeroDivisionError or a negative amplitude
        _check_real("freq_hz", freq_hz, 0, strict=True)
        return cls(amplitude_hz=strength_hz2 / freq_hz, freq_hz=freq_hz, phase=phase)


def check_phase_count(
    components: Sequence[NoiseComponent], theta: Sequence[float]
) -> None:
    if len(theta) != len(components):
        raise DimensionMismatchError(
            f"{len(components)} components but {len(theta)} phases"
        )


def synth_noise(
    components: Sequence[NoiseComponent],
    theta: Sequence[float],
    t: float | np.ndarray,
):
    """N(t) in Hz at time(s) t, with the k-th tone at phase theta[k]."""
    check_phase_count(components, theta)
    t_arr = np.asarray(t, dtype=float)
    total = np.zeros_like(t_arr)
    for comp, th in zip(components, theta):
        total += comp.amplitude_hz * np.cos(th + 2.0 * np.pi * comp.freq_hz * t_arr)
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(total)
    return total


def resolve_phases(
    components: Sequence[NoiseComponent], rng: np.random.Generator
) -> np.ndarray:
    """One phase per component: pinned value if set, else a uniform draw."""
    return np.array(
        [
            comp.phase if comp.phase is not None else rng.uniform(0.0, 2.0 * np.pi)
            for comp in components
        ],
        dtype=float,
    )
