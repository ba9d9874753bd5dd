"""Reduction error of the four-pulse squeezing train.

Photon polarization in the fixed-total-number sector is a spin N_s/2 in
the Schwinger representation, whose Stokes operators Sx, Sy, Sz are the
spin's Jz, Jx, Jy.  The four-pulse train [R_S(pi/2) U(tau)]^4 built from
the Faraday coupling g*Jz*Sz reduces, to leading order in g*tau, to the
one-axis-twisting map exp(-i (g tau)^2 Sx Jz^2).  ``bch_error`` measures
that reduction instead of assuming it.  Both maps commute with Jz, so each
is one photon-space map per atom level m, and every factor of such a map
is generated by a Stokes operator: it is the spin-N_s/2 image of a 2x2
SU(2) matrix.  The error is measured on those 2x2 images, in O(N) and
with no joint-dimension cap; the tests keep the photon-space block train
as its reference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dicke
from .errors import _check_integer, _check_real

MAX_PHOTONS = 200


@dataclass(frozen=True)
class SqueezeParams:
    """Faraday coupling g, free-evolution interval tau, effective strength chi.

    ``from_g_tau`` derives chi = N_s g^2 tau / 8 from (g, tau, N_s).
    """

    g: float
    tau: float
    chi: float

    def __post_init__(self):
        for name in ("g", "tau", "chi"):
            _check_real(name, getattr(self, name))

    @classmethod
    def from_g_tau(cls, g: float, tau: float, n_photons: int) -> "SqueezeParams":
        # an integer past the float range ends the product in OverflowError
        _check_real("n_photons", n_photons)
        return cls(g=g, tau=tau, chi=n_photons * g * g * tau / 8)

    @property
    def g_tau(self) -> float:
        return self.g * self.tau


def _rotation_angles(params: SqueezeParams, n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """Per atom level, the rotation angle of W_m = U4_m U_eff,m^-1 in SU(2),
    folded into [0, pi], and the sign that the fold puts on its spin-1/2 image.

    In the spin-1/2 image of the Stokes operators (Sx, Sy, Sz to sigma_z/2,
    sigma_x/2, sigma_y/2) R_S is diag(e^{-i pi/4}, e^{i pi/4}), F_m a real
    rotation by g tau m about y and the reduction diag(e^{-i phi/2}, e^{i phi/2})
    with phi = (g tau m)^2.  W = [[a, b], [-b*, a*]] has eigenvalues
    e^{-+i omega/2} with omega = 2 atan2(sqrt(Im a^2 + |b|^2), Re a); where
    Re a < 0 the level is folded to -W, with angle 2 pi - omega read off the
    same atan2 with |Re a|, so no angle near 2 pi loses digits to a cancellation.
    """
    m = dicke.build_collective_ops(n_atoms).jz.diag
    half = params.g_tau * m / 2
    c, s = np.cos(half), np.sin(half)
    rot = np.exp(-0.25j * np.pi)
    cycle = np.empty((m.size, 2, 2), dtype=complex)
    cycle[:, 0, 0], cycle[:, 0, 1] = rot * c, -rot * s
    cycle[:, 1, 0], cycle[:, 1, 1] = rot.conjugate() * s, rot.conjugate() * c
    square = cycle @ cycle
    u4 = square @ square
    twist = np.exp(0.5j * params.g_tau**2 * m * m)  # U_eff^-1 on the upper state
    a, b = u4[:, 0, 0] * twist, u4[:, 0, 1] * twist.conj()
    omega = 2 * np.arctan2(np.hypot(a.imag, np.abs(b)), np.abs(a.real))
    return omega, np.where(a.real < 0, -1.0, 1.0)


def bch_error(params: SqueezeParams, n_photons: int, n_atoms: int) -> float:
    """Operator-norm distance between the exact four-pulse train and its
    leading-order reduction, after global-phase alignment.

    Both maps are block diagonal over atom levels, and every factor of each
    level's block is the spin-N_s/2 image D^j (j = N_s/2) of a 2x2 SU(2)
    matrix, so the difference is measured on those images instead of on the
    (N_s+1)^2 blocks.  With W_m = U4_m U_eff,m^-1 of rotation angle omega_m,
    D^j(W_m) has eigenvalues e^{-ik omega_m}, k = -j..j, and trace the real
    character chi_j(omega_m) = sin((2j+1) omega_m/2) / sin(omega_m/2).  The
    phase that best aligns the train with the reduction (that of their
    overlap sum_m tr(U4_m^dag U_eff,m)) is then the sign s of
    sum_m chi_j(omega_m), and the error is max_m max_k |s e^{-ik omega_m} - 1|
    = max_m max_k 2 |sin(k omega_m/2 + delta_m)|, delta_m = 0 or pi/2,
    taken over k = j, j - 1, ... >= 0 on all levels at once.  The result
    scales as (g tau)^3; no block is built, so the cost is O(N) memory and
    N_s/2 + 1 passes over the levels, and no joint-dimension cap applies.
    """
    _check_integer("n_photons", n_photons, 1, MAX_PHOTONS)
    omega, fold = _rotation_angles(params, n_atoms)
    j = n_photons / 2
    # D^j(-W) = (-1)^{2j} D^j(W)
    level_sign = fold if n_photons % 2 else np.ones_like(fold)
    # chi_j as a ratio of sincs, finite at omega = 0; omega <= pi keeps the
    # denominator at least sinc(1/2)
    chi = (2 * j + 1) * np.sinc((2 * j + 1) * omega / (2 * np.pi)) / np.sinc(omega / (2 * np.pi))
    sign = -1.0 if np.dot(level_sign, chi) < 0 else 1.0
    delta = np.where(sign * level_sign < 0, np.pi / 2, 0.0)
    half_omega = omega / 2
    peak = np.zeros(omega.size)
    for k in np.arange(j % 1, j + 0.5):
        np.maximum(peak, np.abs(np.sin(k * half_omega + delta)), out=peak)
    return float(2 * peak.max())
