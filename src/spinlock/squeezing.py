"""Joint photon-atom simulation of the squeezing-generation sequence.

Photon polarization in the fixed-total-number sector is a spin N_s/2 in
the Schwinger representation; the basis used here is photon occupation
|n_x, n_y⟩ with n_x descending, which makes Sx diagonal (index 0 is the
all-x-polarized, maximum-Sx state).  The four-pulse train
[R_S(pi/2) U(tau)]^4 built from the Faraday coupling g*Jz*Sz reduces, to
leading order in g*tau, to a one-axis-twisting map exp(-i (g tau)^2 Sx Jz^2);
this module constructs both unitaries exactly so the reduction error can be
measured instead of assumed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dicke
from .dicke import TridiagonalOperator
from .errors import ConfigError

MAX_PHOTONS = 200
MAX_JOINT_DIM = 10_000
CHI_REL_TOL = 1e-9


@dataclass(frozen=True)
class StokesOps:
    """Stokes operators of the N_s-photon polarization sector."""

    n_photons: int
    sx: TridiagonalOperator
    sy: TridiagonalOperator
    sz: TridiagonalOperator


@dataclass(frozen=True)
class SqueezeParams:
    """Faraday coupling g, free-evolution interval tau, effective strength chi.

    When derived from (g, tau, N_s) the invariant chi = N_s g^2 tau / 8 holds;
    ``from_g_tau`` constructs it that way, ``validate_chi`` checks it.
    """

    g: float
    tau: float
    chi: float

    @classmethod
    def from_g_tau(cls, g: float, tau: float, n_photons: int) -> "SqueezeParams":
        return cls(g=g, tau=tau, chi=n_photons * g * g * tau / 8)

    def validate_chi(self, n_photons: int) -> None:
        derived = n_photons * self.g * self.g * self.tau / 8
        if abs(self.chi - derived) > CHI_REL_TOL * max(abs(derived), 1e-300):
            raise ConfigError(
                f"chi={self.chi!r} inconsistent with N_s g^2 tau/8 = {derived!r}"
            )

    @property
    def g_tau(self) -> float:
        return self.g * self.tau


def build_stokes_ops(n_photons: int) -> StokesOps:
    """Stokes (Sx, Sy, Sz) for N_s photons: the spin-N_s/2 Schwinger irrep.

    Sx = (n_x - n_y)/2 is diagonal (the irrep's Jz); Sy and Sz carry the
    ladder structure of a_x^dag a_y (its Jx and Jy), so [Sx, Sy] = i Sz and
    cyclic permutations hold exactly.
    """
    if not isinstance(n_photons, (int, np.integer)) or isinstance(n_photons, bool):
        raise ConfigError(f"n_photons must be an integer, got {n_photons!r}")
    if not 1 <= n_photons <= MAX_PHOTONS:
        raise ConfigError(f"n_photons={n_photons} outside [1, {MAX_PHOTONS}]")
    spin = dicke.build_collective_ops(n_photons)
    return StokesOps(n_photons=n_photons, sx=spin.jz, sy=spin.jx, sz=spin.jy)


def max_sx_state(n_photons: int) -> np.ndarray:
    """Photon amplitude vector of the maximum-Sx (all x-polarized) state."""
    vec = np.zeros(n_photons + 1, dtype=complex)
    vec[0] = 1.0
    return vec


def _check_joint_dim(n_photons: int, n_atoms: int) -> int:
    dim = (n_photons + 1) * (n_atoms + 1)
    if dim > MAX_JOINT_DIM:
        raise ConfigError(
            f"joint dimension {dim} exceeds {MAX_JOINT_DIM}: dense build infeasible"
        )
    return dim


def u4_sequence(params: SqueezeParams, n_photons: int, n_atoms: int) -> np.ndarray:
    """The four-pulse squeezing unitary [R_S(pi/2) U(tau)]^4 on the joint space.

    R_S(pi/2) = exp(-i (pi/2) Sx ⊗ 1) and U(tau) = exp(-i g tau Sz ⊗ Jz);
    each pulse acts after the free evolution preceding it.  Both commute with
    Jz, so on atom level m the train is the photon-space product
    (R_S F_m)^4 with F_m = exp(-i g tau m Sz); these blocks fill the block
    diagonal of the photon ⊗ atom matrix.
    """
    dim = _check_joint_dim(n_photons, n_atoms)
    stokes = build_stokes_ops(n_photons)
    m_atoms = dicke.build_collective_ops(n_atoms).jz.diag
    eye = np.eye(n_photons + 1, dtype=complex)
    rot = np.exp(-1j * (np.pi / 2) * stokes.sx.diag)[:, None]
    cycles = np.stack(
        [rot * dicke._propagate(stokes.sz, params.g_tau * m, eye) for m in m_atoms]
    )
    blocks = np.linalg.matrix_power(cycles, 4)
    shape = (n_photons + 1, n_atoms + 1)
    joint = np.zeros(shape + shape, dtype=complex)
    level = np.arange(n_atoms + 1)
    joint[:, level, :, level] = blocks
    return joint.reshape(dim, dim)


def effective_unitary(params: SqueezeParams, n_photons: int, n_atoms: int) -> np.ndarray:
    """Leading-order reduction exp(-i (g tau)^2 Sx ⊗ Jz^2) of the four-pulse train.

    Equals exp(-i H_eff' * 4 tau) with H_eff' = (1/4) g^2 tau Sx Jz^2; on the
    maximum-Sx photon state this is one-axis twisting with chi = N_s g^2 tau/8.
    The generator is diagonal, so the unitary is its phase factors.
    """
    _check_joint_dim(n_photons, n_atoms)
    stokes = build_stokes_ops(n_photons)
    jz2 = dicke.build_collective_ops(n_atoms).jz2.diag
    return np.diag(np.exp(-1j * params.g_tau**2 * np.kron(stokes.sx.diag, jz2)))


def align_global_phase(u: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rotate u by the global phase that best matches it to reference.

    A four-pulse train carries a physically irrelevant global phase (e.g.
    (-1)^{N_s} at g*tau = 0) that would otherwise dominate any norm comparison.
    The phase of tr(u^dag reference) minimises the Frobenius distance and,
    unlike any single entry, does not hinge on which of many near-equal
    entries rounding makes largest.
    """
    overlap = np.vdot(u, reference)
    if overlap == 0:
        return u
    return u * (overlap / abs(overlap))


def bch_error(params: SqueezeParams, n_photons: int, n_atoms: int) -> float:
    """Operator-norm distance between the exact four-pulse train and its
    leading-order reduction, after global-phase alignment.

    The largest singular value is used (worst-case state interpretation);
    the result scales as (g tau)^3.
    """
    u4 = u4_sequence(params, n_photons, n_atoms)
    ueff = effective_unitary(params, n_photons, n_atoms)
    aligned = align_global_phase(u4, ueff)
    return float(np.linalg.norm(aligned - ueff, ord=2))
