"""Joint photon-atom simulation of the squeezing-generation sequence.

Photon polarization in the fixed-total-number sector is a spin N_s/2 in
the Schwinger representation; the basis used here is photon occupation
|n_x, n_y⟩ with n_x descending, which makes Sx diagonal (index 0 is the
all-x-polarized, maximum-Sx state).  The four-pulse train
[R_S(pi/2) U(tau)]^4 built from the Faraday coupling g*Jz*Sz reduces, to
leading order in g*tau, to a one-axis-twisting map exp(-i (g tau)^2 Sx Jz^2);
this module constructs both unitaries exactly so the reduction error can be
measured instead of assumed.  Both commute with Jz, so each is kept as one
photon-space map per atom level m, in Jz's m-descending order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dicke
from .dicke import TridiagonalOperator
from .errors import ConfigError

MAX_PHOTONS = 200
MAX_JOINT_DIM = 10_000


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

    ``from_g_tau`` derives chi = N_s g^2 tau / 8 from (g, tau, N_s).
    """

    g: float
    tau: float
    chi: float

    def __post_init__(self):
        for name in ("g", "tau", "chi"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ConfigError(f"squeezing {name} must be finite, got {value!r}")

    @classmethod
    def from_g_tau(cls, g: float, tau: float, n_photons: int) -> "SqueezeParams":
        return cls(g=g, tau=tau, chi=n_photons * g * g * tau / 8)

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


def _check_joint_dim(n_photons: int, n_atoms: int) -> None:
    # (N+1) blocks of (N_s+1)^2 entries: at the cap at most 1e4 (N_s+1)
    # complex entries, <= 32 MB per block stack for N_s <= MAX_PHOTONS;
    # u4_sequence holds two stacks at once, a traced peak of 63.7 MB at
    # (N_s, N) = (200, 48)
    dim = (n_photons + 1) * (n_atoms + 1)
    if dim > MAX_JOINT_DIM:
        raise ConfigError(
            f"joint dimension (N_s+1)(N+1) = {dim} exceeds {MAX_JOINT_DIM}"
        )


def u4_sequence(params: SqueezeParams, n_photons: int, n_atoms: int) -> np.ndarray:
    """The four-pulse squeezing unitary [R_S(pi/2) U(tau)]^4, per atom level.

    R_S(pi/2) = exp(-i (pi/2) Sx ⊗ 1) and U(tau) = exp(-i g tau Sz ⊗ Jz);
    each pulse acts after the free evolution preceding it.  Both commute with
    Jz, so on atom level m the train is the photon-space product
    (R_S F_m)^4 with F_m = exp(-i g tau m Sz).  Returns these blocks, shape
    (N+1, N_s+1, N_s+1), levels in Jz's m-descending order; they are the
    block diagonal of the photon ⊗ atom matrix.  Every F_m is one angle of a
    single multi-angle rotation about Sz, so the Chebyshev vectors of Sz are
    built once for all levels.
    """
    _check_joint_dim(n_photons, n_atoms)
    stokes = build_stokes_ops(n_photons)
    m_atoms = dicke.build_collective_ops(n_atoms).jz.diag
    eye = np.eye(n_photons + 1, dtype=complex)
    rot = np.exp(-1j * (np.pi / 2) * stokes.sx.diag)[:, None]
    cycles = dicke._propagate(stokes.sz, params.g_tau * m_atoms, eye)
    cycles *= rot
    # numpy's own (a a)(a a), with the fourth power written over the cycles
    square = cycles @ cycles
    return np.matmul(square, square, out=cycles)


def effective_unitary(params: SqueezeParams, n_photons: int, n_atoms: int) -> np.ndarray:
    """Leading-order reduction exp(-i (g tau)^2 Sx ⊗ Jz^2) of the four-pulse train.

    Equals exp(-i H_eff' * 4 tau) with H_eff' = (1/4) g^2 tau Sx Jz^2; on the
    maximum-Sx photon state this is one-axis twisting with chi = N_s g^2 tau/8.
    The generator is diagonal, so the unitary is its phase table
    exp(-i (g tau)^2 m^2 s_n), shape (N+1, N_s+1): row m is the diagonal of
    that level's block, levels in Jz's m-descending order.
    """
    _check_joint_dim(n_photons, n_atoms)
    stokes = build_stokes_ops(n_photons)
    jz2 = dicke.build_collective_ops(n_atoms).jz2.diag
    return np.exp(-1j * params.g_tau**2 * np.outer(jz2, stokes.sx.diag))


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

    Both maps are block diagonal over atom levels, so the largest singular
    value of their difference (worst-case state interpretation) is the
    largest per-level block norm; the result scales as (g tau)^3.
    """
    u4 = u4_sequence(params, n_photons, n_atoms)
    phases = effective_unitary(params, n_photons, n_atoms)
    ueff = phases[:, :, None] * np.eye(n_photons + 1)
    aligned = align_global_phase(u4, ueff)
    return float(np.linalg.norm(aligned - ueff, ord=2, axis=(1, 2)).max())
