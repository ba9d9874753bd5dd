"""References the tests compare the program against.

Dense spin matrices from the ladder formula alone, the dense form of the
banded operators, and the four-pulse squeezing train as photon-space
blocks per atom level, the reference of ``squeezing.bch_error``.

Photon polarization at fixed photon number N_s is a spin N_s/2 (Schwinger
representation) in the photon-occupation basis |n_x, n_y> with n_x
descending, which makes Sx diagonal: index 0 is the all-x-polarized,
maximum-Sx state.  The Stokes operators (Sx, Sy, Sz) are that spin's
(Jz, Jx, Jy), so [Sx, Sy] = i Sz and cyclic permutations hold exactly.
"""
import math

import numpy as np

from spinlock import dicke


def spin_matrices(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (Jx, Jy, Jz) of the spin-(dim-1)/2 irrep, m descending, built
    from <m+1|J+|m> = sqrt(j(j+1) - m(m+1)) and no spinlock code."""
    j = (dim - 1) / 2
    jplus = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        m = j - (k + 1)
        jplus[k, k + 1] = math.sqrt(j * (j + 1) - m * (m + 1))
    jminus = jplus.conj().T
    jz = np.diag(j - np.arange(dim)).astype(complex)
    return (jplus + jminus) / 2, (jplus - jminus) / 2j, jz


def dense(op: dicke.TridiagonalOperator) -> np.ndarray:
    """The dense matrix of a banded operator, (dim, dim), or (P, dim, dim)
    for a stack of P."""
    dim = op.diag.shape[-1]
    k = np.arange(dim)
    out = np.zeros(op.diag.shape + (dim,), dtype=complex)
    out[..., k, k] = op.diag
    out[..., k[:-1], k[1:]] = op.upper
    out[..., k[1:], k[:-1]] = op.upper.conj()
    return out


def stokes(n_photons: int) -> tuple[dicke.TridiagonalOperator, ...]:
    """(Sx, Sy, Sz) of N_s photons as bands: the spin-N_s/2 (Jz, Jx, Jy)."""
    spin = dicke.build_collective_ops(n_photons)
    return spin.jz, spin.jx, spin.jy


def u4_sequence(params, n_photons: int, n_atoms: int) -> np.ndarray:
    """The four-pulse train [R_S(pi/2) U(tau)]^4 per atom level, shape
    (N+1, N_s+1, N_s+1), levels in Jz's m-descending order.

    R_S(pi/2) = exp(-i (pi/2) Sx ⊗ 1) and U(tau) = exp(-i g tau Sz ⊗ Jz);
    each pulse acts after the free evolution preceding it.  Both commute
    with Jz, so on atom level m the train is (R_S F_m)^4 with
    F_m = exp(-i g tau m Sz): the block diagonal of the photon ⊗ atom
    matrix.  Each level's F_m is its own rotation about Sz.
    """
    sx, _, sz = stokes(n_photons)
    levels = dicke.build_collective_ops(n_atoms).jz.diag
    rot = np.exp(-1j * (np.pi / 2) * sx.diag)[:, None]
    eye = np.eye(n_photons + 1, dtype=complex)
    cycles = np.stack([dicke._propagate(sz, params.g_tau * m, eye) for m in levels])
    return np.linalg.matrix_power(cycles * rot, 4)


def effective_unitary(params, n_photons: int, n_atoms: int) -> np.ndarray:
    """The train's leading-order reduction exp(-i (g tau)^2 Sx ⊗ Jz^2) as its
    phase table exp(-i (g tau)^2 m^2 s_n), shape (N+1, N_s+1): row m is the
    diagonal of that level's block.

    On the maximum-Sx photon state this is one-axis twisting with
    chi = N_s g^2 tau / 8.
    """
    sx = stokes(n_photons)[0].diag
    jz2 = dicke.build_collective_ops(n_atoms).jz2.diag
    return np.exp(-1j * params.g_tau**2 * np.outer(jz2, sx))


def scatter_levels(blocks: np.ndarray) -> np.ndarray:
    """The photon ⊗ atom matrix whose block diagonal over atom levels is blocks.

    blocks has shape (N+1, N_s+1, N_s+1), or (N+1, N_s+1) for rows that are
    the diagonals of the blocks; the joint index is photon * (N+1) + level.
    """
    if blocks.ndim == 2:
        blocks = blocks[:, :, None] * np.eye(blocks.shape[1])
    levels, dim = blocks.shape[:2]
    joint = np.zeros((dim, levels, dim, levels), dtype=complex)
    level = np.arange(levels)
    joint[:, level, :, level] = blocks
    return joint.reshape(dim * levels, dim * levels)


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


def block_bch_error(params, n_photons: int, n_atoms: int) -> float:
    """``squeezing.bch_error`` from the (N_s+1)^2 photon blocks of every atom
    level: the train's blocks aligned to the reduction's by one global phase,
    then the largest per-level spectral norm of the difference."""
    u4 = u4_sequence(params, n_photons, n_atoms)
    phases = effective_unitary(params, n_photons, n_atoms)
    ueff = phases[:, :, None] * np.eye(n_photons + 1)
    aligned = align_global_phase(u4, ueff)
    return float(np.linalg.norm(aligned - ueff, ord=2, axis=(1, 2)).max())
