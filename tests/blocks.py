import numpy as np

from spinlock import squeezing


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
    u4 = squeezing.u4_sequence(params, n_photons, n_atoms)
    phases = squeezing.effective_unitary(params, n_photons, n_atoms)
    ueff = phases[:, :, None] * np.eye(n_photons + 1)
    aligned = align_global_phase(u4, ueff)
    return float(np.linalg.norm(aligned - ueff, ord=2, axis=(1, 2)).max())
