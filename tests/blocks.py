import numpy as np


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
