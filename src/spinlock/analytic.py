"""Closed-form fringe expectations and minimal detectable phase.

These are the printed formulas of the squeezed-Ramsey analysis, implemented
verbatim and kept strictly separate from the exact Dicke-basis results of
``dicke`` so that any disagreement between the two is measurable instead of
hidden.  ``oracle_grid`` computes both sides over a phase grid, one point
being a grid of one, and reports the residuals; nothing in this module
silently corrects the formulas.

Conventions: the cycle accumulates a twisting phase alpha (chi * t_squeeze),
a signal/noise phase beta about z, and a drive phase gamma about x.  The
transverse correlation factors cos^{N-1}(alpha) and sin^{N-1}(alpha) involve
the N-1 partner atoms of any given atom; for N = 1 there are no partners, so
the cosine factor is an empty product (1) and the sine factor vanishes (0).
"""
from __future__ import annotations

import math

import numpy as np

from . import dicke
from .dicke import PhaseTriple, TridiagonalOperator
from .errors import ConfigError, FringeNodeError, PhaseDomainError, _check_integer

DENOMINATOR_TOL = 1e-12
RADICAND_TOL = -1e-12

ORDERINGS = ("product", "single", "reversed")


def cos_factor(alpha: float, n_atoms: int) -> float:
    """cos^{N-1}(alpha); the empty product 1 when N = 1."""
    exponent = n_atoms - 1
    if exponent == 0:
        return 1.0
    return math.cos(alpha) ** exponent


def sin_factor(alpha: float, n_atoms: int) -> float:
    """sin^{N-1}(alpha) as a sign-preserving integer power; 0 when N = 1.

    With no partner atoms the correlation term has nothing to act on, so the
    factor vanishes rather than following the 0^0 = 1 reading.  This is what
    keeps the alpha = 0 limit consistent with the exact evolution for N = 1.
    """
    exponent = n_atoms - 1
    if exponent == 0:
        return 0.0
    return math.sin(alpha) ** exponent


def expect_jx(phases: PhaseTriple, n_atoms: int) -> float:
    """(N/2)[cos^{N-1}(alpha) cos(beta) - sin^{N-1}(alpha) sin(beta)]."""
    _check_integer("n_atoms", n_atoms, 1)
    half_n = n_atoms / 2
    return half_n * (
        cos_factor(phases.alpha, n_atoms) * math.cos(phases.beta)
        - sin_factor(phases.alpha, n_atoms) * math.sin(phases.beta)
    )


def expect_jz(phases: PhaseTriple, n_atoms: int) -> float:
    """(N/2)[cos^{N-1}(alpha) sin(beta) + sin^{N-1}(alpha) cos(beta)] sin(gamma)."""
    _check_integer("n_atoms", n_atoms, 1)
    half_n = n_atoms / 2
    return (
        half_n
        * (
            cos_factor(phases.alpha, n_atoms) * math.sin(phases.beta)
            + sin_factor(phases.alpha, n_atoms) * math.cos(phases.beta)
        )
        * math.sin(phases.gamma)
    )


def min_detectable_phase(phases: PhaseTriple, n_atoms: int) -> float:
    """sqrt(1/N - (cos^{N-1}a sinb sing + sin^{N-1}a cosb sing)^2)
    / (cosb cos^{N-1}a - sinb sin^{N-1}a).

    Diverges at fringe nodes (vanishing denominator), reported as
    FringeNodeError; a radicand below -1e-12 is a domain error, within
    [-1e-12, 0) it is clamped to zero as rounding.
    """
    _check_integer("n_atoms", n_atoms, 1)
    cos_fac = cos_factor(phases.alpha, n_atoms)
    sin_fac = sin_factor(phases.alpha, n_atoms)
    sin_gamma = math.sin(phases.gamma)

    denominator = math.cos(phases.beta) * cos_fac - math.sin(phases.beta) * sin_fac
    if abs(denominator) <= DENOMINATOR_TOL:
        raise FringeNodeError(
            f"fringe slope {denominator:.3e} vanishes: phase resolution undefined"
        )
    projection = (
        cos_fac * math.sin(phases.beta) + sin_fac * math.cos(phases.beta)
    ) * sin_gamma
    radicand = 1.0 / n_atoms - projection * projection
    if radicand < 0:
        if radicand < RADICAND_TOL:
            raise PhaseDomainError(
                f"variance radicand {radicand:.3e} below -1e-12: outside validity"
            )
        radicand = 0.0
    return math.sqrt(radicand) / denominator


def _formula_entries(phases: PhaseTriple, n_atoms: int) -> dict[str, float]:
    """The printed <Jx>, <Jz> and dphi, NaN where dphi is undefined."""
    try:
        dphi = min_detectable_phase(phases, n_atoms)
    except (FringeNodeError, PhaseDomainError):
        dphi = math.nan
    return {
        "jx": expect_jx(phases, n_atoms),
        "jz": expect_jz(phases, n_atoms),
        "dphi": dphi,
    }


def _grid_moments(
    ops: dicke.CollectiveOps,
    ordering: str,
    alphas: np.ndarray,
    betas: np.ndarray,
    gammas: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """<J> and M of the x-CSS after every (alpha, beta, gamma) cycle of one
    ordering, shapes (A, B, G, 3) and (A, B, G, 3, 3).

    "product" applies squeeze, then signal, then drive (the physical
    sequence): R_x(gamma) R_z(beta) on ``dicke._twisted_moments``.
    "reversed" applies them backwards: R_z(beta) alone, since the drive only
    phases the x-CSS (a Jx eigenstate) and Jz commutes with the twist.
    "single" exponentiates the summed generator alpha*Jz^2 + beta*Jz +
    gamma*Jx in one step, which differs at every point: the bands of all
    points form one stack, propagated in a single Chebyshev pass.
    """
    grid = (alphas.size, betas.size, gammas.size)
    if ordering != "single":
        mean, second = dicke._twisted_moments(ops.n_atoms, alphas)
        rotation = dicke._rotation_matrix("jz", betas)[:, None]  # (B, 1, 3, 3)
        if ordering == "product":
            rotation = dicke._rotation_matrix("jx", gammas) @ rotation
        mean, second = dicke._rotate_moments(rotation, mean[:, None, None], second[:, None, None])
        return np.broadcast_to(mean, grid + (3,)), np.broadcast_to(second, grid + (3, 3))
    css = dicke.x_css(ops.n_atoms)
    dim = css.size
    # weights (A, 1, 1, 1), (1, B, 1, 1), (1, 1, G, 1) against each band
    weights = [w[..., None] for w in np.ix_(alphas, betas, gammas)]
    terms = tuple(zip(weights, (ops.jz2, ops.jz, ops.jx)))
    combined = TridiagonalOperator(
        sum(weight * op.diag for weight, op in terms).reshape(-1, dim),
        sum(weight * op.upper for weight, op in terms).reshape(-1, dim - 1),
    )
    mean, second = dicke._spin_moments(dicke._propagate(combined, 1.0, css).T)
    return mean.reshape(grid + (3,)), second.reshape(grid + (3, 3))


def oracle_grid(
    n_atoms: int,
    alphas: tuple[float, ...],
    betas: tuple[float, ...],
    gammas: tuple[float, ...],
    orderings: tuple[str, ...] = ORDERINGS,
) -> list[dict[str, dict[str, float]]]:
    """Closed-form values next to exact Dicke evolution, with residuals, at
    every point of a phase grid.

    Returns one report per (alpha, beta, gamma, ordering), in the nested order
    of the arguments with orderings innermost; repeated values give repeated
    reports.  A report is {"jx": {...}, "jz": {...}, "dphi": {...}}, each
    entry holding formula, oracle and abs_diff.  The oracle phase resolution
    is sqrt(var(Jz))/<Jx> (infinite at a fringe node); the formula entry is
    NaN where the closed form itself is undefined.  Residuals are reported,
    never asserted away: for alpha != 0 the printed formulas are known to
    deviate.

    The operators are built once, and each ordering's moments come from
    ``_grid_moments`` in one batch, closed form for "product" and
    "reversed": <Jx>, <Jz> and Var(Jz) = M_zz - <Jz>^2 for every point at once.
    """
    for ordering in orderings:
        if ordering not in ORDERINGS:
            raise ConfigError(f"unknown ordering {ordering!r}; expected one of {ORDERINGS}")
    points = [PhaseTriple(a, b, g) for a in alphas for b in betas for g in gammas]
    ops = dicke.build_collective_ops(n_atoms)
    if not points or not orderings:
        return []
    grid = [np.array(values, dtype=float) for values in (alphas, betas, gammas)]
    moments = {o: _grid_moments(ops, o, *grid) for o in set(orderings)}
    # one row per (alpha, beta, gamma, ordering), in that order
    mean = np.stack([moments[o][0] for o in orderings], axis=-2).reshape(-1, 3)
    jzz = np.stack([moments[o][1][..., 2, 2] for o in orderings], axis=-1).reshape(-1)
    jx_oracle, jz_oracle = mean[:, 0], mean[:, 2]
    var_jz = dicke._clamped_variance(jzz - jz_oracle * jz_oracle)
    reports = []
    for k, phases in enumerate(points):
        formula = _formula_entries(phases, n_atoms)
        for j in range(k * len(orderings), (k + 1) * len(orderings)):
            jx = float(jx_oracle[j])
            oracle = {
                "jx": jx,
                "jz": float(jz_oracle[j]),
                "dphi": math.sqrt(var_jz[j]) / jx if jx != 0 else math.inf,
            }
            reports.append(
                {
                    q: {
                        "formula": formula[q],
                        "oracle": oracle[q],
                        "abs_diff": abs(formula[q] - oracle[q]),
                    }
                    for q in ("jx", "jz", "dphi")
                }
            )
    return reports

