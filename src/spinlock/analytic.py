"""Closed-form fringe expectations and minimal detectable phase.

These are the printed formulas of the squeezed-Ramsey analysis, implemented
verbatim and kept strictly separate from the exact Dicke-basis evolution in
``dicke`` so that any disagreement between the two is measurable instead of
hidden.  ``oracle_comparison`` computes both sides and reports the residual;
nothing in this module silently corrects the formulas.

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
from .dicke import PhaseTriple, PulseStep, TridiagonalOperator
from .errors import ConfigError, FringeNodeError, PhaseDomainError

DENOMINATOR_TOL = 1e-12
RADICAND_TOL = -1e-12

ORDERINGS = ("product", "single", "reversed")


def _check_n_atoms(n_atoms: int) -> None:
    if not isinstance(n_atoms, (int, np.integer)) or isinstance(n_atoms, bool):
        raise ConfigError(f"n_atoms must be an integer, got {n_atoms!r}")
    if n_atoms < 1:
        raise ConfigError(f"n_atoms must be >= 1, got {n_atoms}")


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
    _check_n_atoms(n_atoms)
    half_n = n_atoms / 2
    return half_n * (
        cos_factor(phases.alpha, n_atoms) * math.cos(phases.beta)
        - sin_factor(phases.alpha, n_atoms) * math.sin(phases.beta)
    )


def expect_jz(phases: PhaseTriple, n_atoms: int) -> float:
    """(N/2)[cos^{N-1}(alpha) sin(beta) + sin^{N-1}(alpha) cos(beta)] sin(gamma)."""
    _check_n_atoms(n_atoms)
    half_n = n_atoms / 2
    return (
        half_n
        * (
            cos_factor(phases.alpha, n_atoms) * math.sin(phases.beta)
            + sin_factor(phases.alpha, n_atoms) * math.cos(phases.beta)
        )
        * math.sin(phases.gamma)
    )


def sql_phase(n_atoms: int) -> float:
    """Phase resolution 1/sqrt(N) of N uncorrelated atoms."""
    _check_n_atoms(n_atoms)
    return 1.0 / math.sqrt(n_atoms)


def min_detectable_phase(phases: PhaseTriple, n_atoms: int) -> float:
    """sqrt(1/N - (cos^{N-1}a sinb sing + sin^{N-1}a cosb sing)^2)
    / (cosb cos^{N-1}a - sinb sin^{N-1}a).

    Diverges at fringe nodes (vanishing denominator), reported as
    FringeNodeError; a radicand below -1e-12 is a domain error, within
    [-1e-12, 0) it is clamped to zero as rounding.
    """
    _check_n_atoms(n_atoms)
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


def _comparison_state(
    phases: PhaseTriple, n_atoms: int, ordering: str
) -> tuple[dicke.DickeState, dicke.CollectiveOps]:
    """x-CSS evolved through the cycle in one of three operator orderings.

    "product" applies squeeze, then signal, then drive (the physical sequence);
    "reversed" applies them backwards; "single" exponentiates the summed
    generator alpha*Jz^2 + beta*Jz + gamma*Jx in one step.
    """
    if ordering not in ORDERINGS:
        raise ConfigError(f"unknown ordering {ordering!r}; expected one of {ORDERINGS}")
    ops = dicke.build_collective_ops(n_atoms)
    state = dicke.x_css(n_atoms)
    if ordering == "single":
        terms = ((phases.alpha, ops.jz2), (phases.beta, ops.jz), (phases.gamma, ops.jx))
        combined = TridiagonalOperator(
            sum(weight * op.diag for weight, op in terms),
            sum(weight * op.upper for weight, op in terms),
        )
        return dicke.evolve_unitary(state, combined, 1.0), ops
    steps = [
        PulseStep("jz2", phases.alpha),
        PulseStep("jz", phases.beta),
        PulseStep("jx", phases.gamma),
    ]
    if ordering == "reversed":
        steps.reverse()
    return dicke.apply_schedule(state, ops, steps), ops


def oracle_comparison(
    phases: PhaseTriple, n_atoms: int, ordering: str = "product"
) -> dict[str, dict[str, float]]:
    """Closed-form values next to exact Dicke evolution, with residuals.

    Returns {"jx": {...}, "jz": {...}, "dphi": {...}} where each entry holds
    formula, oracle, and abs_diff.  The oracle phase resolution is
    sqrt(var(Jz))/<Jx> (infinite at a fringe node); the formula entry is NaN
    where the closed form itself is undefined.  Residuals are reported, never
    asserted away: for alpha != 0 the printed formulas are known to deviate.
    """
    state, ops = _comparison_state(phases, n_atoms, ordering)
    jx_oracle = dicke.expect(state, ops.jx)
    jz_oracle = dicke.expect(state, ops.jz)
    var_jz = dicke.variance(state, ops.jz)
    dphi_oracle = math.sqrt(var_jz) / jx_oracle if jx_oracle != 0 else math.inf

    jx_formula = expect_jx(phases, n_atoms)
    jz_formula = expect_jz(phases, n_atoms)
    try:
        dphi_formula = min_detectable_phase(phases, n_atoms)
    except (FringeNodeError, PhaseDomainError):
        dphi_formula = math.nan

    def entry(formula: float, oracle: float) -> dict[str, float]:
        return {
            "formula": formula,
            "oracle": oracle,
            "abs_diff": abs(formula - oracle),
        }

    return {
        "jx": entry(jx_formula, jx_oracle),
        "jz": entry(jz_formula, jz_oracle),
        "dphi": entry(dphi_formula, dphi_oracle),
    }
