import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from spinlock import analytic, dicke
from spinlock.dicke import PhaseTriple, TridiagonalOperator
from spinlock.errors import ConfigError, FringeNodeError, PhaseDomainError

from blocks import spin_matrices

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_jx_reduces_to_half_n_without_phases():
    assert analytic.expect_jx(PhaseTriple(0, 0, 0), 50) == pytest.approx(25, abs=1e-12)


def test_jx_vanishes_at_quarter_fringe():
    assert analytic.expect_jx(PhaseTriple(0, math.pi / 2, 0), 50) == pytest.approx(
        0, abs=1e-12
    )


def test_jx_frozen_value():
    # frozen from a 50-digit evaluation of the same printed formula
    assert analytic.expect_jx(PhaseTriple(0.01, 0.1, 0.0), 50) == pytest.approx(
        24.81423370902665, abs=1e-12
    )


def test_jz_trivial_cases():
    for alpha, beta in ((0.0, 0.0), (0.2, 0.5), (1.0, -0.3)):
        assert analytic.expect_jz(PhaseTriple(alpha, beta, 0.0), 7) == 0.0
    assert analytic.expect_jz(PhaseTriple(0, math.pi / 2, math.pi / 2), 50) == (
        pytest.approx(25, abs=1e-12)
    )


def test_jz_frozen_value():
    # frozen from a 50-digit evaluation of the same printed formula
    assert analytic.expect_jz(PhaseTriple(0.01, 0.1, 0.2), 3) == pytest.approx(
        0.02977743267114848, abs=1e-14
    )


def test_min_detectable_phase_reduces_to_sql():
    for n in (1, 50):
        assert analytic.min_detectable_phase(PhaseTriple(0, 0, 0), n) == (
            pytest.approx(1 / math.sqrt(n), abs=1e-14)
        )


def test_min_detectable_phase_frozen_value():
    # frozen from a 50-digit evaluation of the same printed formula
    assert analytic.min_detectable_phase(
        PhaseTriple(0.02, 0.3, 0.1), 50
    ) == pytest.approx(0.14626636874741056, abs=1e-14)


def test_sql_times_sqrt_n_is_one():
    for n in range(1, 101):
        product = analytic.min_detectable_phase(PhaseTriple(0, 0, 0), n) * math.sqrt(n)
        assert product == pytest.approx(1.0, abs=1e-12)


def test_fringe_node_raises():
    with pytest.raises(FringeNodeError):
        analytic.min_detectable_phase(PhaseTriple(0, math.pi / 2, 0), 50)


def test_radicand_domain_error():
    # projection exceeds the total variance budget: formula outside validity
    with pytest.raises(PhaseDomainError):
        analytic.min_detectable_phase(PhaseTriple(0, math.pi / 4, math.pi / 2), 50)


def test_single_atom_factors():
    assert analytic.cos_factor(0.7, 1) == 1.0
    assert analytic.sin_factor(0.7, 1) == 0.0


def test_sin_factor_preserves_sign():
    assert analytic.sin_factor(-0.3, 4) == pytest.approx(
        -(math.sin(0.3) ** 3), rel=1e-14
    )


def test_beta_periodicity():
    for alpha in (0.0, 0.05, 0.4):
        for beta in (-1.0, 0.3, 2.0):
            a = analytic.expect_jx(PhaseTriple(alpha, beta, 0), 12)
            b = analytic.expect_jx(PhaseTriple(alpha, beta + 2 * math.pi, 0), 12)
            assert a == pytest.approx(b, abs=1e-12)


def test_formulas_match_oracle_without_twisting():
    worst = 0.0
    for n in (1, 2, 3, 4):
        for beta in np.linspace(0, math.pi / 2, 5):
            for gamma in np.linspace(0, math.pi / 2, 5):
                (report,) = analytic.oracle_grid(
                    n, (0.0,), (float(beta),), (float(gamma),), ("product",)
                )
                worst = max(
                    worst, report["jx"]["abs_diff"], report["jz"]["abs_diff"]
                )
    assert worst < 1e-10, f"worst deviation {worst}"


def test_twisted_deviation_is_reported_not_hidden():
    (report,) = analytic.oracle_grid(4, (0.3,), (0.4,), (0.5,), ("product",))
    assert report["jx"]["abs_diff"] > 1e-3
    assert report["jx"]["abs_diff"] == pytest.approx(
        abs(report["jx"]["formula"] - report["jx"]["oracle"]), rel=1e-12
    )


def test_orderings_are_distinct_operations():
    values = {
        o: analytic.oracle_grid(3, (0.2,), (0.3,), (0.4,), (o,))[0]["jx"]["oracle"]
        for o in analytic.ORDERINGS
    }
    assert values["product"] != values["single"]
    with pytest.raises(ConfigError):
        analytic.oracle_grid(3, (0.2,), (0.3,), (0.4,), ("backwards",))


def close_or_equal(a, b):
    if math.isfinite(b):
        return abs(a - b) <= 1e-13 * max(1.0, abs(b))
    return a == b or (math.isnan(a) and math.isnan(b))


def pointwise_oracle(phases, n, ordering):
    """The per-point reference: every step of the cycle propagated on the
    x-CSS amplitudes, then read through dense matrices."""
    ops = dicke.build_collective_ops(n)
    amps = dicke.x_css(n)
    if ordering == "single":
        terms = ((phases.alpha, ops.jz2), (phases.beta, ops.jz), (phases.gamma, ops.jx))
        combined = TridiagonalOperator(
            sum(w * op.diag for w, op in terms), sum(w * op.upper for w, op in terms)
        )
        amps = dicke._propagate(combined, 1.0, amps)
    else:
        steps = [(ops.jz2, phases.alpha), (ops.jz, phases.beta), (ops.jx, phases.gamma)]
        if ordering == "reversed":
            steps.reverse()
        for generator, angle in steps:
            amps = dicke._propagate(generator, angle, amps)
    # read through the dense spin matrices, not the moments readout
    jx_dense, _, jz_dense = spin_matrices(n + 1)
    jx, jz = (np.vdot(amps, op @ amps).real for op in (jx_dense, jz_dense))
    variance = max(np.vdot(jz_dense @ amps, jz_dense @ amps).real - jz * jz, 0.0)
    dphi = math.sqrt(variance) / jx if jx != 0 else math.inf
    return {"jx": jx, "jz": jz, "dphi": dphi}


@pytest.mark.parametrize(
    "alphas",
    [(0.0, 0.01, 0.1, 0.3), (0.1, 0.0, 0.1)],
    ids=["shipped", "repeated-alpha"],
)
def test_oracle_grid_matches_pointwise_comparisons(alphas):
    config = json.loads((CONFIGS / "oracle_compare.json").read_text())["compare"]
    betas, gammas = tuple(config["betas"]), tuple(config["gammas"])
    orderings = tuple(config["orderings"])
    for n in config["n_atoms"]:
        reports = analytic.oracle_grid(n, alphas, betas, gammas, orderings)
        cases = [
            (a, b, g, o) for a in alphas for b in betas for g in gammas for o in orderings
        ]
        assert len(reports) == len(cases)
        for (a, b, g, o), report in zip(cases, reports):
            (single,) = analytic.oracle_grid(n, (a,), (b,), (g,), (o,))
            reference = pointwise_oracle(PhaseTriple(a, b, g), n, o)
            for q in ("jx", "jz", "dphi"):
                for key in ("formula", "oracle", "abs_diff"):
                    assert close_or_equal(report[q][key], single[q][key]), (n, a, b, g, o, q, key)
                assert close_or_equal(report[q]["oracle"], reference[q]), (n, a, b, g, o, q)


def test_single_ordering_grid_matches_per_point_propagation():
    # one stacked Chebyshev pass per atom number against one propagation per
    # point, over the all-zero point, gamma = 0 (diagonal) points and negative
    # weights.  N stays <= 10: at N = 50 a twist of -0.3 spans ~94 rad of
    # Chebyshev terms, whose rounding (bounded on the amplitudes in
    # test_dicke) reaches 6e-14 in <Jx>.
    alphas, betas, gammas = (0.0, 0.01, -0.3), (0.0, 0.8, -0.4), (0.0, 0.5, -1.2)
    for n in (1, 2, 3, 4, 10):
        reports = analytic.oracle_grid(n, alphas, betas, gammas, ("single",))
        points = [PhaseTriple(a, b, g) for a in alphas for b in betas for g in gammas]
        assert len(reports) == len(points)
        for phases, report in zip(points, reports):
            want = pointwise_oracle(phases, n, "single")
            for q in ("jx", "jz", "dphi"):
                got = report[q]["oracle"]
                assert abs(got - want[q]) <= 1e-14 * max(1.0, abs(want[q])), (n, phases, q)


def test_product_ordering_moments_match_drive_propagated_on_the_state():
    # the product ordering rotates the twisted CSS's closed-form moments by
    # R_x(gamma) R_z(beta), and the reversed ordering by R_z(beta) alone; the
    # reference propagates every step of either ordering on the state and
    # reads it through the dense spin matrices
    alphas, betas, gammas = (0.0, 0.01, -0.3), (0.0, 0.8, -0.4), (0.0, 0.5, -1.2, 3.0)
    grid = [np.array(values) for values in (alphas, betas, gammas)]
    for n, ordering in itertools.product((1, 2, 4, 50, 200), ("product", "reversed")):
        ops = dicke.build_collective_ops(n)
        css = dicke.x_css(n)
        mean, second = analytic._grid_moments(ops, ordering, *grid)
        assert mean.shape == (3, 3, 4, 3) and second.shape == (3, 3, 4, 3, 3)
        dense = spin_matrices(n + 1)
        sym = [[(a @ b + b @ a) / 2 for b in dense] for a in dense]
        for (i, alpha), (j, beta), (k, gamma) in itertools.product(
            enumerate(alphas), enumerate(betas), enumerate(gammas)
        ):
            steps = [(ops.jz2, alpha), (ops.jz, beta), (ops.jx, gamma)]
            amps = css
            for generator, angle in steps if ordering == "product" else steps[::-1]:
                amps = dicke._propagate(generator, angle, amps)
            where = (n, ordering, i, j, k)
            for p in range(3):
                want = np.vdot(amps, dense[p] @ amps).real
                assert abs(mean[i, j, k, p] - want) <= 1e-13 * max(1.0, n / 2), (where, p)
                for q in range(3):
                    want = np.vdot(amps, sym[p][q] @ amps).real
                    got = second[i, j, k, p, q]
                    assert abs(got - want) <= 1e-13 * max(1.0, n * n / 4), (where, p, q)


def test_oracle_grid_validation():
    assert analytic.oracle_grid(2, (), (0.1,), (0.2,)) == []
    with pytest.raises(ConfigError):
        analytic.oracle_grid(2, (0.1,), (0.2,), (0.3,), ("product", "backwards"))
    with pytest.raises(ConfigError):
        analytic.oracle_grid(2, (0.1,), (math.nan,), (0.3,))
    with pytest.raises(ConfigError):
        analytic.oracle_grid(0, (0.1,), (0.2,), (0.3,))


def test_n_atoms_validation():
    with pytest.raises(ConfigError):
        analytic.expect_jx(PhaseTriple(0, 0, 0), 0)
    with pytest.raises(ConfigError):
        analytic.min_detectable_phase(PhaseTriple(0, 0, 0), -3)
