import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from spinlock import dicke
from spinlock.dicke import PulseStep, TridiagonalOperator
from spinlock.errors import (
    ConfigError,
    DimensionMismatchError,
    NonHermitianError,
    NumericsError,
)

from blocks import dense, spin_matrices


def commutator_residual(jx, jy, jz):
    return max(
        np.abs(jx @ jy - jy @ jx - 1j * jz).max(),
        np.abs(jy @ jz - jz @ jy - 1j * jx).max(),
        np.abs(jz @ jx - jx @ jz - 1j * jy).max(),
    )


def test_su2_commutators_up_to_20_atoms():
    for n in range(1, 21):
        ops = dicke.build_collective_ops(n)
        res = commutator_residual(dense(ops.jx), dense(ops.jy), dense(ops.jz))
        assert res < 1e-12, f"n={n}: residual {res}"


def test_bands_match_the_ladder_formula():
    # the bands against dense matrices built from the ladder formula alone,
    # sharing no code with build_collective_ops
    for n in range(1, 51):
        ops = dicke.build_collective_ops(n)
        jx, jy, jz = spin_matrices(n + 1)
        for got, want in ((ops.jx, jx), (ops.jy, jy), (ops.jz, jz), (ops.jz2, jz @ jz)):
            assert np.array_equal(dense(got), want), n
    ops = dicke.build_collective_ops(4)
    stack = TridiagonalOperator(
        np.stack([ops.jz.diag, ops.jz2.diag]), np.stack([ops.jx.upper, ops.jy.upper])
    )
    jx, jy, jz = spin_matrices(5)
    assert np.array_equal(dense(stack), np.stack([jz + jx, jz @ jz + jy]))


def test_jz2_is_square_of_jz():
    ops = dicke.build_collective_ops(9)
    assert np.array_equal(dense(ops.jz2), dense(ops.jz) @ dense(ops.jz))


def test_casimir_eigenvalue():
    for n in (1, 5, 12):
        ops = dicke.build_collective_ops(n)
        j = n / 2
        total = (
            dense(ops.jx) @ dense(ops.jx)
            + dense(ops.jy) @ dense(ops.jy)
            + dense(ops.jz) @ dense(ops.jz)
        )
        assert np.allclose(total, j * (j + 1) * np.eye(n + 1), atol=1e-12)


def test_operator_bounds():
    with pytest.raises(ConfigError):
        dicke.build_collective_ops(0)
    with pytest.raises(ConfigError):
        dicke.build_collective_ops(10_001)


def test_css_simple_cases():
    north = dicke.css_state(2, 0.0, 0.0)
    assert np.allclose(north, [1.0, 0.0, 0.0], atol=1e-15)
    equator = dicke.css_state(1, np.pi / 2, 0.0)
    assert np.allclose(equator, [1, 1] / np.sqrt(2), atol=1e-15)
    with pytest.raises(ValueError):  # read-only: no caller can denormalise it
        equator[0] = 1.0


def test_atom_number_must_be_an_integer_in_range():
    # one check for every entry point that takes an atom number: a float or
    # a bool is not one, however it compares
    for n in (2.5, 2.0, True, False, "3", None):
        for call in (
            lambda: dicke.css_state(n, np.pi / 2, 0.0),
            lambda: dicke.build_collective_ops(n),
            lambda: dicke.full_space_oracle(n, [PulseStep("jx", 0.1)]),
        ):
            with pytest.raises(ConfigError, match="integer"):
                call()
    for n in (0, -1):
        with pytest.raises(ConfigError):
            dicke.css_state(n, 0.0, 0.0)
        with pytest.raises(ConfigError):
            dicke.full_space_oracle(n, [])
    with pytest.raises(ConfigError):
        dicke.css_state(dicke.MAX_ATOMS + 1, 0.0, 0.0)
    assert dicke.css_state(np.int64(3), 0.0, 0.0).shape == (4,)
    assert dicke.full_space_oracle(np.int64(1), [])["jx"] == pytest.approx(0.5)


def test_css_moments_against_bloch_vector():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(1, 40))
        theta = float(rng.uniform(0, np.pi))
        phi = float(rng.uniform(0, 2 * np.pi))
        state = dicke.css_state(n, theta, phi)
        (jx, jy, jz), _ = dicke._spin_moments(state)
        half_n = n / 2
        assert jz == pytest.approx(half_n * np.cos(theta), abs=1e-10)
        assert jx == pytest.approx(half_n * np.sin(theta) * np.cos(phi), abs=1e-10)
        assert jy == pytest.approx(half_n * np.sin(theta) * np.sin(phi), abs=1e-10)


def test_css_is_normalized_at_huge_atom_number():
    state = dicke.css_state(10_000, 1.234, 0.7)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_css_binomial_weights_at_10000_atoms():
    # |a_k| / |a_peak| = sqrt(C(N, k) / C(N, N/2)) on the equator, against
    # exact rationals over the bulk of the distribution (down to ~3e-4)
    n, half = 10_000, 5_000
    amps = np.abs(dicke.css_state(n, np.pi / 2, 0.0))
    peak = math.comb(n, half)
    for k in range(half - 200, half + 201):
        want = math.sqrt(Fraction(math.comb(n, k), peak))
        assert amps[k] / amps[half] == pytest.approx(want, rel=1e-13, abs=0), k


def test_x_css_moments():
    mean, second = dicke._spin_moments(dicke.x_css(50))
    assert mean[0] == pytest.approx(25.0, abs=1e-12)
    assert mean[2] == pytest.approx(0.0, abs=1e-12)
    assert second[2, 2] == pytest.approx(12.5, abs=1e-12)
    assert second[2, 2] - mean[2] ** 2 == pytest.approx(12.5, abs=1e-12)


def test_rotation_about_z_precesses_x_polarization():
    # exp(-i phi Jz) turns the Bloch vector by +phi about z: x toward +y
    state = dicke.x_css(3)
    ops = dicke.build_collective_ops(3)
    rotated = dicke._propagate(ops.jz, 0.3, state)
    (jx, jy, _), _ = dicke._spin_moments(rotated)
    assert jx == pytest.approx(1.5 * np.cos(0.3), abs=1e-12)
    assert jy == pytest.approx(1.5 * np.sin(0.3), abs=1e-12)


def test_evolution_preserves_norm():
    rng = np.random.default_rng(5)
    state = dicke.x_css(20)
    ops = dicke.build_collective_ops(20)
    for name in dicke.GENERATOR_NAMES:
        state = dicke._propagate(ops.by_name(name), float(rng.uniform(-2, 2)), state)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_twisting_only_changes_phases():
    state = dicke.css_state(12, 1.1, 0.3)
    ops = dicke.build_collective_ops(12)
    twisted = dicke._propagate(ops.jz2, 0.7, state)
    assert np.allclose(np.abs(twisted), np.abs(state), atol=1e-13)


def test_evolution_matches_dense_expm():
    # reference: scipy's expm of the dense spin matrices, independent of the
    # band storage and the Chebyshev expansion
    rng = np.random.default_rng(17)
    for n in (1, 7, 50, 200):
        jx, jy, jz = spin_matrices(n + 1)
        ops = dicke.build_collective_ops(n)
        amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        state = amps / np.linalg.norm(amps)
        cases = [(ops.by_name(name), dense, 0.7) for name, dense in
                 (("jx", jx), ("jy", jy), ("jz", jz), ("jz2", jz @ jz))]
        for weights in ((0.3, -0.2, 0.9, 0.0), (0.0, 0.4, -0.6, 1.1)):
            a, b, g, d = weights  # jz2, jz, jx, jy; the second has complex bands
            terms = ((a, ops.jz2), (b, ops.jz), (g, ops.jx), (d, ops.jy))
            banded = TridiagonalOperator(
                sum(w * op.diag for w, op in terms), sum(w * op.upper for w, op in terms)
            )
            cases.append((banded, a * jz @ jz + b * jz + g * jx + d * jy, 1.0))
        for generator, dense, angle in cases:
            got = dicke._propagate(generator, angle, state)
            want = scipy.linalg.expm(-1j * angle * dense) @ state
            assert np.abs(got - want).max() <= 1e-10, f"n={n}"


def random_block(rng, n, k):
    """k random normalised columns of amplitudes for n atoms, shape (n + 1, k)."""
    amps = rng.normal(size=(n + 1, k)) + 1j * rng.normal(size=(n + 1, k))
    return amps / np.linalg.norm(amps, axis=0)


def test_block_moments_match_dense_operators_and_single_columns():
    # every column of a block against the dense spin matrices, and against
    # its own 1-D call, bit for bit
    rng = np.random.default_rng(8)
    for n in (1, 2, 9, 40, 200):
        spin = spin_matrices(n + 1)
        sym = [[(a @ b + b @ a) / 2 for b in spin] for a in spin]
        amps = random_block(rng, n, 5)
        mean, second = dicke._spin_moments(amps)
        assert mean.shape == (5, 3) and second.shape == (5, 3, 3)
        for c, column in enumerate(amps.T):
            for a in range(3):
                want = np.vdot(column, spin[a] @ column).real
                assert abs(mean[c, a] - want) <= 1e-13 * max(1.0, n / 2), (n, c, a)
                for b in range(3):
                    want = np.vdot(column, sym[a][b] @ column).real
                    assert abs(second[c, a, b] - want) <= 1e-13 * max(1.0, n * n / 4), (n, a, b)
            one_mean, one_second = dicke._spin_moments(column)
            assert np.array_equal(mean[c], one_mean) and np.array_equal(second[c], one_second)


def test_stacked_rotation_of_moments_matches_column_by_column():
    rng = np.random.default_rng(9)
    mean, second = dicke._spin_moments(random_block(rng, 12, 4))
    angles = rng.uniform(-3, 3, size=(3, 6))
    # a stack of products R_z R_y R_x, one per column of angles
    rotation = (
        dicke._rotation_matrix("jz", angles[2])
        @ dicke._rotation_matrix("jy", angles[1])
        @ dicke._rotation_matrix("jx", angles[0])
    )
    assert rotation.shape == (6, 3, 3)
    for generator, row in zip(("jx", "jy", "jz"), angles):
        stacked = dicke._rotation_matrix(generator, row)
        for r, angle in zip(stacked, row):
            assert np.array_equal(r, dicke._rotation_matrix(generator, float(angle)))
    got_mean, got_second = dicke._rotate_moments(rotation, mean[:, None], second[:, None])
    assert got_mean.shape == (4, 6, 3) and got_second.shape == (4, 6, 3, 3)
    for c in range(4):
        for s, r in enumerate(rotation):
            assert np.abs(got_mean[c, s] - r @ mean[c]).max() <= 1e-13
            assert np.abs(got_second[c, s] - r @ second[c] @ r.T).max() <= 1e-12


def test_unnormalised_or_misshapen_amplitudes_are_rejected():
    rng = np.random.default_rng(10)
    amps = random_block(rng, 6, 3)
    amps[:, 1] *= 1 + 1e-9
    with pytest.raises(NumericsError):
        dicke._spin_moments(amps)
    with pytest.raises(NumericsError):
        dicke._spin_moments(2 * amps[:, 0])
    with pytest.raises(DimensionMismatchError):
        dicke._spin_moments(amps[..., None])


def test_norm_error_names_the_worst_column_and_its_deviation():
    # a block of many columns must not print its norms: only the worst
    # |norm - 1| and where it is
    amps = random_block(np.random.default_rng(11), 8, 40)
    amps[:, 27] *= 1 + 3e-12
    deviation = abs(np.linalg.norm(amps[:, 27]) - 1)
    assert 2e-12 < deviation < 4e-12
    with pytest.raises(NumericsError) as err:
        dicke._spin_moments(amps)
    message = str(err.value)
    assert message.startswith("state norm of column 27 deviates from 1 by ")
    assert float(message.split(" by ")[1].split(",")[0]) == pytest.approx(deviation, rel=1e-2)
    assert "array" not in message and len(message) < 100


def test_pulse_step_rejects_non_finite_angle():
    for angle in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError):
            PulseStep("jx", angle)
    PulseStep("jx", 0.0)


def twisted_rotated_moments(n, alpha, theta):
    """<Jx> and <Jz^2> after exp(-i theta Jx) exp(-i alpha Jz^2) on the x-CSS.

    Kitagawa & Ueda, PRA 47, 5138 (1993): the rotation keeps <Jx> at
    J cos^(N-1)(alpha) and mixes <Jz^2> with <Jy^2> and the <JyJz> cross term.
    """
    jy2 = n / 4 + n * (n - 1) / 8 * (1 - math.cos(2 * alpha) ** (n - 2))
    cross = n * (n - 1) / 2 * math.sin(alpha) * math.cos(alpha) ** (n - 2)
    c, s = math.cos(theta), math.sin(theta)
    return n / 2 * math.cos(alpha) ** (n - 1), c * c * n / 4 + s * s * jy2 + s * c * cross


def test_twist_then_rotate_at_2000_atoms():
    # rotating about x leaves <Jx> of the twisted x-CSS at J cos^(N-1)(alpha)
    # and keeps <Jy> = <Jz> = 0 by the state's symmetry
    for theta in (0.3, np.pi / 2, -np.pi / 2):
        values = dicke.schedule_expectations(
            2000, [PulseStep("jz2", 0.01), PulseStep("jx", theta)]
        )
        jx, jz2 = twisted_rotated_moments(2000, 0.01, theta)
        assert values["jx"] == pytest.approx(jx, rel=1e-9)
        assert values["jz2"] == pytest.approx(jz2, rel=1e-9)
        assert abs(values["jy"]) < 1e-9
        assert abs(values["jz"]) < 1e-9


def test_twist_then_rotate_at_documented_limit():
    n = dicke.MAX_ATOMS
    schedule = [PulseStep("jz2", 0.01), PulseStep("jx", 0.3)]
    state = propagated_state(n, schedule)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
    jx, jz2 = twisted_rotated_moments(n, 0.01, 0.3)
    mean, second = dicke._spin_moments(state)
    assert mean[0] == pytest.approx(jx, rel=1e-9)
    assert second[2, 2] == pytest.approx(jz2, rel=1e-9)
    assert abs(mean[1]) < 1e-9
    assert abs(mean[2]) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 50, 1000, 10_000])
def test_twisted_moments_match_the_dicke_layer(n):
    # all nine closed-form moments against the twisted amplitudes' readout;
    # at N = 10^4 and alpha = 1, cos^(N-1)(alpha) underflows to 0 (no warning)
    alphas = np.array([0.0, 0.01, -0.01, np.pi / 4, np.pi / 2, 2.5] + [1.0] * (n == 10_000))
    mean, second = dicke._twisted_moments(n, alphas)
    assert mean.shape == (alphas.size, 3) and second.shape == (alphas.size, 3, 3)
    assert np.isfinite(second).all()  # N = 1 at pi/2: no 0 * cos^(-1)
    css = dicke.x_css(n)
    for k, alpha in enumerate(alphas):
        want_mean, want_second = dicke._schedule_moments(css, [("jz2", alpha)])
        assert np.abs(mean[k] - want_mean).max() <= 1e-13 * max(1.0, n / 2), (n, alpha)
        assert np.abs(second[k] - want_second).max() <= 1e-13 * max(1.0, n * n / 4), (n, alpha)
    if n == 10_000:
        assert mean[-1, 0] == 0.0


def propagated_state(n, schedule):
    """The x-CSS with every step of the schedule propagated on its amplitudes."""
    ops = dicke.build_collective_ops(n)
    amps = dicke.x_css(n)
    for step in schedule:
        amps = dicke._propagate(ops.by_name(step.generator), step.angle, amps)
    return amps


def propagated_expectations(n, schedule):
    """Every step of the schedule run on the state, then the four expectations,
    each <psi|G|psi> through G's own bands (not the moments readout)."""
    ops = dicke.build_collective_ops(n)
    amps = propagated_state(n, schedule)
    return {
        name: np.vdot(amps, ops.by_name(name).matvec(amps)).real
        for name in dicke.GENERATOR_NAMES
    }


def test_schedule_expectations_match_propagated_state():
    # trailing rotations act on the moments, not the state: against the state
    # propagated through every step, with Jy steps, 0-3 trailing rotations
    # and rotation-only schedules
    rng = np.random.default_rng(1207)
    cases = []
    for n in (1, 2, 3, 4, 7, 50, 500):
        for trailing in range(4):
            for twisted in (False, True):
                for _ in range(3):
                    head = [
                        PulseStep(str(rng.choice(dicke.GENERATOR_NAMES)), float(rng.uniform(-1, 1)))
                        for _ in range(int(rng.integers(0, 3)) * twisted)
                    ]
                    if twisted:
                        head.append(PulseStep("jz2", float(rng.uniform(-0.5, 0.5))))
                    tail = [
                        PulseStep(str(rng.choice(("jx", "jy", "jz"))), float(rng.uniform(-2, 2)))
                        for _ in range(trailing)
                    ]
                    cases.append((n, head + tail))
    # the atom limit, with angles that keep the reference's rotations short
    cases.append((10_000, [PulseStep("jy", 0.1), PulseStep("jz2", 0.01), PulseStep("jx", 0.3),
                           PulseStep("jz", 0.5), PulseStep("jy", -0.2)]))
    cases.append((10_000, [PulseStep("jx", 0.3), PulseStep("jy", 0.1)]))
    for n, schedule in cases:
        got = dicke.schedule_expectations(n, schedule)
        want = propagated_expectations(n, schedule)
        for name in ("jx", "jy", "jz"):
            assert abs(got[name] - want[name]) <= 1e-11 * n / 2, (n, schedule, name)
        assert abs(got["jz2"] - want["jz2"]) <= 1e-11 * n * n / 4, (n, schedule)


def test_spin_moments_match_dense_operators():
    rng = np.random.default_rng(77)
    for n in (1, 2, 5, 12):
        jx, jy, jz = spin_matrices(n + 1)
        ops = (jx, jy, jz)
        for _ in range(3):
            v = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            v /= np.linalg.norm(v)
            mean, second = dicke._spin_moments(v)
            assert mean.shape == (3,) and second.shape == (3, 3)
            for a, op_a in enumerate(ops):
                assert mean[a] == pytest.approx(np.vdot(v, op_a @ v).real, abs=1e-13)
                for b, op_b in enumerate(ops):
                    sym = (op_a @ op_b + op_b @ op_a) / 2
                    assert second[a, b] == pytest.approx(np.vdot(v, sym @ v).real, abs=1e-12)


def test_tridiagonal_operator_validation():
    with pytest.raises(DimensionMismatchError):
        TridiagonalOperator(np.zeros(3), np.zeros(3))
    with pytest.raises(NonHermitianError):
        TridiagonalOperator(np.array([1.0, 1j]), np.zeros(1))


def test_variance_nonnegative_on_eigenstate():
    mean, second = dicke._spin_moments(dicke.css_state(6, 0.0, 0.0))
    assert dicke._clamped_variance(second[2, 2] - mean[2] ** 2) == 0.0
    with pytest.raises(NumericsError):
        dicke._clamped_variance(-1e-9)


def test_schedule_application_matches_manual_chain():
    # the evaluator rotates the moments after the twist; the chain propagates
    # every step on the amplitudes
    schedule = [PulseStep("jz2", 0.05), PulseStep("jz", 0.2), PulseStep("jx", 0.4)]
    steps = [(step.generator, step.angle) for step in schedule]
    mean, second = dicke._schedule_moments(dicke.x_css(5), steps)
    assert mean.shape == (3,) and second.shape == (3, 3)
    want_mean, want_second = dicke._spin_moments(propagated_state(5, schedule))
    assert np.abs(mean - want_mean).max() <= 1e-14
    assert np.abs(second - want_second).max() <= 1e-13


def test_dicke_matches_full_space_oracle_on_random_schedules():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(1, 9))
        schedule = [
            PulseStep(dicke.GENERATOR_NAMES[rng.integers(0, 4)], float(rng.uniform(-2, 2)))
            for _ in range(rng.integers(1, 6))
        ]
        symmetric = dicke.schedule_expectations(n, schedule)
        full = dicke.full_space_oracle(n, schedule)
        for key in symmetric:
            worst = max(worst, abs(symmetric[key] - full[key]))
    assert worst < 1e-10, f"worst deviation {worst}"


def test_oracle_operators_are_cached_read_only():
    steps = [PulseStep("jz2", 0.4), PulseStep("jx", -0.3)]
    first = dicke.full_space_oracle(3, steps)
    cached = dicke._bit_tables(3)
    assert dicke._bit_tables(3) is cached
    assert [array.shape for array in cached] == [(8,), (8,), (3, 8, 8)]
    for array in cached:
        with pytest.raises(ValueError):
            array[0] = 1.0
    assert dicke.full_space_oracle(3, steps) == first


def collective_product_ops(n):
    """Dense {Jx, Jy, Jz, Jz^2} of n spins-1/2 as Kronecker sums, built here."""
    single = spin_matrices(2)
    ops = []
    for s in single:
        total = np.zeros((2**n, 2**n), dtype=complex)
        for site in range(n):
            total += np.kron(np.kron(np.eye(2**site), s), np.eye(2 ** (n - site - 1)))
        ops.append(total)
    return dict(zip(dicke.GENERATOR_NAMES, ops + [ops[2] @ ops[2]]))


def test_full_space_oracle_matches_expm_reference():
    # reference: scipy's expm of the dense Kronecker sums on the product
    # |+x>^n, sharing no code with the oracle's bit tables
    rng = np.random.default_rng(31)
    worst = 0.0
    for n in (1, 2, 3, 4, 5, 6):
        ops = collective_product_ops(n)
        plus = np.full(2, 2**-0.5)
        for _ in range(8):
            schedule = [
                PulseStep(dicke.GENERATOR_NAMES[rng.integers(0, 4)], float(rng.uniform(-3, 3)))
                for _ in range(rng.integers(1, 7))
            ]
            psi = plus
            for _ in range(n - 1):
                psi = np.kron(psi, plus)
            for step in schedule:
                psi = scipy.linalg.expm(-1j * step.angle * ops[step.generator]) @ psi
            got = dicke.full_space_oracle(n, schedule)
            for name, op in ops.items():
                worst = max(worst, abs(got[name] - np.vdot(psi, op @ psi).real))
    assert worst <= 1e-12, worst


def stacked_generators(n, weights):
    """Bands of sum_g w_g G for each row (w_jz2, w_jz, w_jx, w_jy) of weights."""
    ops = dicke.build_collective_ops(n)
    generators = (ops.jz2, ops.jz, ops.jx, ops.jy)
    rows = [
        TridiagonalOperator(
            sum(w * g.diag for w, g in zip(row, generators)),
            sum(w * g.upper for w, g in zip(row, generators)),
        )
        for row in weights
    ]
    stack = TridiagonalOperator(
        np.stack([r.diag for r in rows]), np.stack([r.upper for r in rows])
    )
    return stack, rows


def test_stacked_propagation_matches_one_generator_at_a_time():
    # one Chebyshev pass over a stack against one call per generator: an
    # all-zero row (half-width 0), diagonal rows (no Jx or Jy), negative
    # weights and complex bands, on a vector and on a block of columns
    weights = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.3, -0.8, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [-0.2, 0.4, 0.5, 0.0],
            [0.1, 0.0, -1.3, 0.6],
            [0.0, 0.0, 0.7, 0.0],
            [0.0, 1.1, 0.0, 0.0],
        ]
    )
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 4, 50):
        stack, rows = stacked_generators(n, weights)
        vec = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        block = rng.normal(size=(n + 1, 3)) + 1j * rng.normal(size=(n + 1, 3))
        for v in (vec, block):
            got = dicke._propagate(stack, 1.0, v)
            assert got.shape == (len(rows),) + v.shape
            want = np.stack([dicke._propagate(row, 1.0, v) for row in rows])
            assert np.abs(got - want).max() <= 1e-14 * np.linalg.norm(v), n
        # a stack of diagonal rows alone keeps the exact phase factors
        diagonal, diag_rows = stacked_generators(n, weights[:3])
        got = dicke._propagate(diagonal, 1.0, vec)
        assert np.array_equal(got, np.stack([dicke._propagate(r, 1.0, vec) for r in diag_rows]))


def test_stack_rows_and_angles_of_mixed_widths_match_single_calls():
    # rows of very different widths, out of order, under angles of very
    # different sizes: at each angle one recurrence for all rows, as long as
    # the widest needs, agrees with each row propagated alone
    weights = np.array(
        [
            [0.0, 0.2, 0.1, 0.0],
            [0.3, 0.4, 0.5, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.02, 0.01],
            [-0.25, 0.0, 1.0, 0.3],
        ]
    )
    rng = np.random.default_rng(52)
    for n in (3, 20):
        stack, rows = stacked_generators(n, weights)
        vec = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        block = rng.normal(size=(n + 1, 2)) + 1j * rng.normal(size=(n + 1, 2))
        for angle in (0.05, -1.5, 0.0, 0.7):
            for v in (vec, block):
                got = dicke._propagate(stack, angle, v)
                assert got.shape == (len(rows),) + v.shape
                want = np.stack([dicke._propagate(row, angle, v) for row in rows])
                assert np.abs(got - want).max() <= 1e-14 * np.linalg.norm(v), (n, angle)


def test_operator_stack_rows_act_as_their_operators():
    stack, rows = stacked_generators(5, [[0.2, 0.1, -0.3, 0.4], [0.0, 1.0, 0.5, 0.0]])
    assert np.array_equal(dense(stack), np.stack([dense(r) for r in rows]))
    vecs = np.arange(12.0).reshape(2, 6) + 1j
    want = np.stack([r.matvec(v) for r, v in zip(rows, vecs)])
    assert np.array_equal(stack.matvec(vecs), want)
    with pytest.raises(DimensionMismatchError):
        TridiagonalOperator(np.zeros((2, 3)), np.zeros((3, 2)))


def test_full_space_oracle_rejects_large_systems():
    with pytest.raises(ConfigError):
        dicke.full_space_oracle(9, [PulseStep("jx", 0.1)])
