import numpy as np
import pytest
import scipy.linalg

from spinlock import dicke
from spinlock.dicke import DickeState, PulseStep, TridiagonalOperator
from spinlock.errors import (
    ConfigError,
    DimensionMismatchError,
    NonHermitianError,
    NumericsError,
)


def commutator_residual(jx, jy, jz):
    return max(
        np.abs(jx @ jy - jy @ jx - 1j * jz).max(),
        np.abs(jy @ jz - jz @ jy - 1j * jx).max(),
        np.abs(jz @ jx - jx @ jz - 1j * jy).max(),
    )


def test_su2_commutators_up_to_20_atoms():
    for n in range(1, 21):
        ops = dicke.build_collective_ops(n)
        res = commutator_residual(ops.jx.entries, ops.jy.entries, ops.jz.entries)
        assert res < 1e-12, f"n={n}: residual {res}"


def test_jz2_is_square_of_jz():
    ops = dicke.build_collective_ops(9)
    assert np.array_equal(ops.jz2.entries, ops.jz.entries @ ops.jz.entries)


def test_casimir_eigenvalue():
    for n in (1, 5, 12):
        ops = dicke.build_collective_ops(n)
        j = n / 2
        total = (
            ops.jx.entries @ ops.jx.entries
            + ops.jy.entries @ ops.jy.entries
            + ops.jz.entries @ ops.jz.entries
        )
        assert np.allclose(total, j * (j + 1) * np.eye(n + 1), atol=1e-12)


def test_operator_bounds():
    with pytest.raises(ConfigError):
        dicke.build_collective_ops(0)
    with pytest.raises(ConfigError):
        dicke.build_collective_ops(10_001)


def test_css_simple_cases():
    north = dicke.css_state(2, 0.0, 0.0)
    assert np.allclose(north.amplitudes, [1.0, 0.0, 0.0], atol=1e-15)
    equator = dicke.css_state(1, np.pi / 2, 0.0)
    assert np.allclose(equator.amplitudes, [1, 1] / np.sqrt(2), atol=1e-15)


def test_css_moments_against_bloch_vector():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(1, 40))
        theta = float(rng.uniform(0, np.pi))
        phi = float(rng.uniform(0, 2 * np.pi))
        state = dicke.css_state(n, theta, phi)
        ops = dicke.build_collective_ops(n)
        half_n = n / 2
        assert dicke.expect(state, ops.jz) == pytest.approx(
            half_n * np.cos(theta), abs=1e-10
        )
        assert dicke.expect(state, ops.jx) == pytest.approx(
            half_n * np.sin(theta) * np.cos(phi), abs=1e-10
        )
        assert dicke.expect(state, ops.jy) == pytest.approx(
            half_n * np.sin(theta) * np.sin(phi), abs=1e-10
        )


def test_css_is_normalized_at_huge_atom_number():
    state = dicke.css_state(10_000, 1.234, 0.7)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_x_css_moments():
    state = dicke.x_css(50)
    ops = dicke.build_collective_ops(50)
    assert dicke.expect(state, ops.jx) == pytest.approx(25.0, abs=1e-12)
    assert dicke.expect(state, ops.jz) == pytest.approx(0.0, abs=1e-12)
    assert dicke.expect(state, ops.jz2) == pytest.approx(12.5, abs=1e-12)
    assert dicke.variance(state, ops.jz) == pytest.approx(12.5, abs=1e-12)


def test_state_norm_is_enforced():
    with pytest.raises(NumericsError):
        DickeState(n_atoms=1, amplitudes=np.array([1.0, 1.0]))
    with pytest.raises(DimensionMismatchError):
        DickeState(n_atoms=2, amplitudes=np.array([1.0, 0.0]))


def test_rotation_about_z_precesses_x_polarization():
    # exp(-i phi Jz) turns the Bloch vector by +phi about z: x toward +y
    state = dicke.x_css(3)
    ops = dicke.build_collective_ops(3)
    rotated = dicke.evolve_unitary(state, ops.jz, 0.3)
    assert dicke.expect(rotated, ops.jx) == pytest.approx(
        1.5 * np.cos(0.3), abs=1e-12
    )
    assert dicke.expect(rotated, ops.jy) == pytest.approx(
        1.5 * np.sin(0.3), abs=1e-12
    )


def test_evolution_preserves_norm():
    rng = np.random.default_rng(5)
    state = dicke.x_css(20)
    ops = dicke.build_collective_ops(20)
    for name in dicke.GENERATOR_NAMES:
        state = dicke.evolve_unitary(state, ops.by_name(name), float(rng.uniform(-2, 2)))
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_twisting_only_changes_phases():
    state = dicke.css_state(12, 1.1, 0.3)
    ops = dicke.build_collective_ops(12)
    twisted = dicke.evolve_unitary(state, ops.jz2, 0.7)
    assert np.allclose(
        np.abs(twisted.amplitudes), np.abs(state.amplitudes), atol=1e-13
    )


def test_evolution_matches_dense_expm():
    # reference: scipy's expm of the dense spin matrices, independent of the
    # band storage, the phase gauge and the tridiagonal eigensolver
    rng = np.random.default_rng(17)
    for n in (1, 7, 50, 200):
        jx, jy, jz = dicke.spin_matrices(n + 1)
        ops = dicke.build_collective_ops(n)
        amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        state = DickeState(n, amps / np.linalg.norm(amps))
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
            got = dicke.evolve_unitary(state, generator, angle).amplitudes
            want = scipy.linalg.expm(-1j * angle * dense) @ state.amplitudes
            assert np.abs(got - want).max() <= 1e-10, f"n={n}"


def test_twist_then_rotate_at_2000_atoms():
    # rotating about x leaves <Jx> of the twisted x-CSS at J cos^(N-1)(alpha)
    # and keeps <Jy> = <Jz> = 0 by the state's symmetry
    values = dicke.schedule_expectations(2000, [PulseStep("jz2", 0.01), PulseStep("jx", 0.3)])
    assert values["jx"] == pytest.approx(1000 * np.cos(0.01) ** 1999, rel=1e-9)
    assert abs(values["jy"]) < 1e-9
    assert abs(values["jz"]) < 1e-9


def test_tridiagonal_operator_validation():
    with pytest.raises(DimensionMismatchError):
        TridiagonalOperator(np.zeros(3), np.zeros(3))
    with pytest.raises(NonHermitianError):
        TridiagonalOperator(np.array([1.0, 1j]), np.zeros(1))
    state = dicke.x_css(2)
    with pytest.raises(DimensionMismatchError):
        dicke.evolve_unitary(state, dicke.build_collective_ops(3).jx, 0.1)


def test_variance_nonnegative_on_eigenstate():
    state = dicke.css_state(6, 0.0, 0.0)
    ops = dicke.build_collective_ops(6)
    assert dicke.variance(state, ops.jz) == 0.0


def test_schedule_application_matches_manual_chain():
    schedule = [PulseStep("jz2", 0.05), PulseStep("jz", 0.2), PulseStep("jx", 0.4)]
    ops = dicke.build_collective_ops(5)
    manual = dicke.x_css(5)
    for step in schedule:
        manual = dicke.evolve_unitary(manual, ops.by_name(step.generator), step.angle)
    chained = dicke.apply_schedule(dicke.x_css(5), ops, schedule)
    assert np.allclose(chained.amplitudes, manual.amplitudes, atol=1e-14)


def test_dicke_matches_full_space_oracle_on_random_schedules():
    rng = np.random.default_rng(2024)
    generators = ("jz2", "jz", "jx")
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(1, 5))
        schedule = [
            PulseStep(generators[rng.integers(0, 3)], float(rng.uniform(-2, 2)))
            for _ in range(rng.integers(1, 6))
        ]
        symmetric = dicke.schedule_expectations(n, schedule)
        full = dicke.full_space_oracle(n, schedule)
        for key in symmetric:
            worst = max(worst, abs(symmetric[key] - full[key]))
    assert worst < 1e-10, f"worst deviation {worst}"


def test_full_space_oracle_rejects_large_systems():
    with pytest.raises(ConfigError):
        dicke.full_space_oracle(5, [PulseStep("jx", 0.1)])
