import numpy as np
import pytest
import scipy.linalg

from spinlock import dicke, squeezing
from spinlock.errors import ConfigError


def test_stokes_commutators_and_spectrum():
    for n_photons in (1, 2, 7, 20):
        st = squeezing.build_stokes_ops(n_photons)
        sx, sy, sz = st.sx.entries, st.sy.entries, st.sz.entries
        assert np.abs(sx @ sy - sy @ sx - 1j * sz).max() < 1e-12
        assert np.abs(sy @ sz - sz @ sy - 1j * sx).max() < 1e-12
        assert np.abs(sz @ sx - sx @ sz - 1j * sy).max() < 1e-12
        assert np.linalg.eigvalsh(sx).max() == pytest.approx(n_photons / 2, abs=1e-10)


def test_stokes_bounds():
    with pytest.raises(ConfigError):
        squeezing.build_stokes_ops(0)
    with pytest.raises(ConfigError):
        squeezing.build_stokes_ops(201)


def test_max_sx_state_is_sx_eigenvector():
    st = squeezing.build_stokes_ops(6)
    vec = squeezing.max_sx_state(6)
    assert np.allclose(st.sx.entries @ vec, 3.0 * vec, atol=1e-14)


def test_squeeze_params_invariant():
    params = squeezing.SqueezeParams.from_g_tau(g=1e6, tau=1e-10, n_photons=50)
    assert params.chi == pytest.approx(625.0, rel=1e-12)
    assert params.g_tau == pytest.approx(1e-4, rel=1e-12)
    params.validate_chi(50)
    with pytest.raises(ConfigError):
        squeezing.SqueezeParams(g=1e6, tau=1e-10, chi=999.0).validate_chi(50)


def test_joint_dimension_cap():
    params = squeezing.SqueezeParams.from_g_tau(1.0, 1e-3, 150)
    with pytest.raises(ConfigError):
        squeezing.u4_sequence(params, 150, 99)


def test_four_pulse_train_is_unitary():
    params = squeezing.SqueezeParams.from_g_tau(1.0, 1e-2, 4)
    u4 = squeezing.u4_sequence(params, 4, 3)
    eye = np.eye(u4.shape[0])
    assert np.abs(u4.conj().T @ u4 - eye).max() < 1e-12


def test_zero_coupling_reduces_to_global_phase():
    # four pi/2 rotations make a 2pi rotation: (-1)^{N_s} times identity
    for n_photons in (2, 3):
        params = squeezing.SqueezeParams.from_g_tau(1.0, 0.0, n_photons)
        u4 = squeezing.u4_sequence(params, n_photons, 2)
        expected = (-1.0) ** n_photons * np.eye(u4.shape[0])
        assert np.abs(u4 - expected).max() < 1e-12
        assert squeezing.bch_error(params, n_photons, 2) < 1e-12


def test_reduction_error_scales_cubically():
    # (10, 20) is joint dimension 231, the largest case the benchmark runs
    for n_photons, n_atoms in ((4, 4), (10, 20)):
        errors = {}
        for g_tau in (1e-3, 2e-3, 5e-3, 1e-2):
            params = squeezing.SqueezeParams.from_g_tau(1.0, g_tau, n_photons)
            errors[g_tau] = squeezing.bch_error(params, n_photons, n_atoms)
        slope = np.polyfit(
            np.log(list(errors.keys())), np.log(list(errors.values())), 1
        )[0]
        assert slope == pytest.approx(3.0, abs=0.3)
        # halving g*tau divides the error by 8, within 25%
        ratio = errors[1e-2] / errors[5e-3]
        assert ratio == pytest.approx(8.0, rel=0.25)


def test_reduction_error_frozen_value():
    # independently probed with scipy/numpy linear algebra at build time
    params = squeezing.SqueezeParams.from_g_tau(1.0, 1e-2, 2)
    err = squeezing.bch_error(params, 2, 2)
    assert err < 1e-4
    assert err == pytest.approx(7.070969607087328e-07, rel=1e-6)


def test_effective_map_is_twisting_on_max_sx_photons():
    # on the all-x-polarized photon state the four-pulse train acts on the
    # atoms as one-axis twisting with total phase (g tau)^2 N_s / 2, up to
    # the cubic remainder
    n_photons = n_atoms = 4
    _, _, jz = dicke.spin_matrices(n_atoms + 1)
    atom = dicke.css_state(n_atoms, np.pi / 2, 0.0).amplitudes
    photon = squeezing.max_sx_state(n_photons)
    psi0 = np.kron(photon, atom)
    diffs = {}
    for g_tau in (5e-3, 1e-2):
        params = squeezing.SqueezeParams.from_g_tau(1.0, g_tau, n_photons)
        out = squeezing.u4_sequence(params, n_photons, n_atoms) @ psi0
        twist = g_tau**2 * n_photons / 2
        target = np.kron(
            photon, np.exp(-1j * twist * np.diag(jz).real ** 2) * atom
        )
        overlap = np.vdot(target, out)
        aligned = out * (abs(overlap) / overlap)
        diffs[g_tau] = np.linalg.norm(aligned - target)
    assert diffs[1e-2] < 1e-4
    assert diffs[1e-2] / diffs[5e-3] == pytest.approx(8.0, rel=0.3)


def test_twist_phase_matches_chi_times_cycle_duration():
    # chi = N_s g^2 tau / 8 over the cycle length 4 tau gives (g tau)^2 N_s/2
    params = squeezing.SqueezeParams.from_g_tau(2.0, 3e-3, 10)
    cycle = 4 * params.tau
    assert params.chi * cycle == pytest.approx(params.g_tau**2 * 10 / 2, rel=1e-12)


def test_effective_unitary_is_diagonal_twisting():
    params = squeezing.SqueezeParams.from_g_tau(1.0, 1e-2, 3)
    ueff = squeezing.effective_unitary(params, 3, 2)
    off_diag = ueff - np.diag(np.diag(ueff))
    assert np.abs(off_diag).max() == 0.0
    assert np.abs(np.abs(np.diag(ueff)) - 1.0).max() < 1e-12


def test_unitaries_match_dense_expm():
    # reference: scipy's expm of the dense kron generators, independent of
    # the per-level block construction and the tridiagonal eigensolver
    for n_photons, n_atoms in ((1, 1), (2, 3), (4, 4), (10, 20)):
        _, sz, sx = dicke.spin_matrices(n_photons + 1)  # Sy, Sz, Sx = jx, jy, jz
        _, _, jz = dicke.spin_matrices(n_atoms + 1)
        eye_atom = np.eye(n_atoms + 1)
        rot = scipy.linalg.expm(-1j * (np.pi / 2) * np.kron(sx, eye_atom))
        for g_tau in (0.0, 1e-3, 1e-2):
            params = squeezing.SqueezeParams.from_g_tau(1.0, g_tau, n_photons)
            free = scipy.linalg.expm(-1j * g_tau * np.kron(sz, jz))
            want = np.linalg.matrix_power(rot @ free, 4)
            got = squeezing.u4_sequence(params, n_photons, n_atoms)
            assert np.abs(got - want).max() <= 1e-12, (n_photons, n_atoms, g_tau)
            want = scipy.linalg.expm(-1j * g_tau**2 * np.kron(sx, jz @ jz))
            got = squeezing.effective_unitary(params, n_photons, n_atoms)
            assert np.abs(got - want).max() <= 1e-13, (n_photons, n_atoms, g_tau)


def test_global_phase_alignment():
    rng = np.random.default_rng(3)
    ref = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rotated = ref * np.exp(1j * 0.8)
    aligned = squeezing.align_global_phase(rotated, ref)
    assert np.abs(aligned - ref).max() < 1e-12
