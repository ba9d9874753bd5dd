import math

import numpy as np
import pytest
import scipy.linalg

from spinlock import dicke, squeezing
from spinlock.errors import ConfigError

from blocks import (
    align_global_phase,
    block_bch_error,
    dense,
    effective_unitary,
    scatter_levels,
    spin_matrices,
    stokes,
    u4_sequence,
)


def test_stokes_commutators_and_spectrum():
    for n_photons in (1, 2, 7, 20):
        sx, sy, sz = (dense(op) for op in stokes(n_photons))
        assert np.abs(sx @ sy - sy @ sx - 1j * sz).max() < 1e-12
        assert np.abs(sy @ sz - sz @ sy - 1j * sx).max() < 1e-12
        assert np.abs(sz @ sx - sx @ sz - 1j * sy).max() < 1e-12
        assert np.linalg.eigvalsh(sx).max() == pytest.approx(n_photons / 2, abs=1e-10)


def test_squeeze_params_invariant():
    params = squeezing.SqueezeParams.from_g_tau(g=1e6, tau=1e-10, n_photons=50)
    assert params.chi == pytest.approx(625.0, rel=1e-12)
    assert params.g_tau == pytest.approx(1e-4, rel=1e-12)


def test_squeeze_params_reject_non_finite_inputs():
    for g, tau in ((math.nan, 1e-3), (1.0, math.nan), (math.inf, 1e-3), (1.0, -math.inf)):
        with pytest.raises(ConfigError):
            squeezing.SqueezeParams.from_g_tau(g, tau, 10)
    with pytest.raises(ConfigError):
        squeezing.SqueezeParams(g=1.0, tau=1e-3, chi=math.nan)
    # a finite g whose chi = N_s g^2 tau / 8 overflows
    with pytest.raises(ConfigError):
        squeezing.SqueezeParams.from_g_tau(1e200, 1.0, 10)


def test_bch_error_rejects_nan_tau():
    with pytest.raises(ConfigError):
        squeezing.bch_error(squeezing.SqueezeParams.from_g_tau(1.0, math.nan, 10), 10, 20)


def test_four_pulse_train_is_unitary():
    params = squeezing.SqueezeParams.from_g_tau(1.0, 1e-2, 4)
    u4 = scatter_levels(u4_sequence(params, 4, 3))
    eye = np.eye(u4.shape[0])
    assert np.abs(u4.conj().T @ u4 - eye).max() < 1e-12


def test_zero_coupling_reduces_to_global_phase():
    # four pi/2 rotations make a 2pi rotation: (-1)^{N_s} times identity
    for n_photons in (2, 3):
        params = squeezing.SqueezeParams.from_g_tau(1.0, 0.0, n_photons)
        u4 = scatter_levels(u4_sequence(params, n_photons, 2))
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


def test_reduction_error_cubic_coefficient():
    # at (N_s, N) = (2, 2) the error is (g tau)^3 / sqrt(2) plus O((g tau)^5);
    # the (10, 20) value is a 40-digit mpmath reference with the same phase rule
    for g_tau in (1e-3, 2e-3):
        params = squeezing.SqueezeParams.from_g_tau(1.0, g_tau, 2)
        err = squeezing.bch_error(params, 2, 2)
        assert err / g_tau**3 == pytest.approx(1 / np.sqrt(2), rel=1e-5), g_tau
    params = squeezing.SqueezeParams.from_g_tau(1.0, 1e-3, 10)
    assert squeezing.bch_error(params, 10, 20) == pytest.approx(3.5354848e-6, rel=2e-8, abs=0)


def test_effective_map_is_twisting_on_max_sx_photons():
    # on the all-x-polarized photon state the four-pulse train acts on the
    # atoms as one-axis twisting with total phase (g tau)^2 N_s / 2, up to
    # the cubic remainder
    n_photons = n_atoms = 4
    _, _, jz = spin_matrices(n_atoms + 1)
    atom = dicke.css_state(n_atoms, np.pi / 2, 0.0)
    photon = np.eye(n_photons + 1)[0]  # the maximum-Sx, all x-polarized state
    psi0 = np.kron(photon, atom)
    diffs = {}
    for g_tau in (5e-3, 1e-2):
        params = squeezing.SqueezeParams.from_g_tau(1.0, g_tau, n_photons)
        out = scatter_levels(u4_sequence(params, n_photons, n_atoms)) @ psi0
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


def test_unitaries_match_dense_expm():
    # reference: scipy's expm of the dense kron generators, independent of
    # the per-level block construction and the Chebyshev expansion
    for n_photons, n_atoms in ((1, 1), (2, 3), (4, 4), (10, 20)):
        _, sz, sx = spin_matrices(n_photons + 1)  # Sy, Sz, Sx = jx, jy, jz
        _, _, jz = spin_matrices(n_atoms + 1)
        eye_atom = np.eye(n_atoms + 1)
        rot = scipy.linalg.expm(-1j * (np.pi / 2) * np.kron(sx, eye_atom))
        for g_tau in (0.0, 1e-3, 1e-2):
            params = squeezing.SqueezeParams.from_g_tau(1.0, g_tau, n_photons)
            free = scipy.linalg.expm(-1j * g_tau * np.kron(sz, jz))
            want = np.linalg.matrix_power(rot @ free, 4)
            got = scatter_levels(u4_sequence(params, n_photons, n_atoms))
            assert np.abs(got - want).max() <= 1e-12, (n_photons, n_atoms, g_tau)
            want = scipy.linalg.expm(-1j * g_tau**2 * np.kron(sx, jz @ jz))
            got = scatter_levels(effective_unitary(params, n_photons, n_atoms))
            assert np.abs(got - want).max() <= 1e-13, (n_photons, n_atoms, g_tau)


def test_level_blocks_match_per_level_expm():
    # at joint dimension 2601, each block against (R_S F_m)^4 from dense expm,
    # and the error against the largest reference block norm
    n_photons = n_atoms = 50
    g_tau = 1e-2
    params = squeezing.SqueezeParams.from_g_tau(1.0, g_tau, n_photons)
    blocks = u4_sequence(params, n_photons, n_atoms)
    assert blocks.shape == (n_atoms + 1, n_photons + 1, n_photons + 1)
    _, sz, sx = spin_matrices(n_photons + 1)
    _, _, jz = spin_matrices(n_atoms + 1)
    rot = scipy.linalg.expm(-1j * (np.pi / 2) * sx)
    refs, twists = [], []
    for m, block in zip(np.diag(jz).real, blocks):
        want = np.linalg.matrix_power(rot @ scipy.linalg.expm(-1j * g_tau * m * sz), 4)
        assert np.abs(block - want).max() <= 1e-12, m
        refs.append(want)
        twists.append(scipy.linalg.expm(-1j * g_tau**2 * m**2 * sx))
    overlap = sum(np.vdot(u, t) for u, t in zip(refs, twists))
    phase = overlap / abs(overlap)
    want_err = max(np.linalg.norm(u * phase - t, 2) for u, t in zip(refs, twists))
    assert squeezing.bch_error(params, n_photons, n_atoms) == pytest.approx(want_err, rel=1e-10)


def test_global_phase_alignment():
    rng = np.random.default_rng(3)
    ref = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rotated = ref * np.exp(1j * 0.8)
    aligned = align_global_phase(rotated, ref)
    assert np.abs(aligned - ref).max() < 1e-12


BCH_SHAPES = ((1, 1), (2, 2), (2, 3), (4, 4), (7, 13), (10, 20), (50, 4), (50, 50))
BCH_G_TAU = (0.0, 1e-3, 2e-3, 5e-3, 1e-2, 3e-2, 0.1, 0.3, 0.7)


def test_su2_bch_error_matches_block_reference():
    # the 2x2 SU(2) images against the (N_s+1)^2 blocks of every level; the
    # two differ by rounding, ~1e-16 absolute, which is up to 1e-6 of the
    # smallest errors (4e-11 at (1, 1), g tau = 1e-3)
    cases = [(ns, n, g) for ns, n in BCH_SHAPES for g in BCH_G_TAU]
    # the cap corner, where the block reference takes 0.5-1 s per point here
    # and up to 18 s at g tau = 0.7
    cases += [(200, 48, g) for g in (0.0, 1e-3, 1e-2)]
    for n_photons, n_atoms, g_tau in cases:
        params = squeezing.SqueezeParams.from_g_tau(1.0, g_tau, n_photons)
        want = block_bch_error(params, n_photons, n_atoms)
        got = squeezing.bch_error(params, n_photons, n_atoms)
        assert abs(got - want) <= 1e-12 * want + 1e-13, (n_photons, n_atoms, g_tau, got, want)


def test_su2_bch_error_signs_and_folds():
    # odd N_s: the four pi/2 pulses are a 2 pi rotation, -1 in SU(2), so at
    # small g tau every level folds from omega ~ 2 pi, its spin-N_s/2 image
    # carries (-1)^{N_s} and the alignment sign is -1.  At large g tau some
    # levels fold and some do not, so some are compared with the opposite
    # sign (|e^{-ik omega} + 1|, the cosine twin): at (1, 20), (7, 13) and
    # (5, 7), and with an alignment sign of +1 at (3, 40)
    for n_photons, n_atoms, g_tau, mixed in (
        (1, 1, 1e-3, False),
        (7, 13, 1e-2, False),
        (1, 20, 0.7, True),
        (7, 13, 0.7, True),
        (5, 7, 1.3, True),
        (3, 40, 0.7, True),
    ):
        params = squeezing.SqueezeParams.from_g_tau(1.0, g_tau, n_photons)
        omega, fold = squeezing._rotation_angles(params, n_atoms)
        assert np.all((0 <= omega) & (omega <= np.pi))
        assert np.any(fold > 0) == mixed and np.any(fold < 0)
        want = block_bch_error(params, n_photons, n_atoms)
        got = squeezing.bch_error(params, n_photons, n_atoms)
        assert abs(got - want) <= 1e-12 * want + 1e-13, (n_photons, n_atoms, g_tau, got, want)


def test_su2_bch_error_leading_term_up_to_the_atom_limit():
    # to leading order each level's SU(2) error rotates by sqrt(2) (g tau m)^3,
    # so the error is j (g tau N/2)^3 / sqrt(2) (1 - 5 (g tau N/2)^2 / 36 + ...)
    # for j = N_s/2; checked where no block could be built
    for n_photons, n_atoms in ((1, 1), (2, 2), (7, 13), (50, 50), (200, 48), (200, 10_000), (3, 9_999)):
        x = 1e-3
        params = squeezing.SqueezeParams.from_g_tau(1.0, x / (n_atoms / 2), n_photons)
        lead = n_photons / 2 * x**3 / math.sqrt(2)
        got = squeezing.bch_error(params, n_photons, n_atoms)
        assert got / lead == pytest.approx(1 - 5 * x**2 / 36, rel=1e-9), (n_photons, n_atoms)


def test_bch_error_validates_its_sizes():
    params = squeezing.SqueezeParams.from_g_tau(1.0, 1e-3, 4)
    for n_photons in (0, 201, 2.0, True):
        with pytest.raises(ConfigError):
            squeezing.bch_error(params, n_photons, 4)
    for n_atoms in (0, 10_001, 4.0):
        with pytest.raises(ConfigError):
            squeezing.bch_error(params, 4, n_atoms)
