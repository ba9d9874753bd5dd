import dataclasses
import functools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spinlock import kernels, montecarlo as mc
from spinlock.analytic import min_detectable_phase
from spinlock.config import load_config
from spinlock.dicke import PhaseTriple
from spinlock.errors import ConfigError, EmptyRangeError, NumericsError
from spinlock.lockin import LockInSchedule
from spinlock.montecarlo import CurvePoint, McConfig
from spinlock.noise import NoiseComponent


def test_mcconfig_validation():
    good = dict(
        samples=10, master_seed=1, n_atoms=2, chi=1.0, squeeze_duration=0.0
    )
    McConfig(**good)
    McConfig(**{**good, "samples": np.int64(10), "master_seed": 2**64 - 1})
    for key, bad in (
        ("samples", 0),
        ("samples", True),
        ("samples", 10.0),
        ("master_seed", -1),
        ("master_seed", 2**64),
        ("master_seed", False),
        ("n_atoms", 0),
        ("n_atoms", True),
        ("chi", -1.0),
        ("squeeze_duration", math.nan),
    ):
        with pytest.raises(ConfigError):
            McConfig(**{**good, key: bad})


def test_alpha_is_chi_times_duration():
    cfg = McConfig(
        samples=1, master_seed=0, n_atoms=5, chi=625.0, squeeze_duration=1.6e-5,
    )
    assert cfg.alpha == pytest.approx(0.01, rel=1e-12)


def test_curvepoint_rejects_negative_stderr():
    with pytest.raises(ConfigError):
        CurvePoint(1.0, 0.5, -1e-3)


def _reads(master_seed, point_index, *counts, n_tones):
    """Consecutive _draw reads of one point's stream, one array per count."""
    bitgen = mc._stream(master_seed, point_index)
    return [mc._draw(bitgen, np.empty((count, n_tones))) for count in counts]


def test_sampling_is_chunk_stable():
    # the property _point_values relies on: a stream read block by block
    # gives the draws of one read
    (full,) = _reads(12345, 3, 100, n_tones=5)
    split = np.vstack(_reads(12345, 3, 17, 33, 50, n_tones=5))
    assert np.array_equal(full, split)


def test_sampling_range_and_independence():
    # the draws are half phases theta/2
    (draws,) = _reads(1, 0, 2000, n_tones=3)
    assert draws.min() >= 0.0
    assert draws.max() < math.pi
    (other_point,) = _reads(1, 1, 2000, n_tones=3)
    assert not np.array_equal(draws, other_point)
    (other_seed,) = _reads(2, 0, 2000, n_tones=3)
    assert not np.array_equal(draws, other_seed)
    # chunk-stable at the widest shipped tone count too
    _, wide = _reads(1, 0, 2, 4, n_tones=9)
    (bulk,) = _reads(1, 0, 6, n_tones=9)
    assert np.array_equal(wide, bulk[2:])


def test_sampling_with_zero_tones():
    (draws,) = _reads(1, 0, 10, n_tones=0)
    assert draws.shape == (10, 0)


def test_sampling_matches_pcg64_uniforms_bit_for_bit():
    # the documented draw: sample j takes uniforms jQ ... jQ+Q-1 of the
    # point's PCG64 stream, in order, times pi
    for n_tones, start in ((0, 0), (1, 0), (3, 5), (4, 0), (5, 2), (9, 11)):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((99, 4))))
        gen.random(start * n_tones)
        expected = gen.random(257 * n_tones).reshape(257, n_tones) * math.pi
        _, draws = _reads(99, 4, start, 257, n_tones=n_tones)
        assert draws.dtype == np.float64 and draws.shape == expected.shape
        assert draws.tobytes() == expected.tobytes()


def two_term_contrast(theta, a, b, beta0, cos_fac, sin_fac, inv_n, sin_gamma, eq23):
    """Reference: the kernel contract spelled out term by term."""
    beta = beta0 + np.sin(theta) @ a + np.cos(theta) @ b
    if not eq23:
        return (cos_fac * np.cos(beta) - sin_fac * np.sin(beta)) / cos_fac
    projection = sin_gamma * (cos_fac * np.sin(beta) + sin_fac * np.cos(beta))
    radicand = np.maximum(inv_n - projection * projection, 0.0)
    denominator = cos_fac * np.cos(beta) - sin_fac * np.sin(beta)
    return np.cos(np.sqrt(radicand) / denominator)


def assert_kernel_matches_reference(theta, a, b, beta0, *fringe, tol=1e-12):
    """tone_sum of the half phases then readout, composed through out= and
    scratch= as the pipeline runs them, against the two-term reference;
    returns the values.

    The kernel drops the tone phases phi_k = atan2(b_k, a_k): at phases
    theta it gives the two-term values at theta - phi, since
    a_k sin(theta - phi_k) + b_k cos(theta - phi_k) = r_k sin(theta).
    """
    weights = 2.0 * np.hypot(a, b)
    half_theta = theta / 2
    values = kernels.readout(kernels.tone_sum(half_theta.copy(), weights), beta0, *fringe)
    out = np.full(theta.shape[0], np.nan)
    consumed = half_theta.copy()
    scratch = np.full(theta.shape, np.nan)
    assert kernels.tone_sum(consumed, weights, out=out, scratch=scratch) is out
    assert kernels.readout(
        out, beta0, *fringe, out=out, scratch=np.full((2, *out.shape), np.nan)
    ) is out
    assert np.array_equal(out, values)
    assert values.shape == (theta.shape[0],)
    shifted = theta - np.arctan2(b, a)
    assert np.abs(values - two_term_contrast(shifted, a, b, beta0, *fringe)).max() <= tol
    return values


def test_kernel_matches_two_term_formula_on_ramsey():
    rng = np.random.default_rng(3)
    theta = rng.uniform(0, 2 * math.pi, (4000, 3))
    a = rng.normal(size=3)
    b = rng.normal(size=3)
    for cos_fac, sin_fac in ((0.99, 1e-5), (0.99, 0.3), (-0.7, 0.2), (-0.7, -0.0)):
        assert_kernel_matches_reference(
            theta, a, b, 0.3, cos_fac, sin_fac, 0.02, 8.6e-16, False
        )


def assert_eq23_matches_reference(cos_fac, sin_fac, sin_gamma):
    # eq23 divides by the fringe slope; near slope zero the cosine argument
    # explodes and last-bit trig differences are amplified, so agreement is
    # asserted on a phase range that keeps the slope away from zero
    rng = np.random.default_rng(4)
    theta = rng.uniform(0, 2 * math.pi, (4000, 3))
    a = 0.05 * rng.normal(size=3)
    b = 0.05 * rng.normal(size=3)
    assert_kernel_matches_reference(theta, a, b, 0.1, cos_fac, sin_fac, 0.02, sin_gamma, True)


EQ23_DRIVES = ((0.99, 1e-5, 8.6e-16), (-0.7, 0.2, 0.9))  # the pi train, and sin_gamma ~ 1


def test_kernel_matches_two_term_formula_on_eq23_away_from_nodes():
    for cos_fac, sin_fac, sin_gamma in EQ23_DRIVES:
        assert_eq23_matches_reference(cos_fac, sin_fac, sin_gamma)


def six_pass_radicand(phase, amplitude, inv_n, sin_gamma):
    """The eq23 radicand as the readout's general branch forms it."""
    projection = kernels._sin(phase) * (sin_gamma * amplitude)
    return np.sqrt(np.maximum(inv_n - np.square(projection), 0.0))


def test_skipped_radicand_is_the_six_passes_bit_for_bit():
    # the pi-pulse trains n = 1 ... 1000 leave sin(n pi) of 1e-16 to 3e-13,
    # and the readout takes sqrt(inv_n) for the radicand instead of six
    # passes; at every fringe amplitude the phases include some where
    # |_sin| reaches 1, so the projection takes its largest value
    rng = np.random.default_rng(41)
    spread = np.concatenate([
        _trig_arguments()[:42],  # pi/2, pi and their neighbours, both signs
        rng.uniform(-math.pi, 3 * math.pi, 500),
    ])
    for n_atoms in (1, 2, 50, 10_000):
        inv_n = 1.0 / n_atoms
        for cos_fac, sin_fac in ((1.0, 0.0), (0.99, 1e-5), (-0.7, 0.2), (0.6, 0.8), (1e-3, -2e-3)):
            amplitude, psi = math.hypot(cos_fac, sin_fac), math.atan2(sin_fac, cos_fac)
            peaks = np.multiply.outer((math.pi / 2, -math.pi / 2), np.ones(100)) - psi
            tones = np.concatenate([spread, (peaks + rng.uniform(-1e-9, 1e-9, peaks.shape)).ravel()])
            phase = tones + psi
            assert np.count_nonzero(np.abs(kernels._sin(phase)) == 1.0) >= 20
            for n_pulses in range(1, 1001):
                sin_gamma = math.sin(n_pulses * math.pi)
                reach = sin_gamma * amplitude
                assert inv_n - 4.0 * (reach * reach) == inv_n  # the fast path's test
                radicand = six_pass_radicand(phase, amplitude, inv_n, sin_gamma)
                assert (radicand == math.sqrt(inv_n)).all(), (n_atoms, n_pulses)
                general = kernels._cos(radicand / (np.cos(phase) * amplitude))
                fast = kernels.readout(tones, 0.0, cos_fac, sin_fac, inv_n, sin_gamma, True)
                assert fast.tobytes() == general.tobytes(), (n_atoms, n_pulses)


def _always_skipping_readout():
    """kernels.readout with the radicand test replaced by True."""
    import inspect
    import textwrap

    source = textwrap.dedent(inspect.getsource(kernels.readout))
    test = "if inv_n - 4.0 * (reach * reach) == inv_n:"
    assert source.count(test) == 1
    namespace = dict(vars(kernels))
    exec("from __future__ import annotations\n" + source.replace(test, "if True:"), namespace)
    return namespace["readout"]


def test_always_skipping_the_radicand_fails_the_general_drive(monkeypatch):
    # the mutant that takes sqrt(inv_n) at any drive: the pi train cannot
    # tell it apart, a drive with sin_gamma = 0.9 must
    monkeypatch.setattr(kernels, "readout", _always_skipping_readout())
    (pi_train, general) = EQ23_DRIVES
    assert_eq23_matches_reference(*pi_train)
    with pytest.raises(AssertionError):
        assert_eq23_matches_reference(*general)


def test_kernel_without_random_tones_or_amplitude():
    rng = np.random.default_rng(5)
    no_tones = np.empty((50, 0))
    silent = rng.uniform(0, 2 * math.pi, (50, 2))
    for theta, a, b in (
        (no_tones, np.empty(0), np.empty(0)),
        (silent, np.zeros(2), np.zeros(2)),
    ):
        for eq23 in (False, True):
            args = (theta, a, b, 0.4, -0.7, 0.2, 0.02, 0.9, eq23)
            values = assert_kernel_matches_reference(*args)
            assert np.all(values == values[0])


def test_half_phase_terms_are_full_phase_sines_bit_for_bit():
    # tone_sum halves the phase in the draw and doubles the weights instead
    # of the sine: both are exact power-of-two rescalings
    rng = np.random.default_rng(11)
    uniforms = rng.random((20_000, 9))
    a, b = rng.normal(size=(2, 9))
    phi, r = np.arctan2(b, a), np.hypot(a, b)
    full = kernels._sin(uniforms * (2 * math.pi) + phi) * r
    half = kernels._half_sin(uniforms * math.pi + 0.5 * phi) * (2.0 * r)
    assert half.tobytes() == full.tobytes()


@pytest.mark.parametrize("n_random", (1, 3, 8, 9, 12, 16))
def test_tone_sum_bits_do_not_depend_on_block_boundaries(n_random):
    # a point streams its samples through blocks, so a sample's tone sum must
    # not depend on where the block boundaries fall (np.matmul, whose BLAS
    # gemv groups rows, fails this at 3 tones and more)
    samples = 4097
    for seed in range(8):
        rng = np.random.default_rng(seed)
        half_theta = rng.uniform(0, math.pi, (samples, n_random))
        weights = 2.0 * np.hypot(*rng.normal(size=(2, n_random)))
        # tone_sum consumes its half phases, so every call gets a copy
        want = kernels.tone_sum(half_theta.copy(), weights)
        for split in (1, 7, 1001, 4095, 4096):
            blocks = [
                kernels.tone_sum(half_theta[lo : lo + split].copy(), weights)
                for lo in range(0, samples, split)
            ]
            assert np.concatenate(blocks).tobytes() == want.tobytes(), (seed, split)


@pytest.mark.parametrize("eq23", (False, True))
@pytest.mark.parametrize("samples, n_random", ((2000, 3), (4096, 9), (700, 1)))
def test_hot_loop_allocates_nothing_with_caller_buffers(eq23, samples, n_random):
    # the hot loop's steady state on one point's block: tone_sum takes its
    # tangents in the draws and t^2 in the scratch, readout its temporaries
    # in the scratch, and the reduction works in the values
    rng = np.random.default_rng(21)
    draws = rng.uniform(0, math.pi, (samples, n_random))
    weights = 2.0 * np.hypot(*rng.normal(size=(2, n_random)))
    beta0 = float(rng.normal())
    fringe = (-0.7, 0.2, 0.02, 0.9, eq23)
    sums = np.empty(samples)
    scratch = np.empty(max(n_random, 2) * samples)
    tone_scratch = scratch[: draws.size].reshape(draws.shape)
    readout_scratch = scratch[: 2 * sums.size].reshape(2, *sums.shape)
    block = draws.nbytes

    def peak(run):
        half_theta = draws.copy()
        run(half_theta)  # first-call set-up
        half_theta = draws.copy()
        tracemalloc.start()
        try:
            run(half_theta)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def with_buffers(half_theta):
        kernels.tone_sum(half_theta, weights, out=sums, scratch=tone_scratch)
        kernels.readout(sums, beta0, *fringe, out=sums, scratch=readout_scratch)
        mc._reduce(sums)

    def without(half_theta):
        kernels.readout(kernels.tone_sum(half_theta, weights), beta0, *fringe)

    assert peak(with_buffers) <= 4096
    # the same calls without the buffers allocate what the buffers hold, so
    # the trace sees numpy's arrays
    assert peak(without) >= min(block, sums.nbytes)


HALF_ANGLE_TRIG = ((kernels._sin, np.sin), (kernels._cos, np.cos))


def _trig_arguments():
    rng = np.random.default_rng(8)
    edges = [0.0, -0.0, math.pi / 2, math.pi, 5 * math.pi / 4, 9 * math.pi / 4, 1e8]
    edges += [np.nextafter(x, math.inf) for x in edges] + [np.nextafter(x, 0) for x in edges]
    return np.concatenate([
        edges,
        np.negative(edges),
        rng.uniform(-math.pi, 3 * math.pi, 100_000),
        rng.uniform(-50, 50, 100_000),
        rng.uniform(1e3, 1e8, 100_000),
        -rng.uniform(1e3, 1e8, 100_000),
    ])


@pytest.mark.parametrize("half_angle, reference", HALF_ANGLE_TRIG)
def test_half_angle_trig_matches_numpy(half_angle, reference):
    x = _trig_arguments()
    before = x.copy()
    got = half_angle(x)
    assert np.array_equal(x, before)
    assert np.abs(got - reference(x)).max() <= 4.5e-16
    signed_zeros = half_angle(np.array([0.0, -0.0]))
    assert np.array_equal(np.signbit(signed_zeros), np.signbit(reference([0.0, -0.0])))


@pytest.mark.parametrize("half_angle", (kernels._half_sin, kernels._sin, kernels._cos))
def test_half_angle_trig_bits_do_not_depend_on_layout(half_angle):
    # a point streams its samples through blocks and a thread pool schedules
    # the points, so an element's value must not depend on where it sits in
    # an array: SIMD loops run a vector body and a scalar or masked tail
    x = _trig_arguments()[:8192]
    want = half_angle(x)
    for offset in range(17):
        for length in (*range(1, 34), 4097):
            part = x[offset : offset + length]
            assert np.array_equal(half_angle(part), want[offset : offset + length])
            out = np.full(length, np.nan)
            assert half_angle(part, out=out) is out
            assert np.array_equal(out, want[offset : offset + length])
            aliased = x.copy()[offset : offset + length]
            assert half_angle(aliased, out=aliased) is aliased
            assert np.array_equal(aliased, want[offset : offset + length])
    for stride in range(2, 8):
        assert np.array_equal(half_angle(x[::stride]), want[::stride])
        out = np.full(x.size, np.nan)[::stride]
        half_angle(x[::stride], out=out)
        assert np.array_equal(out, want[::stride])


def _tones(n_random, n_pinned=2):
    random = [NoiseComponent(3.0 + k, 37.0 + 13.0 * k) for k in range(n_random)]
    pinned = [NoiseComponent(2.0, 60.0 + 7.0 * k, phase=0.4 + k) for k in range(n_pinned)]
    return random + pinned


def _one_shot_values(components, schedule, cfg, integrand, point_index):
    """All of a point's phases drawn in one read, then one tone_sum and readout."""
    from spinlock import analytic
    from spinlock.lockin import phase_kernel_grid

    (a,), (b,) = phase_kernel_grid(components, schedule.n_pulses, [schedule.tau_arm], True)
    beta0, weights = mc._split_fixed(components, a, b)
    (theta,) = _reads(cfg.master_seed, point_index, cfg.samples, n_tones=weights.size)
    tones = kernels.tone_sum(theta, weights)
    return kernels.readout(
        tones,
        beta0,
        analytic.cos_factor(cfg.alpha, cfg.n_atoms),
        analytic.sin_factor(cfg.alpha, cfg.n_atoms),
        1.0 / cfg.n_atoms,
        math.sin(schedule.n_pulses * math.pi),
        integrand == "eq23",
        out=tones,
    )


def _streamed_values(components, schedule, cfg, integrand, point_index):
    """A point's per-sample values as a curve streams them, block by block."""
    from spinlock.lockin import phase_kernel_grid

    fringe = mc._fringe(cfg, integrand, schedule.n_pulses)
    a, b = phase_kernel_grid(components, schedule.n_pulses, [schedule.tau_arm], True)
    (beta0,), (weights,) = mc._split_fixed(components, a, b)
    work = mc._Workspace(cfg.samples, weights.size, 1)
    values = mc._point_values(
        cfg.master_seed, point_index, cfg.samples, float(beta0), weights, [fringe], work
    )
    return next(values)


def _readout_chunk(samples, n_random):
    return mc._Workspace(samples, n_random, 1).readout_scratch.shape[1]


@pytest.mark.parametrize("integrand", mc.INTEGRANDS)
@pytest.mark.parametrize("n_random", (0, 1, 3, 4, 5, 9))
def test_block_streaming_equals_one_shot_bit_for_bit(
    default_mc, monkeypatch, integrand, n_random
):
    # the draws and tone sums run in blocks of 4096; the readout runs over the
    # free draw and scratch region, in chunks of half its size (36,864
    # samples at 9 tones)
    block = mc._BLOCK_SAMPLES
    chunk = _readout_chunk(100_000, n_random)
    assert chunk == (n_random + max(n_random, 2)) * block // 2
    calls = []
    readout = kernels.readout

    def counted(tones, *args, **kwargs):
        calls.append(tones.size)
        return readout(tones, *args, **kwargs)

    components = _tones(n_random)
    sched = LockInSchedule(7, 5e-3)
    counts = {1, block - 1, block, block + 1, 2 * block + 17, chunk - 1, chunk + 1, 100_000}
    for samples in sorted(counts):
        cfg = dataclasses.replace(default_mc, samples=samples)
        want = _one_shot_values(components, sched, cfg, integrand, 3)
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "readout", counted)
            calls.clear()
            got = _streamed_values(components, sched, cfg, integrand, 3)
        assert got.tobytes() == want.tobytes(), samples
        # not vacuous: the readout ran in chunks of the region's half
        step = _readout_chunk(samples, n_random)
        assert calls == [min(step, samples - lo) for lo in range(0, samples, step)]
        point = mc.fringe_contrast_mc(
            components, sched, cfg, integrand=integrand, point_index=3
        )
        assert point.estimate == float(np.mean(want))
        if samples > 1 and np.ptp(want) != 0.0:
            stderr = float(np.std(want, ddof=1) / math.sqrt(samples))
        else:
            stderr = 0.0
        assert point.stderr == stderr
    if n_random == 9:
        assert len(calls) == 3  # per 100,000-sample point, against 25 blocks


@pytest.mark.parametrize("drive", ((8.6e-16, True), (0.9, True), (8.6e-16, False)))
@pytest.mark.parametrize("n_random", (0, 9))
def test_point_in_a_reused_workspace_allocates_nothing(drive, n_random):
    # a worker's steady state: the draws, tone sums, readout chunks and the
    # reduction of a whole 100,000-sample point all stay in the workspace
    samples = 100_000
    weights = 2.0 * np.hypot(*np.random.default_rng(9).normal(size=(2, n_random)))
    fringe = (-0.7, 0.2, 0.02, *drive)
    work = mc._Workspace(samples, n_random, 1)

    def point(index):
        for values in mc._point_values(7, index, samples, 0.3, weights, [fringe], work):
            mc._reduce(values)

    point(0)  # first-call set-up
    tracemalloc.start()
    try:
        point(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4096


@pytest.mark.parametrize("integrand", mc.INTEGRANDS)
def test_point_memory_is_values_plus_one_block(default_mc, integrand):
    samples = 200_000
    cfg = dataclasses.replace(default_mc, samples=samples)
    components = _tones(9, n_pinned=0)
    sched = LockInSchedule(7, 5e-3)
    mc.fringe_contrast_mc(components, sched, default_mc)  # first-call set-up
    tracemalloc.start()
    try:
        mc.fringe_contrast_mc(components, sched, cfg, integrand=integrand)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block: the (4096, 9) phases and the scratch of that size
    # (0.56 MiB), which also holds the readout's temporaries
    assert peak <= 8 * samples + 2**20


def test_no_noise_gives_unit_contrast(default_mc):
    point = mc.fringe_contrast_mc([], LockInSchedule(7, 5e-3), default_mc)
    assert point.estimate == 1.0
    assert point.stderr == 0.0
    assert point.x == pytest.approx(5.0, rel=1e-12)


def test_zero_amplitude_gives_unit_contrast(default_mc):
    comps = [NoiseComponent(0.0, 50.0)]
    point = mc.fringe_contrast_mc(comps, LockInSchedule(7, 5e-3), default_mc)
    assert point.estimate == 1.0
    assert point.stderr == 0.0


def test_repeat_run_is_bit_identical(three_tone_noise, default_mc):
    sched = LockInSchedule(7, 5e-3)
    first = mc.fringe_contrast_mc(three_tone_noise, sched, default_mc)
    second = mc.fringe_contrast_mc(three_tone_noise, sched, default_mc)
    assert first == second


def test_single_sample_has_zero_stderr(three_tone_noise, default_mc):
    from dataclasses import replace

    cfg = replace(default_mc, samples=1)
    point = mc.fringe_contrast_mc(three_tone_noise, LockInSchedule(7, 5e-3), cfg)
    assert point.stderr == 0.0


def test_pinned_phases_remove_sampling_noise(default_mc):
    from spinlock.lockin import phase_kernel_grid

    comps = [NoiseComponent(10.0, 50.0, phase=0.8), NoiseComponent(4.0, 110.0, phase=2.1)]
    sched = LockInSchedule(7, 5e-3)
    point = mc.fringe_contrast_mc(comps, sched, default_mc)
    assert point.stderr == 0.0
    from spinlock import analytic

    (a,), (b,) = phase_kernel_grid(comps, sched.n_pulses, [sched.tau_arm])
    beta = float(np.sin([0.8, 2.1]) @ a + np.cos([0.8, 2.1]) @ b)
    cos_fac = analytic.cos_factor(default_mc.alpha, default_mc.n_atoms)
    sin_fac = analytic.sin_factor(default_mc.alpha, default_mc.n_atoms)
    expected = (cos_fac * math.cos(beta) - sin_fac * math.sin(beta)) / cos_fac
    assert point.estimate == pytest.approx(expected, abs=1e-12)


def test_estimates_are_bounded(three_tone_noise, default_mc):
    for tau in (2e-3, 5e-3, 1e-2):
        for integrand in ("ramsey", "eq23"):
            point = mc.fringe_contrast_mc(
                three_tone_noise,
                LockInSchedule(7, tau),
                default_mc,
                integrand=integrand,
            )
            assert -1.0 - 1e-9 <= point.estimate <= 1.0 + 1e-9


def test_ramsey_rejects_twist_that_swamps_the_normalization(three_tone_noise, default_mc):
    # at N=50 these twists (alpha 1.25 and 1.5625) made cos^(N-1) so small
    # that the normalized fringe read -1.8e21 and -6.1e99
    sched = LockInSchedule(7, 5e-3)
    for duration in (2e-3, 2.5e-3):
        cfg = dataclasses.replace(default_mc, squeeze_duration=duration)
        with pytest.raises(NumericsError):
            mc.fringe_contrast_mc(three_tone_noise, sched, cfg)
    point = mc.fringe_contrast_mc(three_tone_noise, sched, default_mc)
    assert default_mc.alpha == pytest.approx(0.01)
    assert -1.0 <= point.estimate <= 1.0


def test_eq23_rejects_fringe_factors_that_underflow(three_tone_noise, default_mc):
    # at N = 5000 and alpha = pi/4 both cos^(N-1) and sin^(N-1) underflow to
    # 0, and the eq23 slope was 0/0: RuntimeWarnings, then a NaN stderr
    cfg = dataclasses.replace(default_mc, n_atoms=5000, chi=math.pi / 4, squeeze_duration=1.0)
    with pytest.raises(NumericsError, match=r"^N=5000, alpha=0\.7853981633974483: "):
        mc.contrast_curve(three_tone_noise, 7, [5e-3], cfg, integrand="eq23")
    with pytest.raises(NumericsError, match="N=5000"):
        mc.fringe_contrast_mc(three_tone_noise, LockInSchedule(7, 5e-3), cfg, integrand="eq23")
    # not vacuous: the same N under the shipped twist keeps its fringe
    shipped = dataclasses.replace(default_mc, n_atoms=5000)
    (point,) = mc.contrast_curve(three_tone_noise, 7, [5e-3], shipped, integrand="eq23")
    assert -1.0 <= point.estimate <= 1.0 and point.stderr > 0


def test_integrand_modes_differ(three_tone_noise, default_mc):
    sched = LockInSchedule(7, 5e-3)
    ramsey = mc.fringe_contrast_mc(three_tone_noise, sched, default_mc)
    eq23 = mc.fringe_contrast_mc(
        three_tone_noise, sched, default_mc, integrand="eq23"
    )
    assert ramsey.estimate != eq23.estimate
    with pytest.raises(ConfigError):
        mc.fringe_contrast_mc(
            three_tone_noise, sched, default_mc, integrand="exact"
        )


def test_toggle_off_changes_the_physics(three_tone_noise, default_mc):
    sched = LockInSchedule(7, 5e-3)
    on = mc.fringe_contrast_mc(three_tone_noise, sched, default_mc)
    off = mc.fringe_contrast_mc(three_tone_noise, sched, default_mc, toggle=False)
    assert on.estimate != off.estimate


def test_stderr_scales_inverse_sqrt_samples(three_tone_noise, default_mc):
    from dataclasses import replace

    sched = LockInSchedule(7, 5e-3)
    base = mc.fringe_contrast_mc(three_tone_noise, sched, default_mc)
    quad = mc.fringe_contrast_mc(
        three_tone_noise, sched, replace(default_mc, samples=4 * default_mc.samples)
    )
    assert base.stderr / quad.stderr == pytest.approx(2.0, rel=0.3)


def test_curve_single_point_equals_direct_call(three_tone_noise, default_mc):
    direct = mc.fringe_contrast_mc(
        three_tone_noise, LockInSchedule(7, 5e-3), default_mc, point_index=0
    )
    curve = mc.contrast_curve(three_tone_noise, 7, [5e-3], default_mc)
    assert curve == [direct]


def test_curve_is_thread_count_invariant(three_tone_noise, default_mc):
    grid = np.arange(2e-3, 1.2e-2, 1e-3)
    serial = mc.contrast_curve(three_tone_noise, 7, grid, default_mc, threads=1)
    threaded = mc.contrast_curve(three_tone_noise, 7, grid, default_mc, threads=8)
    assert serial == threaded


def test_measurement_range_full_span():
    curve = [CurvePoint(float(x), 1.0, 0.0) for x in (1, 2, 3, 4)]
    assert mc.measurement_range(curve, 0.9) == (1.0, 4.0)


def test_measurement_range_picks_widest_run():
    values = [1.0, 1.0, 0.5, 1.0]
    curve = [CurvePoint(float(x), v, 0.0) for x, v in zip((1, 2, 3, 4), values)]
    assert mc.measurement_range(curve, 0.9) == (1.0, 2.0)


def test_measurement_range_errors():
    curve = [CurvePoint(1.0, 0.2, 0.0)]
    with pytest.raises(EmptyRangeError):
        mc.measurement_range(curve, 0.9)
    with pytest.raises(ConfigError):
        mc.measurement_range(curve, 1.5)
    with pytest.raises(ConfigError):
        mc.measurement_range([], 0.9)


def test_noiseless_sensitivity_decreases_monotonically(default_mc):
    from dataclasses import replace

    cfg = replace(default_mc, squeeze_duration=0.0, samples=10)
    grid = np.linspace(0.02, 0.4, 12)
    curves = mc.sensitivity_curve([], [50], grid, 7, cfg)
    values = [p.estimate for p in curves[50]]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_sensitivity_stderr_propagation(three_tone_noise, default_mc):
    # T = 16 ms puts the 2 ms arm time on a live fringe (contrast near 1)
    grid = [0.016]
    curves = mc.sensitivity_curve(three_tone_noise, [50], grid, 7, default_mc)
    point = curves[50][0]
    contrast = mc.fringe_contrast_mc(
        three_tone_noise, LockInSchedule(7, 0.016 / 8), default_mc, point_index=0
    )
    assert contrast.estimate > 0
    assert point.stderr / point.estimate == pytest.approx(
        contrast.stderr / contrast.estimate, rel=1e-12
    )


def test_sensitivity_handles_dead_fringe(default_mc):
    # a pinned phase that lands the mean fringe amplitude at a negative
    # value means no usable fringe: sensitivity is infinite
    dead = [NoiseComponent(22.0, 100.0, phase=0.5)]
    sched_duration = 8 * 5e-3
    curves = mc.sensitivity_curve(dead, [50], [sched_duration], 7, default_mc)
    point = curves[50][0]
    assert point.estimate == math.inf


def test_sensitivity_atom_scaling(three_tone_noise, default_mc):
    grid = np.linspace(0.04, 0.24, 6)
    curves = mc.sensitivity_curve(
        three_tone_noise, [50, 300, 500], grid, 7, default_mc, threads=4
    )
    minima = [
        min(p.estimate for p in curves[n]) for n in (50, 300, 500)
    ]
    assert minima[0] > minima[1] > minima[2]


def _values(points):
    """(estimate, stderr) of each point: a one-point call reports its own x."""
    return [(p.estimate, p.stderr) for p in points]


def _sensitivity_alone(contrast, mc_n, tau_arm):
    """(estimate, stderr) of one 7-pulse point's sensitivity, worked out for
    that point alone, dphi(alpha, 0, 0) included, in sensitivity_point's
    arithmetic order."""
    dphi0 = min_detectable_phase(PhaseTriple(mc_n.alpha, 0.0, 0.0), mc_n.n_atoms)
    scale = dphi0 * math.sqrt(mc_n.squeeze_duration + 8 * tau_arm) / (2.0 * math.pi * (7 * tau_arm))
    if contrast.estimate <= 0.0:
        return (math.inf, math.inf)
    estimate = scale / contrast.estimate
    return (estimate, estimate * contrast.stderr / contrast.estimate)


BLOCK = mc._BLOCK_SAMPLES


@pytest.mark.parametrize("integrand", mc.INTEGRANDS)
@pytest.mark.parametrize("n_random", (0, 3, 9))
@pytest.mark.parametrize("samples", (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 17))
def test_curves_equal_their_points_bit_for_bit(default_mc, integrand, n_random, samples):
    # every curve row is its one-point fringe_contrast_mc call (or that
    # point's sensitivity) under ==, at sample counts on both sides of a
    # block boundary, on 1, 2 and 8 threads
    components = _tones(n_random)
    atoms = (50, 300, 7)
    tau_grid = [2e-3 + 1.3e-3 * i for i in range(7)]
    durations = [0.016 + 0.011 * i for i in range(7)]
    cfg = dataclasses.replace(default_mc, samples=samples)
    points = [
        mc.fringe_contrast_mc(
            components, LockInSchedule(7, tau), cfg, integrand=integrand, point_index=i
        )
        for i, tau in enumerate(tau_grid)
    ]
    want = {}
    for n in atoms:
        mc_n = dataclasses.replace(cfg, n_atoms=n)
        want[n] = [
            _sensitivity_alone(
                mc.fringe_contrast_mc(
                    components, LockInSchedule(7, t / 8), mc_n, integrand=integrand,
                    point_index=i,
                ),
                mc_n, t / 8,
            )
            for i, t in enumerate(durations)
        ]
    for threads in (1, 2, 8):
        curve = mc.contrast_curve(
            components, 7, tau_grid, cfg, integrand=integrand, threads=threads
        )
        assert _values(curve) == _values(points), threads
        curves = mc.sensitivity_curve(
            components, atoms, durations, 7, cfg, integrand=integrand, threads=threads
        )
        assert list(curves) == list(atoms)
        assert {n: _values(c) for n, c in curves.items()} == want, threads


def test_tone_phases_do_not_move_the_ramsey_law(default_mc):
    # the kernel drops phi_k = atan2(b_k, a_k): with theta_k uniform,
    # theta_k + phi_k is uniform too, so E[cos(beta0 + psi + sum_k r_k
    # sin(theta_k + phi_k))] = prod_k J0(r_k) cos(beta0 + psi) at any phi
    from scipy.special import j0

    samples = 20_000
    r = np.array([0.8, 1.3, 2.0])
    beta0 = 0.3
    components = [NoiseComponent(1.0, 10.0 + k) for k in range(r.size)]
    fringe = mc._fringe(default_mc, "ramsey", 7)
    cos_fac, sin_fac = fringe[:2]
    amplitude, psi = math.hypot(cos_fac, sin_fac), math.atan2(sin_fac, cos_fac)
    noiseless = amplitude * math.cos(beta0 + psi) / cos_fac
    want = float(np.prod(j0(r))) * noiseless
    for index, phi in enumerate(([0.0, 0.0, 0.0], [0.7, -2.0, 3.1], [1e3, -37.5, 1e6])):
        a, b = r * np.cos(phi), r * np.sin(phi)
        _, weights = mc._split_fixed(components, a, b)
        work = mc._Workspace(samples, r.size, 1)
        values = next(mc._point_values(5, index, samples, beta0, weights, [fringe], work))
        estimate, stderr = mc._reduce(values)
        assert abs(estimate - want) <= 4 * stderr, phi
        # not vacuous: the noise moves the mean by hundreds of stderrs
        assert abs(noiseless - want) >= 100 * stderr


def test_j0_matches_scipy():
    from scipy.special import j0

    x = np.concatenate([np.linspace(0.0, 60.0, 60_001), [1e-300, 4.84, 59.999]])
    far = np.concatenate([np.geomspace(mc._J0_FAR, 1e6, 100_001), np.linspace(0.0, 1e6, 100_001)])
    edge = np.nextafter(mc._J0_FAR, [0.0, np.inf])  # one ulp either side
    # both methods in one call; the midpoint rule alone, at its most nodes
    # and at the fewer a smaller top needs; the Hankel expansion to 1e6
    for part in (x, x[x < mc._J0_FAR], x[:5_000], far, edge):
        assert np.abs(mc._j0(part) - j0(part)).max() <= 1e-15
    assert mc._j0(np.empty((4, 0))).shape == (4, 0)
    # no overflow past 1e154, where x^2 is inf, and within the envelope
    huge = np.array([1e20, 1e200, 1e300])
    assert (np.abs(mc._j0(huge)) <= np.sqrt(2.0 / (np.pi * huge))).all()


def test_closed_form_memory_does_not_grow_with_the_noise(default_mc):
    # the midpoint rule takes as many nodes as its largest argument: one
    # (values, nodes) array would hold 40 MB for this 31-point curve with a
    # 3 uT mains tone, and the Hankel expansion past _J0_FAR holds none
    grid = [1e-3 + 8e-4 * i for i in range(31)]
    components = [
        NoiseComponent.from_field_pt(3e6, 50),
        NoiseComponent.from_field_pt(390, 100),
        NoiseComponent.from_slow_drift(40, 2.1),
    ]
    mc.contrast_curve(components, 7, grid[:2], default_mc, exact=True)  # first-call set-up
    tracemalloc.start()
    try:
        curve = mc.contrast_curve(components, 7, grid, default_mc, exact=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
    # not vacuous: the tone's Bessel arguments reach a thousand times the
    # threshold, where a midpoint rule would need tens of thousands of nodes
    from spinlock.lockin import phase_kernel_grid

    a, b = phase_kernel_grid(components, 7, grid, True)
    assert np.hypot(a, b).max() > 1000 * mc._J0_FAR
    assert all(-1.0 <= p.estimate <= 1.0 for p in curve)


SHIPPED = Path(__file__).resolve().parent.parent / "configs"


def _closed_form_args(case):
    """_evaluate's arguments, at seed 7, for a shipped ramsey config, for
    "pinned": 31 arm times under _tones(3), whose two pinned tones set an
    offset beta0 of up to a few tenths of a radian, where every shipped
    config has beta0 = 0, or for "far": 31 arm times across the 50 Hz
    lock-in resonance under one random 50 Hz tone, whose Bessel arguments
    (27.2 to 27.8) lie past _J0_FAR, below twice it, next to J0's zero at
    27.49, where the Hankel expansion's Q term carries the value.  Its
    800,000 samples a point resolve that term."""
    if case == "pinned":
        grid = [2e-3 + 1.3e-3 * i for i in range(31)]
        mcs = [McConfig(2000, 7, 50, 625.0, 1.6e-5)]
        return (_tones(3), 7, grid, mcs, "ramsey", True, 1)
    if case == "far":
        grid = [9.7e-3 + 2e-5 * i for i in range(31)]
        mcs = [McConfig(800_000, 7, 50, 625.0, 1.6e-5)]
        return ([NoiseComponent(87.0, 50.0)], 7, grid, mcs, "ramsey", True, 1)
    cfg = load_config(str(SHIPPED / case))
    if cfg.experiment == "contrast":
        tau_arms = [x * 1e-3 for x in cfg.tau_arm_grid_ms]
    else:
        tau_arms = [x * 1e-3 / (cfg.n_pulses + 1) for x in cfg.duration_grid_ms]
    mcs = [McConfig(cfg.samples, 7, n, cfg.chi, cfg.squeeze_duration) for n in cfg.n_atoms]
    return (cfg.components(), cfg.n_pulses, tau_arms, mcs, cfg.integrand, cfg.toggle, 1)


@functools.cache
def _sampled(case):
    """_evaluate of a case: the sampler reads no closed form, so one run
    serves every check of the case."""
    return mc._evaluate(*_closed_form_args(case))


def _closed_form_z(case, mutate=lambda: None):
    """z = (sampled - closed form) / sampled stderr at every point of a
    case, for each of its atom numbers; mutate runs between the two, so a
    mutant reaches the closed form only."""
    args = _closed_form_args(case)
    sampled = _sampled(case)
    mutate()
    zs = []
    for (estimates, stderrs), (means, exact_stderrs) in zip(sampled, mc._expectation(*args)):
        assert not exact_stderrs.any()
        zs.append((estimates - means) / stderrs)
    return np.concatenate(zs)


def _agrees(zs):
    return np.abs(zs).max() <= 5.0 and math.sqrt(np.mean(zs**2)) <= 1.3


CLOSED_FORM_CASES = ("contrast_squeezed.json", "sensitivity.json", "pinned", "far")


@pytest.mark.parametrize("name", CLOSED_FORM_CASES)
def test_closed_form_is_the_mean_of_the_sampler(name):
    zs = _closed_form_z(name)
    assert _agrees(zs), (np.abs(zs).max(), math.sqrt(np.mean(zs**2)))


@pytest.mark.parametrize(
    "mutant",
    (
        lambda x, j0=mc._j0: j0(2.0 * x),  # prod_k J0(2 r_k), the second moment's damping
        lambda x: np.ones_like(x),  # no damping: cos(beta0 + psi) alone
    ),
    ids=("J0(2r)", "undamped"),
)
@pytest.mark.parametrize("name", CLOSED_FORM_CASES)
def test_closed_form_check_catches_wrong_damping(monkeypatch, name, mutant):
    assert not _agrees(_closed_form_z(name, lambda: monkeypatch.setattr(mc, "_j0", mutant)))


def test_closed_form_check_catches_a_dropped_offset(monkeypatch):
    # the mutant reads cos(psi) where the closed form has cos(beta0 + psi)
    split_fixed = mc._split_fixed

    def offset_dropped(components, a, b):
        beta0, weights = split_fixed(components, a, b)
        return np.zeros_like(beta0), weights

    zs = _closed_form_z("pinned", lambda: monkeypatch.setattr(mc, "_split_fixed", offset_dropped))
    assert not _agrees(zs)


def test_closed_form_check_catches_a_flipped_hankel_q(monkeypatch):
    # the mutant reads P cos(chi) + Q sin(chi) where J0 has P cos(chi) - Q sin(chi)
    zs = _closed_form_z("far", lambda: monkeypatch.setattr(mc, "_HANKEL_Q", -mc._HANKEL_Q))
    assert not _agrees(zs)
    # not vacuous: the case's arguments all take the Hankel expansion
    from spinlock.lockin import phase_kernel_grid

    components, n_pulses, grid = _closed_form_args("far")[:3]
    r = np.hypot(*phase_kernel_grid(components, n_pulses, grid, True))
    assert mc._J0_FAR < r.min() and r.max() < 2 * mc._J0_FAR


def test_closed_form_is_ramsey_only(three_tone_noise, default_mc):
    with pytest.raises(ConfigError, match="ramsey integrand only"):
        mc.contrast_curve(three_tone_noise, 7, [5e-3], default_mc, integrand="eq23", exact=True)
    with pytest.raises(ConfigError, match="ramsey integrand only"):
        mc.sensitivity_curve(
            three_tone_noise, [50], [0.04], 7, default_mc, integrand="eq23", exact=True
        )
    with pytest.raises(ConfigError, match="unknown integrand"):
        mc.contrast_curve(three_tone_noise, 7, [5e-3], default_mc, integrand="exact", exact=True)


def test_sensitivity_curve_rejects_repeated_atom_numbers(three_tone_noise, default_mc):
    with pytest.raises(ConfigError, match="^physics.n_atoms must not repeat$"):
        mc.sensitivity_curve(three_tone_noise, [50, 300, 50], [0.016], 7, default_mc)


def test_sensitivity_curve_rejects_non_integer_atom_numbers(three_tone_noise, default_mc):
    # no coercion: 50.5 is not read as 50
    for atoms in ([50.5, 2.9], [50, True]):
        with pytest.raises(ConfigError, match="n_atoms must be an integer"):
            mc.sensitivity_curve(three_tone_noise, atoms, [0.016], 7, default_mc)


def test_point_index_must_be_a_nonnegative_integer(three_tone_noise, default_mc):
    sched = LockInSchedule(7, 5e-3)
    for index in (-1, 2.5, True, "3"):
        with pytest.raises(ConfigError, match="point_index"):
            mc.fringe_contrast_mc(three_tone_noise, sched, default_mc, point_index=index)
    ok = mc.fringe_contrast_mc(three_tone_noise, sched, default_mc, point_index=np.int64(3))
    assert ok == mc.fringe_contrast_mc(three_tone_noise, sched, default_mc, point_index=3)


def test_curve_memory_is_one_point_plus_results(three_tone_noise, default_mc):
    grid = [1e-3 + 8e-5 * i for i in range(301)]  # the shipped contrast grid
    sched = LockInSchedule(7, grid[0])
    mc.contrast_curve(three_tone_noise, 7, grid[:3], default_mc)  # first-call set-up
    peaks = []
    for run in (
        lambda: mc.fringe_contrast_mc(three_tone_noise, sched, default_mc),
        lambda: mc.contrast_curve(three_tone_noise, 7, grid, default_mc),
    ):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    point, curve = peaks
    assert curve <= point + 16 * len(grid) + 2**20


def test_reduce_is_numpy_mean_and_std_bit_for_bit():
    # the one mean must reproduce np.mean and np.std(ddof=1) exactly, so
    # estimates and stderrs keep their bits
    rng = np.random.default_rng(31)
    random_rows = rng.normal(0.3, 0.2, size=(5, 2001))
    constant_rows = np.full((3, 40), 0.1)
    rows = [*random_rows, *constant_rows, *rng.normal(size=(4, 2)), *random_rows[:, :40]]
    for row in rows:
        estimate, stderr = mc._reduce(row.copy())  # it consumes its input
        assert estimate == np.mean(row)
        want = np.std(row, ddof=1) / math.sqrt(row.size) if np.ptp(row) != 0.0 else 0.0
        assert stderr == want
    for row in rng.normal(size=(6, 1)):
        assert mc._reduce(row.copy()) == (row[0], 0.0)
