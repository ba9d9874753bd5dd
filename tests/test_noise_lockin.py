import math

import numpy as np
import pytest
from scipy.integrate import quad

from spinlock import lockin
from spinlock.errors import ConfigError, DimensionMismatchError
from spinlock.lockin import LockInSchedule
from spinlock.noise import NoiseComponent, resolve_phases, synth_noise


def edges(schedule):
    """Interval edges 0, tau_arm, ..., (N+1) tau_arm: N+2 times."""
    return schedule.tau_arm * np.arange(schedule.n_pulses + 2, dtype=float)


def toggling_function(schedule, t):
    """Sign of the field coupling at time t in the window: +1 before the
    first pi pulse, flipping at each pulse time (the flip counts as already
    applied at the pulse time)."""
    m = min(math.floor(t / schedule.tau_arm), schedule.n_pulses)
    return 1 if m % 2 == 0 else -1


def accumulated_beta(components, theta, schedule, toggle=True):
    """Accumulated phase beta = integral 2 pi N(t) s(t) dt in radians, from
    the program's phase kernel; with toggle False, s = 1."""
    (a,), (b,) = lockin.phase_kernel_grid(
        components, schedule.n_pulses, [schedule.tau_arm], toggle
    )
    return float(np.sin(theta) @ a + np.cos(theta) @ b)


def test_component_validation():
    with pytest.raises(ConfigError):
        NoiseComponent(-1.0, 50.0)
    with pytest.raises(ConfigError):
        NoiseComponent(1.0, 0.0)
    with pytest.raises(ConfigError):
        NoiseComponent(1.0, 50.0, phase=math.inf)
    # each field is finite, but the phase kernel's weight amplitude / freq is not
    with pytest.raises(ConfigError, match="amplitude_hz / freq_hz must be finite, got inf"):
        NoiseComponent(1e300, 1e-300)
    assert NoiseComponent(1e300, 1e-5).amplitude_hz == 1e300
    # numpy scalars divide as floats: the overflow is the ConfigError alone, no warning
    with pytest.raises(ConfigError, match="amplitude_hz / freq_hz must be finite, got inf"):
        NoiseComponent(np.float64(1e300), np.float64(1e-300))


def test_field_conversion():
    assert NoiseComponent.from_field_pt(540, 50).amplitude_hz == pytest.approx(
        15.12, rel=1e-12
    )
    assert NoiseComponent.from_field_pt(390, 100).amplitude_hz == pytest.approx(
        10.92, rel=1e-12
    )
    custom = NoiseComponent.from_field_pt(1000, 50, gyro_hz_per_nt=10.0)
    assert custom.amplitude_hz == pytest.approx(10.0, rel=1e-12)


def test_slow_drift_conversion():
    assert NoiseComponent.from_slow_drift(40, 2.1).amplitude_hz == pytest.approx(
        40 / 2.1, rel=1e-12
    )


def test_synth_noise_values():
    assert synth_noise([], [], 0.5) == 0.0
    tone = NoiseComponent(15.12, 50.0)
    assert synth_noise([tone], [0.0], 0.0) == pytest.approx(15.12, rel=1e-12)
    assert synth_noise([tone], [0.0], 1 / 100) == pytest.approx(-15.12, rel=1e-12)
    times = np.linspace(0, 0.1, 7)
    values = synth_noise([tone], [0.3], times)
    assert values.shape == times.shape
    with pytest.raises(DimensionMismatchError):
        synth_noise([tone], [0.0, 0.1], 0.0)


def test_resolve_phases():
    comps = [NoiseComponent(1.0, 50.0, phase=1.25), NoiseComponent(1.0, 60.0)]
    rng = np.random.default_rng(0)
    theta = resolve_phases(comps, rng)
    assert theta[0] == 1.25
    assert 0 <= theta[1] < 2 * math.pi


def test_schedule_validation_and_layout():
    for n_pulses in (0, True, 2.0):
        with pytest.raises(ConfigError):
            LockInSchedule(n_pulses, 1e-3)
    with pytest.raises(ConfigError):
        LockInSchedule(3, 0.0)
    sched = LockInSchedule(7, 0.005)
    assert sched.total_duration == pytest.approx(0.04, rel=1e-15)


def test_toggling_sign_pattern():
    sched = LockInSchedule(7, 0.005)
    assert toggling_function(sched, 0.0049) == 1
    assert toggling_function(sched, 0.0051) == -1
    assert toggling_function(sched, sched.total_duration - 1e-6) == -1


def test_toggling_has_exactly_n_flips():
    sched = LockInSchedule(5, 1e-3)
    midpoints = (edges(sched)[:-1] + edges(sched)[1:]) / 2
    signs = [toggling_function(sched, t) for t in midpoints]
    flips = sum(a != b for a, b in zip(signs, signs[1:]))
    assert flips == 5
    assert signs == list(lockin.interval_signs(sched))


def test_beta_zero_for_zero_amplitude():
    comps = [NoiseComponent(0.0, 50.0), NoiseComponent(0.0, 3.0)]
    sched = LockInSchedule(3, 2e-3)
    assert accumulated_beta(comps, [0.1, 0.2], sched) == 0.0
    assert accumulated_beta([], [], sched) == 0.0


def test_beta_matches_quadrature():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(15):
        q = int(rng.integers(1, 4))
        comps = [
            NoiseComponent(float(rng.uniform(0.5, 20)), float(rng.uniform(0.5, 200)))
            for _ in range(q)
        ]
        theta = rng.uniform(0, 2 * math.pi, q)
        sched = LockInSchedule(
            int(rng.integers(1, 9)), float(rng.uniform(1e-3, 2e-2))
        )
        for toggle in (True, False):
            closed = accumulated_beta(comps, theta, sched, toggle)
            total = 0.0
            for i, sign in enumerate(lockin.interval_signs(sched, toggle)):
                part, _ = quad(
                    lambda t: 2 * math.pi * synth_noise(comps, theta, t) * sign,
                    edges(sched)[i],
                    edges(sched)[i + 1],
                    limit=200,
                )
                total += part
            worst = max(worst, abs(closed - total))
    assert worst < 1e-8, f"worst quadrature mismatch {worst}"


def test_lockin_resonance_and_suppression():
    sched = LockInSchedule(7, 0.005)
    resonant = NoiseComponent(1.0, 1 / (2 * sched.tau_arm))
    cancelled = NoiseComponent(1.0, 1 / sched.tau_arm)
    thetas = np.linspace(0, 2 * math.pi, 65)
    beta_res = max(
        abs(accumulated_beta([resonant], [t], sched)) for t in thetas
    )
    beta_sup = max(
        abs(accumulated_beta([cancelled], [t], sched)) for t in thetas
    )
    # coherent accumulation: |beta| = (A/f) * 2 * (N+1) at quadrature
    assert beta_res == pytest.approx(
        resonant.amplitude_hz / resonant.freq_hz * 2 * 8, rel=1e-3
    )
    assert beta_sup < 1e-12


def test_slow_drift_is_demodulated_away():
    sched = LockInSchedule(7, 0.005)
    slow = NoiseComponent.from_slow_drift(40, 2.1)
    toggled = max(
        abs(accumulated_beta([slow], [t], sched))
        for t in np.linspace(0, 2 * math.pi, 33)
    )
    plain = max(
        abs(accumulated_beta([slow], [t], sched, toggle=False))
        for t in np.linspace(0, 2 * math.pi, 33)
    )
    assert toggled < plain / 10


def test_beta_is_linear_in_amplitude():
    sched = LockInSchedule(4, 3e-3)
    small = accumulated_beta([NoiseComponent(2.0, 50.0)], [1.1], sched)
    large = accumulated_beta([NoiseComponent(6.0, 50.0)], [1.1], sched)
    assert large == pytest.approx(3 * small, rel=1e-14)


def test_no_toggle_is_definite_window_integral():
    sched = LockInSchedule(7, 0.005)
    tone = NoiseComponent(3.0, 17.0)
    theta = 0.77
    expected = (
        3.0
        / 17.0
        * (
            math.sin(theta + 2 * math.pi * 17.0 * sched.total_duration)
            - math.sin(theta)
        )
    )
    value = accumulated_beta([tone], [theta], sched, toggle=False)
    assert value == pytest.approx(expected, abs=1e-14)


def test_phase_kernel_reproduces_beta():
    # the kernel's (a, b) against the signed sine differences of each tone
    # over each interval, summed one term at a time
    comps = [NoiseComponent(5.0, 50.0), NoiseComponent(2.0, 130.0)]
    sched = LockInSchedule(6, 4e-3)
    t = edges(sched)
    rng = np.random.default_rng(9)
    for _ in range(20):
        theta = rng.uniform(0, 2 * math.pi, 2)
        direct = sum(
            sign
            * comp.amplitude_hz
            / comp.freq_hz
            * (
                math.sin(phase + 2 * math.pi * comp.freq_hz * t[i + 1])
                - math.sin(phase + 2 * math.pi * comp.freq_hz * t[i])
            )
            for comp, phase in zip(comps, theta)
            for i, sign in enumerate(lockin.interval_signs(sched))
        )
        assert accumulated_beta(comps, theta, sched) == pytest.approx(direct, abs=1e-12)


def _dot_kernel(components, schedule, toggle):
    """Reference: one np.dot per tone over the signed interval differences."""
    signs = lockin.interval_signs(schedule, toggle)
    rows = []
    for comp in components:
        weight = comp.amplitude_hz / comp.freq_hz
        x = 2.0 * np.pi * comp.freq_hz * edges(schedule)
        rows.append(
            (
                weight * np.dot(signs, np.diff(np.cos(x))),
                weight * np.dot(signs, np.diff(np.sin(x))),
                weight * np.abs(np.diff(np.cos(x))).sum(),
                weight * np.abs(np.diff(np.sin(x))).sum(),
            )
        )
    return np.array(rows).reshape(len(components), 4).T


@pytest.mark.parametrize("n_pulses", [1, 7, 50, 1000])
@pytest.mark.parametrize("toggle", [True, False])
def test_grid_kernel_matches_per_schedule_dot(n_pulses, toggle):
    rng = np.random.default_rng(n_pulses)
    comps = [
        NoiseComponent(rng.uniform(0.1, 50.0), rng.uniform(0.5, 300.0)) for _ in range(9)
    ]
    taus = rng.uniform(1e-4, 2e-2, 23)
    a, b = lockin.phase_kernel_grid(comps, n_pulses, taus, toggle)
    assert a.shape == b.shape == (23, 9)
    for p, tau in enumerate(taus):
        sched = LockInSchedule(n_pulses, float(tau))
        want_a, want_b, abs_a, abs_b = _dot_kernel(comps, sched, toggle)
        # a row does not depend on the other arm times of the grid
        (one_a,), (one_b,) = lockin.phase_kernel_grid(comps, n_pulses, [tau], toggle)
        assert np.array_equal(one_a, a[p]) and np.array_equal(one_b, b[p])
        if n_pulses <= 7:
            # up to 14 pulses BLAS sums in interval order too: the same bits
            assert np.array_equal(a[p], want_a) and np.array_equal(b[p], want_b)
        else:
            # BLAS sums in blocks, so the last bits differ; two orders of
            # summing N+1 terms differ by at most 2 (N+1) u sum|term|
            # (u = 2^-53).  On these inputs the worst gaps are 3.5e-14 x weight
            # at N = 50 and 3.9e-13 x weight at N = 1000, 3% of the bound
            bound = 2 * (n_pulses + 1) * 2.0**-53
            assert np.all(np.abs(a[p] - want_a) <= bound * abs_a)
            assert np.all(np.abs(b[p] - want_b) <= bound * abs_b)


def test_grid_kernel_shapes_and_errors():
    comps = [NoiseComponent(5.0, 50.0)]
    a, b = lockin.phase_kernel_grid([], 7, [1e-3, 2e-3])
    assert a.shape == b.shape == (2, 0)
    a, b = lockin.phase_kernel_grid(comps, 7, [])
    assert a.shape == b.shape == (0, 1)
    for n_pulses, taus in ((0, [1e-3]), (7, [1e-3, -1e-3]), (7, [math.nan]), (True, [1e-3])):
        with pytest.raises(ConfigError):
            lockin.phase_kernel_grid(comps, n_pulses, taus)


def test_grid_kernel_rejects_tones_whose_phases_leave_the_float_range():
    # weight 1e308 is finite, but a coefficient of about 1 makes 2 hypot(a, b)
    # inf; the bound 8 (N+1) sum(weight) catches it before any coefficient
    with pytest.raises(ConfigError, match=r"phase bound .* at N=7 must be finite, got inf"):
        lockin.phase_kernel_grid([NoiseComponent(1e308, 1.0)], 7, [0.25, 0.5])
    # so does a sum of tones that are each in range
    tones = [NoiseComponent(1e306, 1.0)] * 20
    with pytest.raises(ConfigError, match="must be finite, got inf"):
        lockin.phase_kernel_grid(tones, 7, [0.25])
    a, b = lockin.phase_kernel_grid(tones[:2], 7, [0.25])
    assert np.isfinite(2.0 * np.hypot(a, b)).all()
