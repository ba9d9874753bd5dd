"""The closed-form eq23 mean: its Fourier coefficients, its series and the
CLI's choice between it and the sampler.

The references share no code with the program: scipy's quad, Laguerre
polynomials and J0, and the sampler, compared in z units.
"""
import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from spinlock import cli, kernels, montecarlo as mc
from spinlock.config import load_config
from spinlock.errors import SeriesError
from spinlock.lockin import phase_kernel_grid
from spinlock.montecarlo import McConfig
from spinlock.noise import NoiseComponent

ROOT = Path(__file__).resolve().parent.parent
DEEP_MC = ROOT / "perfbench" / "configs" / "deep_mc.json"
# a = 1/(sqrt(N) R) at N = 1, 50 and 10^4 under the shipped twist, and the
# lower end of the series' range (N = 1 is its upper end)
SCALES = (1.0, 0.14, 0.0164, 1e-3)
assert (min(SCALES), max(SCALES)) == mc._SERIES_SCALES


def quad_coefficient(a, n):
    """F_n of cos(a sec phi) at even n, (2/pi) int_0^{pi/2} cos(a sec phi)
    cos(n phi) dphi, by scipy's quad: directly up to sec phi = 2, and in
    u = sec phi past it, where the integrand is cos(a u) times
    T_n(1/u) / (u sqrt(u^2 - 1)), a Fourier integral (QAWF).  QAWF warns of
    "bad integrand behavior" in some of its cycles at the slow a = 0.0164;
    the comparison itself, at 1e-9, is the check on its result."""
    import warnings

    from scipy import integrate

    head = integrate.quad(
        lambda p: math.cos(a / math.cos(p)) * math.cos(n * p),
        0.0, math.pi / 3, limit=200, epsabs=1e-14, epsrel=1e-13,
    )[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        tail = integrate.quad(
            lambda u: math.cos(n * math.acos(1.0 / u)) / (u * math.sqrt(u * u - 1.0)),
            2.0, np.inf, weight="cos", wvar=a, limlst=200, epsabs=1e-14,
        )[0]
    return 2.0 / math.pi * (head + tail)


QUAD_ORDERS = (0, 2, 4, 10, 40, 200)


@functools.cache
def quad_table(a):
    return np.array([quad_coefficient(a, n) for n in QUAD_ORDERS])


def coefficient_error(a):
    return np.abs(mc._sec_coefficients(a, 8192)[list(QUAD_ORDERS)] - quad_table(a)).max()


def test_secant_splits_into_two_cotangent_exponentials():
    rng = np.random.default_rng(3)
    phi = rng.uniform(-math.pi, math.pi, 1000)
    sec = (1 / np.tan(phi / 2 + math.pi / 4) - 1 / np.tan(phi / 2 - math.pi / 4)) / 2
    assert np.abs(sec * np.cos(phi) - 1.0).max() <= 1e-11
    for a in SCALES:
        i1 = np.exp(-0.5j * a / np.tan(phi / 2 + math.pi / 4))
        i2 = np.exp(0.5j * a / np.tan(phi / 2 - math.pi / 4))
        assert np.abs(i1 * i2 - np.exp(-1j * a / np.cos(phi))).max() <= 1e-9


def test_laguerre_weights_match_scipy_and_the_generating_function():
    from scipy.special import eval_genlaguerre

    # scipy's recurrence costs O(n) per order: every order to 300, then 60 to 2^16
    n = np.unique(np.concatenate([np.arange(1, 300), np.geomspace(300, 2**16 - 1, 60).astype(int)]))
    for a in SCALES:
        alphas = mc._laguerre_weights(a, 2**16)
        # L_n^(-1)(a) = -(a/n) L_{n-1}^(1)(a); scipy takes parameters above -1
        want = -math.exp(-a / 2) * (a / n) * eval_genlaguerre(n - 1, 1, a)
        assert alphas[0] == math.exp(-a / 2)
        assert np.abs(alphas[n] - want).max() <= 1e-12
        # sum_n L_n^(-1)(a) t^n = e^{-a t/(1-t)} inside the unit disc
        for t in (0.9, 0.9j, -0.7 + 0.5j):
            series = np.sum(alphas[:2000] * t ** np.arange(2000))
            assert abs(series - math.exp(-a / 2) * np.exp(-a * t / (1 - t))) <= 1e-14


@pytest.mark.parametrize("a", SCALES)
def test_coefficients_match_quad(a):
    assert coefficient_error(a) <= 1e-9
    # odd orders vanish: g has period pi
    assert np.abs(mc._sec_coefficients(a, 64)[1::2]).max() <= 1e-16


def test_coefficients_and_j0_stay_below_the_term_bound():
    from scipy.special import j0

    n = np.arange(mc._SERIES_FIRST, mc._SERIES_LAST, 2)
    for a in SCALES:
        coefficients = mc._sec_coefficients(a, mc._SERIES_LAST)[n]
        assert (np.abs(coefficients) <= a**0.25 * n**-0.75).all(), a
    x = np.geomspace(1e-3, 1e6, 100_001)
    assert (np.abs(j0(x)) <= np.minimum(1.0, np.sqrt(2 / (np.pi * x)))).all()
    # the bound of a term with one random tone, and with none left
    bound = mc._term_bound(0.14, np.array([[0.3], [0.0]]), 400)
    assert bound[0] == pytest.approx(2 * 0.14**0.25 * 400**-0.75 * math.sqrt(2 / (math.pi * 120)))
    assert bound[1] == 2 * 0.14**0.25 * 400**-0.75


def _laguerre_zero(a, count):
    """alpha_n with Laguerre parameter 0 where the identity needs -1."""
    values = [1.0, 1.0 - a]
    prev, cur = 1.0, 1.0 - a
    for n in range(1, count - 1):
        prev, cur = cur, ((2 * n + 1 - a) * cur - n * prev) / (n + 1)
        values.append(cur)
    return math.exp(-0.5 * a) * np.array(values[:count])


def _flipped_i2(a, size, count):
    """_pole_product with e^{-i (a/2) cot(phi/2 - pi/4)} for I2."""
    half = (np.arange(size) + 0.5) * (math.pi / size)
    d = -0.25j * a * np.cos(2.0 * half)
    product = np.expm1(-0.5j * a / np.tan(half + 0.25 * math.pi)) - d
    product *= np.expm1(-0.5j * a / np.tan(half - 0.25 * math.pi)) - d
    shift = np.exp(-1j * (math.pi / size) * np.arange(count))
    return np.fft.fft(product)[:count] * shift / size


@pytest.mark.parametrize(
    "name, mutant",
    (
        ("_pole_product", lambda a, size, count: np.zeros(count, dtype=complex)),
        ("_laguerre_weights", _laguerre_zero),
        ("_pole_product", _flipped_i2),
    ),
    ids=("no-product", "laguerre-0", "plus-i-in-I2"),
)
def test_coefficient_check_catches_mutants(monkeypatch, name, mutant):
    monkeypatch.setattr(mc, name, mutant)
    assert coefficient_error(0.14) > 1e-4


def _deep_mc_args(atoms=(50,), samples=100_000, seed=11):
    cfg = load_config(str(DEEP_MC))
    tau_arms = [x * 1e-3 for x in cfg.tau_arm_grid_ms]
    mcs = [McConfig(samples, seed, n, cfg.chi, cfg.squeeze_duration) for n in atoms]
    return (cfg.components(), cfg.n_pulses, tau_arms, mcs, "eq23", cfg.toggle, 2)


def test_series_is_the_mean_of_the_sampler_in_z_units():
    args = _deep_mc_args(atoms=(1, 50, 10_000))
    components, n_pulses, tau_arms, mcs = args[:4]
    a, b = phase_kernel_grid(components, n_pulses, tau_arms, True)
    beta0, _ = mc._split_fixed(components, a, b)
    exact, terms, tail = mc._expectation(*args)
    assert terms <= 2**13 and tail <= mc._SERIES_TOL
    for m, (estimates, stderrs), (means, zeros) in zip(mcs, mc._evaluate(*args), exact):
        assert not zeros.any()
        z = (estimates - means) / stderrs
        assert np.abs(z).max() <= 5.0 and math.sqrt(np.mean(z**2)) <= 1.5, (m.n_atoms, z)
        # not vacuous: the noise moves most means by many stderrs from the
        # noiseless readout
        noiseless = kernels.readout(beta0.copy(), 0.0, *mc._fringe(m, "eq23", n_pulses))
        assert (np.abs(noiseless - means) >= 10 * stderrs).sum() >= 8, m.n_atoms


def _reference_means(args, size=2**19, count=2**13):
    """The deep_mc means from scipy's Laguerre polynomials and J0, the
    plain product (I1 - 1)(I2 - 1) on a 2^19-node FFT and a fixed 2^13
    terms."""
    from scipy.special import eval_genlaguerre, j0

    components, n_pulses, tau_arms, mcs = args[:4]
    a_, b_ = phase_kernel_grid(components, n_pulses, tau_arms, True)
    beta0, weights = mc._split_fixed(components, a_, b_)
    n = np.arange(0, count, 2)
    damping = np.prod(j0(0.5 * weights[:, :, None] * n), axis=1)
    means = []
    for m in mcs:
        cos_fac, sin_fac, inv_n, *_ = mc._fringe(m, "eq23", n_pulses)
        a = math.sqrt(inv_n) / math.hypot(cos_fac, sin_fac)
        k = np.arange(1, count)
        alphas = np.concatenate(
            [[1.0], -(a / k) * eval_genlaguerre(k - 1, 1, a)]
        ) * math.exp(-a / 2)
        phi = (np.arange(size) + 0.5) * (2 * math.pi / size)
        product = np.expm1(-0.5j * a / np.tan(phi / 2 + math.pi / 4))
        product *= np.expm1(0.5j * a / np.tan(phi / 2 - math.pi / 4))
        k = np.arange(count)
        fourier = np.fft.fft(product)[:count] / size * np.exp(-1j * math.pi * k / size)
        coefficients = (alphas * 1j**k).real + fourier.real
        coefficients[0] += alphas[0] - 1
        coefficients[1:] *= 2
        phase = beta0 + math.atan2(sin_fac, cos_fac)
        means.append((coefficients[n] * np.cos(np.multiply.outer(phase, n)) * damping).sum(axis=1))
    return means


def test_deep_mc_rows_match_an_independent_reference():
    # the plain product aliases its poles: the reference itself is off by
    # about 2e-9 at N = 50 and 2e-8 at N = 1
    args = _deep_mc_args(atoms=(50, 1))
    for want, (got, _) in zip(_reference_means(args), mc._expectation(*args)[0]):
        assert np.abs(got - want).max() <= 1e-7


def test_deep_mc_rows_pass_the_committed_high_sample_table():
    table = json.loads((ROOT / "perfbench" / "data" / "deep_mc_reference.json").read_text())
    [(means, _)], _, _ = mc._expectation(*_deep_mc_args())
    z = [(m - ref["contrast"]) / ref["stderr"] for m, ref in zip(means, table["points"])]
    assert len(z) == 16
    assert max(map(abs, z)) <= 6.0 and math.sqrt(np.mean(np.square(z))) <= 2.0


def test_a_point_is_the_same_in_any_grid():
    components, n_pulses, tau_arms, mcs, *rest = _deep_mc_args()
    [(curve, _)], _, _ = mc._expectation(components, n_pulses, tau_arms, mcs, *rest)
    for p in (0, 7, 15):
        [(point, _)], _, _ = mc._expectation(components, n_pulses, [tau_arms[p]], mcs, *rest)
        assert point[0] == curve[p]


def test_no_random_tone_is_one_readout_value():
    pinned = [NoiseComponent(2.0, 60.0 + 7.0 * k, phase=0.4 + k) for k in range(2)]
    grid = [1e-3, 2.5e-3, 4e-3]
    cfg = McConfig(1, 0, 50, 625.0, 1.6e-5)
    [(means, stderrs)], terms, tail = mc._expectation(pinned, 7, grid, [cfg], "eq23", True, 1)
    assert (terms, tail) == (0, 0.0) and not stderrs.any()
    a, b = phase_kernel_grid(pinned, 7, grid, True)
    beta0, _ = mc._split_fixed(pinned, a, b)
    fringe = mc._fringe(cfg, "eq23", 7)
    for p, mean in enumerate(means):
        assert mean == kernels.readout(np.zeros(1), float(beta0[p]), *fringe)[0]


def test_every_pi_train_reads_out_as_seven_pulses():
    # sin(10^6 pi) rounds to -2.2e-10, not 0, but the pulses leave sin(gamma)
    # exactly 0 at any N: the series and the sampler both take the radicand
    # 1/N, at N = 10^4 where pi's rounding would have moved it
    cfg = load_config(str(DEEP_MC))
    components = cfg.components()
    a, b = phase_kernel_grid(components, cfg.n_pulses, [2.5e-3, 6e-3], True)
    beta0, weights = mc._split_fixed(components, a, b)
    atoms = McConfig(20_000, 5, 10_000, cfg.chi, cfg.squeeze_duration)
    seven, million = (mc._fringe(atoms, "eq23", n) for n in (7, 10**6))
    assert abs(math.sin(10**6 * math.pi)) > 1e-10
    (want,), terms, tail = mc._eq23_means(beta0, 0.5 * weights, [seven])
    (got,), *rest = mc._eq23_means(beta0, 0.5 * weights, [million])
    assert got.tobytes() == want.tobytes() and rest == [terms, tail]
    work = mc._Workspace(atoms.samples, weights.shape[-1], 2)
    for p in range(len(beta0)):
        args = (atoms.master_seed, p, atoms.samples, float(beta0[p]), weights[p])
        sampled = mc._point_values(*args, [seven, million], work)
        assert next(sampled).tobytes() == next(sampled).tobytes()


def _refuses_before_any_coefficient(monkeypatch, match, *args):
    def built(*_):
        raise AssertionError("a coefficient was built")

    monkeypatch.setattr(mc, "_sec_coefficients", built)
    with pytest.raises(SeriesError, match=match) as err:
        mc._eq23_means(*args)
    assert err.value.terms == 0
    return err.value.tail


@pytest.mark.parametrize("n_atoms, alpha", ((30, math.pi / 4), (300_000, 0.01), (10**8, 0.0)))
def test_scale_outside_the_checked_range_is_a_series_error(monkeypatch, n_atoms, alpha):
    # a = 3.0e3, 6.4e3 and 1e-4: L_n^(-1)(a) overflows past a = 1420, and
    # the coefficients are checked against quad on _SERIES_SCALES only
    fringe = mc._fringe(McConfig(1, 0, n_atoms, alpha, 1.0), "eq23", 7)
    tail = _refuses_before_any_coefficient(
        monkeypatch, r"a = 1/\(sqrt\(N\) R\)", np.zeros(2), np.ones((2, 9)), [fringe]
    )
    assert tail == math.inf


def test_weakly_damped_terms_skip_the_series(monkeypatch, three_tone_noise):
    # three random tones damp the terms at K/4 = 2^14 only to 1e-6 or so
    fringe = mc._fringe(McConfig(1, 0, 50, 625.0, 1.6e-5), "eq23", 7)
    a, b = phase_kernel_grid(three_tone_noise, 7, [1e-3, 5e-3], True)
    beta0, weights = mc._split_fixed(three_tone_noise, a, b)
    tail = _refuses_before_any_coefficient(
        monkeypatch, "need not converge by K=65536", beta0, 0.5 * weights, [fringe]
    )
    assert tail > mc._SERIES_TOL


def test_an_unconverged_point_is_a_series_error_after_summing():
    # four of the deep_mc tones at N = 1 (a = 1) pass the term bound at
    # point 7, but its blocks still sum to 1.5e-10 at K = 2^16
    components, n_pulses, tau_arms, mcs, *rest = _deep_mc_args(atoms=(1,))
    with pytest.raises(SeriesError, match="has not converged by K=65536 at point 0") as err:
        mc._expectation(components[:4], n_pulses, tau_arms[7:8], mcs, *rest)
    assert err.value.terms == mc._SERIES_LAST and err.value.tail > mc._SERIES_TOL


def test_nan_coefficients_never_pass_for_converged(monkeypatch):
    # a NaN block sum compares False against any tolerance, so it must keep
    # its point live rather than stop it
    monkeypatch.setattr(mc, "_sec_coefficients", lambda a, count: np.full(count, np.nan))
    components, n_pulses, tau_arms, mcs, *rest = _deep_mc_args()
    with pytest.raises(SeriesError, match="has not converged") as err:
        mc._expectation(components, n_pulses, tau_arms[:2], mcs, *rest)
    assert err.value.terms == mc._SERIES_LAST


def _run(tmp_path, doc, threads=1):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    argv = [doc["experiment"], "--config", str(path), "--output", str(out)]
    argv += ["--threads", str(threads)]
    assert cli.main(argv) == 0
    lines = out.read_text().splitlines()
    comments = [line[2:] for line in lines if line.startswith("# ")]
    rows = [line.split(",") for line in lines if line[:1].isdigit()]
    return comments, rows, out.read_bytes()


def test_cli_eq23_run_is_exact_where_the_series_converges(tmp_path):
    doc = json.loads(DEEP_MC.read_text())
    doc["lockin"]["tau_arm_grid_ms"] = [1.0, 4.5, 8.5]
    comments, rows, text = _run(tmp_path, doc)
    assert comments[4] == "estimator exact"
    series = comments[5].split()
    assert series[0] == "eq23-series" and int(series[1].removeprefix("terms=")) <= 4096
    assert float(series[2].removeprefix("tail=")) <= mc._SERIES_TOL
    assert all(float(row[2]) == 0.0 for row in rows)
    # the seed, the samples and the threads do not enter
    doc["mc"] = {"samples": 7, "master_seed": 99}
    other_comments, other_rows, _ = _run(tmp_path, doc, threads=2)
    assert other_rows == rows and other_comments[4:] == comments[4:]


@pytest.mark.parametrize(
    "tones, atoms, alpha, terms",
    (
        (3, 50, None, 0),  # three random tones: refused by the term bound
        (4, 1, None, 65536),  # summed to 2^16 without converging (point 7)
        (12, 30, math.pi / 4, 0),  # a = 3.0e3, outside the checked scales
    ),
)
def test_cli_falls_back_to_the_sampler_for_the_whole_run(tmp_path, tones, atoms, alpha, terms):
    doc = json.loads(DEEP_MC.read_text())
    doc["noise"] = doc["noise"][:tones]
    doc["lockin"]["tau_arm_grid_ms"] = [1.0, 4.5]
    if terms:
        doc["lockin"]["tau_arm_grid_ms"] = [4.5]
    doc["physics"]["n_atoms"] = atoms
    if alpha is not None:
        doc["physics"]["chi_override"] = alpha / doc["physics"]["squeeze_duration"]
    doc["mc"]["samples"] = 500
    comments, rows, _ = _run(tmp_path, doc)
    assert comments[4] == "estimator mc samples=500"
    assert comments[5].startswith(f"eq23-series terms={terms} tail=")
    assert comments[5].endswith(" unconverged")
    assert float(comments[5].split()[2].removeprefix("tail=")) > mc._SERIES_TOL
    assert all(float(row[2]) > 0.0 and math.isfinite(float(row[1])) for row in rows)
