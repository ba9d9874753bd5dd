"""The A/B harness's verdict arithmetic: paired ratios and the sign test.

benchmarks/ab.py is a script, not a package module, so it is loaded from
its path; only its pure helpers run here, no process and no git call.
"""
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ratios_are_change_over_base_per_round(ab):
    assert ab.pairwise_ratios([2.0, 4.0, 1.0], [1.0, 5.0, 1.0]) == [0.5, 1.25, 1.0]
    with pytest.raises(ValueError):
        ab.pairwise_ratios([1.0, 2.0], [1.0])


def test_sign_test_matches_the_binomial_tails(ab):
    # two-sided: twice the smaller tail of Binomial(n, 1/2), capped at 1
    assert ab.sign_test(12, 0) == 2 / 2**12
    assert ab.sign_test(0, 12) == 2 / 2**12
    assert ab.sign_test(9, 1) == pytest.approx(2 * 11 / 1024)
    assert ab.sign_test(8, 2) == pytest.approx(2 * 56 / 1024)
    assert ab.sign_test(5, 5) == 1.0
    assert ab.sign_test(3, 4) == 1.0
    assert ab.sign_test(0, 0) == 1.0
    # symmetric in its two counts, and rising toward the even split
    for n in range(1, 25):
        ps = [ab.sign_test(wins, n - wins) for wins in range(n + 1)]
        assert ps == ps[::-1]
        assert all(0.0 < p <= 1.0 for p in ps)
        assert ps[: n // 2 + 1] == sorted(ps[: n // 2 + 1])


def test_verdict_drops_ties_from_the_sign_test(ab):
    base = [1.0, 1.0, 1.0, 1.0, 2.0]
    change = [0.5, 0.8, 1.0, 1.2, 1.0]
    row = ab.verdict(base, change)
    assert row["median_ratio"] == 0.8
    assert (row["wins"], row["losses"], row["rounds"]) == (3, 1, 5)
    assert row["sign_test_p"] == ab.sign_test(3, 1) == 0.625
    assert row["call"] == "unresolved"


def test_call_needs_nine_tenths_of_the_rounds_and_a_gap_past_the_spread(ab):
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    assert ab.quartiles(base) == pytest.approx((0.9825, 1.0, 1.0175))
    faster = [b * 0.8 for b in base]
    assert ab.verdict(base, faster)["call"] == "faster"
    assert ab.verdict(faster, base)["call"] == "slower"
    # nine wins of ten still count; eight do not
    nine = faster[:9] + [base[9] * 1.1]
    assert ab.verdict(base, nine)["call"] == "faster"
    eight = faster[:8] + [b * 1.1 for b in base[8:]]
    assert ab.verdict(base, eight)["call"] == "unresolved"
    # every round won, but by less than the base's own interquartile range
    close = [b - 0.01 for b in base]
    assert ab.verdict(base, close)["wins"] == 10
    assert ab.verdict(base, close)["call"] == "unresolved"
    assert ab.quartiles([2.0]) == (2.0, 2.0, 2.0)
    # fewer than ten rounds call nothing, however one-sided
    assert ab.verdict(base[:9], faster[:9])["wins"] == 9
    assert ab.verdict(base[:9], faster[:9])["call"] == "unresolved"
    assert ab.verdict([2.0], [1.0])["call"] == "unresolved"
