"""Rough-number twisted sums, the Gamma kernel, and asymptotic main terms.

The Gamma implementation is compared against mpmath at 30+ digits on a
deterministic grid; the rough histograms are compared against per-n trial
division; every closed-form example is evaluated from scratch here.
"""

import cmath
import math
import tracemalloc

import mpmath
import pytest

from sigmalab import (
    EULER_GAMMA,
    GammaPoleError,
    OutOfRangeError,
    TwistedSumParams,
    complex_gamma,
    convergence_scan,
    exact_twisted_sum,
    g_one_euler_product,
    lsd_main_term,
    reciprocal_gamma,
    rough_count,
    rough_omega_histogram,
)
from sigmalab import lsd
from sigmalab._scan import check_budget

mpmath.mp.dps = 35


def gamma_grid() -> list[complex]:
    """100 deterministic points with |s| <= 5, staying off the poles."""
    pts = []
    k = 0
    while len(pts) < 100:
        k += 1
        re = ((k * 37) % 101 - 50) / 10.5
        im = ((k * 61) % 97 - 48) / 10.2
        s = complex(re, im)
        if abs(s) > 5:
            continue
        near_pole = (abs(im) < 0.05 and re <= 0.05
                     and abs(re - round(re)) < 0.05)
        if near_pole:
            continue
        pts.append(s)
    return pts


def test_gamma_against_mpmath_grid():
    for s in gamma_grid():
        want = complex(mpmath.gamma(mpmath.mpc(s.real, s.imag)))
        got = complex_gamma(s)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), s


def test_gamma_functional_equation():
    """Gamma(s+1) = s * Gamma(s) on the grid, relative error 1e-9."""
    for s in gamma_grid():
        lhs = complex_gamma(s + 1)
        rhs = s * complex_gamma(s)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs)), s


def test_gamma_pinned_values():
    assert complex_gamma(1) == pytest.approx(1.0, abs=1e-12)
    assert complex_gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert complex_gamma(4) == pytest.approx(6.0, rel=1e-12)
    assert complex_gamma(-0.5) == pytest.approx(-2 * math.sqrt(math.pi), rel=1e-11)


def test_gamma_poles_raise_and_reciprocal_vanishes():
    for k in (0, -1, -2, -7):
        with pytest.raises(GammaPoleError):
            complex_gamma(k)
        assert reciprocal_gamma(k) == 0j
    # reciprocal gamma is entire: finite and smooth through the poles
    for k in (0, -1, -3):
        eps = 1e-6
        a = reciprocal_gamma(k + eps)
        b = reciprocal_gamma(k - eps)
        assert abs(a) < 1e-4 and abs(b) < 1e-4


def test_euler_gamma_constant():
    want = float(mpmath.euler)
    assert EULER_GAMMA == pytest.approx(want, abs=1e-15)


def brute_rough_omega(x: int, y: float) -> dict[int, int]:
    """Histogram of Omega(n) over y-rough n <= x by trial division."""
    hist = {0: 1}  # n = 1
    for n in range(2, x + 1):
        m, omega, small = n, 0, False
        d = 2
        while d * d <= m:
            while m % d == 0:
                if d <= y:
                    small = True
                m //= d
                omega += 1
            d += 1
        if m > 1:
            if m <= y:
                small = True
            omega += 1
        if not small:
            hist[omega] = hist.get(omega, 0) + 1
    return hist


def test_rough_omega_histogram_brute(sieve_small):
    for x, y in ((2_000, 3), (2_000, 10), (5_000, 30), (500, 2)):
        hist = rough_omega_histogram(x, y)
        want = brute_rough_omega(x, y)
        for k, n in want.items():
            assert hist[k] == n, (x, y, k)
        assert hist.sum() == sum(want.values())
        assert hist.sum() == rough_count(x, y, sieve_small)


def test_twisted_sum_tiny_closed_form():
    """x = 10, y = 2: the 2-rough n are 1, 3, 5, 7, 9 so the generating
    polynomial in beta is 1 + 3 beta + beta^2."""
    for beta in (1.0, 0.5, 0.25 + 0.5j, -1.0):
        val = exact_twisted_sum(TwistedSumParams(10, 2.0, beta))
        assert val == pytest.approx(1 + 3 * beta + beta ** 2, abs=1e-12)


def test_twisted_sum_beta_edge_cases(sieve_small):
    x = 10_000
    assert exact_twisted_sum(TwistedSumParams(x, 5.0, 1.0)) == pytest.approx(
        rough_count(x, 5, sieve_small))
    assert exact_twisted_sum(TwistedSumParams(x, 5.0, 0.0)) == pytest.approx(1.0)


def test_twisted_sum_bounded_by_rough_count(sieve_small):
    """|sum of beta^Omega(n)| <= rough count whenever |beta| <= 1."""
    x = 20_000
    for y in (3, 10):
        cap = rough_count(x, y, sieve_small)
        for beta in (1j, -0.8, 0.6 + 0.8j, cmath.exp(2j)):
            val = exact_twisted_sum(TwistedSumParams(x, float(y), beta))
            assert abs(val) <= cap + 1e-9


def test_params_validation():
    with pytest.raises(OutOfRangeError):
        TwistedSumParams(0, 10.0, 1.0)
    with pytest.raises(OutOfRangeError):
        TwistedSumParams(100, 1.5, 1.0)
    with pytest.raises(OutOfRangeError):
        TwistedSumParams(100, 10.0, 2.5)
    p = TwistedSumParams(10**6, 300.0, 0.5, z=10**5)
    assert p.meets_size_hypothesis
    assert not TwistedSumParams(10**6, 10.0, 0.5).meets_size_hypothesis
    # smoothness window y <= z^(1/(18 log log z)^2): the cap stays below
    # 1.06 for every float-representable z (it first admits y = 2 near
    # z = e^33800), so the flag matches the formula and is False at any
    # size a sieve can reach
    assert TwistedSumParams(10**6, 10.0, 1.0).meets_smoothness_window is None
    for y, z in ((2.0, 10.0 ** 6), (2.0, 10.0 ** 40), (300.0, 10.0 ** 300)):
        flag = TwistedSumParams(10**6, y, 1.0, z=z).meets_smoothness_window
        want = y <= z ** ((18 * math.log(math.log(z))) ** -2)
        assert flag == want
        assert flag is False


def test_main_term_closed_forms():
    """X-scaling identity: the main term is X exp((beta-1) loglog X
    - beta loglog Y - gamma beta) / Gamma(beta)."""
    for x, y, beta in ((100, 2.0, 1.0), (8_886_111, math.e ** 2, 0.5),
                       (10 ** 7, 10.0, 0.3 + 0.2j)):
        want = complex(
            x * cmath.exp((beta - 1) * cmath.log(math.log(x))
                          - beta * cmath.log(math.log(y))
                          - EULER_GAMMA * beta)
            / complex(mpmath.gamma(beta)))
        got = lsd_main_term(TwistedSumParams(x, y, beta))
        assert abs(got - want) <= 1e-10 * abs(want), (x, y, beta)


def test_main_term_beta_one_simplifies():
    """beta = 1: main term is X * e^{-gamma} / log Y exactly."""
    got = lsd_main_term(TwistedSumParams(100, 2.0, 1.0))
    want = 100.0 * math.exp(-EULER_GAMMA) / math.log(2.0)
    assert got.real == pytest.approx(want, rel=1e-12)
    assert got.imag == 0.0


def test_main_term_zero_at_gamma_poles():
    assert lsd_main_term(TwistedSumParams(1000, 5.0, 0.0)) == 0j
    with pytest.raises(OutOfRangeError):
        lsd_main_term(TwistedSumParams(1, 5.0, 1.0))


def test_main_term_continuous_in_beta():
    base = lsd_main_term(TwistedSumParams(10 ** 6, 10.0, 0.5))
    for eps in (1e-7, -1e-7):
        near = lsd_main_term(TwistedSumParams(10 ** 6, 10.0, 0.5 + eps))
        assert abs(near - base) < 1e-4 * abs(base)


def test_g_one_beta_one_is_plain_euler_product():
    """beta = 1 collapses every factor above y to 1, so the value is
    prod over p <= y of (1 - 1/p); for y = 10 that is 8/35 * (1 - 1/2)
    adjusted: (1/2)(2/3)(4/5)(6/7) = 8/35."""
    res = g_one_euler_product(10.0, 1.0, 10**6)
    assert res.value.real == pytest.approx(8 / 35, rel=1e-12)
    assert abs(res.value.imag) < 1e-15


def test_g_one_truncation_stability():
    """Moving p_max from 1e6 to 1e7 at beta = 1/2 changes the value by
    less than 1e-8: the completed tail absorbs the truncation point."""
    a = g_one_euler_product(100.0, 0.5, 10**6)
    b = g_one_euler_product(100.0, 0.5, 10**7)
    assert abs(a.value - b.value) < 1e-8
    assert a.tail_estimate > abs(a.value - b.value) / 50


def test_g_one_peak_within_price(monkeypatch):
    """The traced peak of the Euler product stays within the bytes it
    checks against the budget before building its primes, and reaches
    at least 80% of them."""
    prices = []
    monkeypatch.setattr(lsd, "check_budget",
                        lambda need, *rest: prices.append(need) or check_budget(need, *rest))
    tracemalloc.start()
    try:
        g_one_euler_product(7.0, 0.3 + 0.4j, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(prices) == 1 and 0.8 * prices[0] <= peak <= prices[0], (peak, prices)


def test_g_one_tail_estimate_decreases():
    est = [g_one_euler_product(30.0, 0.7, p).tail_estimate
           for p in (10**4, 10**5, 10**6)]
    assert est[0] > est[1] > est[2] > 0


def test_convergence_scan_structure():
    rows = convergence_scan(1.0, [1_000, 10_000, 20_000], 10.0)
    assert [r.params.x for r in rows] == [1_000, 10_000, 20_000]
    for r in rows:
        assert r.ratio is not None
        assert r.ratio == pytest.approx(r.exact / r.main_term)
    # beta = 1, y = 10: ratios drift toward 1 from below at these scales
    assert 0.5 < abs(rows[0].ratio) < 1.2
    assert abs(abs(rows[2].ratio) - 1) < abs(abs(rows[0].ratio) - 1) + 0.05
