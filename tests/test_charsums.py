"""Character averages over v+1 and v^2+v+1: closed forms vs. brute force.

rho_chi = (1/phi) sum over units v of chi(v+1) and
eta_chi = (1/phi) sum over units v of chi(v^2+v+1); the closed forms are
checked against literal unit-loop sums, and the extremal quarter bound is
re-derived on the fixed eighteen conductors.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sigmalab import (
    EXCEPTIONAL_CONDUCTORS,
    OutOfRangeError,
    PolynomialSpec,
    ResourceBudgetError,
    UnsupportedModulusError,
    alpha_F,
    build_modulus,
    enumerate_characters,
    eta_brute,
    eta_factored,
    eta_power_sum,
    eta_table,
    quadratic_root_count,
    rho_brute,
    rho_closed_form,
    rho_exact,
    rho_power_sum,
    rho_table,
    s_chi_ell,
    s_chi_ell_closed_form,
    verify_s_set,
    weil_clz_check,
)
from sigmalab import charsums
from sigmalab._scan import check_budget


def literal_mean(chi, poly_vals, q: int) -> complex:
    """(1/phi) sum over units v of chi(F(v)) with a bare python loop."""
    total = 0j
    units = 0
    for v in range(q):
        if math.gcd(v, q) == 1:
            units += 1
            total += chi(poly_vals(v) % q).to_complex()
    return total / units


def test_rho_closed_form_small_scan():
    """Odd q <= 151, every character; the 500 scan runs in acceptance."""
    for q in range(3, 152, 2):
        m = build_modulus(q)
        for chi in enumerate_characters(m):
            brute = rho_brute(chi)
            closed = rho_closed_form(chi)
            assert abs(brute - closed) < 1e-10, (q, chi.exponents)
            assert abs(brute - literal_mean(chi, lambda v: v + 1, q)) < 1e-10


def test_rho_pinned_quartic_mod_5():
    """The character mod 5 with chi(2) = i has rho = -1/4."""
    m = build_modulus(5)
    found = False
    for chi in enumerate_characters(m):
        if chi(2).to_complex() == pytest.approx(1j):
            found = True
            assert rho_brute(chi) == pytest.approx(-0.25, abs=1e-12)
            assert rho_exact(chi) == Fraction(-1, 4)
    assert found


def test_rho_exact_matches_float():
    for q in (5, 9, 15, 35, 45, 105):
        m = build_modulus(q)
        for chi in enumerate_characters(m):
            exact = rho_exact(chi)
            if exact is not None:
                assert abs(float(exact) - rho_brute(chi)) < 1e-10


def test_s_chi_ell_product_recovers_rho():
    """phi(q) * rho_chi = product over ell | q of S_{chi, ell}, odd q."""
    for q in (5, 9, 15, 21, 45, 63, 75, 99):
        m = build_modulus(q)
        for chi in enumerate_characters(m):
            prod = 1 + 0j
            for ell, _ in m.factorization:
                prod *= s_chi_ell(chi.component(ell), ell)
            assert abs(prod - m.phi * rho_brute(chi)) < 1e-8, (q, chi.exponents)


def test_s_chi_ell_closed_form_cases():
    """f = 1 gives ell^{e-1}(ell-2), f = ell gives -ell^{e-1}, ell^2 | f gives 0."""
    for q in (5, 25, 27, 49, 125):
        m = build_modulus(q)
        ell = m.factorization[0][0]
        for chi in enumerate_characters(m):
            direct = s_chi_ell(chi, ell)
            closed = s_chi_ell_closed_form(chi, ell)
            assert abs(direct - closed) < 1e-9


@pytest.mark.parametrize("fn", [s_chi_ell, s_chi_ell_closed_form])
def test_s_chi_ell_refuses_a_wrong_ell_or_e(fn):
    """An ell or e that disagrees with q = 5^2 raises ValueError, as does a
    q that is no odd prime power; the matching pair is accepted."""
    chi = build_modulus(25).character(1)
    assert fn(chi, 5, 2) == fn(chi)
    for ell, e in ((3, None), (7, 2), (None, 1), (5, 3)):
        with pytest.raises(ValueError):
            fn(chi, ell, e)
    for q in (15, 8):
        with pytest.raises(UnsupportedModulusError):
            fn(build_modulus(q).character(1))


def test_eta_factored_small_scan():
    """q <= 100 coprime to 3, both parities; 500 runs in acceptance."""
    for q in range(2, 101):
        if q % 3 == 0:
            continue
        m = build_modulus(q)
        for chi in enumerate_characters(m):
            brute = eta_brute(chi)
            fact = eta_factored(chi)
            assert abs(brute - fact) < 1e-10, (q, chi.exponents)
            assert abs(brute - literal_mean(chi, lambda v: v * v + v + 1, q)) < 1e-10


def test_eta_pinned_quartic_mod_5():
    """The character mod 5 with chi(2) = i has eta = (1 - i)/4."""
    m = build_modulus(5)
    for chi in enumerate_characters(m):
        if chi(2).to_complex() == pytest.approx(1j):
            assert eta_brute(chi) == pytest.approx((1 - 1j) / 4, abs=1e-12)
            assert eta_factored(chi) == pytest.approx((1 - 1j) / 4, abs=1e-12)


def test_eta_principal_is_local_density_product():
    """eta_{chi_0} = prod over ell | q of (1 - r_ell/(ell - 1)), odd part."""
    for q in (5, 7, 11, 13, 25, 35, 49, 55, 77):
        m = build_modulus(q)
        chi0 = m.principal_character()
        want = 1.0
        for ell, _ in m.factorization:
            if ell == 2:
                continue
            want *= 1 - quadratic_root_count(ell) / (ell - 1)
        assert eta_brute(chi0) == pytest.approx(want, abs=1e-12)
        assert float(m.alpha_tilde) == pytest.approx(want, abs=1e-12)


def test_quadratic_root_count_matches_brute():
    """Roots of T^2+T+1 mod ell: 2 if ell = 1 (mod 3), 1 if ell = 3, else 0."""
    def sieve_primes(limit):
        return [p for p in range(2, limit) if all(p % d for d in range(2, p))]
    for ell in sieve_primes(200):
        brute = sum(1 for t in range(ell) if (t * t + t + 1) % ell == 0)
        assert quadratic_root_count(ell) == brute
        if ell == 3:
            assert brute == 1
        elif ell % 3 == 1:
            assert brute == 2
        else:
            assert brute == 0


def test_power_sums():
    """Sum over nonprincipal chi of |rho|^2 at q = 15 is exactly 15/64,
    and the eta power sum agrees with a literal loop."""
    m = build_modulus(15)
    assert rho_power_sum(m, 2) == pytest.approx(15 / 64, abs=1e-12)
    for q in (5, 7, 10, 13):
        mq = build_modulus(q)
        want = sum(abs(eta_brute(chi)) ** 3
                   for chi in enumerate_characters(mq) if not chi.is_principal)
        assert eta_power_sum(mq, 3) == pytest.approx(want, abs=1e-10)
        if q % 2:
            want2 = sum(abs(rho_brute(chi)) ** 2
                        for chi in enumerate_characters(mq) if not chi.is_principal)
            assert rho_power_sum(mq, 2) == pytest.approx(want2, abs=1e-10)


def test_rho_power_sum_bounded_by_alpha():
    for q in range(3, 152, 2):
        m = build_modulus(q)
        assert rho_power_sum(m, 2) <= float(m.alpha) + 1e-9


def test_alpha_fractions():
    """alpha(q) = prod (ell-2)/(ell-1) over odd prime ell | q, zero if 2 | q;
    alpha~(q) = prod (ell-3)/(ell-1) over ell | q, ell = 1 mod 3."""
    assert build_modulus(5).alpha == Fraction(3, 4)
    assert build_modulus(15).alpha == Fraction(3, 8)
    assert build_modulus(10).alpha == Fraction(0)
    assert build_modulus(7).alpha_tilde == Fraction(4, 6)
    assert build_modulus(10).alpha_tilde == Fraction(1)
    assert build_modulus(91).alpha_tilde == Fraction(4, 6) * Fraction(10, 12)


def test_alpha_F_counts_units():
    """alpha_F(q) = density of units v with F(v) also a unit."""
    specs = [PolynomialSpec((1, 1)), PolynomialSpec((1, 1, 1)),
             PolynomialSpec((3, 0, 2))]
    for q in (5, 7, 12, 16, 35, 55):
        m = build_modulus(q)
        for F in specs:
            units = [v for v in range(q) if math.gcd(v, q) == 1]
            want = Fraction(
                sum(1 for v in units if math.gcd(F(v) % q, q) == 1),
                len(units))
            assert alpha_F(F, m) == want


def test_polynomial_spec():
    F = PolynomialSpec((1, 1, 1))
    assert F.degree == 2
    assert str(F) == "T^2+T+1"
    assert F(10) == 111
    assert F(10, modulus=7) == 111 % 7
    import numpy as np
    vals = F.evaluate_array(np.arange(20), 13)
    for v in range(20):
        assert vals[v] == (v * v + v + 1) % 13
    with pytest.raises(ValueError):
        PolynomialSpec((1,))
    with pytest.raises(ValueError):
        PolynomialSpec((1, 1, 0))
    # a coefficient beyond int64 is reduced mod q before the Horner step
    big, small = PolynomialSpec((10**19, 1)), PolynomialSpec((10**19 % 7, 1))
    assert big.evaluate_array(np.arange(50), 7).tolist() == [(10**19 + n) % 7 for n in range(50)]
    assert alpha_F(big, build_modulus(7)) == alpha_F(small, build_modulus(7))


@pytest.mark.parametrize("modulus", [2, 13, 3_037_000_499, 3_037_000_500, 3_037_000_501,
                                     2**32 - 5, 2**32 + 15, 10**10 + 19, 2**62 + 135, 2**63 - 25])
def test_evaluate_array_exact_beyond_int64_products(modulus):
    """Each Horner product is taken modulo the modulus, also where
    (modulus - 1)^2 leaves int64, so every value equals Python's Horner."""
    rng = np.random.default_rng(modulus % 2**32)
    v = np.concatenate((rng.integers(0, modulus, 3_000), [0, 1, modulus - 2, modulus - 1]))
    for F in (PolynomialSpec((1, 1)), PolynomialSpec((1, 1, 1)),
              PolynomialSpec((-7, 3, 0, 10**19, 5))):
        assert F.evaluate_array(v, modulus).tolist() == [F(a, modulus) for a in v.tolist()]


def test_evaluate_array_at_a_prime_above_two_to_the_32():
    """F = T^2 + T + 1 at v = ell - 2 is 4 - 2 + 1 = 3 modulo ell = 4294967311;
    the int64 Horner step wrapped to 4294967089."""
    ell = 4_294_967_311
    assert PolynomialSpec((1, 1, 1)).evaluate_array(np.array([ell - 2]), ell).tolist() == [3]


def test_exceptional_conductor_set():
    assert len(EXCEPTIONAL_CONDUCTORS) == 18
    assert {5, 7, 13, 35} <= set(EXCEPTIONAL_CONDUCTORS)
    for f in EXCEPTIONAL_CONDUCTORS:
        assert f % 2 == 1 and f % 3 != 0


def test_verify_s_set_global():
    report = verify_s_set()
    assert len(report.rows) == 18
    assert report.within_quarter
    assert report.global_max == pytest.approx(0.25, abs=1e-12)
    assert set(report.attaining) == {5, 7, 13, 35}
    assert report.restricted_to_divisors_of is None


def test_verify_s_set_restricted():
    report = verify_s_set(35)
    assert report.restricted_to_divisors_of == 35
    assert {r.conductor for r in report.rows} == {5, 7, 35}


def test_verify_s_set_builds_no_modulus_of_q():
    """A prime q near 10^9 restricts the report to no row, with nothing of
    size q allocated; q outside 1 <= q < 2^63 is out of range."""
    tracemalloc.start()
    try:
        report = verify_s_set(1_000_000_007)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.rows == () and report.within_quarter and peak < 10**6, peak
    for q in (0, -1, 2**63):
        with pytest.raises(OutOfRangeError, match="q must satisfy 1 <= q < 2\\^63"):
            verify_s_set(q)


def test_weil_bound_extremes():
    """mod 25: 16 primitive characters, the largest sum is exactly 5."""
    report = weil_clz_check(5, 2)
    assert report.num_primitive == 16
    assert report.bound == pytest.approx(5.0)
    assert report.max_abs == pytest.approx(5.0, abs=1e-9)
    assert report.all_within
    report = weil_clz_check(11, 2)
    assert report.all_within and report.max_ratio <= 1 + 1e-9


@pytest.mark.parametrize("ell, e", [(4, 2), (3, 2), (7, 1), (5, 28), (7, 23), (5, 10**9)])
def test_weil_check_refuses_bad_ell_or_e(ell, e):
    """ell must be a prime at least 5, e at least 2 and ell^e below 2^63,
    which is checked without computing a huge power."""
    with pytest.raises(OutOfRangeError):
        weil_clz_check(ell, e)


def test_weil_check_prices_a_large_power():
    """5^27 < 2^63 fits the range, but its modulus tables do not fit the
    default budget."""
    with pytest.raises(ResourceBudgetError):
        weil_clz_check(5, 27)


@pytest.mark.parametrize("ell, e", [(5, 8), (7, 7)])
def test_weil_check_peak_within_price(monkeypatch, ell, e):
    """The traced peak of a Weil check stays within the bytes it checks
    against the budget, its modulus tables and value histogram, and at or
    above 80% of them."""
    prices = []
    monkeypatch.setattr(charsums, "check_budget",
                        lambda need, *rest: prices.append(need) or check_budget(need, *rest))
    tracemalloc.start()
    try:
        weil_clz_check(ell, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(prices) == 1 and 0.8 * prices[0] <= peak <= prices[0], (peak, prices)


def test_weil_check_keeps_nothing():
    """Its modulus is built for the call and freed with it: the traced
    memory is back within 64 kB of where it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        weil_clz_check(5, 6)
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert kept < 1 << 16, kept


def test_tables_align_with_single_calls():
    m = build_modulus(35)
    chars = list(enumerate_characters(m))
    for row, chi in zip(rho_table(m), chars):
        assert row.index == chi.index
        assert row.conductor == chi.conductor
        assert abs(row.value - rho_brute(chi)) < 1e-10
    for row, chi in zip(eta_table(m), chars):
        assert abs(row.value - eta_brute(chi)) < 1e-10


def test_weil_check_13_to_the_4():
    """The check runs at 13^4, over every primitive character."""
    report = weil_clz_check(13, 4)
    assert report.all_within
    assert report.num_primitive == 13**3 * 12 - 13**2 * 12


def test_weil_worst_index_is_smallest_near_maximum():
    """worst_index is the least primitive t whose |S| lies within
    1e-9 * bound of max_abs, recomputed here character by character."""
    report = weil_clz_check(5, 2)
    m = build_modulus(25)
    v = np.arange(25)
    vals = (v * v + v + 1) % 25
    sums = {chi.index: abs(chi.complex_table()[vals].sum())
            for chi in enumerate_characters(m) if chi.conductor == 25}
    assert max(sums.values()) == pytest.approx(report.max_abs, abs=1e-9)
    near = [t for t, s in sums.items() if s >= report.max_abs - 1e-9 * report.bound]
    assert report.worst_index == min(near)
