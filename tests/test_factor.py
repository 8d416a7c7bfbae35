"""Factorization engine against trial-division and divisor-sieve oracles.

Every check here is an exhaustive scan over a bounded range; the oracles
share no code with the library (trial division and an additive divisor
sieve versus the segmented smallest-prime-factor machinery).
"""

import math
import tracemalloc

import numpy as np
import pytest

from sigmalab import (
    FactorSieve,
    OutOfRangeError,
    ResourceBudgetError,
    kth_largest_prime_factor,
    odd_part_is_square_array,
    psi_smooth_count,
    rough_count,
    sigma_mod,
    two_adic_square_form,
)


def trial_factor(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisor_sigma_table(limit: int) -> np.ndarray:
    """sigma(n) for 0 <= n <= limit by adding each d to its multiples."""
    sig = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        sig[d::d] += d
    return sig


def test_factorize_reconstructs_n(sieve_small):
    for n in range(1, 20_001):
        fact = sieve_small.factorize(n)
        prod = 1
        last = 1
        for p, e in fact.factors:
            assert p > last and e >= 1
            last = p
            prod *= p ** e
        assert prod == n
        assert fact.n == n


def test_factorize_matches_trial_division(sieve_small):
    for n in range(2, 20_001):
        assert sieve_small.factorize(n).factors == tuple(trial_factor(n))


def test_sigma_mod_matches_divisor_sieve(sieve_small):
    sig = divisor_sigma_table(20_000)
    for q in (2, 5, 7, 12, 97, 10**9 + 7):
        for n in range(1, 20_001):
            assert sigma_mod(sieve_small.factorize(n), q) == sig[n] % q


def test_prime_factor_multiset_order(sieve_small):
    """P_1 >= P_2 >= ... with multiplicity, and P_k = 1 once k > Omega(n)."""
    for n in range(1, 20_001):
        fact = sieve_small.factorize(n)
        flat = sorted(
            (p for p, e in fact.factors for _ in range(e)), reverse=True)
        assert fact.num_prime_factors == len(flat)
        assert fact.num_distinct_primes == len(fact.factors)
        for k in range(1, 6):
            expected = flat[k - 1] if k <= len(flat) else 1
            assert kth_largest_prime_factor(fact, k) == expected
        if n > 1:
            assert fact.largest_prime_factor == flat[0]
            assert fact.smallest_prime_factor == flat[-1]


def test_primes_match_plain_sieve(sieve_small):
    limit = 20_000
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if mask[p]:
            mask[p * p::p] = False
    expected = np.flatnonzero(mask)
    assert np.array_equal(sieve_small.primes_up_to(limit), expected)
    for n in (2, 3, 4, 9, 91, 97, 19_997, 20_000):
        assert sieve_small.is_prime(n) == bool(mask[n])


def test_smooth_and_rough_counts_brute(sieve_small):
    """Psi(x,z) and the y-rough count against per-n trial division.

    n = 1 is both z-smooth and y-rough for every threshold.
    """
    x = 2_000
    largest = [0, 1] + [max(p for p, _ in trial_factor(n)) for n in range(2, x + 1)]
    smallest = [0, x + 1] + [min(p for p, _ in trial_factor(n)) for n in range(2, x + 1)]
    for bound in (2, 3, 5, 7.5, 29, 500):
        want_smooth = sum(1 for n in range(1, x + 1) if largest[n] <= bound)
        want_rough = sum(1 for n in range(1, x + 1) if smallest[n] > bound)
        assert psi_smooth_count(x, bound, sieve_small) == want_smooth
        assert rough_count(x, bound, sieve_small) == want_rough


def test_counts_without_a_sieve(sieve_small):
    """The sieve only bounds x, so leaving it out changes no count."""
    for x in (1, 2, 1_000, 20_000):
        for bound in (2, 7.5, 19, 150):
            assert psi_smooth_count(x, bound) == psi_smooth_count(x, bound, sieve_small)
            assert rough_count(x, bound) == rough_count(x, bound, sieve_small)
    assert psi_smooth_count(30_000, 7) == psi_smooth_count(30_000, 7, FactorSieve(30_000))


def test_sieve_builds_its_table_on_first_use():
    """Construction checks the limit but allocates no table; the first
    read builds it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sieve = FactorSieve(10**7)
        assert tracemalloc.get_traced_memory()[0] - before < 1 << 20
    finally:
        tracemalloc.stop()
    for n in list(range(9_999_900, 10**7 + 1)) + [1, 2, 4_998]:
        assert sieve.factorize(n).factors == tuple(trial_factor(n))
    assert sieve.smallest_prime_factor(9_999_997) == 7
    assert sieve.is_prime(9_999_991) and not sieve.is_prime(9_999_993)
    assert sieve.primes_up_to(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_two_adic_square_form_exhaustive(sieve_small):
    """n = 2^k m^2 with m odd exists iff the odd part of n is a square."""
    for n in range(1, 10_001):
        form = two_adic_square_form(sieve_small.factorize(n))
        odd = n
        k = 0
        while odd % 2 == 0:
            odd //= 2
            k += 1
        root = math.isqrt(odd)
        if root * root == odd:
            assert form.valid
            assert form.two_exponent == k
            assert form.odd_root == root
            assert (2 ** form.two_exponent) * form.odd_root ** 2 == n
        else:
            assert not form.valid


def test_odd_part_square_array_matches_scalar(sieve_small):
    ns = np.arange(1, 10_001)
    vec = odd_part_is_square_array(ns)
    for n in ns:
        assert vec[n - 1] == two_adic_square_form(
            sieve_small.factorize(int(n))).valid


def test_build_sieve_equivalent():
    s = FactorSieve(5_000)
    assert s.limit == 5_000
    assert s.factorize(4_998).factors == ((2, 1), (3, 1), (7, 2), (17, 1))


def test_range_and_budget_errors(sieve_small):
    with pytest.raises(OutOfRangeError):
        sieve_small.factorize(20_001)
    with pytest.raises(OutOfRangeError):
        sieve_small.factorize(0)
    with pytest.raises(OutOfRangeError):
        psi_smooth_count(30_000, 7, sieve_small)
    sieve = FactorSieve(10**9, memory_budget=10**6)  # the table is priced when built
    with pytest.raises(ResourceBudgetError):
        sieve.factorize(12)
    assert psi_smooth_count(1000, 7, sieve) == psi_smooth_count(1000, 7)
    with pytest.raises(OutOfRangeError):  # uint32 entries, whatever the budget
        FactorSieve(2**32, memory_budget=10**12)
    with pytest.raises(ValueError):
        kth_largest_prime_factor(sieve_small.factorize(12), 0)
