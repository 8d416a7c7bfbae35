"""The one segment kernel, scan_segment, against oracles that never call it:
FactorSieve.factorize + sigma_mod + kth_largest_prime_factor below 10^6, a
segmented trial division in Python integers near 10^12, across the switch
near 3.5*10^8 above which sigma(n) may leave int32 and the switch near
1.28*10^18 above which it may leave int64, and at the top of the
int64 range.  The rough Omega-histogram and rough count, which run the
sublinear engine, against the same factorizations and brute force.  Also
the int64 range guard of every scan entry point."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmalab import (
    CensusFilter,
    Factorization,
    OutOfRangeError,
    build_modulus,
    census,
    iter_sigma_segments,
    kth_largest_prime_factor,
    overrep_witness_even,
    overrep_witness_sqfree,
    rough_count,
    rough_omega_histogram,
    sigma_mod,
    twisted_partial_sum,
)
from sigmalab._scan import MAX_SCAN_Q, MAX_SCAN_X, primes_up_to, scan_segment

SETTINGS = settings(max_examples=40, deadline=None)
thresholds = st.one_of(st.none(), st.integers(1, 2_000))


@pytest.fixture(scope="module")
def primes_million(sieve_million):
    return sieve_million.primes()


@pytest.fixture(scope="module")
def omega_and_spf(sieve_million):
    """Omega(n) and the least prime factor for 0 <= n <= 30 000 (1 at n <= 1)."""
    facts = [Factorization(())] + [sieve_million.factorize(n) for n in range(1, 30_001)]
    omega = np.array([f.num_prime_factors for f in facts])
    spf = np.array([f.smallest_prime_factor for f in facts])
    return omega, spf


def trial_factorizations(lo: int, hi: int, primes: np.ndarray) -> list[Factorization]:
    """Factorizations of lo..hi-1 by dividing out each prime at its
    multiples, in Python integers; primes must reach sqrt(hi - 1)."""
    rest = list(range(lo, hi))
    found = [[] for _ in rest]
    for p in primes.tolist():
        if p * p > hi - 1:
            break
        for i in range(-lo % p, hi - lo, p):
            e = 0
            while rest[i] % p == 0:
                rest[i] //= p
                e += 1
            found[i].append((p, e))
    for i, r in enumerate(rest):
        if r > 1:
            found[i].append((r, 1))
    return [Factorization(tuple(f)) for f in found]


def large_count(f: Factorization, t: int) -> int:
    """Prime factors > t with multiplicity, read off P_k(n) > t."""
    k = 0
    while kth_largest_prime_factor(f, k + 1) > t:
        k += 1
    return k


# The largest segment top at which sigma(n) < top * prod p/(p - 1) over the
# first omega_max(top) primes still fits int32: sigma mod q is int32 up to it.
SIGMA_INT32_TOP = 351_302_974


def check_sigma(seg, facts, hi, q, t):
    """With every prime up to sqrt(hi - 1) walked, the cofactor is the one
    prime factor above that root, or 1.  sigma is int32 exactly when
    hi - 1 <= SIGMA_INT32_TOP."""
    root = math.isqrt(hi - 1)
    assert seg.sigma.dtype == (np.int32 if hi - 1 <= SIGMA_INT32_TOP else np.int64)
    assert seg.sigma.tolist() == [sigma_mod(f, q) for f in facts]
    if t is not None:
        assert seg.large.tolist() == [large_count(f, t) for f in facts]
    assert seg.cofactor.tolist() == [
        f.largest_prime_factor if f.largest_prime_factor > root else 1 for f in facts]


@SETTINGS
@given(lo=st.integers(1, 10**6 - 3_000), size=st.integers(1, 3_000),
       q=st.integers(1, 10**7), t=thresholds)
def test_sigma_and_large_counts_match_factorize(sieve_million, primes_million, lo, size, q, t):
    hi = lo + size
    seg = scan_segment(lo, hi, primes_million, q=q, above=t)
    check_sigma(seg, [sieve_million.factorize(n) for n in range(lo, hi)], hi, q, t)


@settings(max_examples=15, deadline=None)
@given(lo=st.integers(1, 10**6 - 3_000), size=st.integers(1, 3_000),
       q=st.integers(2**31 - 10, MAX_SCAN_Q), t=thresholds)
def test_narrow_sigma_with_q_beyond_int32(sieve_million, primes_million, lo, size, q, t):
    """sigma < 2^31 <= q: the int32 sigma skips its final reduction, which
    could not divide by such a q, and is still sigma(n) itself."""
    hi = lo + size
    seg = scan_segment(lo, hi, primes_million, q=q, above=t)
    check_sigma(seg, [sieve_million.factorize(n) for n in range(lo, hi)], hi, q, t)


@settings(max_examples=20, deadline=None)
@given(top=st.integers(SIGMA_INT32_TOP - 2_000, SIGMA_INT32_TOP + 2_000),
       size=st.integers(1, 2_000),
       q=st.one_of(st.integers(1, 10**7), st.integers(2**31 - 10, MAX_SCAN_Q)),
       t=thresholds)
def test_sigma_across_int32_sigma_switch_matches_trial_division(primes_million, top, size,
                                                                 q, t):
    """Segments ending near SIGMA_INT32_TOP or straddling it: sigma is int32
    exactly when hi - 1 <= SIGMA_INT32_TOP, and equal to sigma_mod on both
    sides."""
    lo = top - size + 1
    hi = top + 1
    seg = scan_segment(lo, hi, primes_million, q=q, above=t)
    check_sigma(seg, trial_factorizations(lo, hi, primes_million), hi, q, t)


@pytest.mark.parametrize("q", [5, 2**31 - 1, MAX_SCAN_Q])
def test_sigma_of_abundant_n_below_int32_sigma_switch(q):
    """n = 2^3 * 3^3 * 5 * 7 * ... * 19 <= SIGMA_INT32_TOP has
    sigma(n) = 1 741 824 000, above 2^30: the int32 sigma holds it
    unreduced."""
    n = 2**3 * 3**3 * 5 * 7 * 11 * 13 * 17 * 19
    assert n <= SIGMA_INT32_TOP
    seg = scan_segment(n, n + 1, primes_up_to(math.isqrt(n)), q=q)
    assert seg.sigma.dtype == np.int32
    assert seg.sigma.tolist() == [1_741_824_000 % q]


@settings(max_examples=15, deadline=None)
@given(offset=st.integers(-10**6, 10**6), size=st.integers(1, 400),
       q=st.integers(1, 10**7), t=thresholds)
def test_sigma_near_10_12_matches_trial_division(primes_million, offset, size, q, t):
    lo = 10**12 + offset
    hi = lo + size
    seg = scan_segment(lo, hi, primes_million, q=q, above=t)
    check_sigma(seg, trial_factorizations(lo, hi, primes_million), hi, q, t)


INT32_MAX = 2**31 - 1


@settings(max_examples=25, deadline=None)
@given(top=st.integers(INT32_MAX - 3_000, INT32_MAX + 3_000), size=st.integers(1, 3_000),
       q=st.one_of(st.integers(1, 10**7 - 1), st.integers(2**31 - 10, MAX_SCAN_Q)),
       t=thresholds)
def test_sigma_across_int32_switch_matches_trial_division(primes_million, top, size, q, t):
    """Segments ending near 2^31 - 1 or straddling it: the cofactor is
    int32 exactly when hi <= 2^31 - 1, and q beyond 2^31 never meets it."""
    lo = top - size + 1
    hi = top + 1
    seg = scan_segment(lo, hi, primes_million, q=q, above=t)
    assert seg.cofactor.dtype == (np.int32 if hi <= INT32_MAX else np.int64)
    check_sigma(seg, trial_factorizations(lo, hi, primes_million), hi, q, t)


@SETTINGS
@given(lo=st.integers(1, 10**6 - 3_000), size=st.integers(1, 3_000),
       y=st.floats(2, 1_500))
def test_rough_omega_and_cofactor_match_factorize(sieve_million, lo, size, y):
    """The rough histogram and count, from the sublinear engine, differenced
    over lo <= n < hi."""
    hi = lo + size
    facts = [sieve_million.factorize(n) for n in range(lo, hi)]
    rough = [f.smallest_prime_factor > y or f.n == 1 for f in facts]
    below = rough_omega_histogram(lo - 1, y) if lo > 1 else np.zeros(64, dtype=np.int64)
    got = rough_omega_histogram(hi - 1, y) - below
    assert rough_count(hi - 1, y) - (rough_count(lo - 1, y) if lo > 1 else 0) == sum(rough)
    omega = [f.num_prime_factors for f, r in zip(facts, rough) if r]
    assert got.tolist() == np.bincount(omega, minlength=64).tolist()


@settings(max_examples=25, deadline=None)
@given(x=st.integers(1, 30_000), y=st.floats(2, 300))
def test_rough_omega_histogram_matches_brute_force(omega_and_spf, x, y):
    omega, spf = (a[: x + 1] for a in omega_and_spf)
    n = np.arange(x + 1)
    rough = (n == 1) | ((n > 1) & (spf > y))
    want = np.bincount(omega[rough], minlength=64)
    got = rough_omega_histogram(x, y)
    assert got.tobytes() == want.tobytes()


def test_primes_up_to_matches_sieve(sieve_million):
    for limit in (0, 1, 2, 3, 100, 7_919, 10**6):
        assert np.array_equal(primes_up_to(limit), sieve_million.primes_up_to(limit))


SMALL_PRIMES = primes_up_to(1_000)


def check_small_prime_walk(lo: int, hi: int, q: int) -> None:
    """scan_segment over the primes below 1000 against Python integers: the
    cofactor, and sigma of the walked part times cofactor + 1."""
    seg = scan_segment(lo, hi, SMALL_PRIMES, q=q)
    for n, s, c in zip(range(lo, hi), seg.sigma.tolist(), seg.cofactor.tolist()):
        rest, want = n, 1
        for p in SMALL_PRIMES.tolist():
            g = 1
            while rest % p == 0:
                rest //= p
                g = g * p + 1
            want = want * g % q
        assert c == rest
        assert s == want * (rest + 1 if rest > 1 else 1) % q


def test_top_of_int64_range_is_exact():
    """One short segment ending at MAX_SCAN_X: nothing wraps at n + 1."""
    check_small_prime_walk(MAX_SCAN_X - 200, MAX_SCAN_X + 1, 999_983)


# The largest segment top at which sigma(n) < top * prod p/(p - 1) over the
# first 15 primes still fits int64, so the kernel skips every reduction
# before the last; above it the (q - 1)^omega bound decides.
EXACT_TOP = 1_279_319_449_414_816_639
SWITCH_MODULI = [5, 2**31 - 1, MAX_SCAN_Q]


@settings(max_examples=20, deadline=None)
@given(top=st.integers(EXACT_TOP - 3_000, EXACT_TOP + 3_000), size=st.integers(1, 3_000),
       q=st.sampled_from(SWITCH_MODULI))
def test_sigma_across_exact_switch(top, size, q):
    """Segments ending near EXACT_TOP or straddling it."""
    check_small_prime_walk(top - size + 1, top + 1, q)


@pytest.mark.parametrize("q", SWITCH_MODULI)
@pytest.mark.parametrize("m", [96, 144])
def test_sigma_of_abundant_n_on_both_sides_of_exact_switch(m, q):
    """n = 2*3*...*43 * m has sigma(n)/n near 6.2: at m = 96 it lies below
    EXACT_TOP with sigma(n) inside int64, at m = 144 above it with sigma(n)
    beyond, so skipping reductions there would wrap."""
    n = math.prod(p for p in SMALL_PRIMES.tolist() if p <= 43) * m
    sigma = math.prod((p ** (e + 1) - 1) // (p - 1)
                      for p, e in trial_factorizations(n, n + 1, SMALL_PRIMES)[0].factors)
    assert (n < EXACT_TOP) == (m == 96) and (sigma > 2**63 - 1) == (m == 144)
    check_small_prime_walk(n - 300, n + 301, q)


@pytest.mark.parametrize("x", [MAX_SCAN_X + 1, 10**19, 10**20])
def test_scans_refuse_x_beyond_int64(x):
    """Each entry point raises before it builds a prime table."""
    m = build_modulus(5)
    calls = [
        lambda: census(x, m),
        lambda: census(x, m, CensusFilter.pk_threshold(2, 10)),
        lambda: twisted_partial_sum(x, m.character(1)),
        lambda: next(iter_sigma_segments(x, 5)),
        lambda: rough_omega_histogram(x, 7),
        lambda: overrep_witness_sqfree(7, x),
        lambda: overrep_witness_even(7, x),
    ]
    for call in calls:
        with pytest.raises(OutOfRangeError):
            call()


def test_sigma_stream_refuses_q_beyond_int64_products():
    with pytest.raises(OutOfRangeError):
        next(iter_sigma_segments(100, MAX_SCAN_Q + 1))
    _, _, sig, _ = next(iter_sigma_segments(100, MAX_SCAN_Q))
    assert sig.dtype == np.int64  # the stream widens the kernel's int32
    assert sig.tolist() == [sum(d for d in range(1, n + 1) if n % d == 0) for n in range(1, 101)]
