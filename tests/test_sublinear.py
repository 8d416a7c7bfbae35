"""The sublinear class-total engine against the segment sieve, its
independent oracle, and the rule that picks between them; the same engine
at q = 1 over a prime window, behind the rough and smooth counts, against
brute force; and the memory budget of both."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sigmalab import (CensusFilter, Modulus, OutOfRangeError, ResourceBudgetError, build_modulus,
                      census, psi_smooth_count, rough_count, rough_omega_histogram)
from sigmalab import _sublinear
from sigmalab._scan import DEFAULT_SEGMENT_LENGTH, MAX_SCAN_X, prime_table_bytes, primes_up_to
from sigmalab.census import _class_totals, _sieve_totals
from sigmalab.factor import DEFAULT_MEMORY_BUDGET


def grading(f: CensusFilter) -> tuple[int, int]:
    return (f.k + 1, f.threshold) if f.kind == "pk-threshold" else (1, 0)


def both(x: int, q: int, f: CensusFilter) -> tuple[np.ndarray, np.ndarray]:
    """(sublinear, sieve) class totals on the same primes."""
    m = build_modulus(q)
    primes = primes_up_to(math.isqrt(x))
    sub = _sublinear.class_totals(x, m, primes, *grading(f), f.kind == "coprime-only")[-1]
    return sub, _sieve_totals(x, m, f, primes, 1)


def preferred(x: int, q: int, f: CensusFilter, budget: int = DEFAULT_MEMORY_BUDGET) -> bool:
    return _sublinear.preferred(x, build_modulus(q), *grading(f), budget)


PRIME_POWERS = [2, 4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 169]


@st.composite
def census_shapes(draw):
    x = draw(st.integers(1, 10**5))
    q = draw(st.one_of(st.integers(1, 200), st.sampled_from([1] + PRIME_POWERS)))
    kind = draw(st.sampled_from(["all", "coprime-only", "pk-threshold"]))
    if kind != "pk-threshold":
        return x, q, CensusFilter(kind)
    k = draw(st.integers(1, 4))
    return x, q, CensusFilter.pk_threshold(k, draw(st.integers(1, math.isqrt(x))))


@settings(max_examples=300, deadline=None)
@given(shape=census_shapes())
def test_sublinear_equals_sieve(shape):
    """Bit for bit, under every filter, for odd, even and prime-power q."""
    x, q, f = shape
    sub, sieve = both(x, q, f)
    assert sub.dtype == sieve.dtype == np.int64
    assert np.array_equal(sub, sieve), (x, q, f)


@pytest.mark.parametrize("q, f", [
    (5, CensusFilter.all_integers()),
    (15, CensusFilter.all_integers()),
    (16, CensusFilter.all_integers()),
    (70, CensusFilter.pk_threshold(2, 70)),  # the square-free witness census
])
def test_sublinear_equals_sieve_at_1e7(q, f):
    sub, sieve = both(10**7, q, f)
    assert np.array_equal(sub, sieve)


SCAN_SHAPES = [
    (5, CensusFilter.all_integers()),
    (15, CensusFilter.pk_threshold(2, 1000)),
    (7, CensusFilter.all_integers()),
    (70, CensusFilter.pk_threshold(2, 70)),
]


# Rows of the crossover table in CHANGES.md (tools/crossover_table.py) on
# both sides of the rule's line, with the engine it picks.
TABLE_PICKS = [
    (1 << 16, 15, CensusFilter.pk_threshold(2, 10), True),
    (1 << 16, 29, CensusFilter.all_integers(), False),
    (1 << 17, 29, CensusFilter.all_integers(), True),
    (1 << 18, 41, CensusFilter.all_integers(), True),
    (10**6, 61, CensusFilter.all_integers(), True),
    (10**6, 101, CensusFilter.all_integers(), False),
    (10**7, 127, CensusFilter.all_integers(), True),
    (10**7, 151, CensusFilter.all_integers(), False),
]


def test_dispatch_rule():
    """Small phi(q) at x = 10^7 takes the sublinear engine; a large q, a
    threshold above sqrt(x), a table over the budget or a small x take
    the sieve; the crossover table's rows keep their picks."""
    x = 10**7
    for q, f in SCAN_SHAPES:
        assert preferred(x, q, f), (q, f)
    for x_row, q, f, picked in TABLE_PICKS:
        assert preferred(x_row, q, f) == picked, (x_row, q, f)
    everything = CensusFilter.all_integers()
    for q in (100_003, 1_000_003, 9_999_991):
        assert not preferred(x, q, everything), q
    assert not preferred(x, 15, CensusFilter.pk_threshold(2, math.isqrt(x) + 1))
    assert not preferred(x, 5, everything, budget=_sublinear.table_bytes(x, 5, 4) - 1)
    assert not preferred(10**18, 5, everything)  # about 450 GB of tables
    assert not preferred(_sublinear.MIN_X - 1, 5, everything)


def test_census_takes_the_chosen_engine(monkeypatch):
    """census reaches the sublinear engine exactly when the rule says so."""
    calls = []
    real = _sublinear.class_totals
    monkeypatch.setattr(_sublinear, "class_totals",
                        lambda *args: calls.append(args[:2]) or real(*args))
    m = build_modulus(5)
    census(10**6, m)
    census(1_000, m)
    census(10**6, build_modulus(100_003))
    assert [(x, mod.q) for x, mod in calls] == [(10**6, 5)]


@pytest.mark.parametrize("kwargs", [{"workers": 0}, {"workers": -2}])
def test_sublinear_path_refuses_what_the_sieve_refuses(kwargs):
    """Bad worker counts are refused before dispatch, though the sublinear
    engine uses no workers."""
    m, f = build_modulus(5), CensusFilter.all_integers()
    assert preferred(10**6, 5, f)
    with pytest.raises(OutOfRangeError):
        _class_totals(10**6, m, f, kwargs["workers"])


@st.composite
def cube_boundaries(draw):
    """x = c^3 - 1, c^3 or c^3 + 1 for 2 <= c <= 60, and cuts drawn from
    both sides of x^(1/3) and sqrt(x), where the batch of primes starts."""
    c = draw(st.integers(2, 60))
    x = c**3 + draw(st.sampled_from([-1, 0, 1]))
    k, r = _sublinear.icbrt(x), math.isqrt(x)
    near = st.sampled_from(sorted({1, k - 1, k, k + 1, r - 1, r, r + 1} - {0}))
    return x, near


@settings(max_examples=200, deadline=None)
@given(shape=cube_boundaries(), data=st.data())
def test_batch_boundaries_at_cubes(brute, shape, data):
    """Around x = c^3 the primes just above x^(1/3) change from the
    per-prime steps to the batch.  Every filter with a threshold on either
    side of x^(1/3) and sqrt(x) equals the sieve; at q = 1 every window
    (lo, hi] with ends there gives the Omega tails of FactorSieve.factorize."""
    x, near = shape
    q = data.draw(st.one_of(st.integers(1, 200), st.sampled_from(PRIME_POWERS)))
    kind = data.draw(st.sampled_from(["all", "coprime-only", "pk-threshold"]))
    f = (CensusFilter.pk_threshold(data.draw(st.integers(1, 3)), data.draw(near))
         if kind == "pk-threshold" else CensusFilter(kind))
    sub, sieve = both(x, q, f)
    assert np.array_equal(sub, sieve), (x, q, f)

    lo = data.draw(st.one_of(near, st.just(x)))
    hi = data.draw(st.one_of(near, st.just(x)))
    grades = data.draw(st.integers(1, 4))
    primes = primes_up_to(math.isqrt(x))
    got = _sublinear.class_totals(x, build_modulus(1), primes, grades, lo, lo=lo, hi=hi)
    omega, least, largest = (a[1 : x + 1] for a in brute)
    keep = (least > lo) & (largest <= hi)
    keep[0] = True  # n = 1
    tails = np.cumsum(np.bincount(omega[keep], minlength=64)[::-1])[::-1]
    assert got[:, 0].tolist() == tails[:grades].tolist(), (x, lo, hi, grades)


@given(c=st.integers(1, 2_097_151))
def test_icbrt_exact_at_cube_boundaries(c):
    """The integer cube root is exact next to every cube up to 2^63 - 1,
    where a float cube root can round either way."""
    assert _sublinear.icbrt(c**3) == c
    assert _sublinear.icbrt(c**3 - 1) == c - 1
    if c**3 < 2**63 - 1:
        assert _sublinear.icbrt(c**3 + 1) == c


def test_icbrt_at_the_ends():
    assert [_sublinear.icbrt(x) for x in (0, 1, 7, 8, 26, 27)] == [0, 1, 1, 2, 2, 3]
    assert _sublinear.icbrt(2**63 - 1) == 2_097_151


def test_sublinear_peak_within_table_estimate():
    x, q, f = 10**6, 15, CensusFilter.pk_threshold(2, 100)
    m = build_modulus(q)
    m.units  # build the lazy table before tracing
    primes = primes_up_to(math.isqrt(x))
    tracemalloc.start()
    try:
        _sublinear.class_totals(x, m, primes, *grading(f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _sublinear.table_bytes(x, q, m.phi * 3)


# ------------------------------------------- rough and smooth counts at q = 1

@pytest.fixture(scope="module")
def brute(sieve_million):
    """Omega(n), the least and the largest prime factor for 0 <= n <= 60^3 + 1,
    from FactorSieve.factorize (1 for both factors at n <= 1)."""
    facts = [sieve_million.factorize(n) for n in range(1, 60**3 + 2)]
    omega = np.array([0] + [f.num_prime_factors for f in facts])
    least = np.array([0] + [f.smallest_prime_factor for f in facts])
    largest = np.array([0] + [f.largest_prime_factor for f in facts])
    return omega, least, largest


def check_counts(brute, x: int, y: float, z: float) -> None:
    omega, least, largest = (a[1 : x + 1] for a in brute)
    rough = least > y
    rough[0] = True  # n = 1 is rough and smooth for every cut
    assert rough_count(x, y) == np.count_nonzero(rough), (x, y)
    assert psi_smooth_count(x, z) == np.count_nonzero(largest <= z), (x, z)
    if y >= 2:
        want = np.bincount(omega[rough], minlength=64)
        got = rough_omega_histogram(x, y)
        assert got.dtype == np.int64 and got.tobytes() == want.tobytes(), (x, y)


cuts = st.one_of(st.floats(2, 400), st.integers(2, 40_000), st.floats(2, 40_000))


@settings(max_examples=200, deadline=None)
@given(x=st.integers(1, 30_000),
       y=st.one_of(st.floats(1, 2, exclude_max=True), cuts), z=cuts)
def test_rough_and_smooth_counts_match_brute_force(brute, x, y, z):
    """Fractional cuts, cuts at or beyond x, and rough_count with 1 <= y < 2."""
    check_counts(brute, x, y, z)


@settings(max_examples=100, deadline=None)
@given(x=st.integers(20, 30_000), data=st.data())
def test_cuts_between_sqrt_x_and_x_off_the_rows(brute, x, data):
    """A cut c in (sqrt(x), x) that is no floor(x/m), so pi(c) is not on a
    row of the engine's table; the same c as a fractional cut."""
    c = data.draw(st.integers(math.isqrt(x) + 1, x - 1))
    assume(x // (x // c) != c)
    c += data.draw(st.sampled_from([0, 0.5]))
    check_counts(brute, x, c, c)


def test_window_end_off_the_rows_gets_one_lucy_table(monkeypatch):
    """rough_count(1e7, 4999) cuts at 4999 both as the window's low end and
    as the grading threshold; 4999 is no row of V, so it takes one Lucy
    table of its own besides the one at x."""
    calls = []
    real = _sublinear._prime_counts
    monkeypatch.setattr(_sublinear, "_prime_counts",
                        lambda x, *rest: calls.append(x) or real(x, *rest))
    rough_count(10**7, 4999)
    assert calls == [10**7, 4999]


@pytest.mark.parametrize("x", [1, 2, 97, 30_000])
def test_cuts_at_and_beyond_x(brute, x):
    for c in (x, x + 0.5, 10.0 * x + 2, math.inf):
        check_counts(brute, x, max(c, 2), max(c, 2))


@pytest.mark.parametrize("x", [0, MAX_SCAN_X + 1])
def test_rough_and_smooth_counts_refuse_bad_plans(x):
    """x outside 1..MAX_SCAN_X is refused by _scan.plan before any table."""
    for call in (rough_omega_histogram, rough_count, psi_smooth_count):
        with pytest.raises(OutOfRangeError):
            call(x, 7)


def test_rough_histogram_tables_within_budget():
    """The tables are priced by table_bytes before they are built: one byte
    less raises, and the estimate bounds the traced peak."""
    x, y = 10**6, 7
    need = _sublinear.table_bytes(x, 1, math.floor(math.log(x) / math.log(y)) + 2)
    with pytest.raises(ResourceBudgetError):
        rough_omega_histogram(x, y, memory_budget=need - 1)
    tracemalloc.start()
    try:
        got = rough_omega_histogram(x, y, memory_budget=need)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.sum() == rough_count(x, y) and peak <= need


def batch_pairs(x: int) -> int:
    """The (row, prime) pairs of the batch: rows v >= p^2 of x^(1/3) < p <= sqrt(x)."""
    p = primes_up_to(math.isqrt(x))
    return int(np.sum(x // p[p > _sublinear.icbrt(x)] ** 2))


def test_batch_peak_within_table_bytes_at_large_x():
    """Where the batch's pairs outnumber the rows of V, so that it gathers in
    several chunks, the traced peak stays within table_bytes: a census at
    10^9 with q = 5 and the rough Omega-histogram at 10^8, which also builds
    its primes."""
    x, m = 10**9, build_modulus(5)
    m.units  # build the lazy table before tracing
    assert batch_pairs(x) > 2 * math.isqrt(x) and batch_pairs(10**8) > 2 * 10**4
    primes = primes_up_to(math.isqrt(x))
    tracemalloc.start()
    try:
        _sublinear.class_totals(x, m, primes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _sublinear.table_bytes(x, 5, m.phi)
    x, y = 10**8, 7
    need = _sublinear.table_bytes(x, 1, math.floor(math.log(x) / math.log(y)) + 2)
    tracemalloc.start()
    try:
        rough_omega_histogram(x, y, memory_budget=need)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need


def test_census_below_the_table_budget_takes_the_sieve(monkeypatch):
    """Tables priced above the budget send the census to the sieve, with the
    same bytes and a traced peak within the sieve's estimate, which counts
    the primes <= sqrt(x); one byte below that estimate it raises."""
    x, m = 1 << 18, build_modulus(5)
    want = census(x, m)
    sieve_need = (8 * 5 + 17 * min(DEFAULT_SEGMENT_LENGTH, x) + (1 << 17)
                  + prime_table_bytes(math.isqrt(x)))
    calls = []
    real = _sublinear.class_totals
    monkeypatch.setattr(_sublinear, "class_totals",
                        lambda *args: calls.append(args[0]) or real(*args))
    monkeypatch.setattr(_sublinear, "table_bytes", lambda *args: sieve_need + 1)
    tracemalloc.start()
    try:
        got = census(x, m, memory_budget=sieve_need)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [] and got.counts.value_array.tobytes() == want.counts.value_array.tobytes()
    assert got.total_coprime == want.total_coprime
    assert peak <= sieve_need
    with pytest.raises(ResourceBudgetError):
        census(x, m, memory_budget=sieve_need - 1)


def test_over_budget_scans_refuse_before_building_primes():
    """At x = 10^16 neither census engine nor the rough tables fit 10^6
    bytes; each refuses before the primes <= 10^8 (a 10^8-byte sieve and
    46 MB of primes) are built, so almost nothing is traced."""
    m = Modulus(5)
    m.units  # build the lazy table before tracing
    for call in (lambda: census(10**16, m, memory_budget=10**6),
                 lambda: rough_omega_histogram(10**16, 7, memory_budget=10**6)):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceBudgetError):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6
