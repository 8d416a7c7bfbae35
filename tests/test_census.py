"""Census engine: streamed sigma(n) mod q class counts against a
divisor-sieve oracle, orthogonality reconstruction, filters, and the
main-term shape helpers."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmalab import (
    CensusFilter,
    DegenerateCensusError,
    OutOfRangeError,
    ResourceBudgetError,
    UnsupportedModulusError,
    build_modulus,
    census,
    discrepancy,
    enumerate_characters,
    iter_sigma_segments,
    kth_largest_prime_factor,
    prime_reciprocal_sum,
    proof_threshold_y,
    proof_threshold_z,
    rough_count_estimate,
    twisted_partial_sum,
    PolynomialSpec,
)
from sigmalab import _sublinear
from sigmalab._scan import (kernel_bytes, prime_table_bytes, primes_up_to, release_scratch,
                            scan_segment)
from sigmalab.census import (
    ClassCounts,
    _max_rel_deviation,
    _sieve_totals,
)
from sigmalab.characters import _coprime_mask
from sigmalab.factor import DEFAULT_SEGMENT_LENGTH

L = DEFAULT_SEGMENT_LENGTH  # the segment length of every sieve scan


def divisor_sigma_table(limit: int) -> np.ndarray:
    sig = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        sig[d::d] += d
    return sig


def brute_census(x: int, q: int, keep) -> dict[int, int]:
    sig = divisor_sigma_table(x)
    counts = {a: 0 for a in range(q if q > 1 else 2) if math.gcd(a, q) == 1}
    for n in range(1, x + 1):
        if not keep(n):
            continue
        r = int(sig[n]) % q
        if math.gcd(r, q) == 1:
            counts[r] += 1
    return counts


def sieve_totals(x, m, f=None, workers=1):
    """The segment sieve's class totals, on the primes the census builds."""
    f = f or CensusFilter.all_integers()
    return _sieve_totals(x, m, f, primes_up_to(math.isqrt(x)), workers)


def sublinear_totals(x, m, f=None):
    """The sublinear engine's class totals, whatever the dispatch rule says."""
    f = f or CensusFilter.all_integers()
    grades, t = (f.k + 1, f.threshold) if f.kind == "pk-threshold" else (1, 0)
    return _sublinear.class_totals(x, m, primes_up_to(math.isqrt(x)), grades, t,
                                   f.kind == "coprime-only")[-1]


def test_census_matches_brute_all_filters(sieve_small):
    """The public census and each engine against the divisor-sieve oracle."""
    x = 3_000
    for q in (5, 7, 12):
        m = build_modulus(q)
        cases = [
            (None, lambda n: True),
            (CensusFilter.coprime_only(), lambda n: math.gcd(n, q) == 1),
            (CensusFilter.pk_threshold(1, 10),
             lambda n: kth_largest_prime_factor(
                 sieve_small.factorize(n), 1) > 10),
            (CensusFilter.pk_threshold(2, 5),
             lambda n: kth_largest_prime_factor(
                 sieve_small.factorize(n), 2) > 5),
        ]
        for f, keep in cases:
            want = brute_census(x, q, keep)
            report = census(x, m, f)
            assert report.counts == want, (q, f)
            assert report.total_coprime == sum(report.counts.values())
            dense = np.zeros(q, dtype=np.int64)
            dense[list(want)] = list(want.values())
            assert np.array_equal(sieve_totals(x, m, f), dense), (q, f)
            assert np.array_equal(sublinear_totals(x, m, f), dense), (q, f)


def test_census_q_one(sieve_small):
    report = census(1_000, build_modulus(1))
    assert report.total_coprime == 1_000
    assert report.max_rel_deviation == 0.0


def test_census_workers_and_segments_identical(sieve_engine):
    """Four segments, the last a short one: the same counts at 1, 2 and 8
    workers, and the same as the sublinear engine's."""
    x, m = 3 * L + 12_345, build_modulus(15)
    base = census(x, m)
    for workers in (2, 8):
        assert census(x, m, workers=workers).counts == base.counts, workers
    want = sublinear_totals(x, m)[m.units]
    assert base.counts.value_array.tobytes() == want.tobytes()


@pytest.mark.parametrize("workers", [0, -2])
def test_census_refuses_workers_below_one(workers):
    """A worker count below 1 is refused, not run as one worker."""
    with pytest.raises(OutOfRangeError, match="workers"):
        census(100, build_modulus(5), workers=workers)


# The kernel arrays of one thread over a segment below 351 302 975: sigma,
# the factor buffer, n's cofactor, found part and spare in int32, the
# leftover mask, 21 bytes per integer, and some slack.
KERNEL_BYTES = 24 * L


@pytest.mark.parametrize("x, q, workers, bound", [
    pytest.param(3 * L, 2_000_003, 2, 8 * 2_000_003 + 2 * KERNEL_BYTES, id="sparse"),
    pytest.param(4 * L, L - 3, 1, 8 * (L - 3) + 1 * KERNEL_BYTES, id="dense-1"),
    pytest.param(4 * L, L - 3, 2, 8 * (L - 3) + 2 * KERNEL_BYTES, id="dense-2"),
])
def test_class_totals_memory_bounded_by_workers(x, q, workers, bound):
    """Segments fold into one total, so the peak grows with the worker
    count and not with the number of segments (3 sparse, 4 dense): the
    total, plus each worker's kernel arrays, whether q exceeds the segment
    length (sparse) or not (dense): every segment adds into the total in
    place and no q-length part is built, which would add 8·q per worker."""
    m = build_modulus(q)
    m.unit_mask  # build the lazy table before tracing
    tracemalloc.start()
    try:
        totals = sieve_totals(x, m, workers=workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert int(totals.sum()) == census(x, m).total_coprime


def sieve_census_need(x: int, q: int, kind: str, workers: int) -> int:
    """The sieve census's price below 351 302 975, where sigma is int32: the
    totals and the primes <= sqrt(x), and per worker the kernel's 21 bytes
    per integer of its segment, 5 more for the filtered copy of sigma and its
    mask, 1 more for the large-factor counts, and 128 KiB of ufunc buffers
    and small temporaries."""
    per_int = 21 + 5 * (kind != "all") + (kind == "pk-threshold")
    return (8 * q + workers * (per_int * min(L, x) + (1 << 17))
            + prime_table_bytes(math.isqrt(x)))


def test_sieve_census_peak_matches_its_price(sieve_engine):
    """The sieve census's traced peak lies within its price and at or above
    80% of it, for sparse and dense q, every filter and 1 or 2 workers; one
    byte below the price it refuses.  The pk-threshold case uses t = 2, which
    almost every n passes: the price assumes a segment admits every integer.
    A segment beyond 2^31, in int64 width, stays within kernel_bytes too."""
    x = 3 * L
    for q in (5, 2 * L + 17):
        m = build_modulus(q)
        m.units  # build the lazy table before tracing
        for f in (CensusFilter.all_integers(), CensusFilter.coprime_only(),
                  CensusFilter.pk_threshold(1, 2)):
            for workers in (1, 2):
                need = sieve_census_need(x, q, f.kind, workers)
                with pytest.raises(ResourceBudgetError):
                    census(x, m, f, workers=workers, memory_budget=need - 1)
                tracemalloc.start()
                try:
                    census(x, m, f, workers=workers, memory_budget=need)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert 0.8 * need <= peak <= need, (q, f.kind, workers, peak, need)
    lo = 10**10
    primes = primes_up_to(math.isqrt(lo + L))
    tracemalloc.start()
    try:
        scan_segment(lo, lo + L, primes, q=5, above=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        release_scratch()
    need = kernel_bytes(lo + L, True) * L + (1 << 17)
    assert 0.8 * need <= peak <= need


@pytest.mark.parametrize("workers", [1, 2])
def test_census_releases_kernel_arrays(workers, sieve_engine):
    """Each thread reuses one set of kernel arrays across segments; a
    scan's end drops them (the caller's after a sequential scan, the pool
    threads' as the pool shuts down), so nothing of them stays traced."""
    m = build_modulus(5)
    m.unit_mask  # build the lazy table before tracing
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        census(2 * L + 1_000, m, workers=workers)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 1024


def test_class_totals_sparse_fold_memory():
    """When q is several times the segment length, the in-place fold builds
    no q-length part: besides the total, only the two workers' kernel
    arrays are traced (a part would add 8·q > 30·L per worker)."""
    q = 4_000_037
    m = build_modulus(q)
    m.unit_mask  # build the lazy table before tracing
    tracemalloc.start()
    try:
        sieve_totals(2 * L + 1_000, m, workers=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * q + 2 * KERNEL_BYTES


def _sequential_totals(x: int, m) -> np.ndarray:
    """One bincount of every sigma(n) mod q, n <= x, from the sequential
    segment stream, zero at non-units."""
    sig = np.concatenate([vals for _, _, vals, _ in iter_sigma_segments(x, m.q)])
    want = np.bincount(sig, minlength=m.q)
    want[~m.unit_mask] = 0
    return want


def test_sparse_and_dense_fold_agree():
    """q one below, at and one above the segment length: whether a full
    segment can admit more integers than q or not, the in-place fold at 1,
    2 and 8 workers equals one bincount of the sequential segment stream."""
    x = L + 5_000
    for q in (L - 1, L, L + 1):
        m = build_modulus(q)
        want = _sequential_totals(x, m)
        for workers in (1, 2, 8):
            got = sieve_totals(x, m, workers=workers)
            assert np.array_equal(got, want), (q, workers)


@settings(max_examples=60, deadline=None)
@given(lo=st.integers(1, 10**12), size=st.integers(0, 3_000),
       q=st.integers(1, 10**7))
def test_coprime_mask_matches_gcd(lo, size, q):
    got = _coprime_mask(lo, lo + size, [ell for ell, _ in build_modulus(q).factorization])
    want = np.gcd(np.arange(lo, lo + size, dtype=np.int64), q) == 1
    assert np.array_equal(got, want)


def test_class_counts_protocol():
    x = 3_000
    assert census(x, build_modulus(1)).counts == {0: x}
    for q in (5, 12, 200_003):  # the last spans several iteration chunks
        m = build_modulus(q)
        counts = census(x, m).counts
        assert isinstance(counts, ClassCounts)
        assert counts == brute_census(x, q, lambda n: True)
        assert dict(counts) == counts
        assert len(counts) == m.phi
        assert list(counts) == m.units.tolist()
        assert list(counts.keys()) == m.units.tolist()
        assert [a for a, _ in counts.items()] == m.units.tolist()
        assert list(counts.values()) == [counts[a] for a in counts]
        assert repr(counts) == repr(dict(counts))
        assert counts.get(q, 0) == 0 and counts.get("1", 0) == 0
        assert counts.get(2**70, 0) == 0 and counts.get(-2**70, 0) == 0
        assert counts.get(0, 0) == 0 and 0 not in counts
        with pytest.raises(KeyError):
            counts[q]
        with pytest.raises(TypeError):
            counts[1] = 5
        with pytest.raises(ValueError):
            counts.value_array[0] = 5
        with pytest.raises(ValueError):
            counts.key_array[0] = 5
    # read-only views leave the modulus's own unit table writeable
    assert build_modulus(12).units.flags.writeable
    five = census(x, build_modulus(5)).counts
    assert five != census(2 * x, build_modulus(5)).counts
    assert five != {1: five[1]}
    assert type(five[1]) is int


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.integers(0, 10**15), min_size=1, max_size=200),
       total=st.integers(1, 10**17))
def test_max_rel_deviation_matches_full_array(counts, total):
    arr = np.array(counts, dtype=np.int64)
    want = float(np.max(np.abs(arr * arr.shape[0] / total - 1.0)))
    assert _max_rel_deviation(arr, total) == want


def sigma_by_trial_division(n: int) -> int:
    total, d = 0, 1
    while d * d <= n:
        if n % d == 0:
            total += d + (n // d if d * d < n else 0)
        d += 1
    return total


def test_iter_sigma_segments_concatenates():
    """Three segments, the last a short one, cover 1..x in order: checked
    against the divisor sieve below 10^4, by trial division on both sides
    of each segment boundary, and in total against the sublinear engine."""
    x, q = 2 * L + 1_234, 7
    pieces = []
    last_hi = 1
    for lo, hi, vals, cnt in iter_sigma_segments(x, q):
        assert lo == last_hi and len(vals) == hi - lo and cnt is None
        last_hi = hi
        pieces.append(vals)
    flat = np.concatenate(pieces)
    assert len(pieces) == 3 and last_hi == x + 1 and len(flat) == x
    assert np.array_equal(flat[:10_000], divisor_sigma_table(10_000)[1:] % q)
    for n in [*range(L - 50, L + 50), *range(2 * L - 50, 2 * L + 50), x]:
        assert flat[n - 1] == sigma_by_trial_division(n) % q, n
    m = build_modulus(q)
    want = sublinear_totals(x, m)
    assert np.array_equal(np.where(m.unit_mask, np.bincount(flat, minlength=q), 0), want)


def test_iter_sigma_segments_counts_large_factors(sieve_small):
    """The optional per-n count of prime factors above the threshold."""
    x, q, t = 5_000, 5, 13
    got = np.concatenate([cnt for _, _, _, cnt
                          in iter_sigma_segments(x, q, threshold=t)])
    for n in range(1, x + 1):
        fact = sieve_small.factorize(n)
        want = sum(e for p, e in fact.factors if p > t)
        assert got[n - 1] == want, n


def test_orthogonality_reconstruction():
    """counts(a) = (1/phi) sum over chi of conj(chi(a)) * twisted sum."""
    x = 20_000
    for q in (5, 10, 15):
        m = build_modulus(q)
        report = census(x, m)
        sums = {chi.index: twisted_partial_sum(x, chi)
                for chi in enumerate_characters(m)}
        for a, count in report.counts.items():
            rebuilt = sum(chi(a).conjugate().to_complex() * sums[chi.index]
                          for chi in enumerate_characters(m)) / m.phi
            assert abs(rebuilt - count) <= 1e-6 * x, (q, a)


def test_twisted_sum_independent_of_segments_and_workers(sieve_engine):
    """Three segments: bit-identical for 1, 2 and 8 workers, and to the
    transform of the sublinear engine's totals."""
    x = 2 * L + 12_345
    for q in (7, 15):
        m = build_modulus(q)
        chi = m.character(m.phi - 1)  # nonprincipal on every prime of q
        for f in (None, CensusFilter.pk_threshold(2, 100)):
            base = twisted_partial_sum(x, chi, f)
            assert base == complex(m.character_transform(sublinear_totals(x, m, f))[chi.index])
            for workers in (2, 8):
                got = twisted_partial_sum(x, chi, f, workers=workers)
                assert got == base, (q, f, workers)


def test_twisted_principal_equals_total():
    x = 50_000
    for q in (5, 14):
        m = build_modulus(q)
        total = census(x, m).total_coprime
        assert twisted_partial_sum(
            x, m.principal_character()) == pytest.approx(total)


def test_twisted_sum_at_one():
    m = build_modulus(15)
    for chi in enumerate_characters(m):
        assert twisted_partial_sum(1, chi) == pytest.approx(1.0)


def test_filter_validation():
    with pytest.raises(ValueError):
        CensusFilter.pk_threshold(0, 5)
    with pytest.raises(ValueError):
        CensusFilter(kind="nope")
    f = CensusFilter.pk_threshold(4, 50)
    assert f.k == 4 and f.threshold == 50 and "4" in f.describe()


def test_filter_monotone_in_k():
    """P_6(n) > t implies P_4(n) > t implies no filter, classwise.

    The smallest n with six prime factors above 5 is 7^6 = 117649, so
    x = 200000 keeps the strictest census nonempty."""
    x = 200_000
    m = build_modulus(5)
    plain = census(x, m)
    p4 = census(x, m, CensusFilter.pk_threshold(4, 5))
    p6 = census(x, m, CensusFilter.pk_threshold(6, 5))
    for a in plain.counts:
        assert p6.counts[a] <= p4.counts[a] <= plain.counts[a]
    assert p6.total_coprime > 0


def test_prime_reciprocal_sum_pinned():
    """q = 1, x = 100: sum of 1/p over the 25 primes up to 100."""
    val = prime_reciprocal_sum(PolynomialSpec((1, 1)), build_modulus(1), 100)
    direct = sum(1 / p for p in
                 (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                  53, 59, 61, 67, 71, 73, 79, 83, 89, 97))
    assert val == pytest.approx(direct, abs=1e-12)
    assert val == pytest.approx(1.802817, abs=5e-7)


def test_prime_reciprocal_sum_membership():
    """F = T+1, q = 3 keeps p with p+1 coprime to 3; p = 3 itself stays
    because 3+1 = 4 is coprime to 3."""
    val = prime_reciprocal_sum(PolynomialSpec((1, 1)), build_modulus(3), 50)
    keep = [p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
            if (p + 1) % 3 != 0]
    assert 3 in keep
    assert val == pytest.approx(sum(1 / p for p in keep), abs=1e-12)


def prime_reciprocal_need(x: int, chunk: int = 1 << 20) -> int:
    """(x + 1)//2 bytes of the odd-only sieve, 8 bytes per prime (pi(x) <
    1.26*x/ln x) and five 8-byte temporaries per prime of one chunk."""
    n_primes = math.ceil(1.26 * x / math.log(x))
    return (x + 1) // 2 + 8 * n_primes + 5 * 8 * min(chunk, n_primes)


def test_prime_reciprocal_sum_checks_budget():
    """The estimate is checked before anything is allocated, and building
    the prime table stays within it."""
    F, m = PolynomialSpec((1, 1)), build_modulus(3)
    need = prime_reciprocal_need(10**6)
    with pytest.raises(ResourceBudgetError):
        prime_reciprocal_sum(F, m, 10**6, memory_budget=need - 1)
    assert prime_reciprocal_sum(F, m, 10**6, memory_budget=need) == prime_reciprocal_sum(
        F, m, 10**6)
    tracemalloc.start()
    try:
        primes_up_to(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need


def test_prime_reciprocal_sum_peak_within_estimate():
    """The whole call, per-chunk temporaries included, stays within the
    estimate its budget check uses (about 2.2 MB traced against 4.9 MB at
    x = 10^6; the sieve and the primes alone are priced at 1.23 MB)."""
    F, m = PolynomialSpec((1, 1, 1)), build_modulus(7)
    tracemalloc.start()
    try:
        prime_reciprocal_sum(F, m, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= prime_reciprocal_need(10**6)


def test_prime_reciprocal_sum_prices_chunk_temporaries():
    """A budget that covers the sieve and the primes but not the chunk's
    temporaries is refused before anything is allocated."""
    F, m = PolynomialSpec((1, 1, 1)), build_modulus(7)
    x = 10**6
    without_chunk = (x + 1) // 2 + 8 * math.ceil(1.26 * x / math.log(x))
    budget = (without_chunk + prime_reciprocal_need(x)) // 2
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError):
            prime_reciprocal_sum(F, m, x, memory_budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_discrepancy_edge_cases(sieve_small):
    report = census(10_000, build_modulus(2))
    assert discrepancy(report) == 0.0  # single class
    empty = census(10_000, build_modulus(5), CensusFilter.pk_threshold(6, 10_000))
    assert empty.total_coprime == 0
    with pytest.raises(DegenerateCensusError):
        discrepancy(empty)
    assert math.isnan(empty.max_rel_deviation)


def test_discrepancy_matches_report_field():
    report = census(100_000, build_modulus(7))
    assert discrepancy(report) == report.max_rel_deviation


def test_rough_count_estimate_shapes():
    assert rough_count_estimate(10**6, build_modulus(1)) == pytest.approx(10**6)
    x = 10**6
    got = rough_count_estimate(x, build_modulus(5))
    assert got == pytest.approx(x / math.log(x) ** 0.25, rel=1e-12)
    got = rough_count_estimate(x, build_modulus(10))
    assert got == pytest.approx(math.sqrt(x), rel=1e-12)  # alpha~(10) = 1
    got = rough_count_estimate(x, build_modulus(14))
    assert got == pytest.approx(
        math.sqrt(x) / math.log(x) ** (1 - 4 / 6), rel=1e-12)


def test_rough_count_estimate_validation():
    with pytest.raises(UnsupportedModulusError):
        rough_count_estimate(10**6, build_modulus(6))
    with pytest.raises(OutOfRangeError):
        rough_count_estimate(1, build_modulus(5))


def test_proof_thresholds():
    x = 10**8
    assert proof_threshold_y(x, 0.5) == pytest.approx(
        math.exp(math.log(x) ** 0.25))
    assert proof_threshold_z(x) == pytest.approx(
        x ** (1 / math.log(math.log(x))))
    with pytest.raises(OutOfRangeError):
        proof_threshold_y(2, 0.5)
    with pytest.raises(OutOfRangeError):
        proof_threshold_y(100, 1.5)
    with pytest.raises(OutOfRangeError):
        proof_threshold_z(15)


def test_monotone_equidistribution_trend():
    """q = 5 discrepancy shrinks with x (0.02 slack for noise)."""
    m = build_modulus(5)
    d5 = discrepancy(census(10**5, m))
    d6 = discrepancy(census(10**6, m))
    assert d6 <= d5 + 0.02
