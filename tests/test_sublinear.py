"""The sublinear class-total engine against the segment sieve, its
independent oracle, and the rule that picks between them."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmalab import CensusFilter, OutOfRangeError, build_modulus, census
from sigmalab import _sublinear
from sigmalab._scan import plan
from sigmalab.census import _class_totals, _sieve_totals
from sigmalab.factor import DEFAULT_MEMORY_BUDGET


def grading(f: CensusFilter) -> tuple[int, int]:
    return (f.k + 1, f.threshold) if f.kind == "pk-threshold" else (1, 0)


def both(x: int, q: int, f: CensusFilter) -> tuple[np.ndarray, np.ndarray]:
    """(sublinear, sieve) class totals on the same plan."""
    m = build_modulus(q)
    primes, seg_len = plan(x, q)
    sub = _sublinear.class_totals(x, m, primes, *grading(f), f.kind == "coprime-only")
    return sub, _sieve_totals(x, m, f, primes, seg_len, 1)


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


def test_dispatch_rule():
    """Small phi(q) at x = 10^7 takes the sublinear engine; a large q, a
    threshold above sqrt(x), a table over the budget or a small x take
    the sieve."""
    x = 10**7
    for q, f in SCAN_SHAPES:
        assert preferred(x, q, f), (q, f)
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


@pytest.mark.parametrize("kwargs", [{"segment_length": 0}, {"workers": 0}, {"workers": -2}])
def test_sublinear_path_refuses_what_the_sieve_refuses(kwargs):
    """Bad segment lengths and worker counts are refused before dispatch,
    though the sublinear engine uses neither."""
    m, f = build_modulus(5), CensusFilter.all_integers()
    assert preferred(10**6, 5, f)
    with pytest.raises(OutOfRangeError):
        _class_totals(10**6, m, f, kwargs.get("segment_length"), kwargs.get("workers", 1))


def test_sublinear_peak_within_table_estimate():
    x, q, f = 10**6, 15, CensusFilter.pk_threshold(2, 100)
    m = build_modulus(q)
    m.units  # build the lazy table before tracing
    primes, _ = plan(x, q)
    tracemalloc.start()
    try:
        _sublinear.class_totals(x, m, primes, *grading(f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _sublinear.table_bytes(x, q, m.phi * 3)
