"""Censuses of σ(n) in coprime residue classes.

The core question: among n ≤ x whose divisor sum σ(n) is coprime to q,
how evenly do the values σ(n) mod q spread over the unit classes?
_class_totals counts them with one of two engines that give the same
int64 totals, as _sublinear.preferred picks: for small φ(q) the Lucy +
min_25 engine of _sublinear (x = 10⁷ in about 0.02 s at q = 5), else
the segment sieve, which streams [1, x] through the one segment kernel,
_scan.scan_segment, in strided prime-power marking with no per-n
factorization (x = 10⁷ in about 0.3 s on one worker, at any q).

Filters restrict which n enter the census:

  * all          -- every n ≤ x,
  * coprime-only -- n with gcd(n, q) = 1,
  * pk-threshold -- n whose k-th largest prime factor (with
                    multiplicity) exceeds a threshold t; equivalently,
                    n with at least k prime factors > t.

Alongside the census sit the twisted partial sums Σ χ(σ(n)) that
control it through orthogonality, the prime reciprocal sums
Σ_{p ≤ x} 1_{gcd(F(p),q)=1}/p whose log log x coefficient is the
equidistribution exponent, a discrepancy statistic, and the main-term
shapes x/(log x)^{1−α} and √x/(log x)^{1−α̃} for coprime-σ counts.

All counting is exact 64-bit integer arithmetic, for x ≤ 2⁶³ − 2 and
q ≤ 3.04·10⁹.  Every census is checked by _scan.plan, which refuses
larger inputs, x < 1, q < 1 and a worker count below 1 with
OutOfRangeError; then the engine's tables and the primes ≤ √x are
priced against the budget before any is built.  The sieve runs
DEFAULT_SEGMENT_LENGTH segments and adds each one's classes into one
int64 total in place (np.add.at) under a lock: exact in any order, so
the same for any worker count, in 8·q bytes plus O(workers·segment).  The
sublinear engine holds about three 2√x × φ(q)·(k + 1) int64 tables.  The unit
classes are then compacted into the front of the total in place, and the
report's counts map the modulus's units, built on first read, to it.
"""

from __future__ import annotations

import math
import operator
import threading
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from . import _sublinear
from ._scan import (DEFAULT_MEMORY_BUDGET, DEFAULT_SEGMENT_LENGTH, check_budget,
                    kernel_bytes, map_segments, plan, prime_table_bytes, primes_up_to,
                    release_scratch, scan_segment, segment_bounds, sigma_width)
from .characters import DirichletCharacter, Modulus, _coprime_mask
from .charsums import PolynomialSpec
from .errors import DegenerateCensusError, OutOfRangeError, UnsupportedModulusError

__all__ = [
    "CensusFilter",
    "CensusReport",
    "ClassCounts",
    "census",
    "twisted_partial_sum",
    "prime_reciprocal_sum",
    "discrepancy",
    "rough_count_estimate",
    "iter_sigma_segments",
    "proof_threshold_y",
    "proof_threshold_z",
]

_FILTER_KINDS = ("all", "coprime-only", "pk-threshold")
# Classes per step when class arrays are copied, iterated or printed; one
# whole-array step would hold φ(q)-long temporaries or lists at once.
_CHUNK = 1 << 16
_PRIME_CHUNK = 1 << 20  # primes per step of prime_reciprocal_sum
_INT64_LIMIT = 1 << 63


@dataclass(frozen=True)
class CensusFilter:
    """Restriction on which n ≤ x enter a census.

    kind 'all' admits everything, 'coprime-only' admits n with
    gcd(n, q) = 1, and 'pk-threshold' admits n whose k-th largest
    prime factor (with multiplicity) exceeds threshold.  Since the
    k-th largest prime factor exceeds t exactly when at least k prime
    factors exceed t, the engine only ever counts large prime factors
    and never sorts anything.
    """

    kind: str
    k: Optional[int] = None
    threshold: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _FILTER_KINDS:
            raise ValueError(f"filter kind must be one of {_FILTER_KINDS}, got {self.kind!r}")
        if self.kind == "pk-threshold":
            if self.k is None or self.k < 1:
                raise ValueError("pk-threshold filter needs k >= 1")
            if self.threshold is None or self.threshold < 1:
                raise ValueError("pk-threshold filter needs threshold >= 1")
            object.__setattr__(self, "k", int(self.k))
            object.__setattr__(self, "threshold", int(self.threshold))

    @classmethod
    def all_integers(cls) -> "CensusFilter":
        return cls("all")

    @classmethod
    def coprime_only(cls) -> "CensusFilter":
        return cls("coprime-only")

    @classmethod
    def pk_threshold(cls, k: int, threshold: int) -> "CensusFilter":
        return cls("pk-threshold", k=k, threshold=threshold)

    def describe(self) -> str:
        if self.kind == "pk-threshold":
            return f"P_{self.k}(n) > {self.threshold}"
        return self.kind


def proof_threshold_y(x: int, epsilon: float) -> float:
    """The split point y = exp((log x)^{ε/2}) used when separating
    integers by the size of their second-largest prime factor."""
    if x < 3:
        raise OutOfRangeError(f"x must be >= 3, got {x}")
    if not 0 < epsilon <= 1:
        raise OutOfRangeError(f"epsilon must lie in (0, 1], got {epsilon}")
    return math.exp(math.log(x) ** (epsilon / 2.0))


def proof_threshold_z(x: int) -> float:
    """The split point z = x^{1/log log x} separating the very rough
    top range of prime factors."""
    if x < 16:
        raise OutOfRangeError(f"x must be >= 16, got {x}")
    return x ** (1.0 / math.log(math.log(x)))


class ClassCounts(Mapping):
    """Read-only mapping {unit class a: count} over two int64 arrays.

    key_array holds the unit classes in ascending order and value_array
    their counts; both are read-only.  Given a Modulus for keys, key_array is
    its units, built on a key's first read; len and values() read none.  Lookups
    are a binary search, iteration walks the arrays in chunks, and no Python
    object is made per class until one is asked for.  It compares equal to any
    Mapping with the same items, and its repr is that of the equal dict.
    dict(counts) looks every class up in turn; dict(counts.items()) is faster.
    """

    __slots__ = ("_keys", "value_array")

    def __init__(self, keys: np.ndarray | Modulus, values: np.ndarray) -> None:
        self._keys = keys if isinstance(keys, Modulus) else _read_only(keys)
        self.value_array = _read_only(values)

    @property
    def key_array(self) -> np.ndarray:
        if isinstance(self._keys, Modulus):
            self._keys = _read_only(self._keys.units)
        return self._keys

    def __getitem__(self, key) -> int:
        try:
            k = operator.index(key)
        except TypeError:
            raise KeyError(key) from None
        keys = self.key_array
        if -_INT64_LIMIT <= k < _INT64_LIMIT:
            i = keys.searchsorted(k)
            if i < keys.shape[0] and keys.item(i) == k:
                return self.value_array.item(i)
        raise KeyError(key)

    def __len__(self) -> int:
        return self.value_array.shape[0]

    def _chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for start in range(0, len(self), _CHUNK):
            stop = start + _CHUNK
            yield self.key_array[start:stop], self.value_array[start:stop]

    def __iter__(self) -> Iterator[int]:
        for keys, _ in self._chunks():
            yield from keys.tolist()

    def values(self) -> ValuesView:
        return _ClassValues(self)

    def items(self) -> ItemsView:
        return _ClassItems(self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ClassCounts):
            return (np.array_equal(self.key_array, other.key_array)
                    and np.array_equal(self.value_array, other.value_array))
        return super().__eq__(other)

    def __repr__(self) -> str:
        parts = []
        for keys, values in self._chunks():
            pairs = np.stack((keys, values), axis=1).ravel().tolist()
            parts.append(", ".join(["%d: %d"] * keys.shape[0]) % tuple(pairs))
        return "{" + ", ".join(parts) + "}"


def _read_only(a: np.ndarray) -> np.ndarray:
    a = a.view()
    a.flags.writeable = False
    return a


class _ClassValues(ValuesView):
    def __iter__(self) -> Iterator[int]:
        values = self._mapping.value_array
        for start in range(0, values.shape[0], _CHUNK):
            yield from values[start : start + _CHUNK].tolist()


class _ClassItems(ItemsView):
    def __iter__(self) -> Iterator[tuple[int, int]]:
        for keys, values in self._mapping._chunks():
            yield from zip(keys.tolist(), values.tolist())


@dataclass(frozen=True)
class CensusReport:
    """Per-class counts of σ(n) mod q together with summary statistics.

    counts, a read-only ClassCounts mapping over int64 arrays, maps each
    unit class a to #{filtered n ≤ x : σ(n) ≡ a},
    total_coprime is their sum, mean the uniform share, and
    max_rel_deviation the worst relative departure from that share
    (NaN when the census is empty).  alpha and alpha_tilde are the
    exact densities of units v with v+1, resp. v²+v+1, again a unit;
    exponent_used names which of the two governs the main term for
    this modulus (alpha for odd q, alpha_tilde for even q).
    """

    x: int
    q: int
    filter: CensusFilter
    counts: ClassCounts
    total_coprime: int
    mean: float
    max_rel_deviation: float
    alpha: Fraction
    alpha_tilde: Fraction
    exponent_used: str


def iter_sigma_segments(
    x: int,
    q: int,
    *,
    threshold: Optional[int] = None,
) -> Iterator[tuple[int, int, np.ndarray, Optional[np.ndarray]]]:
    """Stream (lo, hi, σ mod q, large-factor counts) over [1, x].

    The σ array aligns with np.arange(lo, hi); the count array (number
    of prime factors > threshold, with multiplicity) is None unless a
    threshold was given.  Both are the caller's own copies: the kernel's
    arrays are reused by the next segment.  Sequential by construction;
    the parallel census path folds each segment into its class totals
    instead of exposing it.
    """
    x = int(x)
    plan(x, q)
    primes = primes_up_to(math.isqrt(x))
    try:
        for lo, hi in segment_bounds(1, x + 1, DEFAULT_SEGMENT_LENGTH):
            seg = scan_segment(lo, hi, primes, q=q, above=threshold)
            cnt = None if threshold is None else seg.large.astype(np.int64)
            yield lo, hi, seg.sigma.astype(np.int64), cnt
    finally:
        release_scratch()


def _grading(f: CensusFilter) -> tuple[int, int]:
    """The engine's grades and threshold: k + 1 and t under pk-threshold."""
    return (f.k + 1, f.threshold) if f.kind == "pk-threshold" else (1, 0)


def _class_totals(x: int, m: Modulus, f: CensusFilter, workers: int,
                  budget: int = DEFAULT_MEMORY_BUDGET) -> np.ndarray:
    """int64 array over 0..q−1 of #{filtered n ≤ x : σ(n) ≡ a}, zero at non-
    units a, after the sieve's input checks and a price check of the engine's
    arrays, and only then the primes ≤ √x.  _sublinear.preferred picks the
    sublinear engine (about three 2√x × φ(q)·(k + 1) int64 tables, no
    segments or workers) when x ≥ 2¹⁶, φ(q)·(1 + (k + 1)·α(q)) is small
    against x^(1/4)·ln x and the tables fit budget bytes.  Else the sieve
    runs once its price fits: 8·q bytes of totals, the primes ≤ √x, and per
    worker the kernel's arrays, a filtered σ and its mask and 128 KiB of
    ufunc buffers."""
    plan(x, m.q, workers)
    grades, threshold = _grading(f)
    if _sublinear.preferred(x, m, grades, threshold, budget):
        return _sublinear.class_totals(x, m, primes_up_to(math.isqrt(x)), grades,
                                       threshold, f.kind == "coprime-only")[-1]
    seg = min(DEFAULT_SEGMENT_LENGTH, x)
    filtered = sigma_width(x + 1).itemsize + 1  # a filtered σ and its mask
    per_int = kernel_bytes(x + 1, f.kind == "pk-threshold") + filtered * (f.kind != "all")
    need = 8 * m.q + workers * (per_int * seg + (1 << 17)) + prime_table_bytes(math.isqrt(x))
    check_budget(need, budget, "census sieve")
    return _sieve_totals(x, m, f, primes_up_to(math.isqrt(x)), workers)


def _sieve_totals(x: int, m: Modulus, f: CensusFilter, primes: np.ndarray,
                  workers: int) -> np.ndarray:
    """_class_totals by the segment kernel over [1, x], walking the primes ≤ √x.
    Every segment adds its filtered σ mod q into the one total in place
    (np.add.at) under a lock, so no q-length part is ever built.  The sum
    is exact in any order, hence the same for any workers."""
    q = m.q
    threshold = f.threshold if f.kind == "pk-threshold" else None
    primes_of_q = [ell for ell, _ in m.factorization]

    totals = np.zeros(q, dtype=np.int64)
    fold = threading.Lock()

    def one_segment(lo: int, hi: int) -> None:
        seg = scan_segment(lo, hi, primes, q=q, above=threshold)
        sig = seg.sigma
        if f.kind == "coprime-only":
            sig = sig[_coprime_mask(lo, hi, primes_of_q)]
        elif f.kind == "pk-threshold":
            sig = sig[seg.large >= f.k]
        with fold:
            np.add.at(totals, sig, 1)

    map_segments(1, x + 1, DEFAULT_SEGMENT_LENGTH, one_segment, workers)
    for ell, _ in m.factorization:
        totals[::ell] = 0
    return totals


def _max_rel_deviation(counts: np.ndarray, total: int) -> float:
    """max over classes of |count·φ(q)/total − 1|, counts over the φ(q) units.

    The int64 product, the correctly rounded division and the subtraction
    are each monotone in the count, so the maximum is taken at the least
    or the greatest count; evaluating only those two gives the same float
    as the whole array would, without φ-long temporaries."""
    ends = np.array([counts.min(), counts.max()])
    return float(np.max(np.abs(ends * counts.shape[0] / total - 1.0)))


def census(
    x: int,
    m: Modulus,
    f: Optional[CensusFilter] = None,
    *,
    workers: int = 1,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> CensusReport:
    """Count filtered n ≤ x by the class of σ(n) among the units mod q.

    Only n with gcd(σ(n), q) = 1 are counted at all (σ values sharing
    a factor with q belong to no coprime class).  The totals come from
    _class_totals: the sublinear engine when _sublinear.preferred says φ(q)
    is small for this x, in about three 2√x × φ(q)·(k + 1) int64 tables,
    else the segment sieve, in about 8·q bytes plus O(workers·segment).
    The modulus's price, then each engine's arrays, are checked against
    memory_budget bytes first; ResourceBudgetError when neither fits.  Both are
    exact, so the counts are the same for any engine and worker count.  The unit
    classes are then moved to the front of the total in place, and the report's
    counts read them there, keyed by the units once a key is read.
    """
    x = int(x)
    if f is None:
        f = CensusFilter.all_integers()
    q = m.q
    m.check_price()
    totals = _class_totals(x, m, f, workers, memory_budget)
    primes_of_q, end = [ell for ell, _ in m.factorization], 0
    for a in range(0, q, _CHUNK):  # each block is copied out before it is written, at or below a
        block = totals[a : a + _CHUNK][_coprime_mask(a, min(a + _CHUNK, q), primes_of_q)]
        totals[end : end + block.shape[0]] = block
        end += block.shape[0]
    in_units = totals[: m.phi]
    counts = ClassCounts(m, in_units)
    total = int(in_units.sum())
    mean = total / m.phi
    max_rel = _max_rel_deviation(in_units, total) if total > 0 else float("nan")
    return CensusReport(
        x=x,
        q=q,
        filter=f,
        counts=counts,
        total_coprime=total,
        mean=mean,
        max_rel_deviation=max_rel,
        alpha=m.alpha,
        alpha_tilde=m.alpha_tilde,
        exponent_used="alpha" if q % 2 else "alpha_tilde",
    )


def twisted_partial_sum(
    x: int,
    chi: DirichletCharacter,
    f: Optional[CensusFilter] = None,
    *,
    workers: int = 1,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> complex:
    """Σ χ(σ(n)) over filtered n ≤ x.

    Terms with gcd(σ(n), q) > 1 contribute 0 through the character's
    zero extension.  For the principal character this is exactly the
    coprime total of the census; for nonprincipal characters
    orthogonality makes it the error term of equidistribution.  Taken as
    the character transform of the census's exact class totals, so it
    does not depend on the engine or workers; those
    totals are checked against memory_budget bytes as in census.
    """
    x = int(x)
    if f is None:
        f = CensusFilter.all_integers()
    m = chi.modulus
    totals = _class_totals(x, m, f, workers, memory_budget)
    return complex(m.character_transform(totals)[chi.index])


def prime_reciprocal_sum(
    F: PolynomialSpec,
    m: Modulus,
    x: int,
    *,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> float:
    """Σ_{p ≤ x} 1/p over primes with gcd(F(p), q) = 1.

    The admission test reduces F(p) mod q, so only p mod q matters.
    Grows like (density)·log log x, where the density is the fraction
    of unit classes u mod q with F(u) again a unit; the q = 1 case is
    the classic Σ 1/p.  Summation is sequential in ascending prime
    order in fixed chunks of 2²⁰ primes, hence reproducible to the bit.

    The primes come from one bool sieve of the odd n ≤ x, (x + 1)//2
    bytes, and an int64 array of π(x) < 1.26·x/ln x entries, and each
    chunk adds about five 8-byte temporaries per prime.  When their sum
    exceeds memory_budget bytes, ResourceBudgetError is raised before any
    of them is allocated.
    """
    x = int(x)
    if x < 2:
        raise OutOfRangeError(f"x must be >= 2, got {x}")
    plan(x)
    table = prime_table_bytes(x)  # (x + 1)//2 sieve bytes, then 8 per prime
    check_budget(table + 5 * min(8 * _PRIME_CHUNK, table - (x + 1) // 2), memory_budget,
                 f"prime table for x = {x}")
    primes = primes_up_to(x)
    q = m.q
    total = 0.0
    for start in range(0, primes.shape[0], _PRIME_CHUNK):
        block = primes[start : start + _PRIME_CHUNK]
        values = F.evaluate_array(block, q)
        ok = np.gcd(values, q) == 1
        total += float(np.sum(1.0 / block[ok].astype(np.float64)))
    return total


def discrepancy(report: CensusReport) -> float:
    """Worst relative deviation of a census from perfect uniformity:
    max over classes a of |count(a)·φ(q)/total − 1|.

    An empty census admits no comparison and raises
    DegenerateCensusError.
    """
    if report.total_coprime <= 0:
        raise DegenerateCensusError(
            f"census of x = {report.x}, q = {report.q} has no coprime values"
        )
    return _max_rel_deviation(report.counts.value_array, report.total_coprime)


def rough_count_estimate(x: int, m: Modulus) -> float:
    """Main-term shape for #{n ≤ x : gcd(σ(n), q) = 1}.

    Odd q: x/(log x)^{1−α(q)}.  Even q (with 3 ∤ q): the coprime set
    thins to numbers 2^k·m² and the shape is √x/(log x)^{1−α̃(q)}.
    The multiplicative exp(O(...)) correction has an inexplicit
    constant and is omitted entirely; values are shapes for trend
    comparison, not calibrated predictions.  Moduli divisible by 6
    admit no such estimate (σ(n) is then coprime to q only on a
    negligible set) and are rejected.
    """
    x = int(x)
    if x < 2:
        raise OutOfRangeError(f"x must be >= 2, got {x}")
    q = m.q
    logx = math.log(x)
    if q % 2:
        exponent = 1.0 - float(m.alpha)
        return x / logx**exponent
    if q % 3 == 0:
        raise UnsupportedModulusError(
            f"q = {q} is divisible by 6; sigma values coprime to q are negligible"
        )
    exponent = 1.0 - float(m.alpha_tilde)
    return math.sqrt(x) / logx**exponent
