"""Exact arithmetic over a sieved integer range.

Smallest-prime-factor tables, canonical factorizations, sigma(n) mod q,
ordered prime-factor statistics, 2-adic square decompositions, and exact
smooth/rough counts, which run the sublinear engine of _sublinear over a
window of primes rather than a sieve, and so take no segment length or
worker count. Everything is exact integer arithmetic; floating point only
enters through cutoffs supplied by the caller.

Conventions: P+(1) = P-(1) = 1, the k-th largest prime factor of n is taken
with multiplicity and defaults to 1 when n has fewer than k prime factors,
and n = 1 counts both as z-smooth and as y-rough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _sublinear
from ._scan import (DEFAULT_MEMORY_BUDGET, DEFAULT_SEGMENT_LENGTH, check_budget, plan,
                    primes_up_to, segment_bounds)
from .errors import OutOfRangeError


@dataclass(frozen=True)
class Factorization:
    """Canonical factorization: (prime, exponent) pairs, primes ascending."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        primes = [p for p, _ in self.factors]
        if primes != sorted(primes) or len(set(primes)) != len(primes):
            raise ValueError("factors must list distinct primes in ascending order")
        if any(e < 1 for _, e in self.factors):
            raise ValueError("exponents must be >= 1")

    @property
    def n(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    @property
    def num_prime_factors(self) -> int:
        """Prime factors counted with multiplicity (Omega)."""
        return sum(e for _, e in self.factors)

    @property
    def num_distinct_primes(self) -> int:
        """Distinct prime factors (omega)."""
        return len(self.factors)

    @property
    def largest_prime_factor(self) -> int:
        return self.factors[-1][0] if self.factors else 1

    @property
    def smallest_prime_factor(self) -> int:
        return self.factors[0][0] if self.factors else 1


def kth_largest_prime_factor(fact: Factorization, k: int) -> int:
    """k-th largest prime factor with multiplicity; 1 when fewer than k exist.

    With n = p1^e1 * ... the multiset {p1 x e1, ...} is read in descending
    order, so e.g. n = 12 = 2^2 * 3 gives 3, 2, 2, 1, 1, ...
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    seen = 0
    for p, e in reversed(fact.factors):
        seen += e
        if seen >= k:
            return p
    return 1


def sigma_mod(fact: Factorization, q: int) -> int:
    """Sum of divisors of n modulo q, via Horner geometric sums.

    sigma(p^e) = 1 + p + ... + p^e is accumulated as g -> g*p + 1 (e steps),
    never dividing by p - 1, so q need not be coprime to anything.
    """
    if q < 1:
        raise ValueError("modulus must be >= 1")
    total = 1 % q
    for p, e in fact.factors:
        g = 1 % q
        pm = p % q
        for _ in range(e):
            g = (g * pm + 1) % q
        total = total * g % q
    return total


@dataclass(frozen=True)
class TwoAdicSquareForm:
    """Decomposition n = 2^k * m^2 with m odd, when it exists."""

    valid: bool
    two_exponent: int | None = None
    odd_root: int | None = None


def two_adic_square_form(fact: Factorization) -> TwoAdicSquareForm:
    """Write n = 2^k * m^2 (m odd) if possible; n = 1 gives (0, 1)."""
    k = 0
    m = 1
    for p, e in fact.factors:
        if p == 2:
            k = e
        elif e % 2:
            return TwoAdicSquareForm(False)
        else:
            m *= p ** (e // 2)
    return TwoAdicSquareForm(True, k, m)


def odd_part_is_square_array(n: np.ndarray) -> np.ndarray:
    """Vectorized test that the odd part of each n >= 1 is a perfect square."""
    n = np.asarray(n, dtype=np.int64)
    low = n & (-n)  # 2^{v2(n)}
    odd = n // low
    r = np.rint(np.sqrt(odd.astype(np.float64))).astype(np.int64)
    return r * r == odd


class FactorSieve:
    """Smallest-prime-factor table for 2..limit, built in segments.

    The table is one uint32 per integer; construction walks fixed-length
    segments so that the marking passes stay cache-resident. The limit is
    checked at once; the table is built on the first call that reads it,
    after its 4·(limit + 1) bytes are checked against memory_budget, so a
    sieve used only for its limit costs and checks nothing more.
    """

    def __init__(self, limit: int, *, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> None:
        if limit < 2:
            raise ValueError("limit must be >= 2")
        if limit >= 2**32:
            raise OutOfRangeError("spf entries are uint32; limit must be < 2^32")
        self.limit = int(limit)
        self._memory_budget = memory_budget
        self._spf: np.ndarray | None = None
        self._primes: np.ndarray | None = None

    def _table(self) -> np.ndarray:
        """The spf table, built on the first call."""
        if self._spf is not None:
            return self._spf
        check_budget(4 * (self.limit + 1), self._memory_budget,
                     f"spf table for limit {self.limit}")
        base_primes = primes_up_to(math.isqrt(self.limit))
        spf = np.zeros(self.limit + 1, dtype=np.uint32)
        for lo, hi in segment_bounds(2, self.limit + 1, DEFAULT_SEGMENT_LENGTH):
            for p in base_primes:
                p = int(p)
                if p * p >= hi:
                    break
                start = max(p * p, ((lo + p - 1) // p) * p)
                view = spf[start:hi:p]
                view[view == 0] = p
            seg = spf[lo:hi]
            fresh = np.flatnonzero(seg == 0) + lo
            spf[fresh] = fresh
        spf[1] = 1
        self._spf = spf
        return spf

    def smallest_prime_factor(self, n: int) -> int:
        if n < 2 or n > self.limit:
            raise OutOfRangeError(f"n={n} outside sieve range 2..{self.limit}")
        return int(self._table()[n])

    def is_prime(self, n: int) -> bool:
        if n < 2 or n > self.limit:
            raise OutOfRangeError(f"n={n} outside sieve range 2..{self.limit}")
        return int(self._table()[n]) == n

    def factorize(self, n: int) -> Factorization:
        """Canonical factorization of 1 <= n <= limit by spf chasing."""
        if n < 1 or n > self.limit:
            raise OutOfRangeError(f"n={n} outside sieve range 1..{self.limit}")
        spf = self._table()
        out: list[tuple[int, int]] = []
        while n > 1:
            p = int(spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return Factorization(tuple(out))

    def primes(self) -> np.ndarray:
        """Ascending array of all primes <= limit (cached)."""
        if self._primes is None:
            spf = self._table()
            chunks = []
            for lo, hi in segment_bounds(2, self.limit + 1, DEFAULT_SEGMENT_LENGTH):
                sl = spf[lo:hi]
                idx = np.flatnonzero(sl == np.arange(lo, hi, dtype=np.uint32))
                chunks.append((idx + lo).astype(np.int64))
            self._primes = np.concatenate(chunks) if chunks else np.zeros(0, np.int64)
        return self._primes

    def primes_up_to(self, bound: int) -> np.ndarray:
        if bound > self.limit:
            raise OutOfRangeError(f"bound {bound} exceeds sieve limit {self.limit}")
        ps = self.primes()
        return ps[: int(np.searchsorted(ps, bound, side="right"))]


def _window_count(x: int, lo: int, hi: int, sieve: FactorSieve | None) -> int:
    """#{n <= x : every prime factor of n in (lo, hi]} from the sublinear engine
    at q = 1, after _scan.plan's checks; x must not exceed a given sieve's limit."""
    if sieve is not None and x > sieve.limit:
        raise OutOfRangeError(f"x = {x} exceeds sieve limit {sieve.limit}")
    plan(x)
    return int(_sublinear.omega_tails(x, lo, hi, 1, DEFAULT_MEMORY_BUDGET)[0])


def psi_smooth_count(x: int, z: float, sieve: FactorSieve | None = None) -> int:
    """Exact count of z-smooth n <= x (largest prime factor <= z); 1 is smooth.

    The sublinear engine runs over the primes <= z, in tables of about
    2*sqrt(x) rows checked against DEFAULT_MEMORY_BUDGET.  A sieve, if
    given, is read only for its limit, which x must not exceed.
    """
    if z < 2:
        raise ValueError("z must be >= 2")
    return _window_count(x, 1, math.floor(min(z, x)), sieve)


def rough_count(x: int, y: float, sieve: FactorSieve | None = None) -> int:
    """Exact count of y-rough n <= x (least prime factor > y); 1 is rough.
    The same engine as psi_smooth_count, over the primes above y.
    A sieve, if given, is read only for its limit, which x must not exceed."""
    if y < 1:
        raise ValueError("y must be >= 1")
    return _window_count(x, math.floor(min(y, x)), x, sieve)
