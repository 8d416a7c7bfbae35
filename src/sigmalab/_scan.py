"""Deterministic segment-parallel scans over integer ranges: plan, the one
validated setup that every scan runs and that supplies its primes ≤ √x,
and scan_segment, the one segment kernel that every scan runs.

Range: the kernel's int64 values are n ≤ x, n + 1, the found part of n
(a divisor of n) and products of residues mod q, which stay below q²,
or below (q − 1)^ω(n) where the per-prime reductions are skipped.  So
every value fits when x ≤ MAX_SCAN_X and q ≤ MAX_SCAN_Q, and
check_scan_range refuses the rest before any table is built.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import OutOfRangeError

_INT64_MAX = 2**63 - 1
MAX_SCAN_X = _INT64_MAX - 1
MAX_SCAN_Q = math.isqrt(_INT64_MAX)
# Their product exceeds 2^63, so they bound ω(n) for every int64 n.
_FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


DEFAULT_SEGMENT_LENGTH = 1 << 20


def check_scan_range(x: int, q: int = 1) -> None:
    """Raise OutOfRangeError unless x ≤ MAX_SCAN_X and q ≤ MAX_SCAN_Q."""
    if x > MAX_SCAN_X:
        raise OutOfRangeError(f"x = {x} exceeds {MAX_SCAN_X}: n + 1 must fit in int64")
    if q > MAX_SCAN_Q:
        raise OutOfRangeError(f"q = {q} exceeds {MAX_SCAN_Q}: q^2 must fit in int64")


def primes_up_to(limit: int) -> np.ndarray:
    """All primes ≤ limit as an ascending int64 array, from a plain
    bool-array sieve."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    composite = np.zeros(limit + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, math.isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    return np.flatnonzero(~composite).astype(np.int64)


def plan(x: int, q: int = 1, segment_length: Optional[int] = None,
         prime_limit: Optional[int] = None) -> tuple[np.ndarray, int]:
    """Validate a scan of 1 ≤ n ≤ x (σ mod q, if any) and set it up.

    Refuses x < 1, q < 1 and segment_length < 1, then the ranges that
    check_scan_range refuses, all with OutOfRangeError and before any
    table is built.  Returns the primes ≤ min(prime_limit, √x) and the
    segment length (DEFAULT_SEGMENT_LENGTH for None).
    """
    if x < 1:
        raise OutOfRangeError(f"x must be >= 1, got {x}")
    if q < 1:
        raise OutOfRangeError(f"modulus must be >= 1, got {q}")
    if segment_length is None:
        segment_length = DEFAULT_SEGMENT_LENGTH
    elif segment_length < 1:
        raise OutOfRangeError(f"segment_length must be >= 1, got {segment_length}")
    check_scan_range(x, q)
    limit = math.isqrt(x) if prime_limit is None else min(prime_limit, math.isqrt(x))
    return primes_up_to(limit), segment_length


class Segment(NamedTuple):
    """scan_segment's arrays over lo ≤ n < hi; one not asked for is None."""

    sigma: Optional[np.ndarray]
    large: Optional[np.ndarray]
    rough: Optional[np.ndarray]
    cofactor: np.ndarray


def _reduce(a: np.ndarray, q: int, tmp: np.ndarray) -> None:
    """a %= q in place, as a − (a // q)·q: numpy divides a contiguous
    array by a scalar several times faster than it takes the remainder."""
    np.floor_divide(a, q, out=tmp)
    tmp *= q
    a -= tmp


def scan_segment(
    lo: int,
    hi: int,
    primes: np.ndarray,
    *,
    q: Optional[int] = None,
    above: Optional[float] = None,
    rough: Optional[float] = None,
) -> Segment:
    """One walk of the ascending primes ≤ √(hi − 1) over lo ≤ n < hi, lo ≥ 1.

    Returns int64 σ(n) mod q if q is given; the int8 number of prime
    factors > above, with multiplicity, if above is; y-roughness if
    rough = y is, in which case the primes ≤ y only mark n and are not
    divided out, so the other arrays hold where n is rough; and always
    the cofactor, n over its part on the primes divided out.  σ and the
    count need every prime ≤ √(hi − 1), and then the cofactor is 1 or a
    prime; a cofactor alone may use fewer (the primes ≤ z of a smooth
    count).

    Each prime touches basic strided views only: its multiples, and
    inside them the multiples of p², p³, ... (nested strides).  The
    found part acc = ∏ p^e is built in place and divided into n once at
    the end; σ(p^e) mod q comes from one factor buffer per prime, filled
    with σ(p) and overwritten at the deeper multiples.  The leftover
    prime P adds σ(P) = P + 1 in one pass.  Cache-sized segments with
    strided marking follow T. Oliveira e Silva's segmented sieve and
    primesieve.
    """
    size = hi - lo
    top = hi - 1
    walk = primes[: np.searchsorted(primes, math.isqrt(top), side="right")]
    alive = None
    if rough is not None:
        cut = int(np.searchsorted(walk, math.floor(rough), side="right"))
        alive = np.ones(size, dtype=bool)
        for p in walk[:cut].tolist():
            alive[-lo % p :: p] = False
        walk = walk[cut:]
    large = None if above is None else np.zeros(size, dtype=np.int8)
    sig = None
    if q is not None:
        sig = np.full(size, 1 % q, dtype=np.int64)
        buf = np.empty(size, dtype=np.int64)
        omega_max = sum(math.prod(_FIRST_PRIMES[:k]) <= top for k in range(1, 17))
        reduce_each = (q - 1) ** omega_max > _INT64_MAX
    rem = np.arange(lo, hi, dtype=np.int64)
    acc = np.ones(size, dtype=np.int64) if walk.size or q is not None else None
    for p in walk.tolist():
        s = -lo % p
        if s >= size:
            continue
        strides = [(s, p)]
        pj = p * p
        while pj <= top and -lo % pj < size:
            strides.append((-lo % pj, pj))
            pj *= p
        for sj, pj in strides:
            acc[sj::pj] *= p
        if large is not None and p > above:
            for sj, pj in strides:
                large[sj::pj] += 1
        if sig is not None:
            # σ(p^e) mod q by Horner, written at the multiples of p^e.
            c = (1 + p) % q
            view = sig[s::p]
            if len(strides) == 1:
                view *= c
            else:
                fac = buf[: view.shape[0]]
                fac.fill(c)
                for sj, pj in strides[1:]:
                    c = (c * p + 1) % q
                    fac[(sj - s) // p :: pj // p] = c
                view *= fac
            if reduce_each:
                view %= q
    if walk.size:
        np.floor_divide(rem, acc, out=rem)
    if sig is not None:
        # The leftover prime P contributes σ(P) = P + 1; rem = 1 contributes 1.
        np.add(rem, rem > 1, out=buf)
        _reduce(buf, q, acc)
        sig *= buf
        _reduce(sig, q, acc)
    if large is not None:
        large += rem > max(above, 1)
    if alive is not None:
        alive &= (rem == 1) | (rem > rough)
    return Segment(sig, large, alive, rem)


def segment_bounds(start: int, stop: int, segment_length: int) -> list[tuple[int, int]]:
    """Half-open [lo, hi) chunks covering [start, stop)."""
    if segment_length < 1:
        raise ValueError("segment_length must be positive")
    return [(lo, min(lo + segment_length, stop)) for lo in range(start, stop, segment_length)]


def map_segments(start: int, stop: int, segment_length: int,
                 fn: Callable[[int, int], object], workers: int = 1) -> list:
    """Apply fn(lo, hi) to every segment, returning results in segment order.

    The worker count changes wall time only, never the result: segments are
    independent and the merge order is fixed, so reductions over the returned
    list are bit-identical for any worker count.
    """
    if workers < 1:
        raise OutOfRangeError(f"workers must be at least 1, got {workers}")
    segs = segment_bounds(start, stop, segment_length)
    if workers <= 1 or len(segs) <= 1:
        return [fn(lo, hi) for lo, hi in segs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda seg: fn(*seg), segs))
