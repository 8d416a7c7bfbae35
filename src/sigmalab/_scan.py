"""Deterministic segment-parallel scans over integer ranges: plan, the one
input check every scan runs before it builds its primes ≤ √x,
check_budget, the one refusal of tables priced above a byte budget
(DEFAULT_MEMORY_BUDGET unless the caller gives one), and scan_segment,
the one segment kernel of the scans that sieve [1, x] in
DEFAULT_SEGMENT_LENGTH segments: the censuses _sublinear does not take,
the σ stream and the witnesses.  The rough and smooth counts run plan
and then _sublinear, not the kernel.

Range and dtypes: on a segment lo ≤ n < hi the kernel holds n, the
found part of n (a divisor of n) and the cofactor in int32 when
hi ≤ 2³¹ − 1 and in int64 above; σ(P) = P + 1 ≤ hi for the leftover
prime P fits the same width.  Each factor multiplied into an entry of
σ mod q is a Horner value (c·p + 1) mod q, at most min(q − 1, σ(p^e)),
or the leftover's rem + 1 ≤ σ(rem) with rem coprime to the found part,
so an entry never exceeds σ(n) before the final reduction.  And
σ(n) < n·∏_{p | n} p/(p − 1) ≤ top·∏ p/(p − 1) over the first
ω_max(top) primes (sigma_width).  That fits int32 for every segment
top ≤ 351 302 974, where σ mod q and its factor buffer are int32, and
the final reduction is skipped when q > 2³¹ − 1 > σ; above that they
are int64.  It fits int64 for every segment
top ≤ 1 279 319 449 414 816 639 ≈ 1.28·10¹⁸: there σ is reduced mod q
once, at the end, whatever q is.  Above that switch every segment is
int64 and q ≤ MAX_SCAN_Q < hi; σ(P) is reduced before it is multiplied
in, and each prime's σ view too when (q − 1)^ω_max can leave int64, so
products of residues stay below q² or below (q − 1)^ω(n).  So every
value fits when x ≤ MAX_SCAN_X and q ≤ MAX_SCAN_Q, and plan
refuses the rest before any table is built.

Reuse: each thread keeps one set of kernel arrays (σ, the factor
buffer, n and its cofactor, the found part, the leftover mask and
the large counts), grown on demand and reused by every
segment it scans, so once the set has grown no segment allocates a
segment-long array.  The arrays scan_segment returns are views of
them, valid until the same thread's next scan_segment call.  map_segments drops the
caller's set when a sequential scan ends, and pool threads drop theirs
when they exit.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import OutOfRangeError, ResourceBudgetError

_INT64_MAX = 2**63 - 1
_INT32_MAX = 2**31 - 1
MAX_SCAN_X = _INT64_MAX - 1
MAX_SCAN_Q = math.isqrt(_INT64_MAX)
# Their product exceeds 2^63, so they bound ω(n) for every int64 n.
_FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


# Bytes a call may allocate for its tables unless given another budget.
DEFAULT_MEMORY_BUDGET = 2_000_000_000
# The segment length of every sieve scan.
DEFAULT_SEGMENT_LENGTH = 1 << 20
# The prefix of n that _fill_range writes with np.arange before doubling it.
_FILL_BLOCK = 1 << 12


def check_budget(need: int, budget: int, what: str) -> None:
    """Raise ResourceBudgetError when need bytes, the price of `what`,
    exceed budget; every table priced in bytes is checked here before it
    is allocated."""
    if need > budget:
        raise ResourceBudgetError(f"{what} would take about {need} bytes, "
                                  f"budget is {budget} bytes")


def primes_up_to(limit: int) -> np.ndarray:
    """All primes ≤ limit as an ascending int64 array, from a bool sieve of
    the odd n ≤ limit, entry i for n = 2i + 1; it holds (limit + 1)/2 bytes
    and the primes at most.  Entry 0 (n = 1) is kept and read as 2."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    prime = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if prime[i]:
            prime[2 * i * (i + 1) :: 2 * i + 1] = False  # from (2i + 1)², step 2(2i + 1)
    primes = np.flatnonzero(prime).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def prime_table_bytes(limit: int) -> int:
    """Peak bytes of primes_up_to(limit): the (limit + 1)//2 bytes of the
    odd-only sieve and 8 per prime, as π(limit) < 1.26·limit/ln limit;
    0 below 2."""
    return (limit + 1) // 2 + 8 * math.ceil(1.26 * limit / math.log(limit)) if limit > 1 else 0


def _omega_max(top: int) -> int:
    """The most distinct prime factors of any n ≤ top, top < 2⁶³."""
    return sum(math.prod(_FIRST_PRIMES[:k]) <= top for k in range(1, 17))


def _sigma_fits(top: int, limit: int) -> bool:
    """Whether top·∏ p/(p − 1) over the first ω_max(top) primes, a strict
    upper bound of σ(n) for every n ≤ top, is at most limit."""
    first = _FIRST_PRIMES[: _omega_max(top)]
    return top * math.prod(first) <= limit * math.prod(p - 1 for p in first)


def sigma_width(hi: int) -> np.dtype:
    """The dtype of scan_segment's σ mod q on a segment ending before hi:
    int32 when σ(n) < 2³¹ for every n ≤ hi − 1, that is hi − 1 ≤ 351 302 974,
    else int64."""
    return np.dtype(np.int32 if _sigma_fits(hi - 1, _INT32_MAX) else np.int64)


def kernel_bytes(hi: int, large: bool) -> int:
    """Bytes per integer of one thread's scan_segment arrays on segments ending
    at or below hi: σ and its factor buffer in sigma_width, n's cofactor and
    found part in the kernel's width, the leftover mask and, when large, the
    large-factor counts."""
    return 1 + 2 * sigma_width(hi).itemsize + 2 * (4 if hi <= _INT32_MAX else 8) + large


def plan(x: int, q: int = 1, workers: int = 1) -> None:
    """Validate a scan of 1 ≤ n ≤ x (σ mod q, if any).

    Refuses x < 1 and q < 1, then x > MAX_SCAN_X and q > MAX_SCAN_Q,
    then workers < 1, all with OutOfRangeError; it builds nothing, so a
    scan prices its tables and its primes ≤ √x after it.
    """
    if x < 1:
        raise OutOfRangeError(f"x must be >= 1, got {x}")
    if q < 1:
        raise OutOfRangeError(f"modulus must be >= 1, got {q}")
    if x > MAX_SCAN_X:
        raise OutOfRangeError(f"x = {x} exceeds {MAX_SCAN_X}: n + 1 must fit in int64")
    if q > MAX_SCAN_Q:
        raise OutOfRangeError(f"q = {q} exceeds {MAX_SCAN_Q}: q^2 must fit in int64")
    if workers < 1:
        raise OutOfRangeError(f"workers must be at least 1, got {workers}")


class Segment(NamedTuple):
    """scan_segment's arrays over lo ≤ n < hi; large is None unless asked for."""

    sigma: np.ndarray
    large: Optional[np.ndarray]
    cofactor: np.ndarray


# Each thread's kernel arrays by name, reused from segment to segment.
_arrays = threading.local()


def _scratch(name: str, size: int, dtype: type) -> np.ndarray:
    """The first size entries of this thread's kernel array `name`; it is
    allocated anew only when it is shorter than size or of another dtype."""
    have = _arrays.__dict__
    a = have.get(name)
    if a is None or a.shape[0] < size or a.dtype != dtype:
        del a
        have.pop(name, None)  # free the old array before its successor exists
        a = have[name] = np.empty(size, dtype=dtype)
    return a[:size]


def release_scratch() -> None:
    """Drop the calling thread's kernel arrays; views already handed out
    stay valid."""
    _arrays.__dict__.clear()


def _fill_range(a: np.ndarray, lo: int) -> None:
    """a[i] = lo + i, by doubling a filled prefix: np.arange into a would
    first build a temporary as long as a."""
    done = min(a.shape[0], _FILL_BLOCK)
    a[:done] = np.arange(lo, lo + done, dtype=a.dtype)
    while done < a.shape[0]:
        step = min(done, a.shape[0] - done)
        np.add(a[:step], done, out=a[done : done + step])
        done += step


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
    q: int,
    above: Optional[float] = None,
) -> Segment:
    """One walk of the ascending primes ≤ √(hi − 1) over lo ≤ n < hi, lo ≥ 1.

    Returns σ(n) mod q, in sigma_width(hi): int32 when hi − 1 ≤ 351 302 974
    and int64 above; the int8 number of prime factors > above, with
    multiplicity, if above is given; and the cofactor, n over its part on
    the primes divided out.  σ and the count need every prime ≤ √(hi − 1),
    and then the cofactor is 1 or a prime.  The cofactor is int32 when
    hi ≤ 2³¹ − 1 and int64 above.

    The returned arrays are views of the calling thread's kernel arrays,
    which every call reuses: they stay valid until the same thread's
    next scan_segment call, so a caller that keeps one copies it.

    Each prime touches basic strided views only: its multiples, and
    inside them the multiples of p², p³, ... (nested strides).  The
    found part acc = ∏ p^e is built in place and divided into n once at
    the end; σ(p^e) mod q comes from one factor buffer per prime, filled
    with σ(p) and overwritten at the deeper multiples.  The leftover
    prime P adds σ(P) = P + 1 in one pass.  σ is reduced mod q once, at
    the end, when hi − 1 ≤ 1.28·10¹⁸, since σ(n) then fits int64 (see
    the module docstring), so below that switch a segment costs the
    same at every q; above it σ(P) is reduced first, and each prime's
    view as well when (q − 1)^ω can leave int64.  n, the found part and
    the cofactor are held in the narrowest integer type that fits hi, so
    the contiguous passes move half the bytes below 2³¹, and σ and its
    factor buffer in the narrowest type that σ(n) fits.  Cache-sized
    segments with strided marking follow T. Oliveira e Silva's
    segmented sieve and primesieve.
    """
    size = hi - lo
    top = hi - 1
    width = np.int32 if hi <= _INT32_MAX else np.int64
    walk = primes[: np.searchsorted(primes, math.isqrt(top), side="right")]
    large = None
    if above is not None:
        large = _scratch("large", size, np.int8)
        large.fill(0)
    # No entry exceeds σ(n) before the final reduction, and σ(n) <
    # top·∏ p/(p − 1) over the first ω_max primes: up to 351 302 974 that
    # fits int32, and below about 1.28·10¹⁸ int64, whatever q is.
    sig = _scratch("sigma", size, sigma_width(hi))
    sig.fill(1 % q)
    buf = _scratch("factor", size, sig.dtype)
    narrow = sig.dtype == np.int32
    exact = _sigma_fits(top, _INT64_MAX)
    reduce_each = not exact and (q - 1) ** _omega_max(top) > _INT64_MAX
    rem = _scratch("cofactor", size, width)
    _fill_range(rem, lo)
    acc = _scratch("found", size, width)
    acc.fill(1)
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
    # The leftover prime P contributes σ(P) = P + 1, written over the spent
    # found part; rem = 1 contributes 1.  Under the σ(n) bound it needs no
    # reduction; above it, hi > q and rem is int64.
    mask = _scratch("leftover", size, bool)
    np.greater(rem, 1, out=mask)
    np.add(rem, mask, out=acc)
    if not exact:
        _reduce(acc, q, buf)
    sig *= acc
    if not narrow or q <= _INT32_MAX:  # else σ < 2³¹ ≤ q is reduced already
        _reduce(sig, q, buf)
    if large is not None:
        np.greater(rem, max(above, 1), out=mask)
        large += mask
    return Segment(sig, large, rem)


def segment_bounds(start: int, stop: int, segment_length: int) -> list[tuple[int, int]]:
    """Half-open [lo, hi) chunks covering [start, stop)."""
    return [(lo, min(lo + segment_length, stop)) for lo in range(start, stop, segment_length)]


def map_segments(start: int, stop: int, segment_length: int,
                 fn: Callable[[int, int], object], workers: int = 1) -> list:
    """Apply fn(lo, hi) to every segment, returning results in segment order.

    The worker count changes wall time only, never the result: segments are
    independent and the merge order is fixed, so reductions over the returned
    list are bit-identical for any worker count.  A sequential scan drops
    the calling thread's kernel arrays when it ends; pool threads drop
    theirs when they exit, as the pool shuts down.
    """
    segs = segment_bounds(start, stop, segment_length)
    if workers <= 1 or len(segs) <= 1:
        try:
            return [fn(lo, hi) for lo, hi in segs]
        finally:
            release_scratch()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda seg: fn(*seg), segs))
