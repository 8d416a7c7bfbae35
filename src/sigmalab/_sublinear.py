"""Census class totals in about x^(3/4)·φ(q)·(k + 1) steps, for small φ(q);
at q = 1, rough and smooth counts and the rough Ω-histogram.

f(n) = e_{σ(n) mod q}, or 0 when σ(n) is no unit, is multiplicative into Z[U_q];
pk-threshold grades it by the prime factors above t, capped at k.  Grades are
held as tail sums (at least h such factors), so multiplying by f(p^e) only moves
coordinates: every step is an exact int64 gather on rows V = {⌊x/m⌋} ∪ [1, √x].
Phase 1 is Lucy_Hedgehog's prime count (Project Euler problem 10 thread) with
one column per unit class; σ(p) = p + 1 shifts it to G(v) = Σ_{p ≤ v} f(p), and
the primes of q are added one by one.  Phase 2 is min_25's bottom-up pass: for
p ≤ √x descending, T(v) += f(p^e)·(T(⌊v/p^e⌋) − G(p)) + f(p^(e+1)) at every
v ≥ p^(e+1), reading a copy of T when p³ ≤ x; T(x) + f(1) is the census.
A prime window (lo, hi] keeps only n with every prime factor in it: G(v) counts
the primes in (lo, min(v, hi)], from Lucy's table at both ends (a table of their
own for ends that are no rows of V), and phase 2 skips the primes outside.
Deléglise–Rivat (Math. Comp. 1996) and Kim Walisch's primecount scale it up.
"""

from __future__ import annotations

import math

import numpy as np

from ._scan import primes_up_to
from .characters import shared_modulus
from .errors import ResourceBudgetError

# Work is x^(3/4)/ln x times φ(q)·(1 + (k + 1)·α(q)): phase 2 gathers only for the
# share α(q) of primes with σ(p) a unit.  The sieve's is x.  The break-even ratio
# and the x below which per-prime costs lose come from CHANGES.md's crossover table.
CROSSOVER = 5.0
MIN_X = 1 << 17


def table_bytes(x: int, q: int, width: int) -> int:
    """Peak bytes: 3 tables of |V| × width int64, 16 |V|-vectors, q, buffers."""
    r = math.isqrt(x)
    return 8 * ((r + x // r) * (3 * width + 16) + q) + (1 << 18)


def preferred(x: int, m, grades: int, threshold: int, budget: int) -> bool:
    """Whether class_totals should take this census rather than the sieve."""
    work = m.phi * (1 + grades * float(m.alpha))
    return (x >= MIN_X and threshold <= math.isqrt(x)
            and work * CROSSOVER <= x**0.25 * math.log(x)
            and table_bytes(x, m.q, m.phi * grades) <= budget)


def _at(x: int, w):
    """The row of each 1 ≤ w ≤ x in V(x) = {⌊x/m⌋} ∪ [1, √x], held descending."""
    r = math.isqrt(x)
    return np.where(w < x // r, r + x // r - 1 - w, x // np.maximum(w, 1) - 1)


def _rows(x: int, v: int) -> int:
    """How many rows of V(x) are ≥ v ≥ 1, a prefix."""
    r = math.isqrt(x)
    return min(r, x // v) + max(0, x // r - v)


def _prime_counts(x: int, m, primes: np.ndarray, pos: np.ndarray):
    """V(x), and S[v, i] = #{primes p ≤ v : p ≡ units[i]} on its rows v, by
    Lucy_Hedgehog's sieve over the primes ≤ √x."""
    q, units, r = m.q, m.units, math.isqrt(x)
    V = np.concatenate([x // np.arange(1, r + 1), np.arange(x // r - 1, 0, -1)])
    S = (V[:, None] - np.where(units > 0, units, q)) // q + 1
    S[:, pos[1 % q]] -= 1
    for p in primes[: np.searchsorted(primes, r, side="right")].tolist():
        if q % p:
            col = pos[units * pow(p, -1, q) % q]
            c = _rows(x, p * p)
            S[:c] -= S[_at(x, V[:c] // p)[:, None], col]
            S[:c] += S[V.shape[0] - p + 1, col]  # the row of p − 1
    return V, S


def class_totals(x: int, m, primes: np.ndarray, grades: int = 1, threshold: int = 0,
                 coprime: bool = False, lo: int = 1, hi: int | None = None) -> np.ndarray:
    """#{n ≤ x : σ(n) ≡ a, at least h prime factors above threshold} as int64
    rows h < grades over a = 0..q−1, zero at non-units, from the primes ≤ √x.
    Only n whose prime factors all lie in (lo, hi] enter; coprime drops n
    sharing a prime with q."""
    q, units, phi = m.q, m.units, m.phi
    pos = np.full(q, -1, dtype=np.int64)
    pos[units] = np.arange(phi)
    r = math.isqrt(x)
    hi = x if hi is None else min(hi, x)
    lo = min(max(lo, 1), hi)

    def grade(p: int, e: int) -> int:
        return min(e if p > threshold else 0, grades - 1)

    # Phase 1: G(v) = #{primes p ≤ v in the window, by class}, from S at its ends.
    V, S = _prime_counts(x, m, primes, pos)
    cuts = (hi, lo, min(max(lo, threshold), hi))
    ends = np.array([S[_at(x, w)] if w < x // r or x // (x // w) == w
                     else _prime_counts(w, m, primes, pos)[1][0] for w in cuts])
    np.minimum(S, ends[0], out=S)
    T = np.zeros((V.shape[0], grades * phi), dtype=np.int64)
    prev = pos[(units - 1) % q]  # σ(p) = p + 1 moves class p − 1 to p
    for h in range(min(grades, 2)):  # primes above lo, then above the threshold
        S -= ends[h + 1] - (ends[h] if h else 0)
        c = _rows(x, cuts[h + 1] + 1)
        T[:c, h * phi + np.flatnonzero(prev >= 0)] = S[:c, prev[prev >= 0]]
    del S
    if not coprime:
        for ell, _ in m.factorization:
            b = pos[(ell + 1) % q]
            if lo < ell <= hi and b >= 0:
                T[: _rows(x, ell), b : b + (grade(ell, 1) + 1) * phi : phi] += 1

    # Phase 2.  f(p^e) as a gather of tail-form columns: grade h reads h − e·[p > t].
    shifts = np.arange(grades)[:, None] * phi
    buf = np.empty_like(T)
    for p in reversed(primes.tolist()):
        if coprime and q % p == 0 or not lo < p <= hi:
            continue
        if p**3 <= x:  # rows p² ≤ v ≤ x/p are read after they are written
            np.copyto(buf, T)
        src = buf if p**3 <= x else T
        g_p = T[_at(x, p)]
        s, pe, e = (1 + p) % q, p, 1
        while pe * p <= x:
            end, s_next = _rows(x, pe * p), (s * p + 1) % q
            if pos[s] >= 0:
                mul = (np.maximum(shifts - grade(p, e) * phi, 0)
                       + pos[units * pow(s, -1, q) % q]).ravel()
                T[:end] += src[_at(x, V[:end] // pe)[:, None], mul]
                T[:end] -= g_p[mul]
            b = pos[s_next]
            if b >= 0:
                T[:end, b : b + (grade(p, e + 1) + 1) * phi : phi] += 1
            s, pe, e = s_next, pe * p, e + 1
    totals = np.zeros((grades, q), dtype=np.int64)
    totals[:, units] = T[0].reshape(grades, phi)
    totals[0, 1 % q] += 1  # f(1)
    return totals


def omega_tails(x: int, lo: int, hi: int, grades: int, budget: int) -> np.ndarray:
    """#{n ≤ x : every prime factor of n in (lo, hi], Ω(n) ≥ h} for h < grades:
    class_totals at q = 1, graded above lo, once its tables fit budget bytes."""
    need = table_bytes(x, 1, grades)
    if need > budget:
        raise ResourceBudgetError(f"prime-window tables for x = {x} need {need} bytes, "
                                  f"budget is {budget} bytes")
    primes = primes_up_to(math.isqrt(x))
    return class_totals(x, shared_modulus(1), primes, grades, lo, lo=lo, hi=hi)[:, 0]
