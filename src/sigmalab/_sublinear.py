"""Census class totals in about x^(3/4)·φ(q)·(k + 1) steps, for small φ(q).

f(n) = e_{σ(n) mod q}, or 0 when σ(n) is no unit, is multiplicative into Z[U_q];
pk-threshold grades it by the prime factors above t, capped at k.  Grades are
held as tail sums (at least h such factors), so multiplying by f(p^e) only moves
coordinates: every step is an exact int64 gather on rows V = {⌊x/m⌋} ∪ [1, √x].
Phase 1 is Lucy_Hedgehog's prime count (Project Euler problem 10 thread) with
one column per unit class; σ(p) = p + 1 shifts it to G(v) = Σ_{p ≤ v} f(p), and
the primes of q are added one by one.  Phase 2 is min_25's bottom-up pass: for
p ≤ √x descending, T(v) += f(p^e)·(T(⌊v/p^e⌋) − G(p)) + f(p^(e+1)) at every
v ≥ p^(e+1), reading a copy of T when p³ ≤ x; T(x) + f(1) is the census.
Deléglise–Rivat (Math. Comp. 1996) and Kim Walisch's primecount scale it up.
"""

from __future__ import annotations

import math

import numpy as np

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


def class_totals(x: int, m, primes: np.ndarray, grades: int = 1, threshold: int = 0,
                 coprime: bool = False) -> np.ndarray:
    """#{n ≤ x : σ(n) ≡ a} over 0..q−1 as int64, zero at non-units, from the primes
    ≤ √x.  grades = k + 1 counts only n with at least k prime factors above
    threshold ≤ √x; coprime drops n sharing a prime with q."""
    q, units, phi = m.q, m.units, m.phi
    pos = np.full(q, -1, dtype=np.int64)
    pos[units] = np.arange(phi)
    r = math.isqrt(x)
    V = np.concatenate([x // np.arange(1, r + 1), np.arange(x // r - 1, 0, -1)])

    def at(w):  # row of each w in V
        return np.where(w < x // r, V.shape[0] - w, x // np.maximum(w, 1) - 1)

    def rows(v: int) -> int:  # rows with V ≥ v, a prefix
        return min(r, x // v) + max(0, x // r - v)

    def grade(p: int, e: int) -> int:
        return min(e if p > threshold else 0, grades - 1)

    # Phase 1: S[v, i] = #{primes p ≤ v : p ≡ units[i]}.
    S = (V[:, None] - np.where(units > 0, units, q)) // q + 1
    S[:, pos[1 % q]] -= 1
    for p in primes.tolist():
        if q % p:
            col = pos[units * pow(p, -1, q) % q]
            c = rows(p * p)
            S[:c] -= S[at(V[:c] // p)[:, None], col]
            S[:c] += S[V.shape[0] - p + 1, col]  # the row of p − 1
    T = np.zeros((V.shape[0], grades * phi), dtype=np.int64)
    prev = pos[(units - 1) % q]
    T[:, np.flatnonzero(prev >= 0)] = S[:, prev[prev >= 0]]
    del S
    if grades > 1:
        c = rows(threshold)
        T[:c, phi : 2 * phi] = T[:c, :phi] - T[at(threshold), :phi]
    if not coprime:
        for ell, _ in m.factorization:
            b = pos[(ell + 1) % q]
            if ell <= x and b >= 0:
                T[: rows(ell), b : b + (grade(ell, 1) + 1) * phi : phi] += 1

    # Phase 2.  f(p^e) as a gather of tail-form columns: grade h reads h − e·[p > t].
    shifts = np.arange(grades)[:, None] * phi
    buf = np.empty_like(T)
    for p in reversed(primes.tolist()):
        if coprime and q % p == 0:
            continue
        if p**3 <= x:  # rows p² ≤ v ≤ x/p are read after they are written
            np.copyto(buf, T)
        src = buf if p**3 <= x else T
        g_p = T[at(p)]
        s, pe, e = (1 + p) % q, p, 1
        while pe * p <= x:
            end, s_next = rows(pe * p), (s * p + 1) % q
            if pos[s] >= 0:
                mul = (np.maximum(shifts - grade(p, e) * phi, 0)
                       + pos[units * pow(s, -1, q) % q]).ravel()
                T[:end] += src[at(V[:end] // pe)[:, None], mul]
                T[:end] -= g_p[mul]
            b = pos[s_next]
            if b >= 0:
                T[:end, b : b + (grade(p, e + 1) + 1) * phi : phi] += 1
            s, pe, e = s_next, pe * p, e + 1
    totals = np.zeros(q, dtype=np.int64)
    totals[units] = T[0, (grades - 1) * phi :]
    totals[1 % q] += grades == 1  # f(1)
    return totals
