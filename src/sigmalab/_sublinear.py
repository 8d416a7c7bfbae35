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
v ≥ p^(e+1); T(x) + f(1) is the census.
Each prime p ≤ x^(1/3) is one step of its own.  Phase 2 reads rows p² ≤ v ≤ x/p
after writing them, so it first copies just those rows into a buffer; its rows
below p² are the first copy's, and T has not changed there since.  The row of
⌊v/d⌋ for v = ⌊x/m⌋ is m·d − 1 while m·d ≤ √x, and needs a division only below.
The primes x^(1/3) < p ≤ √x are one batch in each phase: such a p reads only
rows v ≤ x/p < x^(2/3), which no such prime writes, and writes only rows
v ≥ p² > x^(2/3).  In phase 1 those rows are final once the primes ≤ x^(1/3)
are done, and in phase 2 they still hold G.  So the batch gathers all its
(row, prime) pairs at once, at most about |V|/2 at a time, sums them per row
and adds the terms of f(p) at row p and of f(p²) as prefix sums over the primes.
A prime window (lo, hi] keeps only n with every prime factor in it: G(v) counts
the primes in (lo, min(v, hi)], from Lucy's table at both ends (one table of its
own for each distinct end that is no row of V), and phase 2 skips the primes outside.
Deléglise–Rivat (Math. Comp. 1996) and Kim Walisch's primecount scale it up.
"""

from __future__ import annotations

import math

import numpy as np

from ._scan import check_budget, prime_table_bytes, primes_up_to
from .characters import Modulus

# Work is x^(3/4)/ln x times φ(q)·(1 + (k + 1)·α(q)): phase 2 gathers only for the
# share α(q) of primes with σ(p) a unit.  The sieve's is x.  The break-even ratio
# and the x below which per-prime costs lose come from the crossover table that
# tools/crossover_table.py prints, recorded in CHANGES.md.
CROSSOVER = 3.5
MIN_X = 1 << 16


def table_bytes(x: int, q: int, width: int) -> int:
    """Peak bytes: 3 tables of |V| × width int64 (T, the copy buffer and one
    gather, or T and the batch's indices and values for |V|/2 pairs), 16
    |V|-vectors, q, buffers, and the primes ≤ √x with their sieve."""
    r = math.isqrt(x)
    return (8 * ((r + x // r) * (3 * width + 16) + q) + (1 << 18)
            + prime_table_bytes(r))


def preferred(x: int, m, grades: int, threshold: int, budget: int) -> bool:
    """Whether class_totals should take this census rather than the sieve."""
    work = m.phi * (1 + grades * float(m.alpha))
    return (x >= MIN_X and threshold <= math.isqrt(x)
            and work * CROSSOVER <= x**0.25 * math.log(x)
            and table_bytes(x, m.q, m.phi * grades) <= budget)


def icbrt(x: int) -> int:
    """⌊x^(1/3)⌋ for x ≥ 0, exact: a float guess corrected in integers."""
    c = int(round(x ** (1 / 3)))
    while c**3 > x:
        c -= 1
    while (c + 1) ** 3 <= x:
        c += 1
    return c


def _at(x: int, w: int) -> int:
    """The row of 1 ≤ w ≤ x in V(x) = {⌊x/m⌋} ∪ [1, √x], held descending."""
    r = math.isqrt(x)
    return x // w - 1 if w >= x // r else r + x // r - 1 - w


def _rows(x: int, v: int) -> int:
    """How many rows of V(x) are ≥ v ≥ 1, a prefix."""
    r = math.isqrt(x)
    return min(r, x // v) + max(0, x // r - v)


def _quotient_rows(x: int, V: np.ndarray, end: int, d: int) -> np.ndarray:
    """The rows of ⌊V[i]/d⌋ for i < end, where V[end − 1] ≥ d.  For i < √x/d,
    ⌊V[i]/d⌋ = ⌊x/((i + 1)·d)⌋ has row (i + 1)·d − 1; the rest lie below ⌊x/√x⌋.
    One divisor d splits the rows at √x/d and divides V by a scalar, several
    times faster than _divisor_rows on the divisors (i + 1)·d."""
    r = math.isqrt(x)
    a = min(end, r // d)
    rows = np.empty(end, dtype=np.int64)
    rows[:a] = np.arange(d - 1, a * d, d)
    np.floor_divide(V[a:end], d, out=rows[a:])
    np.subtract(r + x // r - 1, rows[a:], out=rows[a:])
    return rows


def _divisor_rows(x: int, d: np.ndarray) -> np.ndarray:
    """The rows of ⌊x/d⌋ for an int64 array of 1 ≤ d ≤ x, overwriting d: row
    d − 1 while d ≤ √x, and a division only for the d above, whose ⌊x/d⌋
    lie below ⌊x/√x⌋."""
    r = math.isqrt(x)
    far = d > r
    rows = d - 1
    np.floor_divide(x, d, out=d, where=far)
    np.subtract(r + x // r - 1, d, out=rows, where=far)
    return rows


def _prefix_counts(ps: np.ndarray, x: int) -> np.ndarray:
    """For ascending primes x^(1/3) < p ≤ √x: how many have p² ≤ V[i], for
    every row i below ⌊x/ps[0]²⌋; the rows v ≥ p² are those with i < ⌊x/p²⌋."""
    ends = x // ps[::-1] ** 2
    return ps.shape[0] - np.searchsorted(ends, np.arange(ends[-1]), side="right")


def _batch(x: int, tab: np.ndarray, ps: np.ndarray, cols: np.ndarray, step) -> None:
    """step(tab[i], Σ_j tab[row of ⌊V[i]/ps[j]⌋, cols[j]]) in place, the sum over
    the ascending primes x^(1/3) < ps[j] ≤ √x with ps[j]² ≤ V[i].  They read
    rows below x^(2/3) and write rows above, so the pairs (i, j) go in row order,
    at most about |V|/2 at a time: one gather and one np.add.reduceat each."""
    if ps.shape[0] == 0:
        return
    width = tab.shape[1]
    flat = tab.reshape(-1)
    count = _prefix_counts(ps, x)
    start = np.concatenate(([0], np.cumsum(count)))
    limit = max(tab.shape[0] // 2, ps.shape[0])
    i0 = 0
    while i0 < count.shape[0]:
        i1 = int(np.searchsorted(start, start[i0] + limit, side="right")) - 1
        offsets = start[i0:i1] - start[i0]
        d = np.repeat(np.arange(i0 + 1, i1 + 1), count[i0:i1])  # V[i] = ⌊x/(i + 1)⌋
        j = np.arange(d.shape[0]) - np.repeat(offsets, count[i0:i1])
        d *= ps[j]  # ⌊V[i]/p⌋ = ⌊x/d⌋
        idx = cols[j]
        at = _divisor_rows(x, d)
        at *= width
        idx += at[:, None]
        del d, j, at
        vals = flat[idx]
        del idx
        rows = tab[i0:i1]
        step(rows, np.add.reduceat(vals, offsets, axis=0), out=rows)
        i0 = i1


def _prefix_add(tab: np.ndarray, ps: np.ndarray, x: int, terms: np.ndarray) -> None:
    """tab[i] += Σ_j terms[j] over the ascending primes x^(1/3) < ps[j] ≤ √x
    with ps[j]² ≤ V[i], as prefix sums over the primes."""
    if ps.shape[0]:
        count = _prefix_counts(ps, x)
        tab[: count.shape[0]] += np.cumsum(terms, axis=0)[count - 1]


def _divide_cols(m, pos: np.ndarray, s: np.ndarray) -> np.ndarray:
    """pos[units·s⁻¹ mod q] for each unit s: the column that multiplying by s
    moves into each unit's column, one row per entry of s."""
    classes, which = np.unique(s, return_inverse=True)
    table = np.array([pos[m.units * pow(c, -1, m.q) % m.q] for c in classes.tolist()],
                     dtype=np.int64).reshape(classes.shape[0], m.phi)
    return table[which.reshape(-1)]


def _prime_counts(x: int, m, primes: np.ndarray, pos: np.ndarray):
    """V(x), and S[v, i] = #{primes p ≤ v : p ≡ units[i]} on its rows v, by
    Lucy_Hedgehog's sieve over the primes ≤ √x."""
    q, units, r = m.q, m.units, math.isqrt(x)
    V = np.concatenate([x // np.arange(1, r + 1), np.arange(x // r - 1, 0, -1)])
    S = (V[:, None] - np.where(units > 0, units, q)) // q + 1
    S[:, pos[1 % q]] -= 1
    ps = primes[: np.searchsorted(primes, r, side="right")]
    ps = ps[q % ps != 0]
    small = np.searchsorted(ps, icbrt(x), side="right")
    for p in ps[:small].tolist():
        col = pos[units * pow(p, -1, q) % q]
        c = _rows(x, p * p)
        S[:c] -= S[_quotient_rows(x, V, c, p)[:, None], col]
        S[:c] += S[V.shape[0] - p + 1, col]  # the row of p − 1
    big = ps[small:]
    cols = _divide_cols(m, pos, big % q)
    _batch(x, S, big, cols, np.subtract)
    _prefix_add(S, big, x, S[(V.shape[0] - big + 1)[:, None], cols])
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

    def grade(p, e: int):
        return np.minimum(e * (p > threshold), grades - 1)

    # Phase 1: G(v) = #{primes p ≤ v in the window, by class}, from S at its ends.
    V, S = _prime_counts(x, m, primes, pos)
    K = V.shape[0]  # the row of v ≤ √x is K − v
    cuts = (hi, lo, min(max(lo, threshold), hi))
    distinct = sorted(set(cuts))
    ends = np.array([S[_at(x, w)] if w < x // r or x // (x // w) == w
                     else _prime_counts(w, m, primes, pos)[1][0] for w in distinct])
    ends = ends[np.searchsorted(distinct, cuts)]
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

    def mul(g, divided) -> np.ndarray:
        """The columns f(p^e) reads, rows of grades·φ: grade h reads h − g, at
        least 0, and unit column u reads divided[u] = pos[units[u]·σ(p^e)⁻¹]."""
        return (np.maximum(shifts - g * phi, 0) + divided).reshape(-1, grades * phi)

    ps = primes[(lo < primes) & (primes <= min(hi, r))]
    if coprime:
        ps = ps[q % ps != 0]
    small = np.searchsorted(ps, icbrt(x), side="right")
    big = ps[small:]
    s = (big + 1) % q
    unit = pos[s] >= 0
    cols = mul(grade(big[unit], 1)[:, None, None], _divide_cols(m, pos, s[unit])[:, None])
    _batch(x, T, big[unit], cols, np.add)
    terms = np.zeros((big.shape[0], grades, phi), dtype=np.int64)
    terms.reshape(big.shape[0], grades * phi)[unit] = -T[(K - big[unit])[:, None], cols]
    b = pos[(s * (big % q) + 1) % q]  # σ(p²) = (p + 1)·p + 1
    j, h = np.nonzero((b[:, None] >= 0) & (np.arange(grades) <= grade(big, 2)[:, None]))
    terms[j, h, b[j]] += 1
    _prefix_add(T, big, x, terms.reshape(big.shape[0], grades * phi))

    buf = None  # rows p² ≤ v ≤ x/p of T before p's steps
    for p in reversed(ps[:small].tolist()):
        top, end = _rows(x, x // p + 1), _rows(x, p * p)
        if buf is None:
            buf = np.empty_like(T)
            end = V.shape[0]
        buf[top:end] = T[top:end]
        g_p = T[K - p]
        s, pe, e = (1 + p) % q, p, 1
        while pe * p <= x:
            end, s_next = _rows(x, pe * p), (s * p + 1) % q
            if pos[s] >= 0:
                cols = mul(grade(p, e), pos[units * pow(s, -1, q) % q])[0]
                T[:end] += buf[_quotient_rows(x, V, end, pe)[:, None], cols]
                T[:end] -= g_p[cols]
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
    check_budget(table_bytes(x, 1, grades), budget, f"prime-window tables for x = {x}")
    primes = primes_up_to(math.isqrt(x))
    return class_totals(x, Modulus(1), primes, grades, lo, lo=lo, hi=hi)[:, 0]
