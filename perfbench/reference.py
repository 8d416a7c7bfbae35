"""Reference computations for the benchmark's output checks.

Nothing here imports sigmalab.  Each function recomputes a quantity the
library also produces, by a different route where one exists:

  * sigma(n) for every n <= x from divisor pairs (d, n/d) with d <= sqrt(x),
    where the library reconstructs sigma from prime-power marking;
  * Omega(n) from strided prime-power increments plus one vectorized pass
    per cofactor k < sqrt(x) for the primes above sqrt(x);
  * rough counts from Legendre's inclusion-exclusion;
  * every character sum over U_q as one inverse FFT over the discrete-log
    coordinates of U_q, where the library loops over characters.

Character conventions follow the library's documented enumeration: one
generator per odd prime power (the least primitive root mod ell, lifted
to ell^e), generators in ascending prime order, and the exponent on the
last generator varying fastest.  Only odd moduli times at most one 2 are
needed here, so the 2-part never carries a generator.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


# ------------------------------------------------------------------ primes

def prime_mask(limit: int) -> np.ndarray:
    """Boolean array of length limit + 1, True exactly at the primes."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def primes_upto(limit: int) -> np.ndarray:
    return np.flatnonzero(prime_mask(limit)).astype(np.int64)


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi), by crossing out multiples of primes <= sqrt(hi)."""
    alive = np.ones(hi - lo, dtype=bool)
    for p in primes_upto(math.isqrt(hi)):
        p = int(p)
        start = max(p * p, -(-lo // p) * p)
        alive[start - lo :: p] = False
    return [int(v) + lo for v in np.flatnonzero(alive) if v + lo >= 2]


def factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


# ----------------------------------------------------------- integer scans

def sigma_upto(x: int) -> np.ndarray:
    """sigma(n) for 0 <= n <= x (sigma(0) = 0), summing each divisor pair
    d <= n/d once."""
    sig = np.zeros(x + 1, dtype=np.int64)
    for d in range(1, math.isqrt(x) + 1):
        sig[d * d :: d] += d + np.arange(d, x // d + 1, dtype=np.int64)
        sig[d * d] -= d
    return sig


def rough_cofactor(x: int, t: int) -> np.ndarray:
    """n with every prime factor <= t divided out, for 0 <= n <= x."""
    rem = np.arange(x + 1, dtype=np.int64)
    for p in primes_upto(t):
        pe = int(p)
        while pe <= x:
            rem[pe::pe] //= int(p)
            pe *= int(p)
    return rem


def omega_upto(x: int) -> np.ndarray:
    """Omega(n), prime factors with multiplicity, for 0 <= n <= x."""
    om = np.zeros(x + 1, dtype=np.int8)
    root = math.isqrt(x)
    primes = primes_upto(x)
    for p in primes[primes <= root]:
        pe = int(p)
        while pe <= x:
            om[pe::pe] += 1
            pe *= int(p)
    big = primes[primes > root]
    for k in range(1, root + 1):
        om[k * big[: np.searchsorted(big, x // k, side="right")]] += 1
    return om


def legendre_rough_count(x: int, y: int) -> int:
    """#{n <= x : no prime factor <= y} = sum over d | P(y) of mu(d) floor(x/d)."""
    ps = [int(p) for p in primes_upto(y)]

    @lru_cache(maxsize=None)
    def phi_leg(v: int, a: int) -> int:
        if a == 0 or v == 0:
            return v
        return phi_leg(v, a - 1) - phi_leg(v // ps[a - 1], a - 1)

    return phi_leg(x, len(ps))


def unit_counts(values: np.ndarray, q: int) -> np.ndarray:
    """Class counts of values mod q, zeroed at the non-units."""
    counts = np.bincount(values % q, minlength=q)
    counts[np.gcd(np.arange(q), q) != 1] = 0
    return counts


# --------------------------------------------------------------- characters

def primitive_root(ell: int, e: int) -> int:
    """Least primitive root mod the odd prime ell, lifted to ell^e."""
    divs = [p for p, _ in factorize(ell - 1)]
    g = next(g for g in range(2, ell)
             if all(pow(g, (ell - 1) // r, ell) != 1 for r in divs))
    if e > 1 and pow(g, ell - 1, ell * ell) == 1:
        g += ell
    return g


class UnitGroup:
    """U_q for q = (1 or 2) * odd: generator orders and discrete logs."""

    def __init__(self, q: int) -> None:
        self.q = q
        self.blocks = []  # (prime, prime power, order, dlog table)
        for ell, e in factorize(q):
            if ell == 2:
                if e > 1:
                    raise ValueError("only q with 2^e || q, e <= 1, is supported")
                continue
            pp = ell**e
            order = pp // ell * (ell - 1)
            g = primitive_root(ell, e)
            dlog = np.full(pp, -1, dtype=np.int64)
            v = 1
            for j in range(order):
                dlog[v] = j
                v = v * g % pp
            self.blocks.append((ell, pp, order, dlog))
        self.shape = tuple(b[2] for b in self.blocks)
        self.phi = phi(q)

    def transform(self, weights: np.ndarray) -> np.ndarray:
        """sum over units a of weights[a] * chi(a), for every character chi
        in enumeration order (weights indexed by residue mod q)."""
        a = np.arange(self.q)
        units = np.gcd(a, self.q) == 1
        grid = np.zeros(self.shape, dtype=np.complex128)
        coords = tuple(dlog[a[units] % pp] for _, pp, _, dlog in self.blocks)
        np.add.at(grid, coords, weights[units])
        return (np.fft.ifftn(grid) * grid.size).reshape(-1)

    def exponents(self, index: int) -> list[int]:
        out = []
        for order in reversed(self.shape):
            out.append(index % order)
            index //= order
        return out[::-1]

    def order_and_conductor(self, index: int) -> tuple[int, int]:
        order, conductor = 1, 1
        for t, (ell, pp, n, _) in zip(self.exponents(index), self.blocks):
            d = n // math.gcd(t, n)
            order = math.lcm(order, d)
            if d > 1:
                ell_part = 1
                while d % ell == 0:
                    d //= ell
                    ell_part *= ell
                conductor *= ell * ell_part
        return order, conductor

    def value_counts(self, poly) -> np.ndarray:
        """#{v in U_q : poly(v) = a mod q} for every unit a, 0 at non-units."""
        v = np.arange(self.q, dtype=np.int64)
        return unit_counts(poly(v[np.gcd(v, self.q) == 1]), self.q)


def shifted(v):
    return v + 1


def quadratic(v):
    return v * v + v + 1


def rho_values(q: int) -> np.ndarray:
    """rho_chi = (1/phi) sum over units v of chi(v+1), for every chi mod q."""
    g = UnitGroup(q)
    return g.transform(g.value_counts(shifted).astype(np.float64)) / g.phi


def eta_values(q: int) -> np.ndarray:
    """eta_chi = (1/phi) sum over units v of chi(v^2+v+1), for every chi mod q."""
    g = UnitGroup(q)
    return g.transform(g.value_counts(quadratic).astype(np.float64)) / g.phi


def weil_max(ell: int, e: int) -> tuple[int, float]:
    """(number of primitive characters, max |sum over v mod ell^e of
    chi(v^2+v+1)|) over primitive chi mod ell^e."""
    q = ell**e
    g = UnitGroup(q)
    v = np.arange(q, dtype=np.int64)
    sums = g.transform(np.bincount(quadratic(v) % q, minlength=q).astype(np.float64))
    primitive = np.arange(g.phi) % ell != 0
    return int(primitive.sum()), float(np.abs(sums[primitive]).max())


def s_set_rows(conductors) -> dict[int, tuple[int, float]]:
    """For squarefree Q coprime to 6: (number of primitive characters,
    max over them of Re sum over units v of psi(v^2+v+1))."""
    out = {}
    for Q in conductors:
        g = UnitGroup(Q)
        sums = g.transform(g.value_counts(quadratic).astype(np.float64))
        idx = np.indices(g.shape).reshape(len(g.shape), -1)
        primitive = np.all(idx != 0, axis=0)
        out[Q] = (int(primitive.sum()), float(sums.real[primitive].max()))
    return out


def block_tuple_count(pp: int, ell: int, w: int, arity: int) -> int:
    """#{(v_1..v_arity) units mod pp : prod (v_j^2+v_j+1) = w}, brute force
    over pairs and a lookup for the last coordinate."""
    v = np.arange(pp, dtype=np.int64)
    units = v[v % ell != 0]
    vals = quadratic(units) % pp
    vals = vals[vals % ell != 0]  # a product through a non-unit is never the unit w
    hist = np.bincount(vals, minlength=pp)
    inv = np.zeros(pp, dtype=np.int64)
    inv[units] = [pow(int(a), -1, pp) for a in units]
    if arity == 2:
        return int(hist[w * inv[vals] % pp].sum())
    pair = vals[:, None] * vals[None, :] % pp
    return int(hist[w * inv[pair] % pp].sum())


def lift_count_brute(ell: int) -> int:
    """#{(v_1, v_2) units mod ell^2 : product of v^2+v+1 = 9/16}, all pairs."""
    pp = ell * ell
    v = np.arange(pp, dtype=np.int64)
    vals = quadratic(v[v % ell != 0]) % pp
    target = 9 * pow(16, -1, pp) % pp
    return int(np.count_nonzero(vals[:, None] * vals[None, :] % pp == target))


def curve_count_brute(ell: int, which: str, w: int) -> int:
    x = np.arange(ell, dtype=np.int64)
    if which == "completed-square":
        f, target = (x * x + 3) % ell, 9 % ell
    else:
        f, target = quadratic(x) % ell, w % ell
    return int(np.count_nonzero(f[:, None] * f[None, :] % ell == target))


# -------------------------------------------------------------- main terms

EULER_GAMMA = 0.57721566490153286061


def log_gamma(s: complex) -> complex:
    """log Gamma(s) for Re s > 0: shift by 20, then Stirling's series."""
    shift = 0j
    for _ in range(20):
        shift += np.log(s)
        s += 1
    series = ((s - 0.5) * np.log(s) - s + 0.5 * math.log(2 * math.pi)
              + 1 / (12 * s) - 1 / (360 * s**3) + 1 / (1260 * s**5)
              - 1 / (1680 * s**7))
    return complex(series - shift)


def lsd_main_term(x: int, y: float, beta: complex) -> complex:
    """x (log x)^(beta-1) e^(-gamma beta) / (Gamma(beta) (log y)^beta)."""
    return complex(x * np.exp((beta - 1) * math.log(math.log(x))
                              - beta * math.log(math.log(y))
                              - EULER_GAMMA * beta - log_gamma(beta)))
