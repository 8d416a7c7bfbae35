"""Dirichlet characters mod q as exponent vectors against unit-group generators.

The unit group U_q splits over the prime powers ell^e || q. Each local factor
gets explicit generators with known orders:

  * odd ell:            one generator, the least primitive root mod ell lifted
                        to ell^e, of order phi(ell^e);
  * 2^e, e >= 3:        the pair (-1, 5) of orders (2, 2^(e-2));
  * 4:                  the single generator 3 of order 2;
  * 2 and 1:            trivial group, no generators.

A character is the tuple of exponents it assigns to those generators, and a
character value is an exact root of unity zeta_N^k (N = group exponent),
materialized to complex only at the edge of a computation. Discrete-log
tables per prime power make bulk evaluation a few numpy gathers, and sums
over all phi(q) characters at once one FFT over the discrete-log
coordinates of U_q (Modulus.character_transform). Orders and conductors
follow from the exponents alone, for any number of characters in one
vectorised pass (character_invariants): Modulus.character_grid gives
them for all phi(q) characters without building a character object.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._scan import DEFAULT_MEMORY_BUDGET, check_budget
from .errors import OutOfRangeError


def trial_factorization(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n >= 1 by trial division, primes ascending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def _require_prime(ell: int, floor: int = 2) -> int:
    ell = int(ell)
    if ell < floor or trial_factorization(ell) != ((ell, 1),):
        raise OutOfRangeError(f"need a prime >= {floor}, got {ell}")
    return ell


def _require_modulus_range(q: int) -> int:
    """q as an int, or OutOfRangeError unless 1 <= q < 2^63."""
    if not 1 <= q < 1 << 63:
        raise OutOfRangeError(f"q must satisfy 1 <= q < 2^63, got {q}")
    return int(q)


def _coprime_mask(lo: int, hi: int, primes) -> np.ndarray:
    """Boolean array over lo..hi−1, true where n is divisible by none of the
    primes: the multiples of each are struck out with one strided view."""
    keep = np.ones(hi - lo, dtype=bool)
    for ell in primes:
        keep[-lo % ell :: ell] = False
    return keep


def _phi_prime_power(ell: int, e: int) -> int:
    return 1 if e == 0 else ell ** (e - 1) * (ell - 1)


def _least_primitive_root(ell: int) -> int:
    """Least primitive root modulo an odd prime ell."""
    m1 = ell - 1
    prime_divs = [p for p, _ in trial_factorization(m1)]
    g = 2
    while True:
        if all(pow(g, m1 // r, ell) != 1 for r in prime_divs):
            return g
        g += 1


def _primitive_root_prime_power(ell: int, e: int) -> int:
    """Primitive root mod ell^e for odd ell (least root mod ell, lifted)."""
    g = _least_primitive_root(ell)
    if e == 1:
        return g
    # g generates mod ell^2 (hence mod ell^e) unless g^(ell-1) = 1 mod ell^2
    if pow(g, ell - 1, ell * ell) == 1:
        g += ell
    return g


def _power_table(g: int, order: int, mod: int) -> np.ndarray:
    """powers[j] = g^j mod `mod` for 0 <= j < order, via baby/giant steps."""
    if order == 1:
        return np.ones(1, dtype=np.int64)
    s = math.isqrt(order) + 1
    baby = np.empty(s, dtype=np.int64)
    v = 1
    for j in range(s):
        baby[j] = v
        v = v * g % mod
    giant_step = pow(g, s, mod)
    n_giant = (order + s - 1) // s
    giant = np.empty(n_giant, dtype=np.int64)
    w = 1
    for j in range(n_giant):
        giant[j] = w
        w = w * giant_step % mod
    powers = giant[:, None] * baby[None, :]
    powers %= mod
    return powers.reshape(-1)[:order]


@dataclass(frozen=True)
class Generator:
    """One unit-group generator living in the block mod prime_power."""

    prime: int
    prime_power: int
    residue: int
    order: int


class UnitGroupBasis:
    """Generators plus dense discrete-log tables, one table per generator."""

    def __init__(self, generators: list[Generator], dlogs: list[np.ndarray]) -> None:
        self.generators = tuple(generators)
        self.dlogs = tuple(dlogs)
        exp = 1
        for g in self.generators:
            exp = math.lcm(exp, g.order)
        self.exponent = exp  # lcm of generator orders; 1 for a trivial group


def _build_basis(factorization: tuple[tuple[int, int], ...]) -> UnitGroupBasis:
    generators: list[Generator] = []
    dlogs: list[np.ndarray] = []
    for ell, e in factorization:
        pp = ell**e
        if ell == 2:
            if e == 1:
                continue
            if e == 2:
                table = np.full(4, -1, dtype=np.int32)
                table[1] = 0
                table[3] = 1
                generators.append(Generator(2, 4, 3, 2))
                dlogs.append(table)
                continue
            order_b = pp // 4  # order of 5 mod 2^e
            pow5 = _power_table(5, order_b, pp)
            t_sign = np.full(pp, -1, dtype=np.int32)
            t_five = np.full(pp, -1, dtype=np.int32)
            t_sign[pow5] = 0
            t_five[pow5] = np.arange(order_b, dtype=np.int32)
            neg = pp - pow5
            t_sign[neg] = 1
            t_five[neg] = np.arange(order_b, dtype=np.int32)
            generators.append(Generator(2, pp, pp - 1, 2))
            dlogs.append(t_sign)
            generators.append(Generator(2, pp, 5, order_b))
            dlogs.append(t_five)
        else:
            order = _phi_prime_power(ell, e)
            g = _primitive_root_prime_power(ell, e)
            powers = _power_table(g, order, pp)
            table = np.full(pp, -1, dtype=np.int32)
            table[powers] = np.arange(order, dtype=np.int32)
            generators.append(Generator(ell, pp, g, order))
            dlogs.append(table)
    return UnitGroupBasis(generators, dlogs)


def character_invariants(generators, exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orders and conductors of the n characters whose exponents against
    the r generators are the columns of an (r, n) int array.

    On generator g an exponent t has local order d = g.order / gcd(t, g.order).
    The order is the lcm of the d over the generators. The conductor is
    the lcm of the local conductors, 1 where d = 1 and otherwise:

      * odd ell:            ell^(1 + v_ell(d)) = ell * gcd(d, ell^e);
      * 4, and the sign -1 mod 2^e (e >= 3): 4, as d = 2;
      * 5 mod 2^e (e >= 3): 4 * d, whatever the sign part.

    Both come back as int64 arrays of length n.
    """
    exponents = np.asarray(exponents, dtype=np.int64)
    order = np.ones(exponents.shape[1], dtype=np.int64)
    conductor = np.ones(exponents.shape[1], dtype=np.int64)
    for g, t in zip(generators, exponents):
        d = g.order // np.gcd(t, g.order)
        if g.prime != 2:
            local = g.prime * np.gcd(d, g.prime_power)
        else:
            local = 4 * d if g.residue == 5 else 4
        np.lcm(order, d, out=order)
        np.lcm(conductor, np.where(d > 1, local, 1), out=conductor)
    return order, conductor


@dataclass(frozen=True)
class RootOfUnityValue:
    """Exact character value: zeta_order^numerator in lowest terms, or zero.

    Normalization keeps 0 <= numerator < order and gcd(numerator, order) = 1
    (with the value 1 stored as (0, 1)), so equality of values is equality of
    the dataclass fields even across characters of different moduli.
    """

    numerator: int
    order: int
    is_zero: bool = False

    def __post_init__(self) -> None:
        if self.is_zero:
            object.__setattr__(self, "numerator", 0)
            object.__setattr__(self, "order", 1)
            return
        if self.order < 1:
            raise ValueError("order must be >= 1")
        k = self.numerator % self.order
        g = math.gcd(k, self.order)
        object.__setattr__(self, "numerator", k // g)
        object.__setattr__(self, "order", self.order // g)

    @classmethod
    def zero(cls) -> "RootOfUnityValue":
        return cls(0, 1, True)

    @classmethod
    def one(cls) -> "RootOfUnityValue":
        return cls(0, 1)

    def to_complex(self) -> complex:
        if self.is_zero:
            return 0j
        return cmath.exp(2j * math.pi * self.numerator / self.order)

    def conjugate(self) -> "RootOfUnityValue":
        if self.is_zero:
            return self
        return RootOfUnityValue(-self.numerator, self.order)

    def __mul__(self, other: "RootOfUnityValue") -> "RootOfUnityValue":
        if self.is_zero or other.is_zero:
            return RootOfUnityValue.zero()
        n = math.lcm(self.order, other.order)
        k = self.numerator * (n // self.order) + other.numerator * (n // other.order)
        return RootOfUnityValue(k, n)


class Modulus:
    """Arithmetic environment mod q: factorization, phi, densities, unit basis.

    alpha(q)       = prod over primes ell | q of (1 - 1/(ell - 1)); zero for
                     even q since the local factor at 2 vanishes.
    alpha_tilde(q) = prod over primes ell | q, ell = 1 mod 3, of (1 - 2/(ell-1)).

    Both are exact fractions. Unit-group structures are built lazily and
    priced at their peak: q bytes for the unit mask, 4 per entry of each
    dlog table (ell^e per odd ell, 2·2^e for 2^e with e >= 3, 4 for 4),
    and 61 per unit for the units, their dlog index and one
    character_transform, in all .price bytes.  The price is checked
    against memory_budget just before the first of basis and unit_mask is
    built, so a modulus used only for its factorization builds and checks
    nothing more.  A q outside 1 <= q < 2^63 raises OutOfRangeError, and a
    q above memory_budget, whose unit mask alone would not fit, is refused
    before trial division, which might not end, factors it.
    """

    def __init__(self, q: int, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> None:
        self.q = _require_modulus_range(q)
        check_budget(self.q, memory_budget, f"tables mod {self.q}")
        self._memory_budget = memory_budget
        self.factorization = trial_factorization(self.q)
        phi = 1
        dlog_entries = 0
        alpha = Fraction(1)
        alpha_tilde = Fraction(1)
        for ell, e in self.factorization:
            phi *= _phi_prime_power(ell, e)
            dlog_entries += ell**e * (1 if ell > 2 else min(e - 1, 2))  # tables per block
            alpha *= Fraction(ell - 2, ell - 1)
            if ell % 3 == 1:
                alpha_tilde *= Fraction(ell - 3, ell - 1)
        self.phi = phi
        self.alpha = alpha
        self.alpha_tilde = alpha_tilde
        self.price = self.q + 4 * dlog_entries + 61 * phi
        self._basis: UnitGroupBasis | None = None
        self._unit_mask: np.ndarray | None = None
        self._units: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"Modulus({self.q})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Modulus) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("Modulus", self.q))

    def _check_price(self) -> None:
        """Check .price against the budget, once: before the first table."""
        if self._basis is None and self._unit_mask is None:
            check_budget(self.price, self._memory_budget, f"tables mod {self.q}")

    @property
    def basis(self) -> UnitGroupBasis:
        if self._basis is None:
            self._check_price()
            basis = _build_basis(self.factorization)
            order_product = 1
            for g in basis.generators:
                order_product *= g.order
            assert order_product == self.phi, "generator orders must multiply to phi(q)"
            self._basis = basis
        return self._basis

    @property
    def exponent(self) -> int:
        """Exponent of U_q: the lcm of the generator orders (1 if trivial)."""
        return self.basis.exponent

    @property
    def unit_mask(self) -> np.ndarray:
        if self._unit_mask is None:
            self._check_price()
            self._unit_mask = _coprime_mask(0, self.q, [ell for ell, _ in self.factorization])
        return self._unit_mask

    @property
    def units(self) -> np.ndarray:
        if self._units is None:
            self._units = np.flatnonzero(self.unit_mask).astype(np.int64, copy=False)
        return self._units

    def character_transform(self, w) -> np.ndarray:
        """sum over units v of w[v] * chi(v), for all phi(q) characters chi.

        w is a real or integer array over the residues 0..q-1; non-units are
        ignored. Entry i of the complex128 result is for self.character(i),
        the order of characters(). With chi(g_j) = exp(+2 pi i t_j/order_j),
        the sign of exponent_table, this is phi times an inverse FFT over the
        dlog grid of U_q, one axis per generator, the last varying fastest:
        O(q + phi log phi).
        """
        w = np.asarray(w)
        if w.shape != (self.q,):
            raise ValueError(f"weights must have shape ({self.q},), got {w.shape}")
        basis = self.basis
        units = self.units
        # flat grid index of each unit, the same mixed radix as .index
        idx = np.zeros(units.shape[0], dtype=np.int64)
        for g, dlog in zip(basis.generators, basis.dlogs):
            idx = idx * g.order + dlog[units % g.prime_power]
        grid = np.zeros(self.phi, dtype=np.float64)
        grid[idx] = w[units]
        shape = tuple(g.order for g in basis.generators) or (1,)
        return np.fft.ifftn(grid.reshape(shape)).reshape(-1) * self.phi

    def character_grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(exponents, orders, conductors) of all phi(q) characters in
        enumeration order: an (r, phi) exponent array, the last generator
        varying fastest, and the character_invariants of its columns."""
        shape = tuple(g.order for g in self.basis.generators)
        exponents = np.indices(shape, dtype=np.int64).reshape(len(shape), self.phi)
        return (exponents, *character_invariants(self.basis.generators, exponents))

    def characters(self):
        """All phi(q) characters, in a fixed deterministic order.

        Index 0 is the principal character; the exponent on the last
        generator varies fastest.
        """
        ranges = [range(g.order) for g in self.basis.generators]
        for exps in itertools.product(*ranges):
            yield DirichletCharacter(self, exps)

    def character(self, index: int) -> "DirichletCharacter":
        """The index-th character in enumeration order."""
        if index < 0 or index >= self.phi:
            raise OutOfRangeError(f"character index must lie in 0..{self.phi - 1}")
        exps = []
        rem = index
        for g in reversed(self.basis.generators):
            exps.append(rem % g.order)
            rem //= g.order
        return DirichletCharacter(self, tuple(reversed(exps)))

    def principal_character(self) -> "DirichletCharacter":
        return DirichletCharacter(self, (0,) * len(self.basis.generators))


def build_modulus(q: int, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> Modulus:
    """Construct the arithmetic environment mod q, whose tables are priced
    against memory_budget."""
    return Modulus(q, memory_budget)


def _crt_pair(a1: int, m1: int, a2: int, m2: int) -> int:
    """x mod m1*m2 with x = a1 (m1), x = a2 (m2); moduli must be coprime."""
    if m2 == 1:
        return a1 % m1
    t = ((a2 - a1) * pow(m1, -1, m2)) % m2
    return (a1 + m1 * t) % (m1 * m2)


class DirichletCharacter:
    """A character mod q, stored as exponents against the basis generators."""

    __slots__ = ("modulus", "exponents", "_conductor", "_order")

    def __init__(self, modulus: Modulus, exponents) -> None:
        gens = modulus.basis.generators
        exps = tuple(int(t) for t in exponents)
        if len(exps) != len(gens):
            raise ValueError(
                f"expected {len(gens)} exponents for modulus {modulus.q}, got {len(exps)}")
        self.modulus = modulus
        self.exponents = tuple(t % g.order for t, g in zip(exps, gens))
        self._conductor: int | None = None
        self._order: int | None = None

    def __repr__(self) -> str:
        return f"DirichletCharacter(q={self.modulus.q}, exponents={self.exponents})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, DirichletCharacter)
                and other.modulus.q == self.modulus.q
                and other.exponents == self.exponents)

    def __hash__(self) -> int:
        return hash((self.modulus.q, self.exponents))

    @property
    def is_principal(self) -> bool:
        return all(t == 0 for t in self.exponents)

    @property
    def index(self) -> int:
        """Position of this character in the enumeration order."""
        idx = 0
        for t, g in zip(self.exponents, self.modulus.basis.generators):
            idx = idx * g.order + t
        return idx

    def _invariants(self) -> None:
        """Order and conductor, from character_invariants on this one column."""
        column = np.array(self.exponents, dtype=np.int64).reshape(-1, 1)
        order, conductor = character_invariants(self.modulus.basis.generators, column)
        self._order, self._conductor = int(order[0]), int(conductor[0])

    @property
    def order(self) -> int:
        if self._order is None:
            self._invariants()
        return self._order

    def __call__(self, v: int) -> RootOfUnityValue:
        m = self.modulus
        v = v % m.q
        if math.gcd(v, m.q) != 1:
            return RootOfUnityValue.zero()
        n = m.exponent
        k = 0
        for t, gen, dlog in zip(self.exponents, m.basis.generators, m.basis.dlogs):
            if t == 0:
                continue
            k += t * (n // gen.order) * int(dlog[v % gen.prime_power])
        return RootOfUnityValue(k % n, n)

    def exponent_table(self) -> np.ndarray:
        """int64 array k over 0..q-1 with chi(v) = zeta_N^k[v]; -1 where chi = 0.

        N is the unit-group exponent of the modulus (``modulus.exponent``).
        """
        m = self.modulus
        n = m.exponent
        v = np.arange(m.q, dtype=np.int64)
        k = np.zeros(m.q, dtype=np.int64)
        for t, gen, dlog in zip(self.exponents, m.basis.generators, m.basis.dlogs):
            if t == 0:
                continue
            w = t * (n // gen.order)
            k += w * dlog[v % gen.prime_power].astype(np.int64)
        k %= n
        k[~m.unit_mask] = -1
        return k

    def complex_table(self) -> np.ndarray:
        """complex128 array of chi(v) for v = 0..q-1, zeros at non-units."""
        k = self.exponent_table()
        n = self.modulus.exponent
        tbl = np.exp(2j * np.pi * np.where(k < 0, 0, k) / n)
        tbl[k < 0] = 0
        return tbl

    @property
    def conductor(self) -> int:
        """Smallest f | q such that the character factors through U_f."""
        if self._conductor is None:
            self._invariants()
        return self._conductor

    def component(self, ell: int) -> "DirichletCharacter":
        """Restriction to the block mod ell^e (ell^e || q); self if q = ell^e."""
        m = self.modulus
        e = dict(m.factorization).get(ell)
        if e is None:
            raise ValueError(f"{ell} does not divide q={m.q}")
        if ell**e == m.q:
            return self
        sub = [t for t, g in zip(self.exponents, m.basis.generators) if g.prime == ell]
        return DirichletCharacter(Modulus(ell**e), tuple(sub))

    def primitive(self) -> "DirichletCharacter":
        """The primitive character at conductor level inducing this one, or self."""
        f = self.conductor
        q = self.modulus.q
        if f == q:
            return self
        mf = Modulus(f)
        exponent_in_q = dict(self.modulus.factorization)
        exps = []
        for gen in mf.basis.generators:
            block_q = gen.prime ** exponent_in_q[gen.prime]
            rest = q // block_q
            u = _crt_pair(gen.residue, block_q, 1, rest)
            val = self(u)
            assert not val.is_zero and gen.order % val.order == 0
            exps.append(val.numerator * (gen.order // val.order))
        return DirichletCharacter(mf, tuple(exps))


def enumerate_characters(m: Modulus) -> list[DirichletCharacter]:
    """All characters mod q as a list, principal first."""
    return list(m.characters())


def character_with_conductor_count(m: Modulus, d: int) -> int:
    """Number of characters mod q whose conductor is exactly d.

    Each such character is induced by exactly one primitive character mod d,
    so the count is the (multiplicative) number of primitive characters
    mod d: prod over ell^a || d of (phi(ell^a) - phi(ell^(a-1))).
    """
    if d < 1 or m.q % d:
        raise ValueError(f"d={d} must divide q={m.q}")
    out = 1
    for ell, a in trial_factorization(d):
        out *= _phi_prime_power(ell, a) - _phi_prime_power(ell, a - 1)
    return out
