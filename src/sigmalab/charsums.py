"""Character averages over shifted and quadratic arguments.

Two families of averages over the units v mod q drive everything here:

    rho_chi = (1/phi(q)) sum_v chi(v+1)
    eta_chi = (1/phi(q)) sum_v chi(v^2+v+1)

Both admit local structure. rho_chi has a closed form through the conductor
(zero unless the conductor is squarefree), eta_chi factors over the prime
powers ell^e || q with each local factor reducible to a complete sum at
conductor level. The complete sums |sum_{v mod ell^e} chi(v^2+v+1)| for
primitive chi obey a square-root bound (ell^{e/2} for ell >= 5, e >= 2),
checked exhaustively by weil_clz_check. verify_s_set recomputes the
quarter-bound inequality on the eighteen exceptional conductors where only
Re(eta_chi), not |eta_chi|, stays below alpha_tilde(q)/4.

Sums for every character of one modulus (tables, power sums, the Weil and
S-set checks) are one Modulus.character_transform of the polynomial's value
histogram, O(q + phi log phi). rho_brute, eta_brute, rho_exact, eta_factored
and s_chi_ell take one character at a time, as oracles for the transform.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._scan import DEFAULT_MEMORY_BUDGET, check_budget
from .characters import (
    DirichletCharacter,
    Modulus,
    _require_modulus_range,
    _require_prime,
    trial_factorization,
)
from .errors import (
    EvenModulusWarning,
    OutOfRangeError,
    UnsupportedModulusError,
)

# Conductors whose primitive characters can push |eta_chi| above the
# alpha_tilde/4 line: the singleton primes 5..23, nine two-prime products,
# and two three-prime products. All are squarefree and coprime to 6.
EXCEPTIONAL_CONDUCTORS = frozenset({
    5, 7, 11, 13, 17, 19, 23,
    35, 55, 65, 85, 91, 95, 77, 119, 133,
    385, 455,
})


def rho_brute(chi: DirichletCharacter) -> complex:
    """(1/phi(q)) sum over units v mod q of chi(v+1), by direct summation.

    Defined for any q >= 1; even q falls outside the closed form's scope and
    triggers EvenModulusWarning.
    """
    m = chi.modulus
    if m.q % 2 == 0:
        warnings.warn(
            f"rho for even modulus {m.q} has no closed-form counterpart",
            EvenModulusWarning, stacklevel=2)
    table = chi.complex_table()
    units = m.units
    return complex(table[(units + 1) % m.q].sum() / m.phi)


def rho_exact(chi: DirichletCharacter) -> Fraction:
    """Closed form for rho_chi as an exact rational (odd modulus only).

    With f the conductor of chi: zero unless f is squarefree, and otherwise
    (-1)^omega(f) * alpha(q) / prod_{ell | f} (ell - 2).
    """
    m = chi.modulus
    if m.q % 2 == 0:
        raise UnsupportedModulusError(
            f"rho closed form requires an odd modulus, got {m.q}")
    f_factored = trial_factorization(chi.conductor)
    if any(e > 1 for _, e in f_factored):
        return Fraction(0)
    denom = 1
    for ell, _ in f_factored:
        denom *= ell - 2
    return m.alpha * Fraction((-1) ** len(f_factored), denom)


def rho_closed_form(chi: DirichletCharacter) -> complex:
    """Closed form for rho_chi, as a complex number (odd modulus only)."""
    return complex(rho_exact(chi))


def _require_odd_prime_power(m: Modulus, ell: int | None,
                             e: int | None) -> tuple[int, int]:
    """(p, k) with q = p^k, p odd; ell and e, when given, must be p and k."""
    if len(m.factorization) != 1:
        raise UnsupportedModulusError(
            f"modulus {m.q} is not a prime power")
    (p, k), = m.factorization
    if p == 2:
        raise UnsupportedModulusError(
            "local shifted sums are defined for odd prime powers only")
    if ell is not None and ell != p:
        raise ValueError(f"modulus {m.q} is not a power of {ell}")
    if e is not None and e != k:
        raise ValueError(f"modulus {m.q} is not {p}^{e}")
    return p, k


def s_chi_ell(chi: DirichletCharacter, ell: int | None = None,
              e: int | None = None) -> complex:
    """sum_{v mod ell^e, gcd(v, ell)=1} chi(v+1) for chi mod an odd ell^e.

    This is the local factor of rho_chi * phi(q): over odd q, the product of
    these sums across the prime-power blocks recovers the full shifted sum.
    """
    m = chi.modulus
    _require_odd_prime_power(m, ell, e)
    table = chi.complex_table()
    units = m.units
    return complex(table[(units + 1) % m.q].sum())


def s_chi_ell_closed_form(chi: DirichletCharacter, ell: int | None = None,
                          e: int | None = None) -> int:
    """Closed form of s_chi_ell: it is always a rational integer.

    With f the conductor: ell^{e-1}(ell-2) when f = 1, -ell^{e-1} when
    f = ell, and 0 when ell^2 | f.
    """
    p, k = _require_odd_prime_power(chi.modulus, ell, e)
    f = chi.conductor
    if f > p:
        return 0
    base = p ** (k - 1)
    return base * (p - 2) if f == 1 else -base


def eta_brute(chi: DirichletCharacter) -> complex:
    """(1/phi(q)) sum over units v mod q of chi(v^2+v+1), by direct summation."""
    m = chi.modulus
    table = chi.complex_table()
    units = m.units
    vals = (units * units + units + 1) % m.q
    return complex(table[vals].sum() / m.phi)


def quadratic_root_count(ell: int) -> int:
    """Number of roots of v^2+v+1 mod a prime ell: 2, 1, or 0.

    Two roots when ell = 1 mod 3, one at ell = 3, none when ell = 2 mod 3
    (including ell = 2).
    """
    if ell == 3:
        return 1
    return 2 if ell % 3 == 1 else 0


def _eta_local(chi_local: DirichletCharacter, ell: int) -> complex:
    """Local eta factor at the block mod ell^e carried by chi_local."""
    if ell == 2:
        # v -> v^2+v+1 permutes the odd residues mod 2^e, so a nontrivial
        # local character sums to zero; the trivial one averages to 1.
        return complex(1.0) if chi_local.is_principal else 0j
    if chi_local.is_principal:
        return complex(1 - Fraction(quadratic_root_count(ell), ell - 1))
    prim = chi_local.primitive()
    mf = prim.modulus
    f = mf.q
    table = prim.complex_table()
    v = np.arange(f, dtype=np.int64)
    total = table[(v * v + v + 1) % f].sum()
    if f == ell:
        # at conductor exponent 1, the lone v = 0 term contributes chi(1);
        # at exponent >= 2 those terms sum to zero over the 1 mod ell coset
        total -= 1
    return complex(total / mf.phi)


def eta_factored(chi: DirichletCharacter) -> complex:
    """eta_chi as a product of local averages, one per prime power ell^e || q.

    Each nontrivial local factor is evaluated at conductor level: the sum
    over units mod ell^e collapses to (1/phi(ell^c)) {sum over all v mod
    ell^c of the primitive component at v^2+v+1, minus 1 if c = 1}, where
    ell^c is the local conductor.
    """
    out = complex(1.0)
    for ell, _ in chi.modulus.factorization:
        out *= _eta_local(chi.component(ell), ell)
    return out


@dataclass(frozen=True)
class WeilBoundReport:
    """Exhaustive square-root-bound check over primitive characters mod ell^e."""

    ell: int
    e: int
    modulus: int
    bound: float
    num_primitive: int
    max_abs: float
    max_ratio: float
    worst_index: int
    all_within: bool


def weil_clz_check(ell: int, e: int) -> WeilBoundReport:
    """Check |sum_{v mod ell^e} chi(v^2+v+1)| <= ell^{e/2} for all primitive chi.

    Requires a prime ell >= 5 and e >= 2, the regime in which the square-root
    bound for these complete sums holds; ell^e < 2^63 is checked before ell
    is trial-divided. All sums are one character transform of the value
    histogram, O(ell^e log ell^e), priced with the tables of Modulus(ell^e)
    against DEFAULT_MEMORY_BUDGET. worst_index is the least primitive index
    whose |sum| is within 1e-9 * bound of max_abs: rounding decides ties.
    """
    if e < 2:
        raise OutOfRangeError(f"e must be at least 2, got {e}")
    if e >= 64 or ell**e >= 1 << 63:  # e < 64 first: no huge power is built
        raise OutOfRangeError(f"{ell}^{e} must be below 2^63")
    ell = _require_prime(ell, floor=5)
    modulus = ell ** e
    m = Modulus(modulus)
    check_budget(m.price + 8 * modulus, DEFAULT_MEMORY_BUDGET,
                 f"tables and value histogram mod {ell}^{e}")
    hist = np.bincount(SIGMA_AT_PRIME_SQUARE.evaluate_array(
        np.arange(modulus, dtype=np.int64), modulus), minlength=modulus)
    sums = np.abs(m.character_transform(hist))
    # one generator: t is primitive iff t % ell != 0, columns 1.. of the (phi/ell, ell) grid
    prim_abs = sums.reshape(-1, ell)[:, 1:]
    bound = math.sqrt(modulus)
    max_abs = float(prim_abs.max())
    row, col = divmod(int(np.argmax(prim_abs >= max_abs - 1e-9 * bound)), ell - 1)
    return WeilBoundReport(
        ell=ell, e=e, modulus=modulus, bound=bound,
        num_primitive=prim_abs.size, max_abs=max_abs,
        max_ratio=max_abs / bound, worst_index=row * ell + col + 1,
        all_within=max_abs <= bound + 1e-9)


def _exceptional_denominator(Q: int) -> int:
    """prod over ell | Q of (ell-3) if ell = 1 mod 3 else (ell-1)."""
    out = 1
    for ell, _ in trial_factorization(Q):
        out *= (ell - 3) if ell % 3 == 1 else (ell - 1)
    return out


@dataclass(frozen=True)
class SSetRow:
    """Quarter-bound data for one exceptional conductor Q."""

    conductor: int
    denominator: int
    num_primitive: int
    max_re_sum: float
    normalized: float
    attains_quarter: bool


@dataclass(frozen=True)
class SSetReport:
    rows: tuple[SSetRow, ...]
    global_max: float
    within_quarter: bool
    attaining: tuple[int, ...]
    restricted_to_divisors_of: int | None


def verify_s_set(q: int | None = None) -> SSetReport:
    """Recompute the quarter bound on the eighteen exceptional conductors.

    For each Q, maximizes Re(sum over units v mod Q of psi(v^2+v+1)) over
    the primitive characters psi mod Q, taking all the sums mod Q from one
    character transform of the value histogram, and divides by the product of
    (ell-3) or (ell-1) over ell | Q according to ell mod 3. The global
    maximum must be exactly 1/4; the attaining sums are rational integers,
    so attainment is detected by integer rounding of 4 times the sum
    (tolerance 1e-9 rejects, exact rounding accepts).

    Passing q (1 <= q < 2^63, else OutOfRangeError) restricts the report
    to the conductors dividing q, as a reporting aid; it changes no value
    and builds no modulus of q, only each Modulus(Q) in turn.
    """
    conductors = sorted(EXCEPTIONAL_CONDUCTORS)
    if q is not None:
        q = _require_modulus_range(q)
        conductors = [Q for Q in conductors if q % Q == 0]
    rows = []
    for Q in conductors:
        mq = Modulus(Q)
        sums = _unit_value_transform(mq, SIGMA_AT_PRIME_SQUARE)
        primitive = mq.character_grid()[2] == Q
        best = float(sums.real[primitive].max())
        denom = _exceptional_denominator(Q)
        scaled = 4.0 * best
        attains = (abs(scaled - round(scaled)) < 1e-6
                   and round(scaled) == denom)
        rows.append(SSetRow(
            conductor=Q, denominator=denom, num_primitive=int(primitive.sum()),
            max_re_sum=best, normalized=best / denom,
            attains_quarter=attains))
    global_max = max((r.normalized for r in rows), default=0.0)
    return SSetReport(
        rows=tuple(rows),
        global_max=global_max,
        within_quarter=all(r.normalized <= 0.25 + 1e-9 for r in rows),
        attaining=tuple(r.conductor for r in rows if r.attains_quarter),
        restricted_to_divisors_of=q)


@dataclass(frozen=True)
class PolynomialSpec:
    """Integer polynomial F(T), coefficients stored low degree to high.

    The two instances in actual use are F = T + 1 (the shifted argument,
    sigma at a prime) and F = T^2 + T + 1 (sigma at a prime square).
    """

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(int(c) for c in self.coefficients)
        if len(coeffs) < 2 or coeffs[-1] == 0:
            raise OutOfRangeError("polynomial must be nonconstant with a nonzero "
                             "leading coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, v: int, modulus: int | None = None) -> int:
        out = 0
        for c in reversed(self.coefficients):
            out = out * v + c
            if modulus is not None:
                out %= modulus
        return out

    def evaluate_array(self, v: np.ndarray, modulus: int) -> np.ndarray:
        """F(v) mod modulus < 2⁶³ for a 1-d integer array v, by vectorized
        Horner in uint64 with each product taken by _mulmod.  Each coefficient
        is reduced mod modulus first, so any fits int64.  Works in blocks of
        _HORNER_CHUNK, so its temporaries stay in cache and off the peak."""
        out = np.empty(len(v), dtype=np.int64)
        for a in range(0, len(v), _HORNER_CHUNK):
            w = np.asarray(v[a : a + _HORNER_CHUNK] % modulus, dtype=np.int64).view(np.uint64)
            r = np.full_like(w, self.coefficients[-1] % modulus)
            for c in reversed(self.coefficients[:-1]):
                r = _mulmod(r, w, modulus) + c % modulus
                r = np.minimum(r, r - modulus)  # r − m wraps above r when r < m
            out[a : a + _HORNER_CHUNK] = r
        return out

    def __str__(self) -> str:
        parts = []
        for d in range(self.degree, -1, -1):
            c = self.coefficients[d]
            if c == 0:
                continue
            if d == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                term = f"{mag}T" if d == 1 else f"{mag}T^{d}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+{term}" if c > 0 else f"-{term}")
        return "".join(parts)


_HORNER_CHUNK = 1 << 16


def _mulmod(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """a·b mod m for uint64 arrays of residues mod m < 2⁶³, by Horner over b's
    k-bit digits, k = 64 − bits(m), so that r·2ᵏ and a·digit fit uint64.  For
    m < 2³² (k ≥ 32) b is one digit and this is a·b % m."""
    k = 64 - m.bit_length()
    top = (63 - k) // k * k  # the top digit b >> top is below 2ᵏ, since b < 2⁶⁴⁻ᵏ
    r = (b >> top) * a % m
    for shift in range(top - k, -1, -k):
        r = (r << k) % m + ((b >> shift) & ((1 << k) - 1)) * a % m
        r = np.minimum(r, r - m)
    return r


SIGMA_AT_PRIME = PolynomialSpec((1, 1))
SIGMA_AT_PRIME_SQUARE = PolynomialSpec((1, 1, 1))

_ALPHA_CHUNK = 1 << 20


def alpha_F(F: PolynomialSpec, m: Modulus) -> Fraction:
    """Exact density (1/phi(q)) #{u mod q : gcd(u F(u), q) = 1}.

    Multiplicative over ell | q: each local factor is the proportion of
    units u mod ell with F(u) also a unit, so only the primes of q matter.
    F = T+1 recovers alpha(q) and F = T^2+T+1 recovers alpha_tilde-style
    densities.
    """
    out = Fraction(1)
    for ell, _ in m.factorization:
        passed = 0
        for lo in range(1, ell, _ALPHA_CHUNK):
            u = np.arange(lo, min(ell, lo + _ALPHA_CHUNK), dtype=np.int64)
            passed += int(np.count_nonzero(F.evaluate_array(u, ell)))
        out *= Fraction(passed, ell - 1)
    return out


def _unit_value_transform(m: Modulus, F: PolynomialSpec) -> np.ndarray:
    """sum over units v mod q of chi(F(v)), for every chi in enumeration order."""
    hist = np.bincount(F.evaluate_array(m.units, m.q), minlength=m.q)
    return m.character_transform(hist)


def _power_sum(m: Modulus, F: PolynomialSpec, exponent: int) -> float:
    """sum over nonprincipal chi mod q of |(1/phi(q)) sum_v chi(F(v))|^exponent,
    all from one character transform."""
    if exponent < 1:
        raise ValueError("exponent must be a positive integer")
    averages = _unit_value_transform(m, F)[1:] / m.phi
    return float(np.sum(np.abs(averages) ** exponent))


def rho_power_sum(m: Modulus, exponent: int = 2) -> float:
    """sum over nonprincipal chi mod q of |rho_chi|^exponent (odd q)."""
    if m.q % 2 == 0:
        raise UnsupportedModulusError(
            f"rho power sums require an odd modulus, got {m.q}")
    return _power_sum(m, SIGMA_AT_PRIME, exponent)


def eta_power_sum(m: Modulus, exponent: int = 3) -> float:
    """sum over nonprincipal chi mod q of |eta_chi|^exponent (3 must not divide q)."""
    if m.q % 3 == 0:
        raise UnsupportedModulusError(
            f"eta power sums require gcd(q, 3) = 1, got q = {m.q}")
    return _power_sum(m, SIGMA_AT_PRIME_SQUARE, exponent)


@dataclass(frozen=True)
class CharacterAverageRow:
    """One table row: a character and its shifted or quadratic average."""

    index: int
    exponents: tuple[int, ...]
    order: int
    conductor: int
    value: complex


def _average_table(m: Modulus, F: PolynomialSpec) -> list[CharacterAverageRow]:
    """The rows, each field read from one array of Modulus.character_grid
    or of the transform, so no character object is built."""
    values = (_unit_value_transform(m, F) / m.phi).tolist()
    exponents, orders, conductors = m.character_grid()
    return [CharacterAverageRow(index=i, exponents=tuple(e), order=o, conductor=c, value=v)
            for i, (e, o, c, v) in enumerate(zip(exponents.T.tolist(), orders.tolist(),
                                                 conductors.tolist(), values))]


def rho_table(m: Modulus) -> list[CharacterAverageRow]:
    """rho_chi for every character mod q, in enumeration order: the
    character transform of the histogram of v+1 over units v, over phi(q)."""
    return _average_table(m, SIGMA_AT_PRIME)


def eta_table(m: Modulus) -> list[CharacterAverageRow]:
    """eta_chi for every character mod q, in enumeration order: the
    character transform of the histogram of v^2+v+1 over units v, over phi(q)."""
    return _average_table(m, SIGMA_AT_PRIME_SQUARE)
