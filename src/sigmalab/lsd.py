"""Main terms for twisted sums over rough integers.

The central object is the twisted partial sum

    T(X; Y, β) = Σ_{n ≤ X, P⁻(n) > Y} β^{Ω(n)},

where P⁻(n) is the least prime factor (P⁻(1) = +∞, so n = 1 always
contributes β⁰ = 1) and Ω counts prime factors with multiplicity.  For
β in the closed unit disk the sum has a main term of shape

    X/(log X)^{1−β} · e^{−γβ} / (Γ(β) · (log Y)^β),

with γ the Euler–Mascheroni constant.  This module provides the exact
sum (the Lucy + min_25 engine of _sublinear at q = 1 over the primes
above Y, graded by Ω, after _scan.plan's checks of x; it scans no
segments, so it takes no segment length or worker count), the main-term
evaluator, a complex Γ good to ~1e-13 relative accuracy on the region
we care about, the companion Euler product

    G(1) = ∏_{p ≤ Y} (1 − 1/p)^β · ∏_{p > Y} (1 − 1/p)^β (1 − β/p)^{−1},

and a convergence scan pairing exact values with main terms across a
grid of X.

The implied error term carries an unknowable absolute constant, so no
function here claims a rigorous error bound; ratios are reported and
the caller judges them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _sublinear
from ._scan import DEFAULT_MEMORY_BUDGET, check_budget, plan, prime_table_bytes, primes_up_to
from .errors import GammaPoleError, OutOfRangeError

__all__ = [
    "EULER_GAMMA",
    "TwistedSumParams",
    "TwistedSumResult",
    "GOneResult",
    "rough_omega_histogram",
    "exact_twisted_sum",
    "complex_gamma",
    "reciprocal_gamma",
    "lsd_main_term",
    "g_one_euler_product",
    "convergence_scan",
]

#: Euler–Mascheroni constant γ to 20 decimal digits.
EULER_GAMMA = 0.57721566490153286061

#: Size threshold e^{11/2} under which the asymptotic hypotheses fail.
SIZE_HYPOTHESIS_FLOOR = math.exp(5.5)

# Ω(n) < 64 for any n < 2^64, so histograms use a fixed width.
_OMEGA_WIDTH = 64


@dataclass(frozen=True)
class TwistedSumParams:
    """Parameters (X, Y, β) of a twisted rough sum, plus an optional
    diagnostic smoothness cut Z.

    x is the range end, y the roughness cut (only n whose prime factors
    all exceed y are counted), beta the twist.  The asymptotic theory
    wants x, y ≥ e^{11/2} and, when a z is supplied, the window
    y ≤ z^{1/(18 log log z)²}; both conditions are recorded as flags,
    never enforced, since exploring outside the proven region is the
    point of a diagnostic tool.
    """

    x: int
    y: float
    beta: complex
    z: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", int(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "beta", complex(self.beta))
        if self.z is not None:
            object.__setattr__(self, "z", float(self.z))
        if self.x < 1:
            raise OutOfRangeError(f"range end must satisfy x >= 1, got {self.x}")
        if self.y < 2:
            raise OutOfRangeError(f"roughness cut must satisfy y >= 2, got {self.y}")
        if abs(self.beta) > 1 + 1e-12:
            raise OutOfRangeError(
                f"twist must lie in the closed unit disk, got |beta| = {abs(self.beta)}"
            )
        if self.z is not None and self.z <= 1:
            raise OutOfRangeError(f"smoothness cut must exceed 1, got {self.z}")

    @property
    def meets_size_hypothesis(self) -> bool:
        """Whether x, y (and z when present) all reach e^{11/2}."""
        ok = self.x >= SIZE_HYPOTHESIS_FLOOR and self.y >= SIZE_HYPOTHESIS_FLOOR
        if self.z is not None:
            ok = ok and self.z >= SIZE_HYPOTHESIS_FLOOR
        return ok

    @property
    def meets_smoothness_window(self) -> Optional[bool]:
        """Whether y ≤ z^{1/(18 log log z)²}; None when no z was given."""
        if self.z is None:
            return None
        loglog = math.log(math.log(self.z))
        if loglog <= 0:
            return False
        return self.y <= self.z ** ((18.0 * loglog) ** -2.0)


@dataclass(frozen=True)
class TwistedSumResult:
    """Exact twisted sum, its main term, and their ratio.

    ratio is None when the main term vanishes (β = 0, or β at a pole
    of Γ), in which case no finite comparison exists.
    """

    params: TwistedSumParams
    exact: complex
    main_term: complex
    ratio: Optional[complex]


def rough_omega_histogram(
    x: int,
    y: float,
    *,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> np.ndarray:
    """N_k = #{n ≤ x : n is y-rough, Ω(n) = k}, as an int64 vector.

    n = 1 is vacuously y-rough and lands in N_0.  The vector has fixed
    length 64, which exceeds any possible Ω below 2^64.  _scan.plan checks
    x; the counts then come from the sublinear engine over the primes
    above y (_sublinear.omega_tails), as tail sums #{Ω ≥ k} for
    k ≤ ⌊log x / log y⌋ + 1, in tables checked against memory_budget bytes.
    """
    x = int(x)
    y = float(y)
    if y < 2:
        raise OutOfRangeError(f"roughness cut must satisfy y >= 2, got {y}")
    plan(x)
    grades = min(math.floor(math.log(x) / math.log(y)) + 2, _OMEGA_WIDTH)
    tails = _sublinear.omega_tails(x, math.floor(min(y, x)), x, grades, memory_budget)
    hist = np.zeros(_OMEGA_WIDTH, dtype=np.int64)
    hist[:grades] = tails - np.append(tails[1:], 0)
    return hist


def exact_twisted_sum(
    params: TwistedSumParams,
    *,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> complex:
    """Σ_{n ≤ x, P⁻(n) > y} β^{Ω(n)}, exactly (up to one complex add
    per histogram cell).

    The sum collapses to Σ_k N_k β^k with N_k the rough Ω-histogram,
    so the arithmetic is integer until the very last 64 multiplies.
    """
    hist = rough_omega_histogram(params.x, params.y, memory_budget=memory_budget)
    beta = params.beta
    total = 0j
    power = 1 + 0j
    for count in hist:
        if count:
            total += int(count) * power
        power *= beta
    return total


# Rational approximation to Γ (Lanczos, g = 7, 9 terms).  Coefficients
# are the standard double-precision set; relative error is below 1e-13
# across the right half-plane region used here.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _is_gamma_pole(s: complex) -> bool:
    return s.imag == 0.0 and s.real <= 0.0 and s.real == math.floor(s.real)


def complex_gamma(s: complex) -> complex:
    """Γ(s) for complex s, via the Lanczos approximation.

    Arguments with Re(s) < 1/2 go through the reflection formula
    Γ(s)Γ(1−s) = π/sin(πs).  Nonpositive integers raise
    GammaPoleError; callers that want the reciprocal convention
    1/Γ(pole) = 0 should use reciprocal_gamma instead.
    """
    s = complex(s)
    if _is_gamma_pole(s):
        raise GammaPoleError(f"gamma has a pole at {s}")
    if s.real < 0.5:
        return math.pi / (cmath.sin(math.pi * s) * complex_gamma(1.0 - s))
    s -= 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (s + i)
    t = s + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (s + 0.5) * cmath.exp(-t) * acc


def reciprocal_gamma(s: complex) -> complex:
    """1/Γ(s), extended by 0 at the poles (where 1/Γ is entire)."""
    s = complex(s)
    if _is_gamma_pole(s):
        return 0j
    return 1.0 / complex_gamma(s)


def lsd_main_term(params: TwistedSumParams) -> complex:
    """x/(log x)^{1−β} · e^{−γβ}/(Γ(β)·(log y)^β).

    Complex powers of the positive reals log x and log y use the
    principal branch, so the value is single-valued.  β = 0 (and any
    other pole of Γ, though none lie in the closed unit disk except 0)
    gives 0 through the 1/Γ = 0 convention.  Requires x > 1 so that
    log log x is defined.
    """
    x = float(params.x)
    if x <= 1:
        raise OutOfRangeError(f"main term needs x > 1, got {params.x}")
    beta = params.beta
    recip = reciprocal_gamma(beta)
    if recip == 0:
        return 0j
    loglog_x = math.log(math.log(x))
    loglog_y = math.log(math.log(params.y))
    exponent = (beta - 1.0) * loglog_x - beta * loglog_y - EULER_GAMMA * beta
    return x * recip * cmath.exp(exponent)


def _exp_integral_e1(x: float) -> float:
    """E1(x) = ∫_x^∞ e^{−t}/t dt for x > 1, by continued fraction.

    Used only for tail estimates: Σ_{p > P} 1/p² is ≈ E1(log P) by the
    prime number theorem (substitute t = e^u in ∫ dt/(t² log t)).
    """
    b = x + 1.0
    c = 1e308
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h * math.exp(-x)


@dataclass(frozen=True)
class GOneResult:
    """Value of the G(1) Euler product truncated at p_max.

    value contains the product over p ≤ p_max together with a
    second-order analytic completion of the tail (the neglected
    factors are 1 + (β²−β)/(2p²) + O(1/p³), and the sum of 1/p² over
    p > p_max is well approximated by E1(log p_max)); tail_estimate is
    a heuristic magnitude for what still remains after that
    completion.
    """

    value: complex
    y: float
    beta: complex
    p_max: int
    tail_estimate: float


def g_one_euler_product(
    y: float,
    beta: complex,
    p_max: int,
) -> GOneResult:
    """G(1) = ∏_{p≤y}(1−1/p)^β · ∏_{p>y}(1−1/p)^β(1−β/p)^{−1},
    truncated at p_max and completed by the analytic tail term.

    At β = 1 every factor beyond y is identically 1 and the truncation
    is skipped, making the result exact in that case; at β = 0 the
    product is exactly 1.

    The primes ≤ p_max take prime_table_bytes(p_max), the sieve and 8
    bytes per int64 prime.  Later the float64 primes, those above y and
    one complex temporary, built in place, hold 32 bytes per prime, more
    than the sieve and the int64 primes for every p_max below 10²⁶.
    With 128 KiB of ufunc buffers, that is checked against
    DEFAULT_MEMORY_BUDGET before any of them is allocated.
    """
    y = float(y)
    beta = complex(beta)
    p_max = int(p_max)
    if y < 2:
        raise OutOfRangeError(f"cut must satisfy y >= 2, got {y}")
    if p_max < y:
        raise OutOfRangeError(f"truncation p_max = {p_max} must reach the cut y = {y}")
    int64_primes = prime_table_bytes(p_max) - (p_max + 1) // 2  # 8 bytes per prime
    check_budget(4 * int64_primes + (1 << 17), DEFAULT_MEMORY_BUDGET,
                 f"prime table for p_max = {p_max}")
    primes = primes_up_to(p_max).astype(np.float64)
    head = primes[primes <= y]
    log_total = beta * float(np.sum(np.log1p(-1.0 / head)))
    if beta != 1.0:
        tail_primes = primes[primes > y]
        if tail_primes.size:
            log_total += beta * float(np.sum(np.log1p(-1.0 / tail_primes)))
            terms = beta / tail_primes  # then 1 - beta/p and its log, in place
            log_total -= complex(np.sum(np.log(np.subtract(1.0, terms, out=terms), out=terms)))
        log_total += (beta * beta - beta) / 2.0 * _exp_integral_e1(math.log(p_max))
    second_order = abs(beta * (beta - 1.0)) / 2.0 * _exp_integral_e1(math.log(p_max))
    tail_estimate = 0.05 * second_order + (1.0 + abs(beta)) / float(p_max) ** 2
    return GOneResult(
        value=cmath.exp(log_total),
        y=y,
        beta=beta,
        p_max=p_max,
        tail_estimate=tail_estimate,
    )


def convergence_scan(
    beta: complex,
    x_grid: Sequence[int],
    y: float,
    *,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> list[TwistedSumResult]:
    """Exact twisted sums against main terms across a grid of x.

    Each row carries exact, main term, and exact/main; the ratio is
    None whenever the main term vanishes (β = 0), since no finite
    comparison exists there.
    """
    rows = []
    for x in x_grid:
        params = TwistedSumParams(x=int(x), y=y, beta=beta)
        exact = exact_twisted_sum(params, memory_budget=memory_budget)
        main = lsd_main_term(params)
        ratio = exact / main if main != 0 else None
        rows.append(
            TwistedSumResult(params=params, exact=exact, main_term=main, ratio=ratio)
        )
    return rows
