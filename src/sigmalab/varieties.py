"""Point counts for the congruences that break uniform equidistribution.

Three families of counting problems live here, all exact:

  * V_q(w): tuples of units (v_1, .., v_r) mod q, r ∈ {2, 3}, with
    ∏ (v_j² + v_j + 1) ≡ w.  Computed blockwise per prime power via
    the value distribution of v² + v + 1 over units, convolved under
    multiplication in the unit group, then stitched by CRT.

  * Counts over 𝔽_ℓ of the plane curves (X²+3)(Y²+3) = 9 (the
    completed-square form) and (X²+X+1)(Y²+Y+1) = w (the σ-product
    form), plus the companion count of unit pairs mod ℓ² hitting the
    distinguished target 9·16^{−1}, each paired along the generator
    powers of the unit group.  The curves are absolutely irreducible
    for ℓ ≥ 5, so their counts stay within O(√ℓ) of ℓ; we verify that
    window numerically rather than certifying irreducibility.

  * Witness constructions: explicit moduli q built from primes
    5 ≤ ℓ ≤ Y and the residue classes that scoop up all n = (P₁P₂)²
    (resp. n = P²) in a designated class of σ(n) mod q, making that
    class over-represented.  Each witness count is computed two ways,
    by local residue classes (CRT) and by a direct σ evaluation, so
    the two routes validate each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._scan import DEFAULT_MEMORY_BUDGET, check_budget, plan, primes_up_to
from .characters import (Modulus, _coprime_mask, _crt_pair, _phi_prime_power, _power_table,
                         _primitive_root_prime_power, _require_prime, build_modulus)
from .census import CensusFilter, CensusReport, census
from .errors import OutOfRangeError, ResourceBudgetError
from .factor import Factorization, sigma_mod

__all__ = [
    "SolutionCount",
    "CurveCount",
    "OverrepWitnessReport",
    "v_count",
    "lift_count_mod_ell_squared",
    "curve_point_count",
    "overrep_witness_even",
    "overrep_witness_sqfree",
]

#: Work cap for one convolution block, in unit-pair operations.
DEFAULT_WORK_BUDGET = 250_000_000


@dataclass(frozen=True)
class SolutionCount:
    """#{unit tuples (v_1..v_arity) mod q : ∏(v_j²+v_j+1) ≡ w}."""

    q: int
    w: int
    arity: int
    count: int


@dataclass(frozen=True)
class CurveCount:
    """Exact number of 𝔽_ℓ points on one of the witness curves.

    which is 'completed-square' for (X²+3)(Y²+3)−9 and 'sigma-product'
    for (X²+X+1)(Y²+Y+1)−w (w recorded alongside).  bound_certified
    marks whether ℓ ≥ 5, the range where the O(√ℓ) window rests on
    absolute irreducibility; smaller primes still get exact counts.
    """

    ell: int
    which: str
    w: Optional[int]
    count: int
    bound_certified: bool


def _block_value_distribution(pp: int, ell: int) -> np.ndarray:
    """The distribution of v ↦ v²+v+1 on U_{pp}, pp = ell^e.

    distribution[t] counts units v with v²+v+1 ≡ t, with non-unit
    targets zeroed (a tuple whose product is a unit never passes
    through them).  The values are built in place, so at most 25 bytes
    per residue are alive: the values, the unit mask, the values at the
    units and the int64 bincount.
    """
    unit = _coprime_mask(0, pp, (ell,))
    values = np.arange(pp, dtype=np.int64)
    values *= values + 1
    values += 1
    values %= pp
    dist = np.bincount(values[unit], minlength=pp)
    dist[~unit] = 0
    return dist


def _convolve_block(
    dist: np.ndarray, units: np.ndarray, pp: int, arity: int
) -> np.ndarray:
    """arity-fold multiplicative convolution of dist over U_{pp}.

    result[t] = #{(v_1..v_arity) : ∏(v_j²+v_j+1) ≡ t (mod pp)}.  Each
    pass scatters along s·units mod pp, a permutation of the units for
    each unit s, so plain fancy indexing accumulates without
    collisions.
    """
    acc = dist
    for _ in range(arity - 1):
        nxt = np.zeros(pp, dtype=np.int64)
        for s in np.flatnonzero(acc):
            weight = acc[s]
            idx = (int(s) * units) % pp
            nxt[idx] += weight * dist[units]
        acc = nxt
    return acc


def v_count(m: Modulus, w: int, arity: int = 3) -> SolutionCount:
    """Exact #{(v_1..v_arity) ∈ U_q^arity : ∏(v_j²+v_j+1) ≡ w (mod q)}.

    Splits by CRT into prime-power blocks; each block convolves the
    unit-value distribution of v²+v+1 with itself arity−1 times.  Work
    is φ(ℓ^e)²·(arity−1) unit-pair operations per block; when that of
    the largest block exceeds DEFAULT_WORK_BUDGET, ResourceBudgetError is
    raised before any block is counted.  Only m's factorization is read,
    so none of its tables is built or priced.
    """
    q = m.q
    w = int(w) % q if q > 1 else 0
    if arity not in (2, 3):
        raise ValueError(f"arity must be 2 or 3, got {arity}")
    if q == 1:
        return SolutionCount(q=1, w=0, arity=arity, count=1)
    if math.gcd(w, q) != 1:
        raise OutOfRangeError(f"target w = {w} shares a factor with q = {q}")
    ell, e = max(m.factorization, key=lambda block: _phi_prime_power(*block))
    work = _phi_prime_power(ell, e) ** 2 * (arity - 1)
    if work > DEFAULT_WORK_BUDGET:
        raise ResourceBudgetError(f"block {ell}^{e} needs ~{work} unit-pair operations, "
                                  f"cap is {DEFAULT_WORK_BUDGET}")
    total = 1
    for ell, e in m.factorization:
        pp = ell**e
        dist = _block_value_distribution(pp, ell)
        units = np.flatnonzero(_coprime_mask(0, pp, (ell,)))
        local = _convolve_block(dist, units, pp, arity)
        total *= int(local[w % pp])
        if total == 0:
            break
    return SolutionCount(q=q, w=w, arity=arity, count=total)


def _lift_target(ell: int) -> int:
    """9·16^{−1} mod ℓ², the class the diagonal v_1 + v_2 ≡ −1 hits."""
    pp = ell * ell
    return 9 * pow(16, -1, pp) % pp


def _product_pairs(hist: np.ndarray, ell: int, e: int, target: int) -> int:
    """Σ_s hist[s]·hist[target·s^{−1}] over the units s mod ℓ^e, target a unit
    g^k reduced mod ℓ^e: along the powers g^j of a generator, g^j pairs with
    g^{k−j}, so j ≤ k meets the prefix reversed and j > k the suffix
    reversed, both views.  Besides hist it holds the powers and hist along
    them, 16 bytes per unit."""
    pp = ell**e
    order = pp // ell * (ell - 1)
    powers = _power_table(_primitive_root_prime_power(ell, e), order, pp)
    k = int(np.flatnonzero(powers == target)[0])
    h = hist[powers]
    return int(h[: k + 1] @ h[k::-1]) + int(h[k + 1 :] @ h[:k:-1])


def lift_count_mod_ell_squared(ell: int) -> int:
    """#{(v_1, v_2) ∈ U_{ℓ²}² : (v_1²+v_1+1)(v_2²+v_2+1) ≡ 9·16^{−1}}.

    The target 9·16^{−1} mod ℓ² is the value hit by the diagonal
    family v_1 + v_2 ≡ −1, which alone contributes ℓ² pairs, so the
    count is at least ℓ²; the full count sits near 2ℓ².  Evaluated
    directly from the value distribution, paired along the powers of a
    generator of U_{ℓ²}, a different route from v_count's convolution,
    so the two serve as mutual oracles.

    At most 25 bytes per residue mod ℓ² are alive at once, in the
    distribution's build and again in the pairing (three int64 arrays),
    so 25·ℓ² bytes and the ufunc buffers are checked against
    DEFAULT_MEMORY_BUDGET before any is allocated, or ℓ trial-divided.
    """
    check_budget(25 * max(int(ell), 0) ** 2 + (1 << 17), DEFAULT_MEMORY_BUDGET,
                 f"value tables mod {ell}^2")
    ell = _require_prime(ell, floor=5)
    dist = _block_value_distribution(ell * ell, ell)
    return _product_pairs(dist, ell, 2, _lift_target(ell))


def curve_point_count(ell: int, which: str = "completed-square", w: int = 1) -> CurveCount:
    """Exact 𝔽_ℓ point count of a witness curve.

    'completed-square' counts (X²+3)(Y²+3) = 9; 'sigma-product'
    counts (X²+X+1)(Y²+Y+1) = w.  Both run over all of 𝔽_ℓ², pairing
    the value histograms of the two factors: for a nonzero target the
    pairs are Σ_{s≠0} h[s]·h[target/s], paired along the powers of a
    generator of 𝔽_ℓ^×, and for target ≡ 0 they are h[0]·(2ℓ − h[0]).
    The values are built in place and dropped once binned, so at most
    three int64 arrays over 𝔽_ℓ are alive at once, the histogram and the
    pairing's two; 24·ℓ bytes and the ufunc buffers are checked against
    DEFAULT_MEMORY_BUDGET before any is allocated, or ℓ trial-divided.
    """
    if which not in ("completed-square", "sigma-product"):
        raise ValueError(f"which must be 'completed-square' or 'sigma-product', got {which!r}")
    check_budget(24 * int(ell) + (1 << 17), DEFAULT_MEMORY_BUDGET, f"value tables over F_{ell}")
    ell = _require_prime(ell, floor=2)
    values = np.arange(ell, dtype=np.int64)
    if which == "completed-square":
        values *= values
        values += 3
        target = 9 % ell
        w_field: Optional[int] = None
    else:
        values *= values + 1
        values += 1
        target = int(w) % ell
        w_field = int(w)
    values %= ell
    hist = np.bincount(values, minlength=ell)
    del values
    count = (int(hist[0] * (2 * ell - hist[0])) if target == 0
             else _product_pairs(hist, ell, 1, target))
    return CurveCount(ell=ell, which=which, w=w_field, count=count,
                      bound_certified=ell >= 5)


@dataclass(frozen=True)
class OverrepWitnessReport:
    """Outcome of one over-representation witness construction.

    witness_count is the number of witnesses found (pairs P₁ > P₂ of
    primes with (P₁P₂)² ≤ x in the even construction; single primes P
    with x^{1/4} < P ≤ x^{1/2} in the squarefree one); crt_count and
    direct_count are the same quantity computed by residue classes
    and by evaluating σ, and must agree.  The census fields compare
    the witness class against the all-class mean in the filtered
    census of σ(n) mod q; ratio is class·φ(q)/total, None when the
    filtered census is empty at this scale (the constructions only
    bite for x enormous relative to q, which census_note records).
    """

    kind: str
    q: int
    y_cut: int
    x: int
    witness_class: int
    crt_count: int
    direct_count: int
    witness_count: int
    num_prime_classes: Optional[int]
    census_class_count: Optional[int]
    census_total: Optional[int]
    mean_count: Optional[float]
    ratio: Optional[float]
    census_note: str


# Per witness kind: the power of each ℓ in q, the k of its P_k(n) > q census,
# k in words, the class's name.
_WITNESS_CENSUS = {"even": (2, 4, "four", "the witness class"),
                   "squarefree": (1, 2, "two", "class 3")}


def _witness_census(kind: str, y: int, x: int, workers: int,
                    memory_budget: int) -> tuple[list[int], CensusReport]:
    """The primes 5 ≤ ℓ ≤ y and, for q = 2·∏ ℓ^power, the census of n ≤ x
    under P_k(n) > q, after the checks of x.  Every y ≥ 53 gives q ≥ 2⁶³,
    which Modulus refuses, so only the primes ≤ min(y, 64) are sieved.  The
    modulus and the census price themselves before they build anything, so
    an over-budget witness refuses before it walks its primes."""
    power, k = _WITNESS_CENSUS[kind][:2]
    if x < 4:
        raise OutOfRangeError(f"x must be >= 4, got {x}")
    plan(x)
    ells = [int(p) for p in primes_up_to(min(y, 64)) if p >= 5]
    if not ells:
        raise OutOfRangeError(f"witness cut y = {y} admits no primes in [5, y]")
    q = 2 * math.prod(ell**power for ell in ells)
    return ells, census(x, build_modulus(q, memory_budget), CensusFilter.pk_threshold(k, q),
                        workers=workers, memory_budget=memory_budget)


def _witness_report(kind: str, report: CensusReport, y: int, klass: int, crt_count: int,
                    direct_count: int, num_prime_classes: Optional[int]) -> OverrepWitnessReport:
    """The report of one witness construction: its counts, and the
    witness class against the mean of its census under P_k(n) > q."""
    _, k, k_words, class_name = _WITNESS_CENSUS[kind]
    class_count = report.counts.get(klass, 0)
    total = report.total_coprime
    if total > 0:
        mean = report.mean
        ratio: Optional[float] = class_count * len(report.counts) / total
        note = f"filtered census is nonempty; ratio compares {class_name} to the mean"
    else:
        mean = None
        ratio = None
        note = (
            f"no n <= {report.x} has {k_words} prime factors above q = {report.q}; "
            "the census comparison only becomes meaningful for far larger x"
        )
    return OverrepWitnessReport(
        kind=kind,
        q=report.q,
        y_cut=y,
        x=report.x,
        witness_class=klass,
        crt_count=crt_count,
        direct_count=direct_count,
        witness_count=direct_count,
        num_prime_classes=num_prime_classes,
        census_class_count=class_count,
        census_total=total,
        mean_count=mean,
        ratio=ratio,
        census_note=note,
    )


def overrep_witness_even(
    y: int,
    x: int,
    *,
    workers: int = 1,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> OverrepWitnessReport:
    """Witnesses n = (P₁P₂)² landing in one class mod q = 2(∏ℓ)².

    The modulus collects every prime 5 ≤ ℓ ≤ y squared; the class
    w_q ≡ 9·16^{−1} mod each ℓ² (and 1 mod 2) receives all n = (P₁P₂)²
    with x^{1/10} < P₂ ≤ x^{1/6} < P₁ whose pair of residues solves
    (v₁²+v₁+1)(v₂²+v₂+1) ≡ w_q.  Prime pairs are counted both by the
    local class conditions and by evaluating σ(P₁²P₂²) mod q; the
    census under the P₄(n) > q filter, run as census runs it with
    workers and memory_budget, supplies the comparison mean.
    """
    x = int(x)
    y = int(y)
    ells, report = _witness_census("even", y, x, workers, memory_budget)
    q = report.q
    targets = {ell: _lift_target(ell) for ell in ells}
    w_q = 1  # the mod-2 component
    mod_so_far = 2
    for ell in ells:
        w_q = _crt_pair(w_q, mod_so_far, targets[ell], ell * ell)
        mod_so_far *= ell * ell

    # Prime windows by exact integer power comparisons.
    root = math.isqrt(x)
    all_primes = primes_up_to(root).tolist()
    p2_list = [p for p in all_primes if p**10 > x and p**6 <= x]
    crt_count = 0
    direct_count = 0

    def local_ok(p: int) -> bool:
        return p % 2 == 1 and all(p % ell for ell in ells)

    def pair_in_class(p1: int, p2: int) -> bool:
        value = (p1 * p1 + p1 + 1) * (p2 * p2 + p2 + 1)
        return all(value % (ell * ell) == targets[ell] for ell in ells)

    for p2 in p2_list:
        if not local_ok(p2):
            continue
        p1_top = root // p2
        for p1 in all_primes:
            if p1 > p1_top:
                break
            if p1**6 <= x or p1 <= p2 or not local_ok(p1):
                continue
            if pair_in_class(p1, p2):
                crt_count += 1
            fact = Factorization(((p2, 2), (p1, 2)))
            if sigma_mod(fact, q) == w_q % q:
                direct_count += 1

    return _witness_report("even", report, y, w_q % q, crt_count, direct_count, None)


def overrep_witness_sqfree(
    y: int,
    x: int,
    *,
    workers: int = 1,
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> OverrepWitnessReport:
    """Witnesses n = P² landing in class 3 mod q = 2·∏ ℓ.

    For squarefree even q assembled from the primes 5 ≤ ℓ ≤ y, every
    prime P with P ≡ 1 or −2 mod each odd ℓ | q has
    σ(P²) = P²+P+1 ≡ 3 (mod q): the 2^{ω(q)−1} residue classes of
    such P all funnel into the single class 3.  Primes in
    (x^{1/4}, x^{1/2}] are counted by class membership and by direct
    σ evaluation, and the class-3 count of the P₂(n) > q census, run
    as census runs it with workers and memory_budget, gives the
    over-representation ratio.
    """
    x = int(x)
    y = int(y)
    ells, report = _witness_census("squarefree", y, x, workers, memory_budget)
    q = report.q

    crt_count = 0
    direct_count = 0
    for p in primes_up_to(math.isqrt(x)).tolist():
        if p**4 <= x:
            continue
        in_class = p % 2 == 1 and all(p % ell in (1, ell - 2) for ell in ells)
        if in_class:
            crt_count += 1
        if sigma_mod(Factorization(((p, 2),)), q) == 3 % q:
            direct_count += 1

    return _witness_report("squarefree", report, y, 3 % q, crt_count, direct_count,
                           2 ** len(ells))
