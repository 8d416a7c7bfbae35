"""Point counts of (v^2+v+1)-product congruences and the witness
constructions, against itertools brute force.

The brute oracles enumerate unit tuples literally, so they are O(phi^arity)
and run only on small moduli; the library path (blockwise value
distributions convolved via CRT) must agree exactly.
"""

import math
import tracemalloc
from itertools import product

import pytest

from sigmalab import (
    DEFAULT_SEGMENT_LENGTH,
    OutOfRangeError,
    ResourceBudgetError,
    build_modulus,
    curve_point_count,
    lift_count_mod_ell_squared,
    overrep_witness_even,
    overrep_witness_sqfree,
    quadratic_root_count,
    v_count,
)
from sigmalab import _sublinear, varieties
from sigmalab._scan import check_budget, primes_up_to


def brute_v_count(q: int, w: int, arity: int) -> int:
    units = [v for v in range(q) if math.gcd(v, q) == 1] or [0]
    if q == 1:
        return 1
    count = 0
    for tup in product(units, repeat=arity):
        prod = 1
        for v in tup:
            prod = prod * (v * v + v + 1) % q
        if prod == w % q:
            count += 1
    return count


def test_v_count_matches_brute_all_targets():
    for q in (2, 4, 5, 7, 8, 9, 13, 15, 16):
        m = build_modulus(q)
        for arity in (2, 3):
            if m.phi ** arity > 300_000:
                continue
            for w in range(q if q > 1 else 1):
                if q > 1 and math.gcd(w, q) != 1:
                    continue
                got = v_count(m, w, arity).count
                assert got == brute_v_count(q, w, arity), (q, w, arity)


def test_v_count_trivial_modulus():
    assert v_count(build_modulus(1), 0, 2).count == 1
    assert v_count(build_modulus(1), 0, 3).count == 1


def test_v_count_crt_multiplicative():
    """V_{q1 q2}(w) = V_{q1}(w) * V_{q2}(w) for coprime q1, q2."""
    for q1, q2 in ((5, 7), (4, 13), (8, 5), (16, 7)):
        q = q1 * q2
        m, m1, m2 = build_modulus(q), build_modulus(q1), build_modulus(q2)
        for w in range(1, q, max(1, q // 12)):
            if math.gcd(w, q) != 1:
                continue
            lhs = v_count(m, w, 2).count
            rhs = v_count(m1, w % q1, 2).count * v_count(m2, w % q2, 2).count
            assert lhs == rhs, (q1, q2, w)


def test_v_count_two_adic_identities():
    """Squaring is a bijection on the odd residues mod 2^e, so the
    arity-3 count is phi(2^e)^2 and the arity-2 count is phi(2^e)."""
    for e in (1, 2, 3, 4):
        q = 2 ** e
        m = build_modulus(q)
        for w in range(1, q, 2):
            assert v_count(m, w, 3).count == m.phi ** 2, (q, w)
            assert v_count(m, w, 2).count == m.phi, (q, w)


def test_v_count_partition_identity():
    """Summing V_q(w) over unit targets w counts the tuples whose
    product of v^2+v+1 stays a unit: the total is
    prod over ell^e || q of (phi(ell^e) - r_ell ell^(e-1))^arity,
    which collapses to phi(q)^arity exactly when every odd prime
    factor of q is 2 mod 3 (then no v^2+v+1 hits a zero divisor)."""
    for q in (4, 5, 7, 8, 9, 12, 13, 15, 16, 21, 25, 35, 36):
        m = build_modulus(q)
        for arity in (2, 3):
            total = sum(v_count(m, int(w), arity).count for w in m.units)
            want = 1
            for ell, e in m.factorization:
                r = quadratic_root_count(ell)
                want *= (_phi_pp(ell, e) - r * ell ** (e - 1)) ** arity
            assert total == want, (q, arity)
            all_two_mod_three = all(
                ell == 2 or ell % 3 == 2 for ell, _ in m.factorization)
            if all_two_mod_three:
                assert total == m.phi ** arity, (q, arity)
            else:
                assert total < m.phi ** arity, (q, arity)


def _phi_pp(ell: int, e: int) -> int:
    return ell ** e - ell ** (e - 1)


def test_partition_identity_scan_to_200():
    """The arity-2 partition total over all q <= 200, via the per-prime
    local form; phi^2 is asserted on exactly the q where it is the truth
    (all odd prime factors 2 mod 3)."""
    for q in range(2, 201):
        m = build_modulus(q)
        total = sum(v_count(m, int(w), 2).count for w in m.units)
        want = 1
        for ell, e in m.factorization:
            want *= (_phi_pp(ell, e)
                     - quadratic_root_count(ell) * ell ** (e - 1)) ** 2
        assert total == want, q
        if all(ell == 2 or ell % 3 == 2 for ell, _ in m.factorization):
            assert total == m.phi ** 2, q


def test_crt_consistency_scan_to_200():
    """v_count(q, w) = product of v_count(ell^e, w mod ell^e) over the
    prime powers of q, on three spread unit targets per modulus."""
    for q in range(2, 201):
        m = build_modulus(q)
        units = [int(u) for u in m.units]
        targets = {units[0], units[len(units) // 2], units[-1]}
        blocks = [(ell ** e, build_modulus(ell ** e))
                  for ell, e in m.factorization]
        for w in targets:
            want = 1
            for pp, mb in blocks:
                want *= v_count(mb, w % pp, 2).count
            assert v_count(m, w, 2).count == want, (q, w)


def test_product_bound_squarefree_even():
    """Squarefree even q <= 500 with 3 not dividing q: every arity-2
    count stays below prod over odd ell | q of (ell - 1 + 6 sqrt(ell))."""
    checked = 0
    for q in range(2, 501, 2):
        m = build_modulus(q)
        if any(e > 1 for _, e in m.factorization) or q % 3 == 0:
            continue
        bound = 1.0
        for ell, _ in m.factorization:
            if ell > 2:
                bound *= ell - 1 + 6 * math.sqrt(ell)
        worst = max(v_count(m, int(w), 2).count for w in m.units)
        assert worst <= bound + 1e-9, (q, worst, bound)
        checked += 1
    assert checked == 76


def test_v_count_validation():
    m = build_modulus(15)
    with pytest.raises(OutOfRangeError):
        v_count(m, 3, 2)  # gcd(3, 15) > 1
    with pytest.raises(ValueError):
        v_count(m, 2, 4)
    # The block mod 20011 needs 2·20010² ≈ 8.0·10⁸ unit-pair operations,
    # over the cap: refused before the block mod 10007, within the cap, is
    # counted in its 25 bytes per residue.
    m = build_modulus(10007 * 20011)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError, match="block 20011\\^1"):
            v_count(m, 1, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**4, peak


def brute_lift_count(ell: int) -> int:
    pp = ell * ell
    target = 9 * pow(16, -1, pp) % pp
    count = 0
    for v1 in range(pp):
        if v1 % ell == 0:
            continue
        a = (v1 * v1 + v1 + 1) % pp
        for v2 in range(pp):
            if v2 % ell == 0:
                continue
            if a * (v2 * v2 + v2 + 1) % pp == target:
                count += 1
    return count


def test_lift_count_pinned_and_brute():
    assert lift_count_mod_ell_squared(5) == 45
    for ell in (5, 7, 11):
        assert lift_count_mod_ell_squared(ell) == brute_lift_count(ell)


def test_lift_count_matches_v_count():
    """The pairing along generator powers against v_count's scatter
    convolution, past the primes brute force reaches."""
    for ell in primes_up_to(59).tolist():
        if ell >= 5:
            pp = ell * ell
            want = v_count(build_modulus(pp), 9 * pow(16, -1, pp), 2).count
            assert lift_count_mod_ell_squared(ell) == want, ell


def test_lift_count_window():
    """count/ell^2 within 2 +- 6/sqrt(ell), and at least ell^2 flat."""
    for ell in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
        count = lift_count_mod_ell_squared(ell)
        ratio = count / ell ** 2
        assert count >= ell ** 2
        assert abs(ratio - 2) <= 6 / math.sqrt(ell), ell


def test_lift_count_validation():
    with pytest.raises(OutOfRangeError):
        lift_count_mod_ell_squared(3)
    with pytest.raises(OutOfRangeError):
        lift_count_mod_ell_squared(15)


@pytest.mark.parametrize("count, args", [(lift_count_mod_ell_squared, (1009,)),
                                         (curve_point_count, (100_003, "sigma-product", 2))])
def test_point_count_peak_within_price(monkeypatch, count, args):
    """The traced peak of a lift or curve count stays within the bytes it
    checks against the budget before allocating, and at or above 80% of
    them."""
    prices = []
    monkeypatch.setattr(varieties, "check_budget",
                        lambda need, *rest: prices.append(need) or check_budget(need, *rest))
    tracemalloc.start()
    try:
        count(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(prices) == 1 and 0.8 * prices[0] <= peak <= prices[0], (peak, prices)


def brute_curve_count(ell: int, which: str, w: int) -> int:
    count = 0
    for xx in range(ell):
        for yy in range(ell):
            if which == "completed-square":
                lhs = (xx * xx + 3) * (yy * yy + 3) - 9
            else:
                lhs = (xx * xx + xx + 1) * (yy * yy + yy + 1) - w
            if lhs % ell == 0:
                count += 1
    return count


def test_curve_counts_match_brute():
    """Every sigma-product target w mod ell for ell <= 13, w = 0 and the
    one-element group at ell = 2 among them."""
    for ell in (2, 3, 5, 7, 11, 13, 17):
        extra = [("sigma-product", w) for w in range(3, ell)] if ell <= 13 else []
        for which, w in [("completed-square", 1), ("sigma-product", 1),
                         ("sigma-product", 2), ("sigma-product", 0)] + extra:
            got = curve_point_count(ell, which, w)
            assert got.count == brute_curve_count(ell, which, w), (ell, which, w)
            assert got.bound_certified == (ell >= 5)


def test_curve_pinned_and_window():
    assert curve_point_count(5).count == 5
    for ell in (5, 7, 11, 13, 17, 19, 23, 97, 101, 997):
        for which, w in (("completed-square", 1), ("sigma-product", 1),
                         ("sigma-product", 2)):
            n = curve_point_count(ell, which, w).count
            assert abs(n - ell) <= 6 * math.sqrt(ell) + 10, (ell, which, w)


def test_witness_even_pinned():
    """Y = 5, x = 1e6: q = 50, class 49, and exactly eight witnesses
    (P2 = 7 with P1 in {17, 37, 47, 67, 97, 107, 127, 137})."""
    report = overrep_witness_even(5, 10**6)
    assert report.q == 50
    assert report.witness_class == 49
    assert report.crt_count == 8
    assert report.direct_count == 8
    assert report.witness_count == 8
    # no n <= 1e6 has four prime factors above 50, so the census side
    # is empty and flagged rather than fabricated
    assert report.census_total == 0
    assert report.ratio is None
    assert report.census_note


def brute_sqfree_witnesses(x: int, q: int) -> int:
    """Primes x^(1/4) < P <= sqrt(x) (so P^2 <= x and P^4 > x), P odd and
    coprime to q, with sigma(P^2) = 1 + P + P^2 = 3 mod q."""
    count = 0
    for p in range(math.isqrt(math.isqrt(x)) + 1, math.isqrt(x) + 1):
        if p < 3 or any(p % d == 0 for d in range(2, p)):
            continue
        if math.gcd(p, q) != 1:
            continue
        if (1 + p + p * p) % q == 3 % q:
            count += 1
    return count


def test_witness_sqfree_pinned_and_brute():
    report = overrep_witness_sqfree(5, 10**6)
    assert report.q == 10
    assert report.witness_class == 3
    assert report.crt_count == report.direct_count == 77
    assert report.witness_count == 77
    assert report.crt_count == brute_sqfree_witnesses(10**6, 10)
    assert report.num_prime_classes == 2
    assert report.ratio is not None and report.ratio > 1.0
    assert report.census_total > 0


def test_witness_routes_agree_other_cut():
    report = overrep_witness_sqfree(7, 250_000)
    assert report.q == 70
    assert report.crt_count == report.direct_count
    assert report.crt_count == brute_sqfree_witnesses(250_000, 70)


def test_witness_validation():
    with pytest.raises(OutOfRangeError):
        overrep_witness_even(4, 10**6)
    with pytest.raises(ResourceBudgetError):
        overrep_witness_even(23, 10**6)


@pytest.mark.parametrize("witness", [overrep_witness_sqfree, overrep_witness_even])
def test_witness_modulus_beyond_int64_is_out_of_range(witness):
    """Every y >= 53 gives q >= 2^63 for both kinds: refused as out of
    range, with only the primes up to 64 sieved, even at y = 10^18."""
    for y in (53, 10**18):
        tracemalloc.start()
        try:
            with pytest.raises(OutOfRangeError, match="2\\^63"):
                witness(y, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5, (y, peak)


@pytest.mark.parametrize("witness", [overrep_witness_sqfree, overrep_witness_even])
def test_witness_prices_its_census_once(monkeypatch, witness):
    """The witness runs its census, which prices itself, before it walks
    its primes: one engine choice per call."""
    calls = []
    real = _sublinear.preferred
    monkeypatch.setattr(_sublinear, "preferred", lambda *a: calls.append(a) or real(*a))
    witness(7, 10**6)
    assert len(calls) == 1


def test_over_budget_witnesses_refuse_before_walking_primes():
    """At x = 10^16 the witness census fits neither engine in 10^6 bytes;
    both witnesses refuse before they build and walk the primes <= 10^8
    (a 5 * 10^7-byte sieve and 46 MB of primes), so almost nothing is
    traced."""
    for witness in (overrep_witness_even, overrep_witness_sqfree):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceBudgetError):
                witness(7, 10**16, memory_budget=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6, witness


@pytest.mark.parametrize("witness", [overrep_witness_sqfree, overrep_witness_even])
def test_witness_reports_independent_of_segments_and_workers(witness, sieve_engine):
    """Identical reports for workers {1, 2, 8} over the three segments of
    the witness census."""
    x = 2 * DEFAULT_SEGMENT_LENGTH + 12_345
    base = witness(7, x)
    for workers in (2, 8):
        assert witness(7, x, workers=workers) == base, workers
