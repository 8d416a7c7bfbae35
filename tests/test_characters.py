"""Character machinery against first-principles oracles.

The oracles only use gcd arithmetic and the defining properties
(multiplicativity, orthogonality, periodicity mod candidate conductors),
never the generator/discrete-log representation under test.
"""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from sigmalab import (
    DirichletCharacter,
    Modulus,
    OutOfRangeError,
    ResourceBudgetError,
    RootOfUnityValue,
    build_modulus,
    character_with_conductor_count,
    enumerate_characters,
)
from sigmalab import characters
from sigmalab._scan import check_budget


def brute_units(q: int) -> list[int]:
    if q == 1:
        return [1 % q] if q > 1 else [0]
    return [u for u in range(1, q + 1) if math.gcd(u, q) == 1 and u <= q]


def test_unit_group_sizes():
    for q in range(1, 201):
        m = build_modulus(q)
        want = sum(1 for u in range(q) if math.gcd(u, q) == 1) or 1
        if q == 1:
            assert m.phi == 1
            continue
        assert m.phi == want
        assert len(m.units) == want
        assert sorted(int(u) for u in m.units) == sorted(
            u % q for u in brute_units(q))


def test_character_count_equals_phi():
    for q in range(1, 121):
        m = build_modulus(q)
        chars = list(enumerate_characters(m))
        assert len(chars) == m.phi
        assert len({chi.exponents for chi in chars}) == m.phi
        assert chars[0].is_principal
        for i, chi in enumerate(chars):
            assert chi.index == i
            assert m.character(i) == chi


def test_values_are_exact_roots_of_unity():
    for q in (7, 9, 15, 16, 24, 40):
        m = build_modulus(q)
        for chi in enumerate_characters(m):
            for v in range(q):
                val = chi(v)
                if math.gcd(v, q) != 1:
                    assert val.is_zero
                else:
                    assert not val.is_zero
                    assert math.gcd(val.numerator, val.order) == 1 or val.numerator == 0
                    assert chi.order % val.order == 0
                    z = val.to_complex()
                    assert abs(abs(z) - 1.0) < 1e-12


def test_multiplicativity_exhaustive():
    for q in (5, 8, 12, 15, 16, 21, 35, 45):
        m = build_modulus(q)
        units = brute_units(q)
        for chi in enumerate_characters(m):
            for u in units:
                for v in units:
                    assert chi(u) * chi(v) == chi(u * v % q)


def test_row_orthogonality():
    """sum_v chi(v) = phi for principal chi and 0 otherwise."""
    for q in range(1, 101):
        m = build_modulus(q)
        for chi in enumerate_characters(m):
            total = sum(chi(int(v)).to_complex() for v in m.units)
            want = m.phi if chi.is_principal else 0.0
            assert abs(total - want) < 1e-9


def test_column_orthogonality():
    """sum_chi chi(v) = phi when v = 1 and 0 for other units."""
    for q in (7, 9, 15, 16, 24):
        m = build_modulus(q)
        for v in brute_units(q):
            total = sum(chi(v).to_complex() for chi in enumerate_characters(m))
            want = m.phi if v % q == 1 % q else 0.0
            assert abs(total - want) < 1e-9


def brute_conductor(chi: DirichletCharacter, q: int) -> int:
    """Smallest d | q such that chi is trivial on units u = 1 (mod d)."""
    for d in sorted(d for d in range(1, q + 1) if q % d == 0):
        ok = True
        for u in range(1, q + 1):
            if math.gcd(u, q) == 1 and u % d == 1 % d:
                if chi(u) != RootOfUnityValue.one():
                    ok = False
                    break
        if ok:
            return d
    return q


def test_conductor_matches_brute():
    for q in range(1, 121):
        m = build_modulus(q)
        for chi in enumerate_characters(m):
            assert chi.conductor == brute_conductor(chi, q)


def brute_order(chi: DirichletCharacter, q: int) -> int:
    """Least k >= 1 with chi(u)^k = 1 for every unit u: the lcm of the
    orders of its values."""
    k = 1
    for u in brute_units(q):
        k = math.lcm(k, chi(u).order)
    return k


def test_character_grid_matches_brute():
    """The grid's exponents are the enumeration order, and its orders and
    conductors are the brute ones, for every character mod q <= 120."""
    for q in range(1, 121):
        m = build_modulus(q)
        exponents, orders, conductors = m.character_grid()
        assert exponents.shape == (len(m.basis.generators), m.phi)
        for i, (exps, order, conductor) in enumerate(zip(
                exponents.T.tolist(), orders.tolist(), conductors.tolist())):
            chi = m.character(i)
            assert tuple(exps) == chi.exponents
            assert (order, conductor) == (brute_order(chi, q), brute_conductor(chi, q)), (q, i)


def test_conductor_counts_partition_phi():
    """For every d | q the grid holds character_with_conductor_count(m, d)
    characters of conductor d, and no other conductor occurs; the primitive
    characters mod q are those of conductor q."""
    for q in [*range(1, 121), 1024, 4007, 5005, 10010, 17303, 2**4 * 3**3 * 5**2 * 7]:
        m = build_modulus(q)
        found, counts = np.unique(m.character_grid()[2], return_counts=True)
        want = {d: character_with_conductor_count(m, d)
                for d in range(1, q + 1) if q % d == 0}
        assert dict(zip(found.tolist(), counts.tolist())) == {
            d: n for d, n in want.items() if n}, q
        assert sum(want.values()) == m.phi


def test_primitive_character_induces_original():
    """chi'(v mod f) = chi(v) for every unit v of q, chi' = chi.primitive()."""
    for q in range(1, 121):
        m = build_modulus(q)
        for chi in enumerate_characters(m):
            prim = chi.primitive()
            f = chi.conductor
            assert prim.modulus.q == f
            assert prim.conductor == f
            for v in brute_units(q):
                assert prim(v % f if f > 1 else 0 if f == 1 else v) == chi(v) or f == 1
            if f == 1:
                assert all(chi(v) == RootOfUnityValue.one()
                           for v in brute_units(q))


def test_order_is_minimal_annihilator():
    for q in (5, 9, 15, 16, 40):
        m = build_modulus(q)
        for chi in enumerate_characters(m):
            k = chi.order
            assert k >= 1 and m.exponent % k == 0
            for v in brute_units(q):
                val = chi(v)
                assert (val.order if not val.is_zero else 1) <= k
            # k-th power is principal, no smaller power is
            for j in range(1, k):
                if all((chi(v).numerator * j) % chi(v).order == 0
                       for v in brute_units(q)):
                    pytest.fail(f"order {k} not minimal for q={q}")


def test_primitive_count_mod_25():
    m = build_modulus(25)
    assert character_with_conductor_count(m, 25) == 16


def test_exponent_table_matches_calls():
    for q in (15, 16, 21):
        m = build_modulus(q)
        for chi in enumerate_characters(m):
            table = chi.complex_table()
            for v in range(q):
                assert abs(table[v] - chi(v).to_complex()) < 1e-12


def test_root_of_unity_arithmetic():
    i = RootOfUnityValue(1, 4)
    assert i.to_complex() == pytest.approx(1j)
    assert i * i == RootOfUnityValue(1, 2)
    assert i.conjugate() == RootOfUnityValue(3, 4)
    assert RootOfUnityValue(2, 8) == RootOfUnityValue(1, 4)
    assert RootOfUnityValue.zero().is_zero
    z = RootOfUnityValue(5, 6).to_complex()
    assert abs(z - cmath.exp(2j * math.pi * 5 / 6)) < 1e-15


def test_modulus_equality_is_by_q():
    """Each call builds its own Modulus; two of the same q compare and hash
    equal."""
    assert Modulus(91) is not build_modulus(91)
    assert Modulus(91) == build_modulus(91) and hash(Modulus(91)) == hash(build_modulus(91))
    assert Modulus(91) != Modulus(93)


def test_primitive_root_lifts_past_a_wieferich_base():
    """At ell = 40487 the least primitive root 5 has 5^(ell-1) = 1 mod ell^2,
    so the root mod ell^2 is lifted to 5 + ell, of order phi(ell^2)."""
    ell = 40_487
    assert pow(5, ell - 1, ell * ell) == 1
    g = characters._primitive_root_prime_power(ell, 2)
    assert g == 40_492
    phi = ell * (ell - 1)
    for r, _ in characters.trial_factorization(phi):
        assert pow(g, phi // r, ell * ell) != 1, r


def test_modulus_validation():
    with pytest.raises(OutOfRangeError):
        Modulus(0)
    with pytest.raises(OutOfRangeError):
        Modulus(-5)
    m = Modulus(10**8)  # its tables are priced when the first is built
    with pytest.raises(ResourceBudgetError):
        m.units


def test_modulus_refuses_out_of_range_and_over_budget_q(monkeypatch):
    """q >= 2^63 is out of range; a prime just below it is refused on its
    unit mask's q bytes before trial division would run to 3·10^9."""
    for q in (2**63, 10**19):
        with pytest.raises(OutOfRangeError):
            Modulus(q)
    monkeypatch.setattr(characters, "trial_factorization", None)
    with pytest.raises(ResourceBudgetError, match="tables mod 9223372036854775783"):
        Modulus(2**63 - 25)


@pytest.mark.parametrize("q", [999_983, 1_531_530, 2**20, 3**12])
def test_modulus_peak_within_price(monkeypatch, q):
    """Modulus prices its tables at their peak: with every cached table and
    one character_transform built, the traced peak (the weights are built
    before tracing) lies within the price it checks and reaches at least
    80% of it.  The tables build at a budget of the price, and the first
    of them is refused at one byte short."""
    prices = []
    monkeypatch.setattr(characters, "check_budget",
                        lambda need, *rest: prices.append(need) or check_budget(need, *rest))
    weights = np.arange(q, dtype=np.int64) % 7
    tracemalloc.start()
    try:
        m = Modulus(q)
        m.basis, m.unit_mask, m.units
        m.character_transform(weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    price = prices[-1]
    assert prices == [q, price] and price == m.price
    assert 0.8 * price <= peak <= price, (peak, prices)
    Modulus(q, memory_budget=price).units
    with pytest.raises(ResourceBudgetError):
        Modulus(q, memory_budget=price - 1).units


def test_unit_mask_matches_gcd():
    for q in (*range(1, 2001), 9_999_991, 2 * 3 * 5 * 7 * 11 * 13):
        want = np.gcd(np.arange(q, dtype=np.int64), q) == 1
        assert np.array_equal(build_modulus(q).unit_mask, want), q
