"""Modulus.character_transform against per-character tables.

The reference for each character is its own length-q complex table, which
test_characters checks against gcd arithmetic and the defining properties;
the transform must agree with it on every modulus shape, including the
trivial groups mod 1 and 2 and the two-generator blocks mod 2^e.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmalab import (
    Modulus,
    build_modulus,
    enumerate_characters,
    eta_brute,
    eta_factored,
    rho_brute,
    rho_exact,
    s_chi_ell,
)

SHAPES = (1, 2, 4, 8, 16, 9, 25, 2 * 3**4, 4 * 7 * 11)


def assert_matches_tables(q: int, w: np.ndarray, indices) -> None:
    m = build_modulus(q)
    got = m.character_transform(w)
    assert got.shape == (m.phi,) and got.dtype == np.complex128
    tol = 1e-9 * max(1.0, float(np.abs(w).sum()))
    for i in indices(m):
        chi = m.character(i)
        want = (w * chi.complex_table()).sum()
        assert abs(got[chi.index] - want) <= tol, (q, chi.exponents)


@pytest.mark.parametrize("q", SHAPES)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_transform_matches_tables_on_fixed_shapes(q, seed):
    w = np.random.default_rng(seed).integers(-1000, 1000, q)
    assert_matches_tables(q, w, lambda m: range(m.phi))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3000), st.integers(0, 2**32 - 1))
def test_transform_matches_tables_on_random_moduli(q, seed):
    rng = np.random.default_rng(seed)
    w = rng.integers(-1000, 1000, q)
    assert_matches_tables(
        q, w, lambda m: {0, m.phi - 1, *rng.integers(0, m.phi, 6).tolist()})


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 400), st.integers(0, 2**32 - 1))
def test_transform_inverts_on_units(q, seed):
    """w(a) = (1/phi) sum over chi of conj(chi(a)) * transform(w)[chi] for
    every unit a: orthogonality of the characters."""
    m = build_modulus(q)
    w = np.random.default_rng(seed).integers(-1000, 1000, q)
    tables = np.array([chi.complex_table() for chi in enumerate_characters(m)])
    rebuilt = tables.conj().T @ m.character_transform(w) / m.phi
    units = m.units
    assert np.abs(rebuilt[units] - w[units]).max() <= 1e-9 * np.abs(w).sum() + 1e-12
    assert np.abs(rebuilt[~m.unit_mask]).max(initial=0.0) <= 1e-9


def test_oracles_stay_off_the_transform(monkeypatch):
    """The one-character oracles must not reach the code they check."""
    def refuse(self, w):
        raise AssertionError("an oracle called character_transform")

    monkeypatch.setattr(Modulus, "character_transform", refuse)
    for q in (35, 49, 125, 455):
        m = build_modulus(q)
        for chi in enumerate_characters(m):
            rho_brute(chi), rho_exact(chi), eta_brute(chi), eta_factored(chi)
            for ell, _ in m.factorization:
                s_chi_ell(chi.component(ell), ell)
