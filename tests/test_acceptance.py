"""Acceptance suite: fifteen numbered criteria, one line of output each.

Run with `pytest -s tests/test_acceptance.py -v` to see every line.  Each
test prints `criterion NN: PASS/FAIL - observed values` before asserting,
so the log records the measurements either way.  Tolerances and runtime
caps are asserted exactly as stated; observed values that motivated any
calibration are in the printed lines.

Criterion 9's q=15 leg is expected to FAIL: the true discrepancy at
x = 1e7 is near 0.43 and shrinks only like (log x)^(-1/4), so the stated
0.10 is out of reach at any feasible x.  The assertion is kept as stated
rather than weakened; the census machinery itself is verified exactly
against brute force in the unit suite.
"""

import math
import time
from itertools import chain

import numpy as np

from sigmalab import (
    CensusFilter,
    TwistedSumParams,
    build_modulus,
    census,
    complex_gamma,
    curve_point_count,
    discrepancy,
    enumerate_characters,
    eta_brute,
    eta_factored,
    exact_twisted_sum,
    iter_sigma_segments,
    lift_count_mod_ell_squared,
    lsd_main_term,
    odd_part_is_square_array,
    overrep_witness_even,
    overrep_witness_sqfree,
    prime_reciprocal_sum,
    rho_brute,
    rho_closed_form,
    rho_power_sum,
    twisted_partial_sum,
    two_adic_square_form,
    v_count,
    verify_s_set,
    weil_clz_check,
    EXCEPTIONAL_CONDUCTORS,
    PolynomialSpec,
)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)


def _primes_below(limit: int) -> list[int]:
    mask = np.ones(limit, dtype=bool)
    mask[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if mask[p]:
            mask[p * p::p] = False
    return [int(p) for p in np.flatnonzero(mask)]


def test_criterion_01_rho_closed_form():
    """rho closed form vs brute force, every chi for every odd q <= 500,
    |difference| <= 1e-9, under 60 seconds."""
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for q in range(3, 501, 2):
        m = build_modulus(q)
        for chi in enumerate_characters(m):
            worst = max(worst, abs(rho_closed_form(chi) - rho_brute(chi)))
            checked += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt <= 60
    _line(1, ok, f"max |closed-brute| = {worst:.3e} over {checked} characters "
                 f"(tol 1e-9), {dt:.1f}s (cap 60s)")
    assert worst <= 1e-9
    assert dt <= 60


def test_criterion_02_eta_factorization():
    """eta local factorization vs brute force, every chi for every
    q <= 500 coprime to 3, |difference| <= 1e-9, under 120 seconds."""
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for q in range(2, 501):
        if q % 3 == 0:
            continue
        m = build_modulus(q)
        for chi in enumerate_characters(m):
            worst = max(worst, abs(eta_factored(chi) - eta_brute(chi)))
            checked += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt <= 120
    _line(2, ok, f"max |factored-brute| = {worst:.3e} over {checked} "
                 f"characters (tol 1e-9), {dt:.1f}s (cap 120s)")
    assert worst <= 1e-9
    assert dt <= 120


def test_criterion_03_s_set_verification():
    """Global normalized max over the eighteen conductors is exactly 1/4
    by integer rounding, attained on {5, 7, 13, 35}, under 10 seconds."""
    t0 = time.perf_counter()
    report = verify_s_set()
    dt = time.perf_counter() - t0
    attaining = set(report.attaining)
    ok = (report.within_quarter and attaining == {5, 7, 13, 35}
          and abs(report.global_max - 0.25) < 1e-12 and dt <= 10)
    _line(3, ok, f"global max = {report.global_max!r}, attaining = "
                 f"{sorted(attaining)}, {dt:.1f}s (cap 10s)")
    assert report.within_quarter
    assert attaining == {5, 7, 13, 35}
    assert abs(report.global_max - 0.25) < 1e-12
    assert dt <= 10


def test_criterion_04_quarter_bound_exhaustive():
    """For q <= 500 with gcd(q,6) in {1,2}: Re(eta) <= alpha~/4 + 1e-9
    for every nonprincipal chi, and |eta| <= alpha~/4 + 1e-9 when the
    conductor is outside the exceptional set."""
    worst_re = -1.0
    worst_abs = -1.0
    checked = 0
    for q in chain(range(5, 501, 2), range(2, 501, 2)):
        if q % 3 == 0 or q == 1:
            continue
        m = build_modulus(q)
        cap = float(m.alpha_tilde) / 4
        for chi in enumerate_characters(m):
            if chi.is_principal:
                continue
            val = eta_factored(chi)
            checked += 1
            worst_re = max(worst_re, val.real - cap)
            if chi.conductor not in EXCEPTIONAL_CONDUCTORS:
                worst_abs = max(worst_abs, abs(val) - cap)
    ok = worst_re <= 1e-9 and worst_abs <= 1e-9
    _line(4, ok, f"max(Re eta - alpha~/4) = {worst_re:.3e}, "
                 f"max(|eta| - alpha~/4) off the exceptional set = "
                 f"{worst_abs:.3e} over {checked} characters (tol 1e-9)")
    assert worst_re <= 1e-9
    assert worst_abs <= 1e-9


def test_criterion_05_weil_bound():
    """|sum of chi(v^2+v+1) mod ell^e| <= ell^(e/2) for every primitive
    chi, (ell,e) in {5,7,11,13}x{2} and (5,3)."""
    results = []
    ok = True
    for ell, e in ((5, 2), (7, 2), (11, 2), (13, 2), (5, 3)):
        rep = weil_clz_check(ell, e)
        results.append(f"{ell}^{e}: max|S|/bound = {rep.max_ratio:.6f}")
        ok = ok and rep.all_within
    _line(5, ok, "; ".join(results))
    assert ok


def test_criterion_06_rho_power_sum_bound():
    """Sum over nonprincipal chi of |rho|^2 <= alpha(q) + 1e-9, odd q <= 500."""
    worst = -1.0
    at = 0
    for q in range(3, 501, 2):
        m = build_modulus(q)
        excess = rho_power_sum(m, 2) - float(m.alpha)
        if excess > worst:
            worst, at = excess, q
    ok = worst <= 1e-9
    _line(6, ok, f"max(sum|rho|^2 - alpha) = {worst:.3e} at q = {at} (tol 1e-9)")
    assert worst <= 1e-9


def test_criterion_07_even_modulus_structure(sieve_million):
    """x = 1e6, q in {2, 10, 14, 22}: every n with gcd(sigma(n), q) = 1
    has square odd part, and each passes the exact 2-adic decomposition."""
    x = 10 ** 6
    details = []
    all_ok = True
    for q in (2, 10, 14, 22):
        members = []
        for lo, hi, sig, _ in iter_sigma_segments(x, q):
            ns = np.arange(lo, hi, dtype=np.int64)
            coprime = np.gcd(sig.astype(np.int64), q) == 1
            square_odd = odd_part_is_square_array(ns)
            bad = coprime & ~square_odd
            if bad.any():
                all_ok = False
            members.extend(int(n) for n in ns[coprime])
        forms_ok = all(
            two_adic_square_form(sieve_million.factorize(n)).valid
            for n in members)
        all_ok = all_ok and forms_ok
        details.append(f"q={q}: {len(members)} members, all 2^k m^2: "
                       f"{forms_ok}")
    _line(7, all_ok, "; ".join(details))
    assert all_ok


def test_criterion_08_orthogonality_reconstruction():
    """Class counts rebuilt from twisted sums match the census within
    1e-6 x for q in {5, 15, 10} at x = 1e5."""
    x = 10 ** 5
    worst = 0.0
    for q in (5, 15, 10):
        m = build_modulus(q)
        rep = census(x, m)
        sums = [twisted_partial_sum(x, chi) for chi in enumerate_characters(m)]
        for a, count in rep.counts.items():
            rebuilt = sum(
                chi(a).conjugate().to_complex() * s
                for chi, s in zip(enumerate_characters(m), sums)) / m.phi
            worst = max(worst, abs(rebuilt - count))
    ok = worst <= 1e-6 * x
    _line(8, ok, f"max |rebuilt - direct| = {worst:.3e} (tol {1e-6 * x:.1f})")
    assert worst <= 1e-6 * x


def test_criterion_09_equidistribution_desk_scale():
    """x = 1e7: q = 5 discrepancy < 0.05 and q = 15 discrepancy < 0.10.

    The q = 15 assertion is expected to fail: the observed value is near
    0.43 and the decay rate is (log x)^(-1/4) (conductor-15 characters
    have Re rho = +1/8 against alpha = 3/8), so 0.10 first happens
    around x = 1e270.  Kept as stated rather than weakened."""
    x = 10 ** 7
    d5 = discrepancy(census(x, build_modulus(5)))
    d15 = discrepancy(census(x, build_modulus(15)))
    ok = d5 < 0.05 and d15 < 0.10
    _line(9, ok, f"q=5: observed {d5:.4f} (< 0.05 required: {d5 < 0.05}); "
                 f"q=15: observed {d15:.4f} (< 0.10 required: {d15 < 0.10}, "
                 f"unattainable at feasible x, decays like (log x)^-0.25)")
    assert d5 < 0.05
    assert d15 < 0.10


def test_criterion_10_even_q_counterexample_machinery():
    """V~ machinery on 2-power blocks and the lift window mod ell^2.

    The three-variable count over 2^e is phi(2^e)^2 for every odd w
    (squaring is a bijection on the odd residues; the two-variable count
    is phi(2^e), asserted alongside).  Then for every prime
    5 <= ell <= 100: lift count >= ell^2 and count/ell^2 in [2 +- 6/sqrt ell]."""
    ok = True
    for e in (1, 2, 3, 4):
        q = 2 ** e
        m = build_modulus(q)
        for w in range(1, q, 2):
            if v_count(m, w, 3).count != m.phi ** 2:
                ok = False
            if v_count(m, w, 2).count != m.phi:
                ok = False
    worst_dev = 0.0
    at = 0
    floor_ok = True
    for ell in _primes_below(101):
        if ell < 5:
            continue
        count = lift_count_mod_ell_squared(ell)
        if count < ell ** 2:
            floor_ok = False
        dev = abs(count / ell ** 2 - 2) * math.sqrt(ell)
        if dev > worst_dev:
            worst_dev, at = dev, ell
    ok = ok and floor_ok and worst_dev <= 6
    _line(10, ok, f"2-power blocks exact; lift floor >= ell^2: {floor_ok}; "
                  f"max |ratio-2|*sqrt(ell) = {worst_dev:.3f} at ell = {at} "
                  f"(cap 6)")
    assert ok


def test_criterion_11_curve_counts():
    """G at ell = 5 has exactly 5 points; |N - ell| <= 6 sqrt(ell) + 10
    for G, H(1), H(2) over all primes 5 <= ell <= 2000, under 2 minutes."""
    t0 = time.perf_counter()
    exact5 = curve_point_count(5).count
    worst = -1.0
    at = (0, "")
    for ell in _primes_below(2001):
        if ell < 5:
            continue
        for which, w in (("completed-square", 1), ("sigma-product", 1),
                         ("sigma-product", 2)):
            n = curve_point_count(ell, which, w).count
            slack = abs(n - ell) - (6 * math.sqrt(ell) + 10)
            if slack > worst:
                worst, at = slack, (ell, which)
    dt = time.perf_counter() - t0
    ok = exact5 == 5 and worst <= 0 and dt <= 120
    _line(11, ok, f"G(5) = {exact5}; max(|N-ell| - 6 sqrt(ell) - 10) = "
                  f"{worst:.2f} at {at}; {dt:.1f}s (cap 120s)")
    assert exact5 == 5
    assert worst <= 0
    assert dt <= 120


def test_criterion_12_lsd_convergence():
    """beta = 1, Y = 10: exact/main ratio within [0.90, 1.10] at X = 1e7,
    and the Gamma functional equation holds to 1e-9 on a grid."""
    params = TwistedSumParams(10 ** 7, 10.0, 1.0)
    exact = exact_twisted_sum(params)
    main = lsd_main_term(params)
    ratio = abs(exact / main)
    worst = 0.0
    k = 0
    pts = []
    while len(pts) < 100:
        k += 1
        s = complex(((k * 37) % 101 - 50) / 10.5, ((k * 61) % 97 - 48) / 10.2)
        if abs(s) > 5 or (abs(s.imag) < 0.05 and s.real <= 0.05
                          and abs(s.real - round(s.real)) < 0.05):
            continue
        pts.append(s)
    for s in pts:
        lhs = complex_gamma(s + 1)
        worst = max(worst, abs(lhs - s * complex_gamma(s)) / max(1.0, abs(lhs)))
    ok = 0.90 <= ratio <= 1.10 and worst <= 1e-9
    _line(12, ok, f"ratio at X=1e7: {ratio:.4f} (window [0.90, 1.10]); "
                  f"Gamma functional equation worst rel err = {worst:.2e} "
                  f"(tol 1e-9)")
    assert 0.90 <= ratio <= 1.10
    assert worst <= 1e-9


def test_criterion_13_prime_reciprocal_trend():
    """F = T^2+T+1, q = 7: sum/(log log x) within 0.15 of alpha~(7) = 2/3
    at x = 1e7."""
    m = build_modulus(7)
    val = prime_reciprocal_sum(PolynomialSpec((1, 1, 1)), m, 10 ** 7)
    normalized = val / math.log(math.log(10 ** 7))
    target = float(m.alpha_tilde)
    ok = abs(normalized - target) <= 0.15
    _line(13, ok, f"sum/loglog x = {normalized:.4f}, alpha~(7) = {target:.4f}, "
                  f"|difference| = {abs(normalized - target):.4f} (tol 0.15)")
    assert abs(normalized - target) <= 0.15


def test_criterion_14_witness_oracle_equivalence():
    """Both witness constructions at Y = 5, x = 1e6: the residue-class
    count equals the direct enumeration count exactly."""
    even = overrep_witness_even(5, 10 ** 6)
    sqfree = overrep_witness_sqfree(5, 10 ** 6)
    ok = (even.crt_count == even.direct_count
          and sqfree.crt_count == sqfree.direct_count)
    _line(14, ok, f"even: crt {even.crt_count} vs direct {even.direct_count}; "
                  f"squarefree: crt {sqfree.crt_count} vs direct "
                  f"{sqfree.direct_count}")
    assert even.crt_count == even.direct_count
    assert sqfree.crt_count == sqfree.direct_count


def test_criterion_15_worker_determinism(sieve_engine):
    """Every parallelizable acceptance computation repeated with worker
    counts 1 and 8 yields identical outputs (the remaining criteria use
    sequential code paths that never see a worker count).  The censuses
    run on the segment sieve, the engine that has workers."""
    checks = []

    r1 = census(10 ** 7, build_modulus(5), workers=1)
    r8 = census(10 ** 7, build_modulus(5), workers=8)
    checks.append(("census q=5 x=1e7", r1.counts == r8.counts))

    # Above 2^20, so these scans too run several segments on 8 workers.
    f = CensusFilter.pk_threshold(4, 5)
    c1 = census(3 * 10 ** 6, build_modulus(15), f, workers=1)
    c8 = census(3 * 10 ** 6, build_modulus(15), f, workers=8)
    checks.append(("filtered census q=15", c1.counts == c8.counts))

    w1 = overrep_witness_sqfree(5, 3 * 10 ** 6, workers=1)
    w8 = overrep_witness_sqfree(5, 3 * 10 ** 6, workers=8)
    checks.append(("witness sqfree",
                   (w1.crt_count, w1.direct_count, w1.census_class_count,
                    w1.census_total) == (w8.crt_count, w8.direct_count,
                                         w8.census_class_count,
                                         w8.census_total)))

    ok = all(good for _, good in checks)
    _line(15, ok, "; ".join(f"{name}: {'identical' if good else 'DIFFER'}"
                            for name, good in checks))
    assert ok
