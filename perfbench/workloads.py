"""The three workloads: their inputs, their timed call lists and their checks.

Each workload is three functions:

  params(seed, scale)    sizes for the scale ("full" for measurement,
                         "small" for the self-test) plus what the seed picks;
  ops(lib, p, outdir)    builds the program's inputs (moduli, characters,
                         sieve) and returns the timed call list;
  check(p, out, ck)      compares every output with reference.py.

Labels do not depend on the seed, so rounds and runs line up by label.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Optional

import numpy as np

import reference as ref


@dataclass
class Op:
    label: str
    layer: str  # the sigmalab module the call enters first
    run: Callable[[], Any]
    ok: Callable[[Any], bool] = lambda result: True
    output: Optional[str] = None  # file a CLI command writes
    counts_as_cli: bool = False  # part of cli_s


@dataclass
class CliResult:
    returncode: Any
    stderr: str
    output: Optional[str]


def cli_op(lib, label: str, argv: list[str], output: Optional[str] = None,
           expect_usage_error: bool = False) -> Op:
    """A CLI command run in process, from argv to the closed output file.

    A usage error is expected to return 2 with one line on stderr.
    """
    argv = argv + (["--output", output] if output else [])

    def run() -> CliResult:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = lib.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return CliResult(code, err.getvalue(), output)

    if expect_usage_error:
        ok = lambda r: r.returncode == 2 and len(r.stderr.splitlines()) == 1
    else:
        ok = lambda r: r.returncode == 0
    return Op(label, "cli", run, ok, output, counts_as_cli=not expect_usage_error)


class Checker:
    """Collects failed expectations, one line each."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, label: str, ok: bool, detail: str) -> None:
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def close(self, label: str, got: float, want: float, tol: float) -> None:
        self.expect(label, abs(got - want) <= tol,
                    f"{got!r} differs from reference {want!r} by more than {tol:g}")

    def run(self, label: str, out: dict, fn: Callable[[Any], None]) -> None:
        """Apply one check to one output; a missing output or a check that
        raises is a failure of that output."""
        if label not in out:
            self.expect(label, False, "no output")
            return
        try:
            fn(out[label])
        except Exception as exc:  # a malformed output must fail its check, not the run
            self.expect(label, False, f"check raised {type(exc).__name__}: {exc}")


# --------------------------------------------------------------- census checks

def check_census(ck: Checker, label: str, counts: dict, total: int,
                 discrepancy: float, want: np.ndarray) -> None:
    """counts must list every unit class mod q once, with the reference counts."""
    q = want.shape[0]
    units = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
    keys = np.fromiter(counts.keys(), np.int64, len(counts))
    vals = np.fromiter(counts.values(), np.int64, len(counts))
    same_classes = np.array_equal(np.sort(keys), units)
    ck.expect(label, same_classes,
              f"{len(keys)} classes reported, {len(units)} unit classes mod {q}")
    if same_classes:
        wrong = np.count_nonzero(vals != want[keys])
        ck.expect(label, wrong == 0, f"{wrong} class counts differ from the reference")
    want_total = int(want.sum())
    ck.expect(label, total == want_total, f"total {total} != {want_total}")
    if want_total:
        want_disc = float(np.max(np.abs(want[units] * len(units) / want_total - 1.0)))
        ck.close(label, discrepancy, want_disc, 1e-12 * max(1.0, want_disc))


def check_census_report(ck: Checker, label: str, report, want: np.ndarray) -> None:
    ck.expect(label, report.q == want.shape[0], f"q {report.q} != {want.shape[0]}")
    check_census(ck, label, report.counts, report.total_coprime,
                 report.max_rel_deviation, want)


def check_census_json(ck: Checker, label: str, result: CliResult, x: int,
                      want: np.ndarray) -> None:
    with open(result.output, encoding="utf-8") as fh:
        doc = json.load(fh)
    ck.expect(label, doc["x"] == x and doc["q"] == want.shape[0],
              f"x, q = {doc['x']}, {doc['q']}")
    counts = {int(k): v for k, v in doc["counts"].items()}
    check_census(ck, label, counts, doc["total"], doc["discrepancy"], want)


# ------------------------------------------------------------------------ scan

def scan_params(seed: int, scale: str) -> dict:
    rng = random.Random(seed)
    x = 10**7 if scale == "full" else 10**5
    return {
        "x": x,
        "grid": [x // 100, x // 10, x],
        "beta": 0.5 + 0.5j,
        "lsd_y": 7,
        "pk_threshold": 1000 if scale == "full" else 100,
        "chi_index": rng.randrange(1, 6),  # a nonprincipal character mod 7
    }


SCAN_Q_CLI, SCAN_Q_PK, SCAN_Q_TWIST = 5, 15, 7
SCAN_PSI_Z, SCAN_ROUGH_Y, SCAN_WITNESS_Y = 1000, 100, 7


def scan_ops(lib, p: dict, outdir: str) -> list[Op]:
    x = p["x"]
    m_pk = lib.characters.Modulus(SCAN_Q_PK)
    f_pk = lib.census.CensusFilter.pk_threshold(2, p["pk_threshold"])
    m7 = lib.characters.Modulus(SCAN_Q_TWIST)
    chi = m7.character(p["chi_index"])
    poly = lib.charsums.PolynomialSpec((1, 1, 1))
    sieve = lib.factor.FactorSieve(x)
    C, L, F, V = lib.census, lib.lsd, lib.factor, lib.varieties
    census_argv = ["census", "--x", f"{x:g}", "--q", str(SCAN_Q_CLI)]
    return [
        cli_op(lib, "cli census q=5", census_argv,
               os.path.join(outdir, "census_q5.json")),
        Op("census q=15 P2>1000", "census", lambda: C.census(x, m_pk, f_pk)),
        Op("twisted_partial_sum chi mod 7", "census",
           lambda: C.twisted_partial_sum(x, chi)),
        Op("convergence_scan y=7", "lsd",
           lambda: L.convergence_scan(p["beta"], p["grid"], p["lsd_y"])),
        Op("psi_smooth_count z=1000", "factor",
           lambda: F.psi_smooth_count(x, SCAN_PSI_Z, sieve)),
        Op("rough_count y=100", "factor", lambda: F.rough_count(x, SCAN_ROUGH_Y, sieve)),
        Op("overrep_witness_sqfree y=7", "varieties",
           lambda: V.overrep_witness_sqfree(SCAN_WITNESS_Y, x)),
        Op("prime_reciprocal_sum T^2+T+1 q=7", "census",
           lambda: C.prime_reciprocal_sum(poly, m7, x)),
        # Kept failing: both escape main() as tracebacks instead of exit 2.
        cli_op(lib, "cli census --x inf", ["census", "--x", "inf", "--q", "5"],
               expect_usage_error=True),
        cli_op(lib, "cli census --x -5", ["census", "--x", "-5", "--q", "5"],
               expect_usage_error=True),
    ]


def scan_check(p: dict, out: dict, ck: Checker) -> None:
    x = p["x"]
    sig = ref.sigma_upto(x)[1:]  # index i holds n = i + 1
    is_prime = ref.prime_mask(x)
    n = np.arange(1, x + 1, dtype=np.int64)

    def two_factors_above(t: int) -> np.ndarray:
        rest = ref.rough_cofactor(x, t)[1:]
        return (rest > 1) & ~is_prime[rest]

    ck.run("cli census q=5", out, lambda r: check_census_json(
        ck, "cli census q=5", r, x, ref.unit_counts(sig, SCAN_Q_CLI)))
    ck.run("census q=15 P2>1000", out, lambda r: check_census_report(
        ck, "census q=15 P2>1000", r,
        ref.unit_counts(sig[two_factors_above(p["pk_threshold"])], SCAN_Q_PK)))

    def twisted(value: complex) -> None:
        g = ref.UnitGroup(SCAN_Q_TWIST)
        counts = ref.unit_counts(sig, SCAN_Q_TWIST).astype(np.float64)
        want = g.transform(counts)[p["chi_index"]]
        ck.close("twisted_partial_sum chi mod 7", abs(value - want), 0.0, 1e-9 * x)
    ck.run("twisted_partial_sum chi mod 7", out, twisted)

    def convergence(rows) -> None:
        label = "convergence_scan y=7"
        y, beta = p["lsd_y"], p["beta"]
        omega = ref.omega_upto(x)[1:]
        rough = np.gcd(n, math.prod(int(q) for q in ref.primes_upto(y))) == 1
        ck.expect(label, [r.params.x for r in rows] == p["grid"], "x grid differs")
        for r, xi in zip(rows, p["grid"]):
            hist = np.bincount(omega[:xi][rough[:xi]])
            ck.expect(label, hist[0] == 1, f"N_0 = {hist[0]} at x = {xi}")
            primes_above_y = int(is_prime[y + 1 : xi + 1].sum())
            ck.expect(label, hist[1] == primes_above_y,
                      f"N_1 = {hist[1]} != pi(x) - pi(y) = {primes_above_y} at x = {xi}")
            legendre = ref.legendre_rough_count(xi, y)
            ck.expect(label, hist.sum() == legendre,
                      f"sum N_k = {hist.sum()} != {legendre} at x = {xi}")
            exact = sum(int(c) * beta**k for k, c in enumerate(hist))
            ck.close(label, abs(r.exact - exact), 0.0, 1e-9 * xi)
            main = ref.lsd_main_term(xi, y, beta)
            ck.close(label, abs(r.main_term - main) / abs(main), 0.0, 1e-9)
            ck.close(label, abs(r.ratio - r.exact / r.main_term), 0.0, 1e-12)
    ck.run("convergence_scan y=7", out, convergence)

    ck.run("psi_smooth_count z=1000", out, lambda v: ck.expect(
        "psi_smooth_count z=1000",
        v == int(np.count_nonzero(ref.rough_cofactor(x, SCAN_PSI_Z)[1:] == 1)),
        f"count {v} differs from the reference"))
    ck.run("rough_count y=100", out, lambda v: ck.expect(
        "rough_count y=100", v == ref.legendre_rough_count(x, SCAN_ROUGH_Y),
        f"count {v} differs from Legendre's sum"))

    def witness(r) -> None:
        label = "overrep_witness_sqfree y=7"
        q = 2 * math.prod(int(v) for v in ref.primes_upto(SCAN_WITNESS_Y) if v >= 5)
        ps = ref.primes_upto(math.isqrt(x))
        ps = ps[ps**4 > x]
        want = int(np.count_nonzero((ps * ps + ps + 1) % q == 3 % q))
        ck.expect(label, r.q == q and r.witness_class == 3 % q,
                  f"q, class = {r.q}, {r.witness_class}")
        ck.expect(label, r.crt_count == r.direct_count == r.witness_count == want,
                  f"crt {r.crt_count}, direct {r.direct_count}, witnesses "
                  f"{r.witness_count}; reference prime count {want}")
        counts = ref.unit_counts(sig[two_factors_above(q)], q)
        ck.expect(label, r.census_class_count == counts[3 % q]
                  and r.census_total == counts.sum(),
                  f"census class {r.census_class_count} / total {r.census_total}, "
                  f"reference {counts[3 % q]} / {counts.sum()}")
    ck.run("overrep_witness_sqfree y=7", out, witness)

    def recip(v: float) -> None:
        ps = ref.primes_upto(x)
        want = math.fsum(1.0 / ps[(ps * ps + ps + 1) % SCAN_Q_TWIST != 0])
        ck.close("prime_reciprocal_sum T^2+T+1 q=7", v, want, 1e-12 * want)
    ck.run("prime_reciprocal_sum T^2+T+1 q=7", out, recip)


# ------------------------------------------------------------------------ bigq

def bigq_params(seed: int, scale: str) -> dict:
    rng = random.Random(seed)
    x = 10**7 if scale == "full" else 10**5
    return {
        "x": x,
        # primes just below x and x / 10
        "q_lib": rng.choice(ref.primes_between(x - max(x // 1000, 100), x)),
        "q_cli": rng.choice(ref.primes_between(x // 10 - max(x // 10000, 100), x // 10)),
        "workers": 2,
    }


def bigq_ops(lib, p: dict, outdir: str) -> list[Op]:
    x, workers = p["x"], p["workers"]
    m = lib.characters.Modulus(p["q_lib"])
    argv = ["census", "--x", f"{x:g}", "--q", str(p["q_cli"]),
            "--workers", str(workers)]
    # The CLI command goes first, so that it runs in a process as fresh as a
    # shell user's, not in the heap the 10^7-class census leaves behind.
    return [
        cli_op(lib, "cli census q~x/10 workers=2", argv,
               os.path.join(outdir, "census_bigq.json")),
        Op("census q~x workers=2", "census",
           lambda: lib.census.census(x, m, workers=workers)),
    ]


def bigq_check(p: dict, out: dict, ck: Checker) -> None:
    x = p["x"]
    sig = ref.sigma_upto(x)[1:]
    ck.run("census q~x workers=2", out, lambda r: check_census_report(
        ck, "census q~x workers=2", r, ref.unit_counts(sig, p["q_lib"])))
    ck.run("cli census q~x/10 workers=2", out, lambda r: check_census_json(
        ck, "cli census q~x/10 workers=2", r, x, ref.unit_counts(sig, p["q_cli"])))


# --------------------------------------------------------------------- charsum

def charsum_params(seed: int, scale: str) -> dict:
    rng = random.Random(seed)
    full = scale == "full"
    q_v = 17303  # 11^3 * 13
    return {
        "q_table": rng.choice(ref.primes_between(3990, 4030) if full
                              else ref.primes_between(390, 410)),
        "q_rho": 5005 if full else 455,
        "q_eta": 10010 if full else 910,
        "weil": (7, 5) if full else (7, 3),
        "q_pow": 3001 if full else 307,
        "q_v": q_v,
        "w": rng.choice([w for w in range(1, q_v) if math.gcd(w, q_v) == 1]),
        "lift_below": 300 if full else 50,
        "curve_below": 2000 if full else 200,
    }


CURVES = (("completed-square", 1), ("sigma-product", 1), ("sigma-product", 2))
LIFT_BRUTE_BELOW, CURVE_BRUTE_BELOW = 48, 200


def charsum_ops(lib, p: dict, outdir: str) -> list[Op]:
    Mod, S, V = lib.characters.Modulus, lib.charsums, lib.varieties
    m_table, m_rho, m_eta = Mod(p["q_table"]), Mod(p["q_rho"]), Mod(p["q_eta"])
    m_pow, m_v = Mod(p["q_pow"]), Mod(p["q_v"])
    lift_ells = ref.primes_between(5, p["lift_below"])
    curve_ells = ref.primes_between(5, p["curve_below"])
    return [
        Op("rho_table q~4000", "charsums", lambda: S.rho_table(m_table)),
        cli_op(lib, "cli eta-table q~4000", ["eta-table", "--q", str(p["q_table"])],
               os.path.join(outdir, "eta_table.json")),
        Op("rho_table q=5005", "charsums", lambda: S.rho_table(m_rho)),
        Op("eta_table q=10010", "charsums", lambda: S.eta_table(m_eta)),
        Op("weil_clz_check 7^5", "charsums", lambda: S.weil_clz_check(*p["weil"])),
        Op("verify_s_set", "charsums", lambda: S.verify_s_set()),
        Op("eta_power_sum q=3001", "charsums", lambda: S.eta_power_sum(m_pow)),
        Op("v_count q=17303", "varieties", lambda: V.v_count(m_v, p["w"], 3)),
        Op("lift_count ell<300", "varieties",
           lambda: [(ell, V.lift_count_mod_ell_squared(ell)) for ell in lift_ells]),
        Op("curve_point_count ell<2000", "varieties",
           lambda: [V.curve_point_count(ell, which, w)
                    for ell in curve_ells for which, w in CURVES]),
    ]


def check_table(ck: Checker, label: str, rows: list, q: int, kind: str) -> None:
    """Rows (index, exponents, order, conductor, value) against the FFT
    reference, plus the sum, Parseval and prime-modulus identities."""
    g = ref.UnitGroup(q)
    poly = ref.shifted if kind == "rho" else ref.quadratic
    want = ref.rho_values(q) if kind == "rho" else ref.eta_values(q)
    ck.expect(label, len(rows) == g.phi, f"{len(rows)} rows, phi(q) = {g.phi}")
    if len(rows) != g.phi:
        return
    bad = [r.index for i, r in enumerate(rows)
           if r.index != i or list(r.exponents) != g.exponents(i)
           or (r.order, r.conductor) != g.order_and_conductor(i)]
    ck.expect(label, not bad, f"index, exponents, order or conductor wrong at {bad[:5]}")
    values = np.array([r.value for r in rows], dtype=np.complex128)
    worst = float(np.abs(values - want).max())
    ck.close(label, worst, 0.0, 1e-9)
    counts = g.value_counts(poly)
    # the sum over chi of chi(a) is phi for a = 1 and 0 for every other a
    ck.close(label, abs(values.sum() - counts[1]), 0.0, 1e-9)
    ck.close(label, float(np.sum(np.abs(values) ** 2)),
             float(np.sum(counts.astype(np.float64) ** 2)) / g.phi, 1e-9)
    if kind == "rho" and len(ref.factorize(q)) == 1 and q % 2:
        ck.close(label, float(np.abs(values[1:] + 1 / (q - 1)).max()), 0.0, 1e-12)


@dataclass
class _Row:
    index: int
    exponents: list
    order: int
    conductor: int
    value: complex


def table_rows_from_json(result: CliResult) -> list:
    with open(result.output, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [_Row(r["index"], r["exponents"], r["order"], r["conductor"],
                 complex(r["value"]["re"], r["value"]["im"])) for r in doc["rows"]]


def charsum_check(p: dict, out: dict, ck: Checker) -> None:
    qt = p["q_table"]
    ck.run("rho_table q~4000", out, lambda rows: check_table(
        ck, "rho_table q~4000", rows, qt, "rho"))
    ck.run("cli eta-table q~4000", out, lambda r: check_table(
        ck, "cli eta-table q~4000", table_rows_from_json(r), qt, "eta"))
    ck.run("rho_table q=5005", out, lambda rows: check_table(
        ck, "rho_table q=5005", rows, p["q_rho"], "rho"))
    ck.run("eta_table q=10010", out, lambda rows: check_table(
        ck, "eta_table q=10010", rows, p["q_eta"], "eta"))

    def weil(r) -> None:
        label = "weil_clz_check 7^5"
        ell, e = p["weil"]
        num, max_abs = ref.weil_max(ell, e)
        ck.expect(label, r.num_primitive == num == ref.phi(ell**e) - ref.phi(ell ** (e - 1)),
                  f"num_primitive {r.num_primitive}, reference {num}")
        ck.close(label, r.max_abs, max_abs, 1e-9 * max_abs)
        bound = math.sqrt(ell**e)
        ck.expect(label, r.max_abs <= bound * (1 + 1e-9) and r.all_within,
                  f"max |S| = {r.max_abs} against the bound {bound}")
    ck.run("weil_clz_check 7^5", out, weil)

    def s_set(r) -> None:
        label = "verify_s_set"
        conductors = [row.conductor for row in r.rows]
        want = ref.s_set_rows(conductors)
        ck.expect(label, len(conductors) == 18, f"{len(conductors)} conductors")
        for row in r.rows:
            num, best = want[row.conductor]
            denom = math.prod((ell - 3) if ell % 3 == 1 else (ell - 1)
                              for ell, _ in ref.factorize(row.conductor))
            ck.expect(label, row.num_primitive == num and row.denominator == denom,
                      f"Q = {row.conductor}: {row.num_primitive} primitive, "
                      f"denominator {row.denominator}")
            ck.close(label, row.max_re_sum, best, 1e-9)
            ck.close(label, row.normalized, best / denom, 1e-12)
        ck.expect(label, tuple(r.attaining) == (5, 7, 13, 35),
                  f"attained on {r.attaining}")
        ck.close(label, r.global_max, 0.25, 1e-12)
        ck.expect(label, r.within_quarter, "reports a violation")
    ck.run("verify_s_set", out, s_set)

    def eta_power(v: float) -> None:
        want = float(np.sum(np.abs(ref.eta_values(p["q_pow"])[1:]) ** 3))
        ck.close("eta_power_sum q=3001", v, want, 1e-9 * want)
    ck.run("eta_power_sum q=3001", out, eta_power)

    def v_count(r) -> None:
        want = math.prod(ref.block_tuple_count(ell**e, ell, p["w"] % ell**e, 3)
                         for ell, e in ref.factorize(p["q_v"]))
        ck.expect("v_count q=17303", (r.q, r.w, r.arity, r.count) == (p["q_v"], p["w"], 3, want),
                  f"count {r.count}, reference {want}")
    ck.run("v_count q=17303", out, v_count)

    def lifts(pairs) -> None:
        label = "lift_count ell<300"
        ck.expect(label, [ell for ell, _ in pairs] == ref.primes_between(5, p["lift_below"]),
                  "wrong primes")
        for ell, count in pairs:
            dev = abs(count / ell**2 - 2) * math.sqrt(ell)
            ck.expect(label, count >= ell**2 and dev <= 6,
                      f"ell = {ell}: count {count} outside the criterion-10 window")
            if ell < LIFT_BRUTE_BELOW:
                brute = ref.lift_count_brute(ell)
                ck.expect(label, count == brute, f"ell = {ell}: {count} != brute {brute}")
    ck.run("lift_count ell<300", out, lifts)

    def curves(results) -> None:
        label = "curve_point_count ell<2000"
        want = [(ell, which, w) for ell in ref.primes_between(5, p["curve_below"])
                for which, w in CURVES]
        ck.expect(label, len(results) == len(want), f"{len(results)} counts")
        for r, (ell, which, w) in zip(results, want):
            ck.expect(label, (r.ell, r.which) == (ell, which), f"order differs at {ell}")
            ck.expect(label, abs(r.count - ell) <= 6 * math.sqrt(ell) + 10,
                      f"ell = {ell} {which}: {r.count} outside the criterion-11 window")
            if ell < CURVE_BRUTE_BELOW:
                brute = ref.curve_count_brute(ell, which, w)
                ck.expect(label, r.count == brute,
                          f"ell = {ell} {which} w={w}: {r.count} != brute {brute}")
    ck.run("curve_point_count ell<2000", out, curves)


WORKLOADS = {
    "scan": SimpleNamespace(params=scan_params, ops=scan_ops, check=scan_check),
    "bigq": SimpleNamespace(params=bigq_params, ops=bigq_ops, check=bigq_check),
    "charsum": SimpleNamespace(params=charsum_params, ops=charsum_ops, check=charsum_check),
}
