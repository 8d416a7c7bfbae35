"""Command-line front end.

Every subcommand is a thin, deterministic wrapper over one library
operation: parse flags, run, emit JSON (default) or CSV.  There is no
randomness anywhere, so identical flags and tool version produce
byte-identical output; the worker count only changes wall time, never
bytes.  Numeric flags accept scientific notation (--x 1e7).

Exit codes: 0 success, 1 a verification-style subcommand found a
violation (weil-check, verify-s-set, witness mismatch), 2 bad usage or
an argument out of range (one line on stderr), 3 a resource budget was
exceeded.  The memory budget defaults to 2·10⁹ bytes and can be
overridden by --memory-budget or the SIGMALAB_MEMORY_BUDGET environment
variable (flag wins).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from . import __version__
from .census import (
    CensusFilter,
    census,
    prime_reciprocal_sum,
    twisted_partial_sum,
)
from .characters import Modulus
from .charsums import (
    PolynomialSpec,
    alpha_F,
    eta_table,
    rho_table,
    verify_s_set,
    weil_clz_check,
)
from .errors import OutOfRangeError, ResourceBudgetError, UnsupportedModulusError
from .factor import DEFAULT_MEMORY_BUDGET
from .lsd import (
    TwistedSumParams,
    convergence_scan,
    g_one_euler_product,
)
from .varieties import (
    curve_point_count,
    lift_count_mod_ell_squared,
    overrep_witness_even,
    overrep_witness_sqfree,
    v_count,
)

ENV_MEMORY_BUDGET = "SIGMALAB_MEMORY_BUDGET"


def _parse_int(text: str) -> int:
    """Integer flag value; scientific notation like 1e7 is accepted."""
    try:
        return int(text, 10)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    rounded = int(round(value))
    if abs(value - rounded) > 1e-6 * max(1.0, abs(value)):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return rounded


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"not a complex number: {text!r} (use forms like 0.5 or 0.3+0.4j)"
        ) from exc


def _parse_int_list(text: str) -> list[int]:
    try:
        return [_parse_int(part) for part in text.split(",") if part.strip()]
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"bad list {text!r}: {exc}") from exc


def _json_safe(value: Any) -> Any:
    """Recursive conversion to strict-JSON-serializable values."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, Fraction):
        return {"numerator": value.numerator, "denominator": value.denominator,
                "float": float(value)}
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float):
        return None if math.isnan(value) else value
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    return value


def _config_echo(args: argparse.Namespace) -> dict[str, Any]:
    """Flag echo for reproducibility; workers and output path excluded
    (neither influences the computed bytes)."""
    skip = {"func", "output", "workers", "command"}
    echo = {}
    for key, value in vars(args).items():
        if key in skip or callable(value) or value is None:
            continue
        if isinstance(value, complex):
            value = repr(value)[1:-1] if repr(value).startswith("(") else repr(value)
        echo[key] = value
    return echo


class _IntMap:
    """A payload mapping {str(k): v} held as two int64 arrays.

    The JSON writer lays it out itself, chunk by chunk, exactly as
    json.dumps(sort_keys=True, indent=2) would at the top level of the
    document, so a map over millions of classes never becomes a dict.
    """

    LINE = '    "%d": %d'
    CHUNK = 1 << 14

    def __init__(self, keys: np.ndarray, values: np.ndarray) -> None:
        self.keys = keys
        self.values = values

    def _string_order(self) -> np.ndarray:
        """Indices sorting the keys (residues, 0 <= k < 10^18) as their
        decimal strings sort: by the digits padded on the right to a
        common width, then by length, so "1" < "10" < "100" < "11" < "2".
        Ten times faster than sorting keys.astype(str)."""
        keys = self.keys
        digits = np.ones(keys.shape, np.int64)
        for power in range(1, 18):
            digits += keys >= 10**power
        padded = keys * 10 ** (int(digits.max()) - digits)
        return np.lexsort((digits, padded))

    def write_json(self, stream) -> None:
        if self.keys.size == 0:
            stream.write("{}")
            return
        order = self._string_order()
        stream.write("{\n")
        for start in range(0, order.shape[0], self.CHUNK):
            idx = order[start : start + self.CHUNK]
            pairs = np.stack((self.keys[idx], self.values[idx]), axis=1).ravel()
            if start:
                stream.write(",\n")
            stream.write(",\n".join([self.LINE] * idx.shape[0]) % tuple(pairs.tolist()))
        stream.write("\n  }")


class _Output:
    """Writer for one run: JSON object or commented CSV."""

    def __init__(self, args: argparse.Namespace, command: str) -> None:
        self.fmt = getattr(args, "format", "json")
        self.path = getattr(args, "output", None)
        self.command = command
        self.config = _config_echo(args)

    def _open(self):
        if self.path:
            return open(self.path, "w", newline="", encoding="utf-8")
        return sys.stdout

    def write(self, payload: dict[str, Any], header: Sequence[str],
              rows: Iterable[Sequence[Any]], description: str) -> None:
        """Top-level _IntMap payload values appear in JSON only; rows are
        consumed only for CSV."""
        stream = self._open()
        try:
            if self.fmt == "json":
                doc = {
                    "tool": "sigmalab",
                    "version": __version__,
                    "command": self.command,
                    "config": _json_safe(self.config),
                }
                maps = {k: v for k, v in payload.items() if isinstance(v, _IntMap)}
                doc.update(_json_safe({k: v for k, v in payload.items() if k not in maps}))
                # A NUL-led string marks each map's place; no flag value can
                # hold a NUL character.
                doc.update({k: "\0" + k for k in maps})
                text = json.dumps(doc, sort_keys=True, indent=2)
                for key in sorted(maps):
                    head, text = text.split(json.dumps("\0" + key), 1)
                    stream.write(head)
                    maps[key].write_json(stream)
                stream.write(text)
                stream.write("\n")
            else:
                cfg = " ".join(f"{k}={v}" for k, v in sorted(self.config.items()))
                stream.write(f"# sigmalab {__version__} {self.command}: "
                             f"{description} [{cfg}]\r\n")
                writer = csv.writer(stream)
                writer.writerow(header)
                for row in rows:
                    writer.writerow(["" if v is None else v for v in row])
        finally:
            if self.path:
                stream.close()


def _add_common(parser: argparse.ArgumentParser, parallel: bool = False) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    parser.add_argument("--output", metavar="PATH",
                        help="write to a file instead of stdout")
    parser.add_argument("--memory-budget", type=_parse_int, default=None,
                        metavar="BYTES",
                        help="cap on internal table allocations "
                             f"(default {DEFAULT_MEMORY_BUDGET}, env {ENV_MEMORY_BUDGET})")
    if parallel:
        parser.add_argument("--workers", type=_parse_int, default=1,
                            help="parallel segment workers (same output for any value)")
        parser.add_argument("--segment-length", type=_parse_int, default=None,
                            help="sieve segment length")


def _budget(args: argparse.Namespace) -> int:
    if getattr(args, "memory_budget", None) is not None:
        return args.memory_budget
    env = os.environ.get(ENV_MEMORY_BUDGET)
    if env:
        try:
            return _parse_int(env)
        except argparse.ArgumentTypeError:
            raise ResourceBudgetError(
                f"cannot parse {ENV_MEMORY_BUDGET}={env!r} as a byte count")
    return DEFAULT_MEMORY_BUDGET


def _modulus(args: argparse.Namespace, q: Optional[int] = None) -> Modulus:
    # Residue tables, unit masks, and class counters cost roughly 64
    # bytes per residue class across the pipeline.
    return Modulus(q if q is not None else args.q, modulus_cap=_budget(args) // 64)


def _add_filter(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--filter", choices=("all", "coprime-only", "pk-threshold"),
                        default="all")
    parser.add_argument("--k", type=_parse_int, default=None,
                        help="which largest prime factor (pk-threshold filter)")
    parser.add_argument("--threshold", type=_parse_int, default=None,
                        help="lower bound it must exceed (pk-threshold filter)")


def _census_filter(args: argparse.Namespace) -> CensusFilter:
    """The --filter flags as a CensusFilter; a missing or invalid --k or
    --threshold is a usage error (ArgumentTypeError, exit 2 in main)."""
    if args.filter == "pk-threshold":
        if args.k is None or args.threshold is None:
            raise argparse.ArgumentTypeError(
                "--filter pk-threshold needs --k and --threshold")
        try:
            return CensusFilter.pk_threshold(args.k, args.threshold)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    if args.filter == "coprime-only":
        return CensusFilter.coprime_only()
    return CensusFilter.all_integers()


def _complex_fields(z: complex) -> dict[str, float]:
    return {"re": z.real, "im": z.imag, "abs": abs(z)}


# ---------------------------------------------------------------- census

def _cmd_census(args: argparse.Namespace) -> int:
    m = _modulus(args)
    f = _census_filter(args)
    report = census(args.x, m, f, segment_length=args.segment_length,
                    workers=args.workers)
    total = report.total_coprime
    disc = report.max_rel_deviation if total > 0 else None
    phi = len(report.counts)
    payload = {
        "x": report.x,
        "q": report.q,
        "filter": {"kind": f.kind, "k": f.k, "threshold": f.threshold},
        "counts": _IntMap(report.counts.key_array, report.counts.value_array),
        "total": total,
        "mean": report.mean if total > 0 else None,
        "discrepancy": disc,
        "alpha": report.alpha,
        "alpha_tilde": report.alpha_tilde,
        "exponent_used": report.exponent_used,
    }
    rows = ([a, c, c / total if total else None,
             (c * phi / total - 1.0) if total else None]
            for a, c in report.counts.items())
    out = _Output(args, "census")
    out.write(payload, ["class", "count", "share", "rel_deviation"], rows,
              f"classes of sigma(n) mod {report.q} among units, n <= {report.x}, "
              f"filter {f.describe()}")
    return 0


# ----------------------------------------------------------- twisted-sum

def _cmd_twisted_sum(args: argparse.Namespace) -> int:
    m = _modulus(args)
    chi = m.character(args.index)
    f = _census_filter(args)
    value = twisted_partial_sum(args.x, chi, f, segment_length=args.segment_length,
                                workers=args.workers)
    logx = math.log(args.x) if args.x > 1 else float("nan")
    normalized = abs(value) * logx / args.x if args.x > 1 else None
    payload = {
        "x": args.x,
        "q": m.q,
        "character": {
            "index": chi.index,
            "exponents": list(chi.exponents),
            "order": chi.order,
            "conductor": chi.conductor,
            "principal": chi.is_principal,
        },
        "sum": _complex_fields(value),
        "normalized_abs": normalized,
        "filter": {"kind": f.kind, "k": f.k, "threshold": f.threshold},
    }
    rows = [[args.x, m.q, chi.index, value.real, value.imag, abs(value), normalized]]
    out = _Output(args, "twisted-sum")
    out.write(payload, ["x", "q", "index", "re_sum", "im_sum", "abs_sum",
                        "abs_times_logx_over_x"], rows,
              f"sum of chi(sigma(n)) over n <= {args.x}, chi #{chi.index} mod {m.q}")
    return 0


# ------------------------------------------------------------ rho / eta

def _cmd_character_table(args: argparse.Namespace) -> int:
    m = _modulus(args)
    rho = args.command == "rho-table"
    table = rho_table(m) if rho else eta_table(m)
    rows = []
    json_rows = []
    for row in table:
        value = row.value
        rows.append([row.index, ";".join(str(e) for e in row.exponents),
                     row.order, row.conductor, value.real, value.imag, abs(value)])
        json_rows.append({
            "index": row.index,
            "exponents": list(row.exponents),
            "order": row.order,
            "conductor": row.conductor,
            "value": _complex_fields(value),
        })
    payload = {"q": m.q, "phi": m.phi, "rows": json_rows,
               "alpha": m.alpha, "alpha_tilde": m.alpha_tilde}
    label = ("mean of chi(v+1) over units v" if rho
             else "mean of chi(v^2+v+1) over units v")
    out = _Output(args, args.command)
    out.write(payload, ["index", "exponents", "order", "conductor",
                        "re", "im", "abs"], rows,
              f"{label}, all characters mod {m.q}")
    return 0


# --------------------------------------------------------- verify-s-set

def _cmd_verify_s_set(args: argparse.Namespace) -> int:
    m = _modulus(args) if args.q is not None else None
    report = verify_s_set(m)
    rows = [[r.conductor, r.denominator, r.num_primitive, r.max_re_sum,
             r.normalized, r.attains_quarter] for r in report.rows]
    payload = {
        "rows": [{
            "conductor": r.conductor,
            "denominator": r.denominator,
            "num_primitive": r.num_primitive,
            "max_re_sum": r.max_re_sum,
            "normalized": r.normalized,
            "attains_quarter": r.attains_quarter,
        } for r in report.rows],
        "global_max": report.global_max,
        "within_quarter": report.within_quarter,
        "attaining": list(report.attaining),
        "restricted_to_divisors_of": report.restricted_to_divisors_of,
    }
    out = _Output(args, "verify-s-set")
    out.write(payload, ["conductor", "denominator", "num_primitive",
                        "max_re_sum", "normalized", "attains_quarter"], rows,
              "normalized maxima of Re sum of psi(v^2+v+1) over the "
              "exceptional conductors")
    return 0 if report.within_quarter else 1


# ------------------------------------------------------------ weil-check

def _cmd_weil_check(args: argparse.Namespace) -> int:
    report = weil_clz_check(args.ell, args.e)
    payload = {
        "ell": report.ell,
        "e": report.e,
        "modulus": report.modulus,
        "bound": report.bound,
        "num_primitive": report.num_primitive,
        "max_abs": report.max_abs,
        "max_ratio": report.max_ratio,
        "worst_index": report.worst_index,
        "all_within": report.all_within,
    }
    rows = [[report.ell, report.e, report.modulus, report.bound,
             report.num_primitive, report.max_abs, report.max_ratio,
             report.all_within]]
    out = _Output(args, "weil-check")
    out.write(payload, ["ell", "e", "modulus", "bound", "num_primitive",
                        "max_abs", "max_ratio", "all_within"], rows,
              f"square-root cancellation of complete sums of chi(v^2+v+1) "
              f"mod {args.ell}^{args.e}")
    return 0 if report.all_within else 1


# -------------------------------------------------------------- lsd-scan

def _cmd_lsd_scan(args: argparse.Namespace) -> int:
    results = convergence_scan(args.beta, args.x_grid, args.y,
                               segment_length=args.segment_length,
                               workers=args.workers)
    rows = []
    json_rows = []
    for r in results:
        rows.append([r.params.x, r.params.y, r.params.beta.real,
                     r.params.beta.imag, r.exact.real, r.exact.imag,
                     r.main_term.real, r.main_term.imag,
                     abs(r.ratio) if r.ratio is not None else None])
        json_rows.append({
            "x": r.params.x,
            "y": r.params.y,
            "beta": _complex_fields(r.params.beta),
            "exact": _complex_fields(r.exact),
            "main_term": _complex_fields(r.main_term),
            "ratio": _complex_fields(r.ratio) if r.ratio is not None else None,
            "meets_size_hypothesis": r.params.meets_size_hypothesis,
        })
    payload = {"rows": json_rows}
    out = _Output(args, "lsd-scan")
    out.write(payload, ["x", "y", "re_beta", "im_beta", "re_exact", "im_exact",
                        "re_main", "im_main", "abs_ratio"], rows,
              "exact twisted rough sums against their asymptotic main terms")
    return 0


# ------------------------------------------------------------------ g-one

def _cmd_g_one(args: argparse.Namespace) -> int:
    result = g_one_euler_product(args.y, args.beta, args.p_max)
    payload = {
        "y": result.y,
        "beta": _complex_fields(result.beta),
        "p_max": result.p_max,
        "value": _complex_fields(result.value),
        "tail_estimate": result.tail_estimate,
    }
    rows = [[result.y, result.beta.real, result.beta.imag, result.p_max,
             result.value.real, result.value.imag, result.tail_estimate]]
    out = _Output(args, "g-one")
    out.write(payload, ["y", "re_beta", "im_beta", "p_max", "re_value",
                        "im_value", "tail_estimate"], rows,
              "Euler product (1-1/p)^beta [p<=y] * (1-1/p)^beta/(1-beta/p) [p>y]")
    return 0


# ----------------------------------------------------------------- counts

def _cmd_v_count(args: argparse.Namespace) -> int:
    m = _modulus(args)
    result = v_count(m, args.w, args.arity, work_budget=_budget(args) // 8)
    payload = {"q": result.q, "w": result.w, "arity": result.arity,
               "count": result.count, "phi": m.phi}
    rows = [[result.q, result.w, result.arity, result.count]]
    out = _Output(args, "v-count")
    out.write(payload, ["q", "w", "arity", "count"], rows,
              f"unit tuples with product of v_j^2+v_j+1 hitting {result.w} mod {result.q}")
    return 0


def _cmd_lift_count(args: argparse.Namespace) -> int:
    count = lift_count_mod_ell_squared(args.ell)
    pp = args.ell * args.ell
    target = 9 * pow(16, -1, pp) % pp
    payload = {"ell": args.ell, "modulus": pp, "target": target,
               "count": count, "count_over_ell_squared": count / pp}
    rows = [[args.ell, pp, target, count, count / pp]]
    out = _Output(args, "lift-count")
    out.write(payload, ["ell", "modulus", "target", "count",
                        "count_over_ell_squared"], rows,
              f"unit pairs mod {args.ell}^2 whose sigma-product hits 9/16")
    return 0


def _cmd_curve_count(args: argparse.Namespace) -> int:
    result = curve_point_count(args.ell, args.which, args.w)
    deviation = (result.count - result.ell) / math.sqrt(result.ell)
    payload = {
        "ell": result.ell,
        "which": result.which,
        "w": result.w,
        "count": result.count,
        "deviation_over_sqrt_ell": deviation,
        "bound_certified": result.bound_certified,
    }
    rows = [[result.ell, result.which, result.w, result.count, deviation,
             result.bound_certified]]
    out = _Output(args, "curve-count")
    out.write(payload, ["ell", "which", "w", "count", "deviation_over_sqrt_ell",
                        "bound_certified"], rows,
              "exact point count of the witness curve over F_ell")
    return 0


# --------------------------------------------------------------- witnesses

# Per witness subcommand: the library construction and the CSV description.
_WITNESSES = {
    "witness-even": (overrep_witness_even, "n = (P1*P2)^2 concentrating in one class "
                                           "of sigma(n) mod 2*(prod ell)^2"),
    "witness-sqfree": (overrep_witness_sqfree, "prime squares concentrating in class 3 "
                                               "of sigma(n) mod 2*prod ell"),
}


def _cmd_witness(args: argparse.Namespace) -> int:
    construct, description = _WITNESSES[args.command]
    report = construct(args.y, args.x, segment_length=args.segment_length,
                       workers=args.workers)
    payload = {
        "kind": report.kind,
        "q": report.q,
        "Y": report.y_cut,
        "x": report.x,
        "witness_class": report.witness_class,
        "witness_count": report.witness_count,
        "crt_count": report.crt_count,
        "direct_count": report.direct_count,
        "routes_agree": report.crt_count == report.direct_count,
        "num_prime_classes": report.num_prime_classes,
        "census_class_count": report.census_class_count,
        "census_total": report.census_total,
        "mean_count": report.mean_count,
        "ratio": report.ratio,
        "census_note": report.census_note,
    }
    rows = [[report.q, report.y_cut, report.x, report.witness_class,
             report.witness_count, report.crt_count, report.direct_count,
             report.census_class_count, report.census_total,
             report.mean_count, report.ratio]]
    out = _Output(args, args.command)
    out.write(payload, ["q", "Y", "x", "witness_class", "witness_count", "crt_count",
                        "direct_count", "census_class_count", "census_total",
                        "mean_count", "ratio"], rows, description)
    return 0 if report.crt_count == report.direct_count else 1


# -------------------------------------------------------------- prime-recip

def _cmd_prime_recip(args: argparse.Namespace) -> int:
    m = _modulus(args)
    poly = PolynomialSpec(tuple(args.coeffs))
    value = prime_reciprocal_sum(poly, m, args.x)
    loglog = math.log(math.log(args.x))
    density = alpha_F(poly, m)
    payload = {
        "x": args.x,
        "q": m.q,
        "polynomial": str(poly),
        "sum": value,
        "loglog_x": loglog,
        "sum_over_loglog_x": value / loglog if loglog > 0 else None,
        "unit_density": density,
    }
    rows = [[args.x, m.q, str(poly), value, loglog,
             value / loglog if loglog > 0 else None, float(density)]]
    out = _Output(args, "prime-recip")
    out.write(payload, ["x", "q", "polynomial", "sum", "loglog_x",
                        "sum_over_loglog_x", "unit_density"], rows,
              f"sum of 1/p over p <= {args.x} with {poly} coprime to {m.q}")
    return 0


# ------------------------------------------------------------------- main

class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line, without the usage block, exit 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sigmalab",
        description="Exact censuses of sigma(n) in residue classes, character "
                    "averages over shifted and quadratic arguments, rough-number "
                    "main terms, and the congruence point counts behind "
                    "over-represented classes.")
    parser.add_argument("--version", action="version",
                        version=f"sigmalab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="count sigma(n) mod q over unit classes",
                       description="Counts n <= x by the class of sigma(n) "
                                   "among the units mod q, under an optional "
                                   "filter, and reports the deviation from "
                                   "perfect uniformity.")
    p.add_argument("--x", type=_parse_int, required=True)
    p.add_argument("--q", type=_parse_int, required=True)
    _add_filter(p)
    _add_common(p, parallel=True)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("twisted-sum", help="sum of chi(sigma(n)) for one character",
                       description="Evaluates the partial sum of chi(sigma(n)) "
                                   "over filtered n <= x for the character of "
                                   "the given enumeration index mod q.")
    p.add_argument("--x", type=_parse_int, required=True)
    p.add_argument("--q", type=_parse_int, required=True)
    p.add_argument("--index", type=_parse_int, required=True,
                   help="character index in enumeration order (0 = principal)")
    _add_filter(p)
    _add_common(p, parallel=True)
    p.set_defaults(func=_cmd_twisted_sum)

    p = sub.add_parser("rho-table", help="mean of chi(v+1) for every chi mod q",
                       description="Tabulates the average of chi(v+1) over "
                                   "units v mod q for every character chi.")
    p.add_argument("--q", type=_parse_int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_character_table)

    p = sub.add_parser("eta-table", help="mean of chi(v^2+v+1) for every chi mod q",
                       description="Tabulates the average of chi(v^2+v+1) over "
                                   "units v mod q for every character chi.")
    p.add_argument("--q", type=_parse_int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_character_table)

    p = sub.add_parser("verify-s-set",
                       help="normalized maxima over the exceptional conductors",
                       description="For each exceptional conductor Q, maximizes "
                                   "Re of the sum of psi(v^2+v+1) over primitive "
                                   "psi mod Q, normalizes by the local product, "
                                   "and checks the global max is exactly 1/4.")
    p.add_argument("--q", type=_parse_int, default=None,
                   help="restrict to conductors dividing q")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_s_set)

    p = sub.add_parser("weil-check",
                       help="square-root bound for quadratic character sums",
                       description="Verifies |sum over v mod ell^e of "
                                   "chi(v^2+v+1)| <= ell^(e/2) for every "
                                   "primitive chi.")
    p.add_argument("--ell", type=_parse_int, required=True)
    p.add_argument("--e", type=_parse_int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_weil_check)

    p = sub.add_parser("lsd-scan",
                       help="twisted rough sums vs. their main terms over an x grid",
                       description="Computes the exact twisted sum over y-rough "
                                   "n <= x and the asymptotic main term for each "
                                   "x in the grid, reporting their ratios.")
    p.add_argument("--beta", type=_parse_complex, required=True)
    p.add_argument("--Y", dest="y", type=_parse_float, required=True)
    p.add_argument("--x-grid", dest="x_grid", type=_parse_int_list, required=True,
                   metavar="X1,X2,...")
    _add_common(p, parallel=True)
    p.set_defaults(func=_cmd_lsd_scan)

    p = sub.add_parser("g-one", help="the G(1) Euler product",
                       description="Evaluates the Euler product with factors "
                                   "(1-1/p)^beta below the cut and "
                                   "(1-1/p)^beta (1-beta/p)^(-1) above it, "
                                   "truncated at p_max with a tail estimate.")
    p.add_argument("--Y", dest="y", type=_parse_float, required=True)
    p.add_argument("--beta", type=_parse_complex, required=True)
    p.add_argument("--p-max", dest="p_max", type=_parse_int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_g_one)

    p = sub.add_parser("v-count",
                       help="unit tuples with prescribed sigma-product mod q",
                       description="Counts tuples of units (v_1..v_r) mod q "
                                   "with prod (v_j^2+v_j+1) = w, r = 2 or 3.")
    p.add_argument("--q", type=_parse_int, required=True)
    p.add_argument("--w", type=_parse_int, required=True)
    p.add_argument("--arity", type=_parse_int, choices=(2, 3), default=3)
    _add_common(p)
    p.set_defaults(func=_cmd_v_count)

    p = sub.add_parser("lift-count",
                       help="unit pairs mod ell^2 hitting the 9/16 target",
                       description="Counts pairs of units mod ell^2 whose "
                                   "sigma-product equals 9 times the inverse "
                                   "of 16; the count sits near 2*ell^2.")
    p.add_argument("--ell", type=_parse_int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_lift_count)

    p = sub.add_parser("curve-count", help="F_ell points on a witness curve",
                       description="Counts points over F_ell on "
                                   "(X^2+3)(Y^2+3) = 9 (completed-square) or "
                                   "(X^2+X+1)(Y^2+Y+1) = w (sigma-product).")
    p.add_argument("--ell", type=_parse_int, required=True)
    p.add_argument("--which", choices=("completed-square", "sigma-product"),
                   default="completed-square")
    p.add_argument("--w", type=_parse_int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_curve_count)

    p = sub.add_parser("witness-even",
                       help="over-representation witness with squared prime pairs",
                       description="Builds q = 2*(prod of primes 5..Y)^2, finds "
                                   "all n = (P1*P2)^2 <= x in the designated "
                                   "class by two independent methods, and "
                                   "compares against the filtered census mean.")
    p.add_argument("--Y", dest="y", type=_parse_int, required=True)
    p.add_argument("--x", type=_parse_int, required=True)
    _add_common(p, parallel=True)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("witness-sqfree",
                       help="over-representation witness with prime squares",
                       description="Builds squarefree q = 2*prod of primes 5..Y "
                                   "and counts primes P with sigma(P^2) = 3 "
                                   "mod q by residue classes and directly.")
    p.add_argument("--Y", dest="y", type=_parse_int, required=True)
    p.add_argument("--x", type=_parse_int, required=True)
    _add_common(p, parallel=True)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("prime-recip",
                       help="reciprocal sum of primes with F(p) coprime to q",
                       description="Sums 1/p over primes p <= x whose polynomial "
                                   "value F(p) is coprime to q; the sum grows "
                                   "like a density times log log x.")
    p.add_argument("--x", type=_parse_int, required=True)
    p.add_argument("--q", type=_parse_int, required=True)
    p.add_argument("--coeffs", type=_parse_int_list, default=[1, 1],
                   metavar="C0,C1,...",
                   help="polynomial coefficients, constant term first "
                        "(default 1,1 = T+1)")
    _add_common(p)
    p.set_defaults(func=_cmd_prime_recip)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceBudgetError as exc:
        print(f"sigmalab: resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (argparse.ArgumentTypeError, OutOfRangeError, UnsupportedModulusError) as exc:
        print(f"sigmalab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
