"""Command-line front end.

Every subcommand is a thin, deterministic wrapper over one library
operation: parse flags, run, emit one payload as JSON (default) or CSV.
A CSV header lists payload fields, with re_/im_/abs_ parts of complex
values; census writes one row per class.  There is no randomness
anywhere, so identical flags and tool version produce byte-identical
output.  --workers (at least 1), on the commands that may run the
segment sieve, changes wall time only, never bytes.  Numeric flags
accept scientific notation (--x 1e7), but not nan, ±inf or 1e400.

JSON output is json.dumps(sort_keys=True, indent=2) of the payload, but
two kinds of payload value are written at a placeholder instead, with
the same bytes: census's ClassCounts, one line per class from arrays of
digits, and the rows of rho-table and eta-table, one %-template per row
over the flat tuple of its fields, all read from arrays
(Modulus.character_grid and the character transform) rather than from
per-character objects.

Exit codes: 0 success, 1 a verification-style subcommand found a
violation (weil-check, verify-s-set, witness mismatch), 2 bad usage or
an argument out of range, such as a modulus q >= 2^63 (one line on
stderr), 3 a resource budget was exceeded.  The memory budget is a byte
count, 2·10⁹ unless --memory-budget sets another, on the eight
subcommands that read it: census, twisted-sum, rho-table, eta-table,
lsd-scan, witness-even, witness-sqfree and prime-recip.  verify-s-set,
weil-check, g-one, lift-count and curve-count check their tables against
the fixed default, and v-count, which builds no table, caps its work at
2.5·10⁸ unit-pair operations per block.  Each table is checked just
before it is built: a modulus prices its tables when it builds the first
(Modulus), so prime-recip, which reads only q's factorization, prices
none of them.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import sys
from fractions import Fraction
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from . import __version__
from ._scan import DEFAULT_MEMORY_BUDGET
from .census import (
    CensusFilter,
    ClassCounts,
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
from .lsd import convergence_scan, g_one_euler_product
from .varieties import (
    _lift_target,
    curve_point_count,
    lift_count_mod_ell_squared,
    overrep_witness_even,
    overrep_witness_sqfree,
    v_count,
)


def _finite(kind: type, text: str, bad: str) -> float | complex:
    """kind(text); refused with the message bad if unreadable, and as not
    finite if nan, ±inf or overflowing to inf (as 1e400 does)."""
    try:
        value = kind(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(bad) from exc
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _parse_int(text: str) -> int:
    """Integer flag value; scientific notation like 1e7 is read exactly."""
    try:
        return int(text, 10)
    except ValueError:
        pass
    _finite(float, text, f"not a number: {text!r}")
    exact = Fraction(text)
    if exact.denominator != 1:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return exact.numerator


def _parse_float(text: str) -> float:
    return _finite(float, text, f"not a number: {text!r}")


def _parse_complex(text: str) -> complex:
    return _finite(complex, text.replace(" ", ""),
                   f"not a complex number: {text!r} (use forms like 0.5 or 0.3+0.4j)")


class _EmptyListError(Exception):
    """A list flag with no entries.  Not a ValueError, so argparse passes
    it on to main, which reports it like a bad value found after parsing:
    one line, exit 2."""


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [_parse_int(part) for part in text.split(",") if part.strip()]
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"bad list {text!r}: {exc}") from exc
    if not values:
        raise _EmptyListError(f"bad list {text!r}: no entries")
    return values


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
        return _json_safe({"re": value.real, "im": value.imag, "abs": abs(value)})
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


# A ClassCounts line in JSON is _COUNTS_HEAD, the key, _COUNTS_MID and the
# value; lines per write; and 10^1 ... 10^17, which count a key's digits.
_COUNTS_HEAD = np.frombuffer(b',\n    "', np.uint8)
_COUNTS_MID = np.frombuffer(b'": ', np.uint8)
_COUNTS_CHUNK = 1 << 16
_POWERS_OF_TEN = 10 ** np.arange(1, 18, dtype=np.int64)


def _decimal_rows(rows: np.ndarray, a: np.ndarray) -> None:
    """Fill the (width, n) uint8 rows with the integers a in ASCII decimal,
    one per column, right-aligned: NUL before the first character and '-'
    before the digits of a negative one.  width must hold the longest."""
    neg = a < 0
    rest = a.astype(np.uint64)
    np.negative(rest, out=rest, where=neg)  # |a|, even for -2^63
    if rest.max() <= np.iinfo(np.uint32).max:  # divides several times faster
        rest = rest.astype(np.uint32)
    tens = np.empty_like(rest)
    for j, row in enumerate(rows[::-1]):  # row j from the right: digit j
        np.floor_divide(rest, 10, out=tens)
        np.copyto(row, rest - tens * 10 + 48, casting="unsafe")
        if j:
            row *= rest != 0
        rest, tens = tens, rest
    if neg.any():
        used = np.count_nonzero(rows, axis=0)
        cols = np.flatnonzero(neg)
        rows[rows.shape[0] - 1 - used[cols], cols] = ord("-")


def _string_order(keys: np.ndarray) -> np.ndarray:
    """The permutation that puts keys, 0 <= k < 10^18, in the order of their
    decimal strings: by the digits padded on the right to a common width,
    then by length, so "1" < "10" < "100" < "11" < "2".  Ten times faster
    than sorting keys.astype(str)."""
    extra = np.searchsorted(_POWERS_OF_TEN, keys, side="right")  # digits after the first
    return np.lexsort((extra, keys * 10 ** (int(extra.max()) - extra)))


def _write_counts(stream, counts: ClassCounts) -> None:
    """Write a ClassCounts payload value chunk by chunk, exactly as
    json.dumps(sort_keys=True, indent=2) would at the top level of the
    document, so a map over millions of classes never becomes a dict.

    The keys go in the order of their decimal strings (_string_order).
    Each chunk of lines is a (width, lines) uint8 array of the lines'
    constant bytes and the NUL-led digits of key and value
    (_decimal_rows); read line by line without its NULs it is the chunk's
    text.  So no Python object is made per class, and above the order
    the memory is O(chunk)."""
    keys, values = counts.key_array, counts.value_array
    if keys.size == 0:
        stream.write("{}")
        return
    order = _string_order(keys)
    head, mid = _COUNTS_HEAD.shape[0], _COUNTS_MID.shape[0]
    stream.write("{\n")
    for start in range(0, order.shape[0], _COUNTS_CHUNK):
        idx = order[start : start + _COUNTS_CHUNK]
        k, v = keys[idx], values[idx]
        kw, vw = (max(len(str(a.min())), len(str(a.max()))) for a in (k, v))
        block = np.empty((head + kw + mid + vw, idx.shape[0]), np.uint8)
        block[:head] = _COUNTS_HEAD[:, None]
        _decimal_rows(block[head : head + kw], k)
        block[head + kw : head + kw + mid] = _COUNTS_MID[:, None]
        _decimal_rows(block[head + kw + mid :], v)
        text = block.T.ravel()
        text = text[text != 0]
        # The first line of the map follows "{\n", not ",\n".
        stream.write(text[0 if start else 2 :].tobytes().decode("ascii"))
    stream.write("\n  }")


class _AverageRows(tuple):
    """The CharacterAverageRows of a rho or eta table, as a payload value
    that _write_average_rows writes."""


# One CharacterAverageRow in JSON, around its exponent list, and the rows
# per write.
_ROW_HEAD = '    {\n      "conductor": %d,\n      "exponents": '
_ROW_TAIL = (',\n      "index": %d,\n      "order": %d,\n      "value": {\n'
             '        "abs": %r,\n        "im": %r,\n        "re": %r\n      }\n    }')
_ROWS_CHUNK = 1 << 12


def _write_average_rows(stream, rows: _AverageRows) -> None:
    """Write a table's rows, exactly as json.dumps(sort_keys=True, indent=2)
    would at the top level of the document, with one %-template per row
    over the flat tuple (conductor, exponents..., index, order, abs, im, re).
    A table has at least one row, and every row as many exponents as the
    modulus has generators."""
    width = len(rows[0].exponents)
    exponents = "[\n" + ",\n".join(["        %d"] * width) + "\n      ]" if width else "[]"
    template = _ROW_HEAD + exponents + _ROW_TAIL
    stream.write("[\n")
    for start in range(0, len(rows), _ROWS_CHUNK):
        if start:
            stream.write(",\n")
        stream.write(",\n".join([
            template % (r.conductor, *r.exponents, r.index, r.order,
                        abs(r.value), r.value.imag, r.value.real)
            for r in rows[start : start + _ROWS_CHUNK]]))
    stream.write("\n  ]")


# The payload values that JSON output writes itself, by type, each at a
# NUL-led placeholder: maps over millions of classes never become a dict,
# and table rows skip the per-row dicts of json.dumps.
_WRITERS = {ClassCounts: _write_counts, _AverageRows: _write_average_rows}


# A CSV cell read from a complex value names the part it wants.
_COMPLEX_PARTS = {"re": lambda z: z.real, "im": lambda z: z.imag, "abs": abs}
# Cells the csv module writes as they are (None as a blank).
_PLAIN_CELLS = {int, float, str, bool, type(None)}


def _cell(value: Any, path: Sequence[str]) -> Any:
    """The CSV cell at a dotted path into a row record: a complex value
    yields its re, im or abs part, a Fraction is written as a float, a
    sequence as its entries joined by ';', and None as a blank."""
    for key in path:
        if value is None:
            break
        value = _COMPLEX_PARTS[key](value) if isinstance(value, complex) else value[key]
    if type(value) in _PLAIN_CELLS:
        return value
    if isinstance(value, Fraction):
        return float(value)
    if isinstance(value, (list, tuple)):
        return ";".join(map(str, value))
    return value


def _emit(args: argparse.Namespace, payload: dict[str, Any], columns: Sequence[str],
          description: str, rows: Optional[Iterable[Any]] = None,
          cells: Optional[Iterable[Sequence[Any]]] = None) -> None:
    """Write one run: the payload as a JSON object, or a commented CSV.

    Each column spec is "name" or "name=dotted.path" and reads one cell
    of every row record; the records are the payload itself unless rows
    are given.  Rows given as cells are already one plain cell per
    column and are written as they are.  Top-level payload values of a
    type in _WRITERS appear in JSON only.
    """
    config = _config_echo(args)
    stream = (open(args.output, "w", newline="", encoding="utf-8") if args.output
              else sys.stdout)
    try:
        if args.format == "json":
            doc = {"tool": "sigmalab", "version": __version__, "command": args.command,
                   "config": _json_safe(config)}
            spliced = {k: v for k, v in payload.items() if type(v) in _WRITERS}
            doc.update(_json_safe({k: v for k, v in payload.items() if k not in spliced}))
            # A NUL-led string marks each spliced value's place; no flag
            # value can hold a NUL character.
            doc.update({k: "\0" + k for k in spliced})
            text = json.dumps(doc, sort_keys=True, indent=2)
            for key in sorted(spliced):
                head, text = text.split(json.dumps("\0" + key), 1)
                stream.write(head)
                _WRITERS[type(spliced[key])](stream, spliced[key])
            stream.write(text + "\n")
        else:
            cfg = " ".join(f"{k}={v}" for k, v in sorted(config.items()))
            stream.write(f"# sigmalab {__version__} {args.command}: "
                         f"{description} [{cfg}]\r\n")
            specs = [spec.partition("=") for spec in columns]
            paths = [(path or name).split(".") for name, _, path in specs]
            writer = csv.writer(stream)
            writer.writerow([name for name, _, _ in specs])
            if cells is None:
                cells = ([_cell(record, path) for path in paths]
                         for record in ([payload] if rows is None else rows))
            writer.writerows(cells)
    finally:
        if args.output:
            stream.close()


def _add_common(parser: argparse.ArgumentParser, parallel: bool = False) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    parser.add_argument("--output", metavar="PATH",
                        help="write to a file instead of stdout")
    if parallel:
        parser.add_argument("--workers", type=_parse_int, default=1,
                            help="parallel segment workers (same output for any value)")


def _add_budget(parser: argparse.ArgumentParser) -> None:
    """--memory-budget, on the subcommands whose tables _budget prices."""
    parser.add_argument("--memory-budget", type=_parse_int, default=None,
                        metavar="BYTES",
                        help="cap on internal table allocations "
                             f"(default {DEFAULT_MEMORY_BUDGET})")


def _budget(args: argparse.Namespace) -> int:
    return DEFAULT_MEMORY_BUDGET if args.memory_budget is None else args.memory_budget


def _modulus(args: argparse.Namespace) -> Modulus:
    return Modulus(args.q, _budget(args))


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


# ---------------------------------------------------------------- census

def _cmd_census(args: argparse.Namespace) -> int:
    m = _modulus(args)
    f = _census_filter(args)
    report = census(args.x, m, f, workers=args.workers, memory_budget=_budget(args))
    total = report.total_coprime
    phi = len(report.counts)
    payload = {
        "x": report.x,
        "q": report.q,
        "filter": vars(f),
        "counts": report.counts,
        "total": total,
        "mean": report.mean if total > 0 else None,
        "discrepancy": report.max_rel_deviation if total > 0 else None,
        "alpha": report.alpha,
        "alpha_tilde": report.alpha_tilde,
        "exponent_used": report.exponent_used,
    }
    # The one CSV that is not a view of the payload: a row per class,
    # laid out here since there may be millions.
    cells = ([a, c, c / total if total else None,
              (c * phi / total - 1.0) if total else None]
             for a, c in report.counts.items())
    _emit(args, payload, ["class", "count", "share", "rel_deviation"],
          f"classes of sigma(n) mod {report.q} among units, n <= {report.x}, "
          f"filter {f.describe()}", cells=cells)
    return 0


# ----------------------------------------------------------- twisted-sum

def _cmd_twisted_sum(args: argparse.Namespace) -> int:
    m = _modulus(args)
    chi = m.character(args.index)
    f = _census_filter(args)
    value = twisted_partial_sum(args.x, chi, f, workers=args.workers,
                                memory_budget=_budget(args))
    payload = {
        "x": args.x,
        "q": m.q,
        "character": {"index": chi.index, "exponents": chi.exponents, "order": chi.order,
                      "conductor": chi.conductor, "principal": chi.is_principal},
        "sum": value,
        "normalized_abs": abs(value) * math.log(args.x) / args.x if args.x > 1 else None,
        "filter": vars(f),
    }
    _emit(args, payload, ["x", "q", "index=character.index", "re_sum=sum.re",
                          "im_sum=sum.im", "abs_sum=sum.abs",
                          "abs_times_logx_over_x=normalized_abs"],
          f"sum of chi(sigma(n)) over n <= {args.x}, chi #{chi.index} mod {m.q}")
    return 0


# ------------------------------------------------------------ rho / eta

def _cmd_character_table(args: argparse.Namespace) -> int:
    m = _modulus(args)
    rho = args.command == "rho-table"
    table = rho_table(m) if rho else eta_table(m)
    payload = {"q": m.q, "phi": m.phi, "rows": _AverageRows(table),
               "alpha": m.alpha, "alpha_tilde": m.alpha_tilde}
    label = ("mean of chi(v+1) over units v" if rho
             else "mean of chi(v^2+v+1) over units v")
    cells = ([r.index, ";".join(map(str, r.exponents)), r.order, r.conductor,
              r.value.real, r.value.imag, abs(r.value)] for r in table)
    _emit(args, payload, ["index", "exponents", "order", "conductor", "re", "im", "abs"],
          f"{label}, all characters mod {m.q}", cells=cells)
    return 0


# --------------------------------------------------------- verify-s-set

def _cmd_verify_s_set(args: argparse.Namespace) -> int:
    report = verify_s_set(args.q)
    payload = {**vars(report), "rows": [vars(r) for r in report.rows]}
    _emit(args, payload, ["conductor", "denominator", "num_primitive",
                          "max_re_sum", "normalized", "attains_quarter"],
          "normalized maxima of Re sum of psi(v^2+v+1) over the "
          "exceptional conductors", payload["rows"])
    return 0 if report.within_quarter else 1


# ------------------------------------------------------------ weil-check

def _cmd_weil_check(args: argparse.Namespace) -> int:
    report = weil_clz_check(args.ell, args.e)
    _emit(args, vars(report), ["ell", "e", "modulus", "bound", "num_primitive",
                               "max_abs", "max_ratio", "all_within"],
          f"square-root cancellation of complete sums of chi(v^2+v+1) "
          f"mod {args.ell}^{args.e}")
    return 0 if report.all_within else 1


# -------------------------------------------------------------- lsd-scan

def _cmd_lsd_scan(args: argparse.Namespace) -> int:
    results = convergence_scan(args.beta, args.x_grid, args.y, memory_budget=_budget(args))
    payload = {"rows": [{
        "x": r.params.x,
        "y": r.params.y,
        "beta": r.params.beta,
        "exact": r.exact,
        "main_term": r.main_term,
        "ratio": r.ratio,
        "meets_size_hypothesis": r.params.meets_size_hypothesis,
    } for r in results]}
    _emit(args, payload, ["x", "y", "re_beta=beta.re", "im_beta=beta.im",
                          "re_exact=exact.re", "im_exact=exact.im",
                          "re_main=main_term.re", "im_main=main_term.im",
                          "abs_ratio=ratio.abs"],
          "exact twisted rough sums against their asymptotic main terms",
          payload["rows"])
    return 0


# ------------------------------------------------------------------ g-one

def _cmd_g_one(args: argparse.Namespace) -> int:
    result = g_one_euler_product(args.y, args.beta, args.p_max)
    _emit(args, vars(result), ["y", "re_beta=beta.re", "im_beta=beta.im", "p_max",
                               "re_value=value.re", "im_value=value.im",
                               "tail_estimate"],
          "Euler product (1-1/p)^beta [p<=y] * (1-1/p)^beta/(1-beta/p) [p>y]")
    return 0


# ----------------------------------------------------------------- counts

def _cmd_v_count(args: argparse.Namespace) -> int:
    m = Modulus(args.q)
    result = v_count(m, args.w, args.arity)
    _emit(args, {**vars(result), "phi": m.phi}, ["q", "w", "arity", "count"],
          f"unit tuples with product of v_j^2+v_j+1 hitting {result.w} mod {result.q}")
    return 0


def _cmd_lift_count(args: argparse.Namespace) -> int:
    count = lift_count_mod_ell_squared(args.ell)
    pp = args.ell * args.ell
    payload = {"ell": args.ell, "modulus": pp, "target": _lift_target(args.ell),
               "count": count, "count_over_ell_squared": count / pp}
    _emit(args, payload, ["ell", "modulus", "target", "count",
                          "count_over_ell_squared"],
          f"unit pairs mod {args.ell}^2 whose sigma-product hits 9/16")
    return 0


def _cmd_curve_count(args: argparse.Namespace) -> int:
    result = curve_point_count(args.ell, args.which, args.w)
    payload = {**vars(result), "deviation_over_sqrt_ell":
               (result.count - result.ell) / math.sqrt(result.ell)}
    _emit(args, payload, ["ell", "which", "w", "count", "deviation_over_sqrt_ell",
                          "bound_certified"],
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
    report = construct(args.y, args.x, workers=args.workers, memory_budget=_budget(args))
    agree = report.crt_count == report.direct_count
    payload = {**vars(report), "routes_agree": agree}
    payload["Y"] = payload.pop("y_cut")
    _emit(args, payload, ["q", "Y", "x", "witness_class", "witness_count", "crt_count",
                          "direct_count", "census_class_count", "census_total",
                          "mean_count", "ratio"], description)
    return 0 if agree else 1


# -------------------------------------------------------------- prime-recip

def _cmd_prime_recip(args: argparse.Namespace) -> int:
    m = _modulus(args)
    poly = PolynomialSpec(tuple(args.coeffs))
    value = prime_reciprocal_sum(poly, m, args.x, memory_budget=_budget(args))
    loglog = math.log(math.log(args.x))
    payload = {
        "x": args.x,
        "q": m.q,
        "polynomial": str(poly),
        "sum": value,
        "loglog_x": loglog,
        "sum_over_loglog_x": value / loglog if loglog > 0 else None,
        "unit_density": alpha_F(poly, m),
    }
    _emit(args, payload, ["x", "q", "polynomial", "sum", "loglog_x",
                          "sum_over_loglog_x", "unit_density"],
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
    _add_budget(p)
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
    _add_budget(p)
    p.set_defaults(func=_cmd_twisted_sum)

    p = sub.add_parser("rho-table", help="mean of chi(v+1) for every chi mod q",
                       description="Tabulates the average of chi(v+1) over "
                                   "units v mod q for every character chi.")
    p.add_argument("--q", type=_parse_int, required=True)
    _add_common(p)
    _add_budget(p)
    p.set_defaults(func=_cmd_character_table)

    p = sub.add_parser("eta-table", help="mean of chi(v^2+v+1) for every chi mod q",
                       description="Tabulates the average of chi(v^2+v+1) over "
                                   "units v mod q for every character chi.")
    p.add_argument("--q", type=_parse_int, required=True)
    _add_common(p)
    _add_budget(p)
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
    _add_common(p)
    _add_budget(p)
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
    _add_budget(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("witness-sqfree",
                       help="over-representation witness with prime squares",
                       description="Builds squarefree q = 2*prod of primes 5..Y "
                                   "and counts primes P with sigma(P^2) = 3 "
                                   "mod q by residue classes and directly.")
    p.add_argument("--Y", dest="y", type=_parse_int, required=True)
    p.add_argument("--x", type=_parse_int, required=True)
    _add_common(p, parallel=True)
    _add_budget(p)
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
    _add_budget(p)
    p.set_defaults(func=_cmd_prime_recip)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ResourceBudgetError as exc:
        print(f"sigmalab: resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (argparse.ArgumentTypeError, OutOfRangeError, UnsupportedModulusError,
            _EmptyListError) as exc:
        print(f"sigmalab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
