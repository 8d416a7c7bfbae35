"""Command-line front end: output shape, determinism, and exit codes.

Runs main() in-process with --output into tmp files, so the tests see
exactly the bytes a shell user would.
"""

import argparse
import contextlib
import csv
import dataclasses
import inspect
import io
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigmalab
import sigmalab.cli as cli


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = cli.main(list(argv) + ["--output", str(out)])
    return code, out.read_bytes()


def test_census_json_shape(tmp_path):
    code, raw = run(tmp_path, "census", "--x", "1e4", "--q", "5")
    assert code == 0
    doc = json.loads(raw)
    assert doc["tool"] == "sigmalab"
    assert doc["version"] == sigmalab.__version__
    assert doc["command"] == "census"
    assert doc["config"]["x"] == 10_000
    assert doc["config"]["q"] == 5
    assert "workers" not in doc["config"]
    assert set(doc["counts"]) == {"1", "2", "3", "4"}
    assert doc["total"] == sum(doc["counts"].values())
    assert 0 < doc["discrepancy"] < 1
    assert doc["alpha"]["numerator"] == 3
    assert doc["alpha"]["denominator"] == 4


def test_scientific_notation_and_workers_do_not_change_bytes(tmp_path, sieve_engine):
    _, a = run(tmp_path, "census", "--x", "2e5", "--q", "7", "--workers", "1")
    _, b = run(tmp_path, "census", "--x", "200000", "--q", "7", "--workers", "8")
    assert a == b


def test_repeat_runs_byte_identical(tmp_path):
    for cmd in (["eta-table", "--q", "15"],
                ["lsd-scan", "--beta", "0.5+0.25j", "--Y", "5", "--x-grid",
                 "1e3,1e4"],
                ["v-count", "--q", "45", "--w", "2"]):
        _, a = run(tmp_path, *cmd)
        _, b = run(tmp_path, *cmd)
        assert a == b, cmd


def test_csv_format(tmp_path):
    code, raw = run(tmp_path, "rho-table", "--q", "15", "--format", "csv")
    assert code == 0
    text = raw.decode("utf-8")
    lines = text.split("\r\n")
    assert lines[0].startswith("# sigmalab ")
    assert "rho-table" in lines[0]
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == ["index", "exponents", "order", "conductor",
                       "re", "im", "abs"]
    data = [r for r in rows[1:] if r]
    assert len(data) == 8  # phi(15) characters
    assert float(data[0][4]) == pytest.approx(0.375)  # principal: alpha(15)


def test_lsd_scan_csv_columns(tmp_path):
    code, raw = run(tmp_path, "lsd-scan", "--beta", "1", "--Y", "10",
                    "--x-grid", "1e3,1e4,1e5", "--format", "csv")
    assert code == 0
    lines = raw.decode().split("\r\n")
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == ["x", "y", "re_beta", "im_beta", "re_exact", "im_exact",
                       "re_main", "im_main", "abs_ratio"]
    assert len([r for r in rows[1:] if r]) == 3
    for r in rows[1:4]:
        assert 0.5 < float(r[8]) < 1.5


def test_verify_s_set_passes(tmp_path):
    code, raw = run(tmp_path, "verify-s-set")
    assert code == 0
    doc = json.loads(raw)
    assert doc["within_quarter"] is True
    assert doc["global_max"] == pytest.approx(0.25)
    assert sorted(doc["attaining"]) == [5, 7, 13, 35]
    assert len(doc["rows"]) == 18


def test_weil_check_passes_and_fails(tmp_path, monkeypatch):
    code, raw = run(tmp_path, "weil-check", "--ell", "5", "--e", "2")
    assert code == 0
    assert json.loads(raw)["all_within"] is True
    real = cli.weil_clz_check

    def doctored(ell, e):
        return dataclasses.replace(real(ell, e), all_within=False)

    monkeypatch.setattr(cli, "weil_clz_check", doctored)
    code, raw = run(tmp_path, "weil-check", "--ell", "5", "--e", "2")
    assert code == 1


def test_witness_subcommands(tmp_path):
    code, raw = run(tmp_path, "witness-sqfree", "--Y", "5", "--x", "1e6")
    assert code == 0
    doc = json.loads(raw)
    assert doc["q"] == 10 and doc["Y"] == 5 and doc["x"] == 10**6
    assert doc["witness_class"] == 3
    assert doc["witness_count"] == 77
    assert doc["routes_agree"] is True
    assert doc["ratio"] > 1
    code, raw = run(tmp_path, "witness-even", "--Y", "5", "--x", "1e6")
    assert code == 0
    doc = json.loads(raw)
    assert doc["witness_count"] == 8 and doc["ratio"] is None


def test_exit_code_2_on_bad_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["census", "--x", "abc", "--q", "5"])
    assert exc.value.code == 2
    # integer flags take the exact value of the text, with no tolerance
    assert cli._parse_int("1.2345678901234567e18") == 1234567890123456700
    assert cli._parse_int("2.5e1") == 25
    for text in ("10000000.5", "1e-3"):
        with pytest.raises(argparse.ArgumentTypeError, match="not an integer"):
            cli._parse_int(text)
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_exit_code_3_on_budget(monkeypatch, capsys):
    """--memory-budget is the one source of the budget: too small a one
    exits 3, and SIGMALAB_MEMORY_BUDGET, which nothing reads, changes
    neither the exit code nor the bytes written."""
    def runs():
        out = []
        for budget in (["--memory-budget", "100"], []):
            code = cli.main(["census", "--x", "1e4", "--q", "5", *budget])
            out.append((code, *capsys.readouterr()))
        return out

    want = runs()
    assert [code for code, _, _ in want] == [3, 0]
    for env in ("100", "abc"):
        monkeypatch.setenv("SIGMALAB_MEMORY_BUDGET", env)
        assert runs() == want


def test_prime_recip_checks_budget_before_sieving(tmp_path, capsys):
    """The prime table's bytes are checked against --memory-budget before
    the sieve is allocated: exit 3 with one line, no traceback.  At x = 10^6
    the call peaks near 3.1 MB and is priced at about 5.4 MB."""
    code = cli.main(["prime-recip", "--x", "1e6", "--q", "7", "--memory-budget", "100000",
                     "--output", str(tmp_path / "x.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("sigmalab: resource budget exceeded:") and err.count("\n") == 1
    code, _ = run(tmp_path, "prime-recip", "--x", "1e6", "--q", "7",
                  "--memory-budget", "6000000")
    assert code == 0


def test_budget_reaches_the_scans(tmp_path, capsys):
    """--memory-budget prices the rough engine's tables and both census
    engines, under census, twisted-sum and the witnesses: too small a budget
    exits 3 with one line, before any scan and, at x = 1e16, before the
    primes up to sqrt(x) are built."""
    for argv in (["lsd-scan", "--beta", "0.5", "--Y", "7", "--x-grid", "1e4,1e6",
                  "--memory-budget", "1e5"],
                 ["census", "--x", "1e9", "--q", "15", "--memory-budget", "2000"],
                 ["twisted-sum", "--x", "1e6", "--q", "15", "--index", "1",
                  "--memory-budget", "2000"],
                 ["witness-sqfree", "--Y", "7", "--x", "1e6", "--memory-budget", "2000"],
                 ["witness-even", "--Y", "7", "--x", "1e6", "--memory-budget", "2000"],
                 ["census", "--x", "1e16", "--q", "5", "--memory-budget", "1e6"],
                 ["lsd-scan", "--beta", "0.5", "--Y", "7", "--x-grid", "1e16",
                  "--memory-budget", "1e6"]):
        assert cli.main(argv + ["--output", str(tmp_path / "x.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("sigmalab: resource budget exceeded:") and err.count("\n") == 1
    code, _ = run(tmp_path, "lsd-scan", "--beta", "0.5", "--Y", "7", "--x-grid", "1e4,1e6",
                  "--memory-budget", "1e6")
    assert code == 0


def test_commands_that_build_no_table_of_q_answer_over_its_price(tmp_path):
    """prime-recip reads only the factorization of q, and v-count only its
    prime-power blocks, so neither is refused on the price of the tables
    mod q that it never builds (66 000 137 bytes at q = 1000003)."""
    code, raw = run(tmp_path, "prime-recip", "--q", "1000003", "--x", "1000",
                    "--memory-budget", "1e7")
    assert code == 0
    assert json.loads(raw)["sum"] == sigmalab.prime_reciprocal_sum(
        sigmalab.SIGMA_AT_PRIME, sigmalab.Modulus(1000003), 1000)
    code, raw = run(tmp_path, "v-count", "--q", "1041537223", "--w", "2")  # 1009·1013·1019
    assert code == 0
    assert json.loads(raw)["count"] == math.prod(
        sigmalab.v_count(sigmalab.Modulus(ell), 2).count for ell in (1009, 1013, 1019))


@pytest.mark.parametrize("argv", [["census", "--x", "100"],
                                  ["twisted-sum", "--x", "100", "--index", "1"],
                                  ["rho-table"]])
def test_over_budget_modulus_refuses_before_its_tables(tmp_path, capsys, argv):
    """A modulus prices its tables when it builds the first: at q = 1000003
    and a budget of 10^7 bytes, each command exits 3 with one stderr line,
    and almost nothing is traced."""
    tracemalloc.start()
    try:
        code = cli.main(argv + ["--q", "1000003", "--memory-budget", "1e7",
                                "--output", str(tmp_path / "x.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and peak < 10**6, (code, peak)
    assert capsys.readouterr().err == ("sigmalab: resource budget exceeded: tables mod 1000003 "
                                       "would take about 66000137 bytes, budget is 10000000 bytes\n")


@pytest.mark.parametrize("argv", [["lift-count", "--ell", "1000003"],
                                  ["curve-count", "--ell", "10000000019"],
                                  ["g-one", "--Y", "7", "--beta", "0.5", "--p-max", "1e11"]])
def test_fixed_budget_commands_refuse_before_allocating(tmp_path, capsys, argv):
    """Tables sized from the input are priced against the default budget
    first: exit 3 with one stderr line, and almost nothing is traced."""
    tracemalloc.start()
    try:
        code = cli.main(argv + ["--output", str(tmp_path / "x.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and peak < 10**6, (code, peak)
    err = capsys.readouterr().err
    assert err.startswith("sigmalab: resource budget exceeded:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, code", [
    (["lift-count", "--ell", "9223372036854775783"], 3),
    (["curve-count", "--ell", "9223372036854775783"], 3),
    (["weil-check", "--ell", "9223372036854775783", "--e", "2"], 2),
])
def test_huge_prime_ell_is_refused_before_trial_division(tmp_path, capsys, argv, code):
    """ell = 2^63 - 25 is prime, and trial-dividing it would not end: the
    byte price of a lift or curve count, and the range of ell^e, are
    checked first, so the refusal takes well under a second."""
    start = time.perf_counter()
    assert cli.main(argv + ["--output", str(tmp_path / "x.json")]) == code
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("sigmalab: ") and err.count("\n") == 1


def test_verify_s_set_reads_only_q(tmp_path, capsys):
    """verify-s-set builds only the conductor moduli: a q near 10^9 gives no
    row and exits 0, and q = 0 is still out of range."""
    code, raw = run(tmp_path, "verify-s-set", "--q", "1000000007")
    doc = json.loads(raw)
    assert code == 0 and doc["rows"] == [] and doc["within_quarter"]
    assert cli.main(["verify-s-set", "--q", "0"]) == 2
    assert capsys.readouterr().err == "sigmalab: q must satisfy 1 <= q < 2^63, got 0\n"


def test_help_everywhere(capsys):
    """Every subcommand documents --format; only the four that may run the
    segment sieve take --workers, only those that read it take
    --memory-budget, and none takes --segment-length."""
    sieve_scans = {"census", "twisted-sum", "witness-even", "witness-sqfree"}
    budgeted = sieve_scans | {"rho-table", "eta-table", "lsd-scan", "prime-recip"}
    for sub in ("census", "twisted-sum", "rho-table", "eta-table",
                "verify-s-set", "weil-check", "lsd-scan", "g-one", "v-count",
                "lift-count", "curve-count", "witness-even", "witness-sqfree",
                "prime-recip"):
        with pytest.raises(SystemExit) as exc:
            cli.main([sub, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--format" in text
        assert ("--workers" in text) == (sub in sieve_scans), sub
        assert ("--memory-budget" in text) == (sub in budgeted), sub
        assert "--segment-length" not in text, sub


def test_no_public_callable_takes_a_segment_length():
    """Every sieve scan runs segments of DEFAULT_SEGMENT_LENGTH: no public
    function, class or method of the package takes a segment_length."""
    checked = set()
    for name in sigmalab.__all__:
        obj = getattr(sigmalab, name)
        members = vars(obj).items() if isinstance(obj, type) else ()
        for label, fn in [(name, obj)] + [(f"{name}.{k}", v) for k, v in members]:
            fn = getattr(fn, "__func__", fn)
            if not callable(fn) or isinstance(fn, type) and fn is not obj:
                continue
            try:
                params = inspect.signature(fn).parameters
            except (TypeError, ValueError):
                continue
            checked.add(label)
            assert "segment_length" not in params, label
    assert {"census", "twisted_partial_sum", "iter_sigma_segments", "overrep_witness_even",
            "overrep_witness_sqfree", "FactorSieve", "FactorSieve.__init__"} <= checked


def test_prime_recip_coeffs(tmp_path):
    code, raw = run(tmp_path, "prime-recip", "--x", "1e4", "--q", "7",
                    "--coeffs", "1,1,1")
    assert code == 0
    doc = json.loads(raw)
    assert doc["polynomial"] == "T^2+T+1"
    assert doc["unit_density"]["numerator"] == 2
    assert doc["unit_density"]["denominator"] == 3
    assert doc["sum"] > 0
    # a coefficient beyond int64 is reduced mod q before the Horner step
    _, big = run(tmp_path, "prime-recip", "--x", "1e4", "--q", "7", "--coeffs", "1e19,1")
    _, small = run(tmp_path, "prime-recip", "--x", "1e4", "--q", "7",
                   "--coeffs", f"{10**19 % 7},1")
    for key in ("sum", "unit_density"):
        assert json.loads(big)[key] == json.loads(small)[key], key


def test_complex_beta_parsing(tmp_path):
    code, raw = run(tmp_path, "g-one", "--Y", "50", "--beta", "0.3+0.4j",
                    "--p-max", "1e5")
    assert code == 0
    doc = json.loads(raw)
    assert doc["beta"]["re"] == pytest.approx(0.3)
    assert doc["beta"]["im"] == pytest.approx(0.4)
    assert doc["value"]["abs"] > 0


def test_curve_and_lift_payloads(tmp_path):
    code, raw = run(tmp_path, "curve-count", "--ell", "5")
    doc = json.loads(raw)
    assert code == 0 and doc["count"] == 5 and doc["bound_certified"] is True
    code, raw = run(tmp_path, "lift-count", "--ell", "5")
    doc = json.loads(raw)
    assert code == 0 and doc["count"] == 45 and doc["target"] == 24


@pytest.mark.parametrize("x", ["inf", "nan", "-5", "1e400", "10000000.5"])
def test_exit_code_2_on_out_of_range_x(capsys, x):
    """Non-finite, negative or fractional --x: one line on stderr and exit 2,
    no traceback."""
    try:
        code = cli.main(["census", "--x", x, "--q", "5"])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("sigmalab")


@pytest.mark.parametrize("command", [
    ["census", "--x", "100", "--q", "5"],
    ["twisted-sum", "--x", "100", "--q", "5", "--index", "1"],
])
@pytest.mark.parametrize("flags", [[], ["--k", "2"], ["--threshold", "5"],
                                   ["--k", "0", "--threshold", "5"],
                                   ["--k", "2", "--threshold", "0"]])
def test_exit_code_2_on_bad_pk_threshold(capsys, command, flags):
    """A missing or invalid --k/--threshold is a usage error: one line, exit 2."""
    code = cli.main(command + ["--filter", "pk-threshold"] + flags)
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("sigmalab: ")


@pytest.mark.parametrize("x, q, k, threshold", [
    (20_000, 101, None, None),
    (20_000, 20_011, None, None),  # phi(q) = 20010 classes: more than one chunk
    (30_000, 1009, 2, 100),
    (50, 1000, 4, 1000),  # every class empty
    (100, 1, None, None),
])
def test_census_json_is_json_dumps_of_plain_dict(tmp_path, x, q, k, threshold):
    """The array-written counts block lays out exactly as json.dumps would,
    including string order of the keys ("10" before "2")."""
    f = sigmalab.CensusFilter("all" if k is None else "pk-threshold", k, threshold)
    flags = [] if k is None else ["--filter", "pk-threshold", "--k", str(k),
                                  "--threshold", str(threshold)]
    code, raw = run(tmp_path, "census", "--x", str(x), "--q", str(q), *flags)
    assert code == 0
    doc = json.loads(raw)
    assert raw.decode("utf-8") == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    report = sigmalab.census(x, sigmalab.build_modulus(q), f)
    assert doc["counts"] == {str(a): c for a, c in report.counts.items()}


def test_output_splices_int_map(tmp_path):
    """ClassCounts among other payload keys, empty or not, gives the bytes of
    json.dumps over the equivalent dict."""
    args = argparse.Namespace(format="json", output=str(tmp_path / "m.json"),
                              command="test")
    keys = np.array([2, 7, 10, 100], np.int64)
    for n in (0, 4):
        cli._emit(args, {"a": 1, "counts": sigmalab.ClassCounts(keys[:n], keys[:n] * 3),
                         "z": None}, [], "")
        want = {"tool": "sigmalab", "version": sigmalab.__version__,
                "command": "test", "config": {"format": "json"}, "a": 1,
                "counts": {str(k): 3 * k for k in keys[:n].tolist()}, "z": None}
        assert (tmp_path / "m.json").read_text() == json.dumps(
            want, sort_keys=True, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 10**17), st.integers(0, 2**62), max_size=40))
def test_int_map_matches_json_dumps(mapping):
    """Keys of every digit count lay out in json.dumps's string order."""
    buf = io.StringIO()
    keys = sorted(mapping)
    cli._write_counts(buf, sigmalab.ClassCounts(np.array(keys, np.int64),
                                                np.array([mapping[k] for k in keys], np.int64)))
    want = json.dumps({"m": {str(k): v for k, v in mapping.items()}},
                      sort_keys=True, indent=2)
    assert "{\n  \"m\": " + buf.getvalue() + "\n}" == want


def _written_counts(keys, values) -> str:
    buf = io.StringIO()
    cli._write_counts(buf, sigmalab.ClassCounts(np.array(keys, np.int64),
                                                np.array(values, np.int64)))
    return buf.getvalue()


# Three and a half chunks of keys, every third integer.
MANY_KEYS = range(3, 3 * (7 * cli._COUNTS_CHUNK // 2), 3)


@pytest.mark.parametrize("keys, values", [
    pytest.param([0, 10**18 - 1], [1, 2], id="widest-keys"),
    pytest.param([0, 1, 2, 3, 5], [0, 2**31, 2**63 - 1, -7, -2**63], id="extreme-values"),
    pytest.param(list(MANY_KEYS), [k * 7919 % 100_003 - 50_000 for k in MANY_KEYS],
                 id="three-chunks"),
])
def test_write_counts_matches_json_dumps(keys, values):
    """The digit-array writer lays out keys and values of every width and
    sign as json.dumps does, across chunk boundaries."""
    got = _written_counts(keys, values)
    want = json.dumps({str(k): v for k, v in zip(keys, values)}, sort_keys=True, indent=2)
    assert got == want.replace("\n", "\n  ")


def test_write_counts_memory_is_chunked(tmp_path):
    """Writing about 10^6 classes to a file holds, above the key order that
    the sort leaves, O(chunk) bytes: under 16 MB, where the whole text alone
    would take 20 MB."""
    q = 999_983
    keys = np.arange(1, q, dtype=np.int64)
    counts = sigmalab.ClassCounts(keys, keys * 7 % 100_003)

    class Stream:
        held = None

        def __init__(self, f):
            self.f = f

        def write(self, text):
            if self.held is None:  # the sort is done: only its order is held
                self.held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            self.f.write(text)

    with open(tmp_path / "counts.json", "w") as f:
        stream = Stream(f)
        tracemalloc.start()
        try:
            cli._write_counts(stream, counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert stream.held <= 8 * q + (1 << 16)
    assert peak - stream.held < 16 * 2**20
    assert (tmp_path / "counts.json").stat().st_size > 20 * 10**6


def _fraction_doc(value):
    return {"numerator": value.numerator, "denominator": value.denominator,
            "float": float(value)}


@pytest.mark.parametrize("q", [1, 2, 4, 16, 48, 4007, 10010, 17303])
@pytest.mark.parametrize("command", ["rho-table", "eta-table"])
def test_character_table_bytes_match_oracle(tmp_path, command, q):
    """The template-written rows give the bytes of json.dumps over vars(row),
    with value split into abs/im/re, and the CSV the bytes of csv.writer over
    the same fields, for one and two 2-adic generators, none, and large q."""
    m = sigmalab.build_modulus(q)
    table = (sigmalab.rho_table if command == "rho-table" else sigmalab.eta_table)(m)
    rows = [{**vars(r), "value": {"abs": abs(r.value), "im": r.value.imag,
                                  "re": r.value.real}} for r in table]
    want = {"tool": "sigmalab", "version": sigmalab.__version__, "command": command,
            "config": {"format": "json", "q": q}, "q": q, "phi": m.phi, "rows": rows,
            "alpha": _fraction_doc(m.alpha), "alpha_tilde": _fraction_doc(m.alpha_tilde)}
    code, raw = run(tmp_path, command, "--q", str(q))
    assert code == 0
    # line lists, so that a failure reports the first differing line quickly
    assert (raw.decode("utf-8").splitlines(keepends=True)
            == (json.dumps(want, sort_keys=True, indent=2) + "\n").splitlines(keepends=True))

    label = ("mean of chi(v+1) over units v" if command == "rho-table"
             else "mean of chi(v^2+v+1) over units v")
    buf = io.StringIO(newline="")
    buf.write(f"# sigmalab {sigmalab.__version__} {command}: {label}, all characters "
              f"mod {q} [format=csv q={q}]\r\n")
    writer = csv.writer(buf)
    writer.writerow(["index", "exponents", "order", "conductor", "re", "im", "abs"])
    writer.writerows([r.index, ";".join(map(str, r.exponents)), r.order, r.conductor,
                      r.value.real, r.value.imag, abs(r.value)] for r in table)
    code, raw = run(tmp_path, command, "--q", str(q), "--format", "csv")
    assert code == 0
    assert raw.splitlines(keepends=True) == buf.getvalue().encode().splitlines(keepends=True)


def test_census_csv_bytes_pinned(tmp_path):
    """Pinned bytes: share and deviation floats in repr form, blanks for an
    empty census, CRLF line ends."""
    v = sigmalab.__version__
    _, raw = run(tmp_path, "census", "--x", "200", "--q", "7", "--format", "csv")
    assert raw == (
        f"# sigmalab {v} census: classes of sigma(n) mod 7 among units, n <= 200, "
        "filter all [filter=all format=csv q=7 x=200]\r\n"
        "class,count,share,rel_deviation\r\n"
        "1,21,0.14093959731543623,-0.15436241610738255\r\n"
        "2,21,0.14093959731543623,-0.15436241610738255\r\n"
        "3,30,0.20134228187919462,0.20805369127516782\r\n"
        "4,28,0.18791946308724833,0.12751677852348986\r\n"
        "5,23,0.15436241610738255,-0.0738255033557047\r\n"
        "6,26,0.174496644295302,0.046979865771812124\r\n").encode()
    _, raw = run(tmp_path, "census", "--x", "60", "--q", "10", "--filter",
                 "pk-threshold", "--k", "4", "--threshold", "1000", "--format", "csv")
    assert raw == (
        f"# sigmalab {v} census: classes of sigma(n) mod 10 among units, n <= 60, "
        "filter P_4(n) > 1000 [filter=pk-threshold format=csv k=4 q=10 "
        "threshold=1000 x=60]\r\n"
        "class,count,share,rel_deviation\r\n"
        "1,0,,\r\n3,0,,\r\n7,0,,\r\n9,0,,\r\n").encode()


@pytest.mark.parametrize("argv", [
    ["census", "--x", "1e19", "--q", "5"],
    ["census", "--x", "1e20", "--q", "5"],
    ["twisted-sum", "--x", "1e20", "--q", "5", "--index", "1"],
    ["lsd-scan", "--beta", "0.5", "--Y", "7", "--x-grid", "1000,1e19"],
    ["witness-sqfree", "--Y", "7", "--x", "1e19"],
    ["twisted-sum", "--x", "1000", "--q", "7", "--index", "99"],
    ["twisted-sum", "--x", "1000", "--q", "7", "--index", "-1"],
    ["prime-recip", "--x", "100", "--q", "5", "--coeffs", ""],
    ["prime-recip", "--x", "100", "--q", "5", "--coeffs", "3"],
    ["census", "--x", "100", "--q", "5", "--workers", "-2"],
    ["census", "--x", "100", "--q", "5", "--workers", "0"],
    ["lsd-scan", "--beta", "0.5", "--Y", "7", "--x-grid", ","],
    ["census", "--x", "100", "--q", "1e19"],
    ["witness-sqfree", "--Y", "1e18", "--x", "1e6"],
    ["weil-check", "--ell", "5", "--e", "1e9"],
])
def test_exit_code_2_beyond_int64_range(capsys, argv):
    """Arguments out of range give one line and exit 2, never a traceback:
    x whose integers do not fit in int64 (refused before any prime table
    is allocated), a character index outside
    0..φ(q) − 1, a worker count below 1, an empty list, a constant
    polynomial, and a modulus q or ell^e of 2^63 or more."""
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("sigmalab: ")


# Flag values a hostile caller might pass: out of range, beyond int64,
# non-finite, fractional, empty, not a number, complex.
HOSTILE = ["0", "-1", str(2**63 - 1), str(2**63 + 1), "1e19", "1e400", "nan", "inf",
           "-inf", "1e-3", "", "abc", "0.3+0.4j"]
SUBCOMMANDS = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices


@st.composite
def hostile_argv(draw):
    """One subcommand with every required flag and some optional ones:
    x small, --memory-budget 10^7 wherever it is read, the workers at
    most 8, choices among their own, and every other value from HOSTILE."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [command]
    for action in SUBCOMMANDS[command]._actions:
        if action.dest in ("help", "output"):
            continue
        if action.dest == "memory_budget":
            value = "1e7"
        elif not (action.required or draw(st.booleans())):
            continue
        elif action.dest in ("x", "x_grid"):
            value = draw(st.sampled_from(["100", "1000"]))
        elif action.dest == "workers":
            value = draw(st.sampled_from(["1", "8", "0", "-1", "1e-3", "nan", "abc"]))
        elif action.choices and action.dest != "arity":
            value = draw(st.sampled_from(list(action.choices)))
        else:
            value = draw(st.sampled_from(HOSTILE))
        argv.append(f"{action.option_strings[0]}={value}")
    return argv


@settings(max_examples=300, deadline=None)
@given(hostile_argv())
def test_hostile_arguments_never_end_in_a_traceback(argv):
    """Every subcommand under hostile flag values exits 0, 1, 2 or 3, with
    at most one stderr line for 2 and 3; an exception escaping main fails
    the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    if code >= 2:
        assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
