"""Replay of a fixed set of CLI commands against bytes captured earlier.

Each case runs main() in-process and compares its exit code, stdout,
stderr and, for commands with --output, the written file against the
files under tests/golden/.  A refactor that must keep the CLI bytes
identical keeps this file passing unchanged.

After a deliberate change of output, recapture with

    PYTHONPATH=src python tests/test_cli_golden.py --capture

and review the diff of tests/golden/ like any other change.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

import sigmalab.cli as cli

GOLDEN = Path(__file__).parent / "golden"
OUT = "{output}"

CASES = {
    # census: filters, both formats, q below and above the segment length, workers
    "census_q5": ["census", "--x", "1e5", "--q", "5"],
    "census_q5_csv": ["census", "--x", "1e5", "--q", "5", "--format", "csv"],
    "census_q101_pk": ["census", "--x", "1e5", "--q", "101", "--filter", "pk-threshold",
                       "--k", "2", "--threshold", "100"],
    "census_q101_pk_csv": ["census", "--x", "1e5", "--q", "101", "--filter",
                           "pk-threshold", "--k", "2", "--threshold", "100",
                           "--format", "csv", "--output", OUT],
    "census_q1009_pk": ["census", "--x", "1e6", "--q", "1009", "--filter", "pk-threshold",
                        "--k", "2", "--threshold", "100", "--output", OUT],
    "census_q1009_sparse": ["census", "--x", "2e5", "--q", "1009", "--workers", "2"],
    "census_q12_coprime": ["census", "--x", "1e5", "--q", "12", "--filter", "coprime-only"],
    "census_q10_coprime": ["census", "--x", "1e5", "--q", "10", "--filter", "coprime-only",
                           "--format", "csv"],
    "census_q2310_coprime": ["census", "--x", "1e5", "--q", "2310", "--filter",
                             "coprime-only"],
    "census_q512_coprime_csv": ["census", "--x", "1e5", "--q", "512", "--filter",
                                "coprime-only", "--format", "csv"],
    "census_q999_seg": ["census", "--x", "1e5", "--q", "999", "--workers", "2"],
    "census_empty": ["census", "--x", "50", "--q", "1000", "--filter", "pk-threshold",
                     "--k", "4", "--threshold", "1000"],
    "census_q1": ["census", "--x", "1e4", "--q", "1"],
    "census_q15_pk": ["census", "--x", "1e6", "--q", "15", "--filter", "pk-threshold",
                      "--k", "2", "--threshold", "1000"],
    "census_q70_pk_seg": ["census", "--x", "1e6", "--q", "70", "--filter", "pk-threshold",
                          "--k", "3", "--threshold", "7"],
    "census_q2_seg": ["census", "--x", "1e6", "--q", "2", "--format", "csv"],
    # twisted sums and character tables
    "twisted_sum": ["twisted-sum", "--x", "1e5", "--q", "7", "--index", "3"],
    "twisted_sum_pk_csv": ["twisted-sum", "--x", "1e5", "--q", "15", "--index", "5",
                           "--filter", "pk-threshold", "--k", "2", "--threshold", "10",
                           "--format", "csv"],
    "twisted_sum_coprime": ["twisted-sum", "--x", "1e5", "--q", "12", "--index", "1",
                            "--filter", "coprime-only", "--workers", "2"],
    "twisted_sum_x1_csv": ["twisted-sum", "--x", "1", "--q", "7", "--index", "3",
                           "--format", "csv"],
    "eta_table_q15": ["eta-table", "--q", "15"],
    "eta_table_q15_csv": ["eta-table", "--q", "15", "--format", "csv"],
    "rho_table_q15": ["rho-table", "--q", "15"],
    "rho_table_q15_csv": ["rho-table", "--q", "15", "--format", "csv"],
    "rho_table_q16": ["rho-table", "--q", "16"],
    "eta_table_q1": ["eta-table", "--q", "1"],
    "eta_table_q16_csv": ["eta-table", "--q", "16", "--format", "csv"],
    # verification checks and point counts
    "verify_s_set": ["verify-s-set"],
    "verify_s_set_q35_csv": ["verify-s-set", "--q", "35", "--format", "csv"],
    "weil_check": ["weil-check", "--ell", "5", "--e", "2"],
    "weil_check_csv": ["weil-check", "--ell", "7", "--e", "2", "--format", "csv"],
    "v_count": ["v-count", "--q", "45", "--w", "2"],
    "v_count_arity2_csv": ["v-count", "--q", "35", "--w", "3", "--arity", "2",
                           "--format", "csv"],
    "lift_count": ["lift-count", "--ell", "5"],
    "lift_count_csv": ["lift-count", "--ell", "7", "--format", "csv"],
    "curve_count": ["curve-count", "--ell", "11"],
    "curve_count_sigma_csv": ["curve-count", "--ell", "13", "--which", "sigma-product",
                              "--w", "3", "--format", "csv"],
    # rough sums, Euler products, prime reciprocals
    "lsd_scan": ["lsd-scan", "--beta", "0.5+0.5j", "--Y", "7", "--x-grid", "1000,1e4,1e5"],
    "lsd_scan_csv": ["lsd-scan", "--beta", "0.3", "--Y", "11", "--x-grid", "1e4,1e5",
                     "--format", "csv"],
    "lsd_scan_beta0": ["lsd-scan", "--beta", "0", "--Y", "7", "--x-grid", "1000,1e4"],
    "lsd_scan_beta0_csv": ["lsd-scan", "--beta", "0", "--Y", "7", "--x-grid", "1000,1e4",
                           "--format", "csv"],
    "g_one": ["g-one", "--Y", "7", "--beta", "0.5", "--p-max", "1e5"],
    "g_one_csv": ["g-one", "--Y", "11", "--beta", "0.3+0.4j", "--p-max", "1e4",
                  "--format", "csv"],
    "prime_recip": ["prime-recip", "--x", "1e6", "--q", "5"],
    "prime_recip_csv": ["prime-recip", "--x", "1e5", "--q", "7", "--coeffs", "1,1,1",
                        "--format", "csv"],
    # witnesses
    "witness_sqfree_y7": ["witness-sqfree", "--Y", "7", "--x", "1e6"],
    "witness_sqfree_y11": ["witness-sqfree", "--Y", "11", "--x", "1e6"],
    "witness_sqfree_y13_csv": ["witness-sqfree", "--Y", "13", "--x", "1e5",
                               "--workers", "2", "--format", "csv"],
    "witness_even_y5": ["witness-even", "--Y", "5", "--x", "1e6"],
    "witness_even_y11": ["witness-even", "--Y", "11", "--x", "1e6", "--output", OUT],
    "witness_even_y7_csv": ["witness-even", "--Y", "7", "--x", "1e5", "--format", "csv"],
    # errors: usage (exit 2) and budget (exit 3)
    "error_x_inf": ["census", "--x", "inf", "--q", "5"],
    "error_x_nan": ["census", "--x", "nan", "--q", "5"],
    "error_x_negative": ["census", "--x", "-5", "--q", "5"],
    "error_x_1e19": ["census", "--x", "1e19", "--q", "5"],
    "error_x_abc": ["census", "--x", "abc", "--q", "5"],
    "error_no_command": ["no-such-command"],
    "error_pk_missing_k": ["census", "--x", "100", "--q", "5", "--filter", "pk-threshold"],
    "error_pk_k0": ["census", "--x", "100", "--q", "5", "--filter", "pk-threshold",
                    "--k", "0", "--threshold", "5"],
    "error_twisted_1e20": ["twisted-sum", "--x", "1e20", "--q", "5", "--index", "1"],
    "error_lsd_1e19": ["lsd-scan", "--beta", "0.5", "--Y", "7", "--x-grid", "1000,1e19"],
    "error_witness_1e19": ["witness-sqfree", "--Y", "7", "--x", "1e19"],
    "error_witness_no_primes": ["witness-even", "--Y", "4", "--x", "1e4"],
    "error_workers_negative": ["census", "--x", "100", "--q", "5", "--workers", "-2"],
    "error_x_grid_empty": ["lsd-scan", "--beta", "0.5", "--Y", "7", "--x-grid", ","],
    "error_lsd_y_nan": ["lsd-scan", "--beta", "0.5", "--Y", "nan", "--x-grid", "1000"],
    "error_lsd_beta_nan": ["lsd-scan", "--beta", "nan", "--Y", "7", "--x-grid", "1000"],
    "error_g_one_y_inf": ["g-one", "--Y", "inf", "--beta", "0.5", "--p-max", "1000"],
    "error_budget": ["census", "--x", "1e4", "--q", "5", "--memory-budget", "100"],
}


def replay(argv: list[str], output: Path) -> dict[str, object]:
    """Exit code, stdout, stderr and --output bytes of one in-process run."""
    out, err = io.StringIO(newline=""), io.StringIO(newline="")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(output) if a == OUT else a for a in argv])
        except SystemExit as exc:
            code = exc.code
    return {
        "exit": code,
        "stdout": out.getvalue().encode(),
        "stderr": err.getvalue().encode(),
        "file": output.read_bytes() if OUT in argv else None,
    }


def _path(name: str, part: str) -> Path:
    return GOLDEN / f"{name}.{part}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_match_golden(tmp_path, name):
    """An empty stdout or stderr has no file; a file part exists exactly
    when the command writes --output."""
    got = replay(CASES[name], tmp_path / "out")
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert got["exit"] == codes[name]
    for part in ("stdout", "stderr"):
        path = _path(name, part)
        assert got[part] == (path.read_bytes() if path.exists() else b"")
    path = _path(name, "file")
    assert got["file"] == (path.read_bytes() if path.exists() else None)


def test_every_subcommand_pinned_in_both_formats():
    """Each subcommand has a successful case in JSON and one in CSV, so a
    new subcommand cannot go without pinned bytes."""
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    pinned = {(argv[0], "csv" if "csv" in argv else "json")
              for name, argv in CASES.items() if codes[name] == 0}
    assert {(c, f) for c in sub.choices for f in ("json", "csv")} - pinned == set()


def capture() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in sorted(CASES.items()):
            got = replay(argv, Path(tmp) / "out")
            codes[name] = got.pop("exit")
            for part, data in got.items():
                if data:
                    _path(name, part).write_bytes(data)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--capture"]:
    capture()
