"""The byte-identity corpus: CLI commands with the digests of their output.

``digests.json`` holds one record per command: its argv, an optional fault
(one of :data:`FAULTS`, for the internal-error exit 5 that no argv reaches),
the exit code, and the sha256 of stdout and of stderr.  ``tests/test_corpus.py``
runs every record through :func:`run` and compares.

Regenerate with ``PYTHONPATH=src python tests/corpus/generate.py``, only when
an output is meant to change, and name each command whose digest changed in
CHANGES.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import sys
from collections.abc import Callable, Iterator
from pathlib import Path
from unittest import mock

from click.testing import CliRunner

from kothedim import diameters as dm
from kothedim.cli import main
from kothedim.sequences import ExponentSequence

ROOT = Path(__file__).resolve().parents[2]
DIGESTS = Path(__file__).with_name("digests.json")

# paths are relative to the repository root, where every command runs: the
# file alpha's name is part of its output
FILE_ALPHA = "file:tests/corpus/alpha.txt"  # 400 rational values
KINDS = ["linear", "factorial", "superproduct", "poly:2", "poly:3", FILE_ALPHA]
PAIRS = ["1:2", "2:5", "3:7", "1:3", "2:3", "1:10"]
MISSING_DIR = "tests/corpus/no-such-dir"


def _short_merge() -> contextlib.AbstractContextManager:
    values = ExponentSequence.scaled_values
    return mock.patch.object(ExponentSequence, "scaled_values",
                             lambda self: itertools.islice(values(self), 5))


def _coverage_gap() -> contextlib.AbstractContextManager:
    def broken(*_):
        raise dm.CoverageError("gap at index 7")

    return mock.patch.object(dm, "closedform_diameters", broken)


# faults that reach the internal-error exit 5
FAULTS: dict[str, Callable[[], contextlib.AbstractContextManager]] = {
    "short-merge": _short_merge,
    "coverage-gap": _coverage_gap,
}


def _pq(pair: str) -> list[str]:
    p, q = pair.split(":")
    return ["--p", p, "--q", q]


def commands() -> Iterator[tuple[list[str], str | None]]:
    """Every corpus command as (argv, fault)."""
    # grid: the pairing table, band enumerations, and their error paths
    for max_n in ("1", "21", "100"):
        yield ["grid", "--max-n", max_n], None
    for pair, count in itertools.product(["1:2", "2:5", "3:7", "1:10"], ["20", "200"]):
        yield ["grid", *_pq(pair), "--count", count], None
    for args in (["--p", "1"], ["--q", "2"], ["--p", "2", "--q", "1"], ["--p", "0", "--q", "1"],
                 ["--max-n", "0"], ["--out", f"{MISSING_DIR}/grid.csv"]):
        yield ["grid", *args], None

    # gen-matrix on every kind, a file prefix too short, bad specs
    for kind, (k_max, n_max) in itertools.product(KINDS, [("6", "15"), ("3", "40"), ("12", "8")]):
        yield ["gen-matrix", "--alpha", kind, "--k-max", k_max, "--n-max", n_max], None
    yield ["gen-matrix", "--alpha", FILE_ALPHA, "--n-max", "401"], None
    yield ["gen-matrix", "--alpha", "linear", "--out", f"{MISSING_DIR}/m.csv"], None
    for spec in ("cubic", "poly:x", "poly:0", "file:", "file:tests/corpus/missing.txt", ""):
        yield ["gen-matrix", "--alpha", spec], None

    # diameters: every kind, method and output on four pairs; counts on six
    for kind, pair, method, output in itertools.product(
            KINDS, PAIRS[:4], ["oracle", "closed", "both"], ["csv", "json", "table"]):
        yield ["diameters", "--alpha", kind, *_pq(pair), "--count", "25",
               "--method", method, "--output", output], None
    for kind, pair in itertools.product(KINDS, PAIRS):
        yield ["diameters", "--alpha", kind, *_pq(pair), "--count", "150"], None
    for kind, pair, method in itertools.product(KINDS, ["1:2", "2:5"], ["oracle", "both"]):
        yield ["diameters", "--alpha", kind, *_pq(pair), "--count", "40", "--horizon", "60",
               "--method", method, "--output", "json"], None
    yield ["diameters", "--alpha", "superproduct", "--p", "2", "--q", "5", "--count", "300",
           "--horizon", "600", "--method", "both"], None
    yield ["diameters", "--alpha", "factorial", "--p", "1", "--q", "2", "--count", "200",
           "--horizon", "400", "--method", "oracle", "--output", "json"], None
    for kind, pair in itertools.product(["linear", "factorial", "superproduct"],
                                        ["1:300", "1000:1001", "100:400"]):
        yield ["diameters", "--alpha", kind, *_pq(pair), "--count", "10", "--output", "json"], None
    for args in (["--p", "2", "--q", "1"], ["--p", "0", "--q", "1"], ["--p", "1", "--q", "1"],
                 ["--p", "1", "--q", "2", "--method", "closed", "--horizon", "60"],
                 ["--p", "1", "--q", "2", "--count", "50", "--horizon", "40"],
                 ["--p", "1", "--q", "2", "--horizon", "1"],
                 ["--p", "1", "--q", "2", "--count", "0"],
                 ["--p", "1", "--q", "2", "--output", "xml"],
                 ["--p", "1", "--q", "2", "--out", f"{MISSING_DIR}/d.csv"]):
        yield ["diameters", "--alpha", "linear", *args], None
    yield ["diameters", "--alpha", "linear", "--p", "1"], None
    for method, output in itertools.product(["oracle", "closed", "both"], ["csv", "json"]):
        yield ["diameters", "--alpha", FILE_ALPHA, "--p", "1", "--q", "2", "--count", "500",
               "--method", method, "--output", output], None
    yield ["diameters", "--alpha", FILE_ALPHA, "--p", "1", "--q", "2", "--count", "300",
           "--horizon", "500", "--method", "oracle"], None

    # check: every criterion on every kind, and its error paths
    for kind in KINDS:
        for k, horizon in (("1", "100"), ("3", "1000"), ("1", "1000000")):
            yield ["check", "--criterion", "nuclearity", "--alpha", kind, "--k", k,
                   "--N", horizon], None
        for p, lam in (("1", None), ("3", None), ("2", "1/3")):
            yield ["check", "--criterion", "dn", "--alpha", kind, "--p", p, "--N", "300",
                   *(["--lambda", lam] if lam else [])], None
        for p, k, j in (("1", None, None), ("2", "4", None), ("1", "3", "5/2")):
            yield ["check", "--criterion", "omega", "--alpha", kind, "--p", p, "--N", "300",
                   *(["--k", k] if k else []), *(["--j", j] if j else [])], None
        for j, bound in (("1", "10"), ("2", "1000"), ("5", "1000000"), ("3", "7/2")):
            yield ["check", "--criterion", "d2", "--alpha", kind, "--j", j, "--B", bound], None
        for horizon in ("50", "1000"):
            yield ["check", "--criterion", "regularity", "--alpha", kind, "--N", horizon], None
    for j in ("60", "150"):  # witnesses of thousands and tens of thousands of digits
        yield ["check", "--criterion", "d2", "--alpha", "factorial", "--j", j, "--B", "10"], None
    yield ["check", "--criterion", "d2", "--alpha", "superproduct", "--j", "40", "--B", "10"], None
    for args in (["d2", "--j", "abc"], ["d2", "--j", "0"], ["d2", "--B", "x"],
                 ["dn", "--lambda", "1/0"], ["omega", "--j", ""], ["nuclearity", "--k", "0"],
                 ["d2", "--j", "1", "--B", "1000000000000", "--search-cap", "100"],
                 ["d2", "--out", f"{MISSING_DIR}/c.json"], ["cubic"]):
        yield ["check", "--criterion", args[0], "--alpha", "linear", *args[1:]], None
    yield ["check", "--criterion", "d2", "--alpha", FILE_ALPHA, "--j", "3",
           "--B", "1000000"], None
    yield ["check", "--criterion", "dn", "--alpha", FILE_ALPHA, "--N", "5000"], None

    # verify: every check on every kind and on three pair sets
    for what, kind, pairs in itertools.product(
            ["sandwich", "eadd", "aa", "edd-tail", "delta-probe"], KINDS,
            ["1:2", "2:5,3:7", "1:2,1:3,2:3"]):
        yield ["verify", "--what", what, "--alpha", kind, "--pairs", pairs, "--count", "60"], None
    for kind, theta in itertools.product(KINDS, ["1/2", "-1", "3"]):
        yield ["verify", "--what", "delta-probe", "--alpha", kind, "--pairs", "1:2,2:5",
               "--count", "80", "--theta", theta], None
    for kind, window in itertools.product(KINDS, ["5", "200"]):
        yield ["verify", "--what", "aa", "--alpha", kind, "--pairs", "1:2,2:5", "--count", "80",
               "--tail-window", window], None
    for what, kind in itertools.product(["eadd", "aa", "delta-probe"], ["factorial", "superproduct"]):
        yield ["verify", "--what", what, "--alpha", kind, "--pairs", "1:2,2:5",
               "--count", "1000"], None
    for args in (["--pairs", "2:1"], ["--pairs", "1-2"], ["--pairs", ","], ["--theta", "1/0"],
                 ["--theta", "abc"], ["--count", "0"], ["--what", "nothing"],
                 ["--out", f"{MISSING_DIR}/v.json"]):
        yield ["verify", "--what", "sandwich", "--alpha", "linear", *args], None
    yield ["verify", "--what", "sandwich", "--alpha", FILE_ALPHA, "--count", "450"], None

    # plot-data on every kind and pair, and factorial's long rows
    for kind, pair in itertools.product(KINDS, PAIRS):
        yield ["plot-data", "--alpha", kind, *_pq(pair), "--count", "40"], None
    yield ["plot-data", "--alpha", "factorial", "--p", "1", "--q", "2", "--count", "1500"], None
    yield ["plot-data", "--alpha", "superproduct", "--p", "2", "--q", "5", "--count", "300"], None
    for alpha, args in (("linear", ["--p", "2", "--q", "1"]),
                        (FILE_ALPHA, ["--p", "1", "--q", "2", "--count", "401"]),
                        ("linear", ["--p", "1", "--q", "2", "--out", f"{MISSING_DIR}/p.csv"])):
        yield ["plot-data", "--alpha", alpha, *args], None

    # the internal-error exit 5, reached by a fault
    yield ["diameters", "--alpha", "linear", "--p", "2", "--q", "5", "--count", "10",
           "--method", "both", "--output", "json"], "short-merge"
    for sub in (["diameters", "--p", "1", "--q", "2"], ["verify", "--what", "sandwich"],
                ["plot-data", "--p", "1", "--q", "2"]):
        yield [*sub, "--alpha", "linear"], "coverage-gap"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], fault: str | None = None) -> dict:
    """One command through ``CliRunner`` from the repository root, with no
    ``KOTHEDIM_OUT``; the int-to-str limit that the CLI lifts is put back."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with FAULTS[fault]() if fault else contextlib.nullcontext():
            result = CliRunner().invoke(main, argv, env={"KOTHEDIM_OUT": None})
    finally:
        os.chdir(cwd)
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise RuntimeError(f"{argv}: {result.exception!r}") from result.exception
    return {
        "argv": argv,
        **({"fault": fault} if fault else {}),
        "exit_code": result.exit_code,
        "stdout_sha256": _sha256(result.stdout_bytes),
        "stderr_sha256": _sha256(result.stderr_bytes),
    }


def write_digests() -> None:
    records = [run(argv, fault) for argv, fault in commands()]
    # one record a line, so a changed digest is a one-line diff
    DIGESTS.write_text("[\n" + ",\n".join(map(json.dumps, records)) + "\n]\n")
    codes = sorted({r["exit_code"] for r in records})
    print(f"wrote {len(records)} records to {DIGESTS}; exit codes {codes}")


if __name__ == "__main__":
    write_digests()
