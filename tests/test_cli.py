import dataclasses
import gc
import hashlib
import itertools
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import kothedim
from kothedim import diameters as dm
from kothedim.cli import main
from kothedim.kothe import KotheFamily, c_pq
from kothedim.sequences import ExponentSequence

from ratio_terms import ratio_coeff


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(autouse=True)
def int_str_limit():
    """The CLI lifts Python's int-to-str digit limit for its whole process;
    put the limit back after each test."""
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


def test_grid_pairing_table(runner):
    result = invoke(runner, ["grid", "--max-n", "10"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("# kothedim schema=")
    assert lines[1] == "n,x,y,column"
    assert lines[2] == "1,0,0,1"
    assert lines[-1] == "10,3,0,4"


def test_grid_band_enumeration(runner):
    result = invoke(runner, ["grid", "--p", "1", "--q", "2", "--count", "6"])
    rows = [line.split(",") for line in result.output.strip().splitlines()[2:]]
    assert [r[1] for r in rows] == ["1", "2", "4", "7", "11", "16"]
    # marker column: s_k = k+1 for the single-column band
    assert [r[4] for r in rows] == ["0", "1", "2", "3", "4", "5"]


@pytest.mark.parametrize("args, message", [
    (["--p", "1"], "give both --p and --q or neither"),
    (["--q", "2"], "give both --p and --q or neither"),
    (["--p", "2", "--q", "1"], "need q > p >= 1"),
    (["--p", "0", "--q", "1"], "need q > p >= 1"),
])
def test_grid_band_options_exit_2(runner, args, message):
    result = runner.invoke(main, ["grid", *args])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"error: {message}" in result.output


def test_gen_matrix_past_the_double_range_prints_inf(runner):
    # row 71 on column 3 (n = 6): e^((70/71) * 6!), an exponent of about
    # 709.86, past the largest double but below the 710 clamp
    result = invoke(runner, ["gen-matrix", "--alpha", "factorial", "--k-max", "71", "--n-max", "6"])
    assert result.exit_code == 0
    assert result.output.strip().splitlines()[-1] == "71,6,3,70/71,inf"


def test_gen_matrix(runner):
    result = invoke(runner, ["gen-matrix", "--alpha", "linear", "--k-max", "2", "--n-max", "3"])
    lines = result.output.strip().splitlines()
    assert lines[1] == "k,n,column,coeff,approx"
    # k=1,n=3 sits in column 2: coeff -1/1
    assert any(line.startswith("1,3,2,-1,") for line in lines)
    # k=2,n=1: column 1, coeff 1/2
    assert any(line.startswith("2,1,1,1/2,") for line in lines)


def test_diameters_both_methods_agree(runner):
    result = invoke(
        runner,
        ["diameters", "--alpha", "linear", "--p", "1", "--q", "2", "--count", "100", "--method", "both"],
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 100
    agree_col = header.index("values_equal")
    assert all(r[agree_col] == "True" for r in rows)
    cert_col = header.index("certified")
    assert all(r[cert_col] == "True" for r in rows)


def test_diameters_json_schema(runner):
    result = invoke(
        runner,
        ["diameters", "--alpha", "factorial", "--p", "1", "--q", "2", "--count", "10",
         "--method", "both", "--output", "json"],
    )
    payload = json.loads(result.output)
    assert payload["schema"] == 1
    assert payload["oracle_agrees"] is True
    assert payload["floats_display_only"] is True
    entry = payload["entries"][0]
    assert set(entry) >= {"n", "coeff", "alpha_index", "segment", "certified", "approx_value"}
    assert entry["coeff"] == "-3/2"


def test_determinism_byte_identical(runner):
    args = ["diameters", "--alpha", "superproduct", "--p", "2", "--q", "3", "--count", "50", "--method", "both"]
    out1 = invoke(runner, args).output
    out2 = invoke(runner, args).output
    assert out1 == out2
    args = ["verify", "--what", "aa", "--alpha", "factorial", "--pairs", "1:2,2:3", "--count", "80"]
    assert invoke(runner, args).output == invoke(runner, args).output


def test_check_regularity_superproduct(runner):
    result = invoke(runner, ["check", "--criterion", "regularity", "--alpha", "superproduct", "--N", "500"])
    payload = json.loads(result.output)
    assert payload["verdict"] == "pass"


def test_check_dn_defaults(runner):
    result = invoke(runner, ["check", "--criterion", "dn", "--alpha", "linear", "--p", "2", "--N", "500"])
    payload = json.loads(result.output)
    assert payload["verdict"] == "pass"
    assert payload["params"]["lambda"]  # defaulted to half the admissible bound


def test_check_d2(runner):
    result = invoke(runner, ["check", "--criterion", "d2", "--alpha", "factorial", "--j", "2", "--B", "1000"])
    payload = json.loads(result.output)
    assert payload["verdict"] == "pass"
    assert payload["witnesses"][0]["n"] == 8


def test_verify_eadd_constant_ratio(runner):
    result = invoke(runner, ["verify", "--what", "eadd", "--alpha", "factorial", "--pairs", "1:2", "--count", "80"])
    payload = json.loads(result.output)
    ratios = payload["reports"][0]["ratios"]
    assert ratios
    assert all(r["ratio"] == "3/2" for r in ratios)
    assert payload["reports"][0]["expected"] == "3/2"


def test_verify_sandwich(runner):
    result = invoke(
        runner,
        ["verify", "--what", "sandwich", "--alpha", "linear", "--pairs", "1:2,2:3", "--count", "200"],
    )
    payload = json.loads(result.output)
    for rep in payload["reports"]:
        assert rep["upper_bound_violations"] == []
        assert rep["conclusive"] is True


@pytest.mark.parametrize(
    "count, horizon, n_found, conclusive", [(1, 0, None, False), (2, 1, 1, True)]
)
def test_verify_sandwich_threshold_past_the_certified_range(
    runner, count, horizon, n_found, conclusive
):
    """At count 1 no index n >= 1 is certified, so no threshold is seen."""
    result = invoke(
        runner,
        ["verify", "--what", "sandwich", "--alpha", "linear", "--pairs", "1:2",
         "--count", str(count)],
    )
    (rep,) = json.loads(result.output)["reports"]
    assert (rep["horizon"], rep["N_found"], rep["conclusive"]) == (horizon, n_found, conclusive)


def test_diameters_fixed_horizon(runner):
    result = invoke(
        runner,
        ["diameters", "--alpha", "linear", "--p", "1", "--q", "2", "--count", "12",
         "--horizon", "12", "--method", "both"],
    )
    lines = result.output.strip().splitlines()
    header = lines[1].split(",")
    cert = header.index("certified")
    flags = [line.split(",")[cert] for line in lines[2:]]
    # a 12-term prefix certifies only an initial stretch of the 12 rows:
    # d_11 = e^(-7) does not beat the unseen-term bound e^(-13/2)
    assert flags[0] == "True"
    assert flags[-1] == "False"


def test_verify_delta_probe(runner):
    result = invoke(
        runner,
        ["verify", "--what", "delta-probe", "--alpha", "superproduct", "--pairs", "1:2,2:3",
         "--count", "60", "--theta", "1/100"],
    )
    payload = json.loads(result.output)
    report = payload["report"]
    assert report["verdicts_coincide"] is True
    assert report["kothe_member"] is False
    assert report["kothe_witness_p"] == 100


def test_plot_data_factorial_ratio_spikes(runner):
    result = invoke(runner, ["plot-data", "--alpha", "factorial", "--p", "1", "--q", "2", "--count", "30"])
    lines = result.output.strip().splitlines()
    header = lines[1].split(",")
    ratio_exact = header.index("ratio_exact")
    ratios = [line.split(",")[ratio_exact] for line in lines[2:]]
    assert "3/2" in ratios
    assert all(r in {"3/2", "1/2"} for r in ratios)


def test_plot_data_linear_ratio_bounded(runner):
    result = invoke(runner, ["plot-data", "--alpha", "linear", "--p", "1", "--q", "2", "--count", "60"])
    lines = result.output.strip().splitlines()
    header = lines[1].split(",")
    col = header.index("ratio")
    ratios = [float(line.split(",")[col]) for line in lines[2:]]
    assert max(ratios) <= 1.5
    assert all(r > 0 for r in ratios)


def test_bad_alpha_exits_2(runner):
    result = runner.invoke(main, ["diameters", "--alpha", "nope", "--p", "1", "--q", "2"])
    assert result.exit_code == 2


def test_bad_pair_exits_2(runner):
    result = runner.invoke(main, ["verify", "--what", "sandwich", "--alpha", "linear", "--pairs", "2:2"])
    assert result.exit_code == 2


@pytest.mark.parametrize("args, message", [
    (["diameters", "--alpha", "linear", "--p", "2", "--q", "1"], "need q > p >= 1"),
    (["plot-data", "--alpha", "linear", "--p", "2", "--q", "1"], "need q > p >= 1"),
    (["verify", "--what", "sandwich", "--alpha", "linear", "--pairs", "2:1"],
     "pair '2:1' must satisfy q > p >= 1"),
], ids=["diameters", "plot-data", "verify"])
def test_a_pair_off_the_rule_exits_2_with_one_error_line(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


def test_a_closed_stdout_pipe_exits_1_silently():
    """A reader that stops early ends the run as click ends it: exit 1 and
    nothing on stderr, not an I/O error."""
    src = Path(kothedim.__file__).resolve().parents[1]
    args = ["diameters", "--alpha", "linear", "--p", "2", "--q", "5", "--count", "20000",
            "--method", "closed"]  # about 600 kB of rows, past any pipe buffer
    with subprocess.Popen([sys.executable, "-m", "kothedim.cli", *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": str(src)}) as proc:
        proc.stdout.read(100)
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert stderr == b""


def run_cli(args, **env):
    """One real process of the CLI: its exit code, stdout bytes and stderr bytes."""
    src = Path(kothedim.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "kothedim.cli", *args], capture_output=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(src), **env})
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("args, code", [
    (["diameters", "--alpha", "linear", "--p", "1", "--q", "2", "--count", "20", "--output", "json"],
     0),
    (["diameters", "--alpha", "linear", "--p", "2", "--q", "1"], 2),
], ids=["json", "bad-pair"])
def test_an_ascii_locale_writes_the_same_bytes(args, code):
    """Under an ASCII stdio encoding click writes through a UTF-8 wrapper of
    its own, fetched for each write: stdout, stderr and the exit code stay
    as they are under UTF-8."""
    utf8 = run_cli(args, PYTHONIOENCODING="utf-8")
    assert run_cli(args, PYTHONIOENCODING="ascii") == utf8
    returncode, stdout, stderr = utf8
    assert returncode == code
    if code:
        assert (stdout, stderr) == (b"", b"error: need q > p >= 1\n")
    else:
        assert stdout.startswith(b'{\n  "alpha": "linear",') and stderr == b""


def readme_cli_commands() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.removeprefix("kothedim ") for line in block.splitlines()
            if line.startswith("kothedim ")]


@pytest.mark.parametrize("command", [
    *readme_cli_commands(),
    "diameters --alpha linear --p 2 --q 1",  # exit 2
    "grid --out {missing}/grid.csv",  # exit 4
])
def test_an_in_process_run_keeps_nothing_once_it_returns(runner, tmp_path, command):
    """click.echo's default stream is cached by the current sys.stdout or
    sys.stderr, and that cache keeps alive every stream it saw; CliRunner
    gives each run its own, so a default-stream write would keep each run's
    streams and output for the rest of the process."""
    args = shlex.split(command.format(missing=tmp_path / "missing"))
    code = runner.invoke(main, args).exit_code  # warm-up: imports, caches
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            assert runner.invoke(main, args).exit_code == code
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown < 10 * 4096, f"{grown / 10:.0f} bytes kept a run"


@pytest.mark.parametrize("pairs,message", [
    (",", "no pairs given"),
    (" , ,", "no pairs given"),
    ("1:2,1-3", "bad pair '1-3'; expected like 1:2"),
    ("1:2:3", "bad pair '1:2:3'; expected like 1:2"),
    ("1:x", "bad pair '1:x'; expected like 1:2"),
])
def test_malformed_pairs_exit_2(runner, pairs, message):
    result = runner.invoke(main, ["verify", "--what", "sandwich", "--alpha", "linear", "--pairs", pairs])
    assert result.exit_code == 2
    assert f"error: {message}" in result.output and "Traceback" not in result.output


def test_empty_pair_chunks_are_skipped(runner):
    args = ["verify", "--what", "sandwich", "--alpha", "linear", "--count", "30", "--pairs"]
    assert invoke(runner, args + [",1:2,,2:5 ,"]).output == invoke(runner, args + ["1:2,2:5"]).output


@pytest.mark.parametrize(
    "length,args",
    [
        (5, ["diameters", "--p", "1", "--q", "2", "--count", "50"]),
        # an exhausted prefix is a ValueError too, yet exits 3 from every subcommand
        (40, ["check", "--criterion", "nuclearity", "--N", "41"]),
        (40, ["check", "--criterion", "regularity", "--N", "40"]),
        (40, ["check", "--criterion", "d2", "--j", "1", "--B", "1000"]),
        (40, ["verify", "--what", "sandwich", "--count", "12"]),
    ],
    ids=["diameters", "nuclearity", "regularity", "d2", "sandwich"],
)
def test_uncertifiable_file_prefix_exits_3(runner, tmp_path, length, args):
    path = tmp_path / "short.txt"
    path.write_text("".join(f"{n}\n" for n in range(1, length + 1)))
    result = runner.invoke(main, args + ["--alpha", f"file:{path}"])
    assert result.exit_code == 3
    if length == 40:
        assert "prefix of length 40 exhausted at n=41" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("change", [
    {"alpha_index": -1},  # a larger value than the oracle's, same code
    {"alpha_index": 1},  # a smaller one
    {"code": 1},  # the pair's other coefficient at the same index
])
def test_values_equal_is_false_where_the_engines_disagree(runner, monkeypatch, change):
    closed = dm.closedform_diameters

    def moved(*args):
        table = closed(*args)
        entries = table.entries
        e, coeffs = entries[20], entries.coeffs
        entries[20] = dataclasses.replace(
            e, alpha_index=e.alpha_index + change.get("alpha_index", 0),
            coeff=coeffs[(coeffs.index(e.coeff) + change.get("code", 0)) % 2])
        return table

    monkeypatch.setattr(dm, "closedform_diameters", moved)
    args = ["diameters", "--alpha", "linear", "--p", "2", "--q", "5", "--count", "40"]
    rows = invoke(runner, args).output.splitlines()[2:]
    assert [row.split(",")[-1] for row in rows] == ["True"] * 20 + ["False"] + ["True"] * 19
    assert '"oracle_agrees": false' in invoke(runner, args + ["--output", "json"]).output


@pytest.mark.parametrize(
    "args",
    [
        ["diameters", "--alpha", "linear", "--p", "1", "--q", "2", "--method", "closed"],
        ["verify", "--what", "sandwich", "--alpha", "linear"],
    ],
    ids=["diameters", "verify"],
)
def test_coverage_failure_exits_5(runner, monkeypatch, tmp_path, args):
    def broken(*_):
        raise dm.CoverageError("gap at index 7")

    monkeypatch.setattr(dm, "closedform_diameters", broken)
    result = runner.invoke(main, args)
    assert result.exit_code == 5
    assert "error: segment coverage failure: gap at index 7" in result.output
    assert "Traceback" not in result.output
    assert result.stdout == ""
    result = runner.invoke(main, args + ["--out", str(tmp_path / "table.out")])
    assert result.exit_code == 5
    assert result.stdout == ""
    assert not (tmp_path / "table.out").exists()


def test_a_kernel_answering_0_for_1_exits_5(runner, monkeypatch):
    """The placement search stops at its bound A_pq n_a, so a kernel fault
    that makes every probe qualify exits 5 instead of searching on."""
    compare = ExponentSequence.compare

    def faulty(self, a, m, b, n):
        assert max(m, n) <= 10**6, f"probe at index {max(m, n)}"
        return min(compare(self, a, m, b, n), 0)

    monkeypatch.setattr(ExponentSequence, "compare", faulty)
    result = runner.invoke(main, ["diameters", "--alpha", "linear", "--p", "2", "--q", "5",
                                  "--method", "closed"])
    assert result.exit_code == 5, result.output
    assert result.stdout == ""
    assert result.stderr == ("error: segment coverage failure: alpha_14 <= A_pq alpha_3 "
                             "past the bound floor(A_pq n_a) = 13\n")


@pytest.mark.parametrize(
    "args",
    [
        ["plot-data", "--p", "1", "--q", "2", "--count", "38"],
        ["diameters", "--p", "1", "--q", "2", "--count", "38"],
        ["diameters", "--p", "1", "--q", "2", "--count", "38", "--output", "json"],
        ["gen-matrix", "--n-max", "45"],
    ],
    ids=["plot-data", "diameters-csv", "diameters-json", "gen-matrix"],
)
def test_an_exhausted_prefix_exits_3_writing_nothing(runner, tmp_path, args):
    """The rows are streamed, yet an error leaves stdout empty and creates
    no --out file: every row is computable once the output opens."""
    path = tmp_path / "short.txt"
    path.write_text("".join(f"{n}\n" for n in range(1, 41)))
    args = args + ["--alpha", f"file:{path}"]
    result = runner.invoke(main, args)
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    out = tmp_path / "rows.out"
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["grid", "--max-n", "5"],
        ["gen-matrix", "--alpha", "linear"],
        ["diameters", "--alpha", "linear", "--p", "1", "--q", "2"],
        ["diameters", "--alpha", "linear", "--p", "1", "--q", "2", "--output", "json"],
        ["diameters", "--alpha", "linear", "--p", "1", "--q", "2", "--output", "table"],
        ["plot-data", "--alpha", "linear", "--p", "1", "--q", "2"],
        ["check", "--criterion", "regularity", "--alpha", "linear", "--N", "50"],
    ],
    ids=["grid", "gen-matrix", "diameters-csv", "diameters-json", "diameters-table",
         "plot-data", "check"],
)
def test_an_unwritable_out_exits_4_writing_nothing(runner, tmp_path, args):
    out = tmp_path / "missing" / "rows.out"
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 4
    assert f"error: cannot write {out}" in result.output
    assert "Traceback" not in result.output
    assert result.stdout == ""
    assert not out.exists()


def test_out_file_and_env_dir(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("KOTHEDIM_OUT", str(tmp_path))
    result = invoke(
        runner,
        ["grid", "--max-n", "5", "--out", "pairs.csv"],
    )
    assert result.exit_code == 0
    written = (tmp_path / "pairs.csv").read_text()
    assert written.splitlines()[1] == "n,x,y,column"


def test_file_alpha_via_cli(runner, tmp_path):
    path = tmp_path / "alpha.txt"
    path.write_text("\n".join(str(n * n) for n in range(1, 300)) + "\n")
    result = invoke(
        runner,
        ["diameters", "--alpha", f"file:{path}", "--p", "1", "--q", "2", "--count", "20", "--method", "both"],
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    agree = lines[1].split(",").index("values_equal")
    assert all(r[agree] == "True" for r in rows)


def test_plot_data_factorial_past_float_range(runner):
    # alpha_n for n > 170 no longer fits a double: the float columns clamp
    result = invoke(runner, ["plot-data", "--alpha", "factorial", "--p", "1", "--q", "2", "--count", "200"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 200
    assert [r[0] for r in rows] == [str(n) for n in range(200)]
    alpha_col = lines[1].split(",").index("alpha_next")
    assert rows[-1][alpha_col] == "inf"


@pytest.mark.parametrize(
    "args,option",
    [
        (["diameters", "--alpha", "linear", "--p", "1", "--q", "2", "--count", "0"], "--count"),
        (["verify", "--what", "sandwich", "--alpha", "linear", "--count", "0"], "--count"),
        (["plot-data", "--alpha", "linear", "--p", "1", "--q", "2", "--count", "0"], "--count"),
        (["check", "--criterion", "dn", "--alpha", "linear", "--p", "0"], "--p"),
        (["check", "--criterion", "omega", "--alpha", "linear", "--p", "0"], "--p"),
        (["check", "--criterion", "nuclearity", "--alpha", "linear", "--k", "0"], "--k"),
        (["grid", "--max-n", "-1"], "--max-n"),
        (["grid", "--p", "1", "--q", "2", "--count", "-3"], "--count"),
        (["gen-matrix", "--alpha", "linear", "--k-max", "0"], "--k-max"),
        (["gen-matrix", "--alpha", "linear", "--n-max", "-2"], "--n-max"),
        (["check", "--criterion", "d2", "--alpha", "linear", "--search-cap", "-5"],
         "--search-cap"),
    ],
)
def test_non_positive_counts_and_indices_exit_2(runner, args, option):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert f"Invalid value for '{option}'" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["check", "--criterion", "dn", "--alpha", "linear", "--lambda", "1/0"],
        ["check", "--criterion", "omega", "--alpha", "linear", "--j", "1/0"],
        ["check", "--criterion", "d2", "--alpha", "linear", "--B", "1/0"],
        ["verify", "--what", "delta-probe", "--alpha", "factorial", "--count", "10",
         "--theta", "1/0"],
    ],
)
def test_zero_denominator_exits_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "error: zero denominator in rational '1/0'" in result.output
    assert "Traceback" not in result.output


def test_oracle_horizon_below_two_exits_2(runner):
    args = ["diameters", "--alpha", "linear", "--p", "1", "--q", "2", "--count", "1",
            "--horizon", "1", "--method", "oracle"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "Invalid value for '--horizon'" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_non_positive_check_horizon_exits_2(runner, horizon):
    args = ["check", "--criterion", "regularity", "--alpha", "linear", "--N", horizon]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "Invalid value for '--n' / '--N'" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("j", ["3/2", "x"])
def test_non_integer_d2_column_exits_2(runner, j):
    args = ["check", "--criterion", "d2", "--alpha", "linear", "--j", j]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert f"--j must be an integer column index for d2, got '{j}'" in result.output
    assert "invalid literal" not in result.output



@pytest.mark.parametrize("j", ["0", "-1"])
def test_d2_column_below_one_exits_2(runner, j):
    args = ["check", "--criterion", "d2", "--alpha", "linear", "--j", j]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert f"error: --j must be at least 1 for d2, got {j}" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "criterion,option",
    [("d2", "--j"), ("omega", "--j"), ("dn", "--lambda")],
)
def test_empty_option_value_exits_2(runner, criterion, option):
    args = ["check", "--criterion", criterion, "--alpha", "linear", option, ""]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert option in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("theta", ["", "abc", "1/0"])
def test_bad_theta_exits_2_naming_the_option(runner, theta):
    args = ["verify", "--what", "delta-probe", "--alpha", "linear", "--count", "5", "--theta", theta]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "(option --theta)" in result.output
    assert "Traceback" not in result.output


def test_nuclearity_at_a_huge_horizon_exits_0(runner):
    args = ["check", "--criterion", "nuclearity", "--alpha", "linear", "--N", str(10**12)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert "Traceback" not in result.output
    payload = json.loads(result.output)
    assert payload["verdict"] == "pass"
    assert payload["params"]["N"] == 10**12


def test_diameters_table_output(runner):
    result = invoke(
        runner,
        ["diameters", "--alpha", "linear", "--p", "1", "--q", "2", "--count", "5",
         "--output", "table"],
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0].split() == [
        "n", "coeff", "alpha_index", "segment", "approx_value", "certified",
        "oracle_coeff", "oracle_alpha_index", "values_equal",
    ]
    assert len(lines) == 1 + 5
    assert lines[1].split()[:4] == ["0", "-1/2", "3", "M"]
    assert all(line.split()[-1] == "True" for line in lines[1:])
    assert not any(line.endswith(" ") for line in lines)


def test_check_omega_passes_with_default_j(runner):
    result = invoke(runner, ["check", "--criterion", "omega", "--alpha", "linear", "--p", "1", "--N", "200"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["verdict"] == "pass"
    # j defaults to the ceiling of the admissible bound for k = p + 1
    assert payload["details"]["j_bound"] == "2"
    assert payload["params"]["j"] == "2"


def test_diameters_horizon_below_count_exits_2(runner):
    args = ["diameters", "--alpha", "linear", "--p", "1", "--q", "2", "--count", "10",
            "--horizon", "5"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "error: --horizon must be at least --count" in result.output


def test_diameters_horizon_with_closed_method_exits_2(runner):
    """--horizon only sets the oracle's prefix: the closed form alone
    refuses it, writing nothing."""
    args = ["diameters", "--alpha", "linear", "--p", "1", "--q", "2", "--count", "10",
            "--horizon", "20", "--method", "closed"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "error: --horizon sets the oracle's prefix; use --method oracle or both" in result.output


def test_oracle_prefix_certifying_nothing_exits_3(runner):
    args = ["diameters", "--alpha", "linear", "--p", "1", "--q", "2", "--count", "2",
            "--horizon", "2", "--method", "oracle"]
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert "error: prefix of 2 ratio terms certifies no diameter" in result.output
    assert "Traceback" not in result.output


def test_oracle_lists_final_terms_from_a_prefix_too_short_for_the_next_off_band_index(
        runner, tmp_path):
    """On 1:3 the indices 1, 2 and 3 are all on the band.  The band term at
    index 1 is final once alpha_3 is read (no term at index >= 3 beats it),
    so a 3-value prefix gives d_0; d_1 needs alpha_4 and exits 3."""
    path = tmp_path / "short.txt"
    path.write_text("1\n2\n3\n")
    args = ["diameters", "--alpha", f"file:{path}", "--p", "1", "--q", "3", "--method", "oracle"]
    result = runner.invoke(main, [*args, "--count", "1"])
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines()[2].startswith("0,-5/3,1,oracle,")
    result = runner.invoke(main, [*args, "--count", "2"])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert "prefix of length 3 exhausted at n=4" in result.stderr


def test_a_short_oracle_merge_exits_5_writing_nothing(runner, monkeypatch):
    """An oracle that lists fewer than --count terms is a fault (exit 5),
    never a short table with "oracle_agrees": true."""
    values = ExponentSequence.scaled_values
    monkeypatch.setattr(ExponentSequence, "scaled_values",
                        lambda self: itertools.islice(values(self), 5))
    result = runner.invoke(main, ["diameters", "--alpha", "linear", "--p", "2", "--q", "5",
                                  "--count", "10", "--method", "both", "--output", "json"])
    assert result.exit_code == 5
    assert result.stdout == ""
    assert result.stderr == ("error: segment coverage failure: the oracle's merge listed "
                             "5 of 10 terms\n")


def sorted_terms(seq, p, q, horizon):
    """The ratio terms with m <= horizon as (value, coeff, m), by a literal
    sorted() in Fractions: descending, ties by the smaller m."""
    coeffs = {m: ratio_coeff(p, q, m) for m in range(1, horizon + 1)}
    terms = sorted((-c * seq.value(m), m, c) for m, c in coeffs.items())
    return [(-neg, coeff, m) for neg, m, coeff in terms]


def test_file_prefix_a_few_values_past_count_certifies(runner, tmp_path):
    """The merge reads alpha only as far as its two runs need: 69 values
    certify 60 diameters (a prefix of count + 16 was read before)."""
    path = tmp_path / "short.txt"
    path.write_text("".join(f"{n}\n" for n in range(1, 70)))
    args = ["diameters", "--alpha", f"file:{path}", "--p", "1", "--q", "2",
            "--count", "60", "--method", "oracle"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    rows = [line.split(",") for line in result.output.splitlines()[2:]]
    want = sorted_terms(ExponentSequence.from_spec(f"file:{path}"), 1, 2, 69)[:60]
    assert [(Fraction(r[1]), int(r[2]), r[5]) for r in rows] == [
        (coeff, m, "True") for _, coeff, m in want
    ]


# 5,000 digits, past Python's default int-to-str limit of 4,300
BIG = "1" + "0" * 4998 + "3"


def test_plot_data_past_the_int_str_limit(runner):
    result = runner.invoke(
        main, ["plot-data", "--alpha", "factorial", "--p", "1", "--q", "2", "--count", "1800"]
    )
    assert result.exit_code == 0, result.output
    last = result.output.splitlines()[-1].split(",")
    seq = ExponentSequence.factorial()
    terms = sorted_terms(seq, 1, 2, 1801)
    d_n = terms[1799][0]
    assert d_n > c_pq(1, 2) * seq.value(1802)  # no unseen term reaches it
    alpha_next = seq.value(1800)
    assert last[0] == "1799"
    assert len(last[5]) > 4300
    assert [Fraction(x) for x in last[4:]] == [-d_n, alpha_next, -d_n / alpha_next]


def test_plot_data_factorial_at_count_3000(runner):
    """About 24 MiB of CSV; every 250th row and the last are read back."""
    count = 3000
    result = runner.invoke(
        main, ["plot-data", "--alpha", "factorial", "--p", "1", "--q", "2", "--count", str(count)]
    )
    assert result.exit_code == 0, result.output[-500:]
    rows = result.output.splitlines()[2:]
    assert len(rows) == count
    seq = ExponentSequence.factorial()
    terms = sorted_terms(seq, 1, 2, count + 1)
    assert terms[count - 1][0] > c_pq(1, 2) * seq.value(count + 2)  # all final
    for n in [*range(0, count, 250), count - 1]:
        row = rows[n].split(",")
        d_n, alpha_next = terms[n][0], seq.value(n + 1)
        assert row[0] == str(n)
        assert [Fraction(x) for x in row[4:]] == [-d_n, alpha_next, -d_n / alpha_next], n


def test_d2_bound_past_the_int_str_limit(runner):
    result = runner.invoke(
        main, ["check", "--criterion", "d2", "--alpha", "factorial", "--B", BIG]
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["params"]["B"] == BIG
    assert report["verdict"] == "pass"


def test_file_alpha_value_past_the_int_str_limit(runner, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("".join(f"{n}\n" for n in range(1, 30)) + BIG + "\n")
    args = ["diameters", "--alpha", f"file:{path}", "--p", "1", "--q", "2",
            "--count", "20", "--output", "json"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["oracle_agrees"] is True


# -- the benchmark's golden commands -------------------------------------------

GOLDEN = json.loads((Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_command_replays(runner, command):
    want = GOLDEN[command]
    result = runner.invoke(main, shlex.split(command))
    assert result.exit_code == want["exit_code"], result.output
    if want["stdout_sha256"] is None:
        # schema line, column names, then the rows
        assert len(result.stdout.splitlines()) == want["csv_rows"] + 2
    else:
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == want["stdout_sha256"]


# -- values_equal against the Fraction reference ------------------------------


@pytest.fixture(scope="module")
def long_file_alpha(tmp_path_factory):
    path = tmp_path_factory.mktemp("alpha") / "long.txt"
    # alpha_n = n(n+1)/2 + 1/(1 + n % 12): strictly increasing, rational
    path.write_text("".join(
        f"{Fraction(n * (n + 1), 2) + Fraction(1, 1 + n % 12)}\n" for n in range(1, 401)
    ))
    return f"file:{path}"


@pytest.mark.parametrize(
    "alpha,p,q,count,horizon,ties",
    [
        # 28 rows where the engines pick different (coeff, alpha_index) of
        # equal value, e.g. -3/2*alpha_1 = -1/2*alpha_3 at n = 0
        ("linear", 1, 2, 300, None, 28),
        ("poly:2", 2, 5, 120, None, None),
        ("factorial", 1, 2, 120, None, None),
        ("superproduct", 2, 3, 120, None, None),
        ("file", 1, 4, 60, None, None),
        # fixed prefixes that leave the last rows uncertified
        ("linear", 1, 2, 12, 12, None),
        ("file", 2, 5, 40, 40, None),
    ],
)
def test_values_equal_matches_fraction_reference(
    runner, long_file_alpha, alpha, p, q, count, horizon, ties
):
    spec = long_file_alpha if alpha == "file" else alpha
    family = KotheFamily(ExponentSequence.from_spec(spec))
    seq = family.seq
    oracle = dm.oracle_diameters(family, p, q, count, horizon)
    closed = dm.closedform_diameters(family, p, q, count)
    pairs = list(zip(closed.entries, oracle.entries))
    want = [
        str(o.log_value(seq) == e.log_value(seq)) if o.certified else ""
        for e, o in pairs
    ]
    args = ["diameters", "--alpha", spec, "--p", str(p), "--q", str(q), "--count", str(count)]
    if horizon is not None:
        args += ["--horizon", str(horizon)]
        assert "" in want
    lines = invoke(runner, args).output.splitlines()
    column = lines[1].split(",").index("values_equal")
    assert [line.split(",")[column] for line in lines[2:]] == want
    if ties is not None:
        assert ties == sum(
            (e.coeff, e.alpha_index) != (o.coeff, o.alpha_index) and equal == "True"
            for (e, o), equal in zip(pairs, want)
        )
    payload = json.loads(invoke(runner, args + ["--output", "json"]).output)
    assert payload["oracle_agrees"] is ("False" not in want)


def assert_plot_data_matches_the_fraction_reference(runner, spec, p, q, count):
    family = KotheFamily(ExponentSequence.from_spec(spec))
    seq = family.seq
    closed = dm.closedform_diameters(family, p, q, count)
    want = []
    for n, e in enumerate(closed.entries):
        neg_log_dn, alpha_next = -e.log_value(seq), seq.value(n + 1)
        want.append([neg_log_dn, alpha_next, neg_log_dn / alpha_next])
    args = ["plot-data", "--alpha", spec, "--p", str(p), "--q", str(q), "--count", str(count)]
    lines = invoke(runner, args).output.splitlines()
    assert lines[1].split(",")[4:] == ["neg_log_dn_exact", "alpha_next_exact", "ratio_exact"]
    assert [[Fraction(x) for x in line.split(",")[4:]] for line in lines[2:]] == want, spec


def test_plot_data_exact_columns_match_the_fraction_reference(runner, long_file_alpha):
    for spec in ("factorial", "superproduct", long_file_alpha):
        assert_plot_data_matches_the_fraction_reference(runner, spec, 2, 5, 80)


@pytest.mark.parametrize("alpha", ["factorial", "superproduct", "quarters"])
@pytest.mark.parametrize("p,q", [(1, 2), (1, 4)])
def test_plot_data_exact_columns_on_power_of_two_denominators(runner, tmp_path, alpha, p, q):
    """Divisors ``den * scale`` of 2 to 16: the mask route of the plot-data
    cells, on the ratio kinds and on the dyadic alpha (4n - 1)/4 (scale 4)."""
    spec = alpha
    if alpha == "quarters":
        path = tmp_path / "quarters.txt"
        path.write_text("".join(f"{Fraction(4 * n - 1, 4)}\n" for n in range(1, 2001)))
        spec = f"file:{path}"
    assert_plot_data_matches_the_fraction_reference(runner, spec, p, q, 200)


# -- every subcommand, generated arguments ---------------------------------

# mostly valid values, so that most calls get past argument checking
small = st.one_of(st.integers(1, 9), st.integers(-2, 0)).map(str)
rational = st.one_of(
    small,
    st.builds("{}/{}".format, st.integers(-12, 12), st.integers(-2, 6)),
)
ALPHAS = ["linear", "factorial", "superproduct", "poly:2", "poly:0", "nope"]


def options(draw, pairs):
    """Each (option, strategy) pair either given or left to its default."""
    args = []
    for name, values in pairs:
        if draw(st.booleans()):
            args += [name, draw(values)]
    return args


# pairs far from the diagonal: a band over the first thousands of diagonals,
# or one starting near index p^2 / 2
far_pairs = st.one_of(st.sampled_from([(1, 300), (1, 3000)]),
                      st.integers(1, 1000).map(lambda p: (p, p + 1)))


@st.composite
def p_and_q(draw):
    """``p`` and ``q``, mostly with q > p >= 1, one in five far from the
    diagonal (the counts drawn with them stay small)."""
    if draw(st.integers(0, 4)) == 0:
        return draw(far_pairs)
    p = draw(st.integers(-1, 4))
    return p, p + draw(st.one_of(st.integers(1, 4), st.integers(-1, 0)))


@st.composite
def cli_args(draw, file_alpha):
    alpha = st.sampled_from(ALPHAS + [file_alpha] * 3)
    sub = draw(st.sampled_from(
        ["grid", "gen-matrix", "diameters", "check", "verify", "plot-data"]
    ))
    if sub == "grid":
        args = [sub] + options(draw, [("--max-n", small), ("--count", small)])
        if draw(st.booleans()):
            p, q = draw(p_and_q())
            args += ["--p", str(p)] + (["--q", str(q)] if draw(st.booleans()) else [])
        return args
    head = [sub, "--alpha", draw(alpha)]
    if sub == "gen-matrix":
        return head + options(draw, [("--k-max", small), ("--n-max", small)])
    if sub in ("diameters", "plot-data"):
        p, q = draw(p_and_q())
        head += ["--p", str(p), "--q", str(q), "--count", draw(small)]
        if sub == "plot-data":
            return head
        return head + options(draw, [
            ("--horizon", st.integers(0, 30).map(str)),
            ("--method", st.sampled_from(["oracle", "closed", "both"])),
            ("--output", st.sampled_from(["csv", "json", "table"])),
        ])
    if sub == "check":
        criterion = draw(st.sampled_from(["nuclearity", "dn", "omega", "d2", "regularity"]))
        return [sub, "--criterion", criterion] + head[1:] + options(draw, [
            ("--p", small), ("--k", small), ("--j", rational), ("--lambda", rational),
            ("--N", st.integers(-1, 200).map(str)), ("--B", rational),
            ("--search-cap", small),
        ])
    what = draw(st.sampled_from(["sandwich", "eadd", "aa", "edd-tail", "delta-probe"]))
    pairs = st.lists(p_and_q(), min_size=1, max_size=3).map(
        lambda pqs: ",".join(f"{p}:{q}" for p, q in pqs)
    )
    return [sub, "--what", what] + head[1:] + options(draw, [
        ("--pairs", pairs), ("--count", st.integers(-1, 40).map(str)),
        ("--theta", rational), ("--tail-window", small),
    ])


@pytest.fixture(scope="module")
def file_alpha(tmp_path_factory):
    path = tmp_path_factory.mktemp("alpha") / "rational.txt"
    # alpha_n = n^2 + 1/(1 + n % 4): strictly increasing, rational
    path.write_text("".join(f"{n * n * (1 + n % 4) + 1}/{1 + n % 4}\n" for n in range(1, 41)))
    return f"file:{path}"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_exit_code_is_documented(data, file_alpha):
    args = data.draw(cli_args(file_alpha))
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2, 3, 4, 5), (args, result.output, result.exception)
    assert "Traceback" not in result.output


# sha256 of ``check --criterion regularity`` stdout before the window
# decided each row-step pair once
REGULARITY_REPORT_DIGESTS = {
    ("linear", 2): "9a28f7a3aade594f4f8170a461881d1165649b13153237839d2f202d5f0bc031",
    ("linear", 40): "9939a936cdad48f2b493f3dbabdd52408bddc264e766fc86b91f20f911e80020",
    ("linear", 300): "8f7d2a801911cb97daaabf157d7315138d681e1502b63ffbf8bf17354a78dfe5",
    ("poly:2", 2): "29bcd89607267904503230ed12fc5847c2665e5f01a545b5963fa64ce737aa2d",
    ("poly:2", 40): "78fccd1348379e2dc61ba084371d04509956f7eb0a571502c9d4636b76742843",
    ("poly:2", 300): "a1e9c875389a96265a9063974306e63df1cee29b89cc252a3b7e062d0c333fbd",
    ("factorial", 2): "deccf3e407e8b1cde02cc63291abe782fd7f15a4c39eb5ab0f798c73b32cb292",
    ("factorial", 40): "5596261e0138d23af15df4825e8e82e47f5610b7ad1a199f93c0f5773120c3cb",
    ("factorial", 300): "3162c3647bc0c1222eb8f0b699cf3d0a9e8df51faf7899b4e1740e0d989e043d",
    ("superproduct", 2): "d254b11ad3bb1eee18ac413deb8edb49948ebed3520d48f2851ee333e92fd1c8",
    ("superproduct", 40): "f07165e2b29572251afb9fa8873045917ef09f0e598a914f108d616ad006ea73",
    ("superproduct", 300): "f41af9e98da92fe278f2ccb11b0d592d16e23ffe9aa81d0ed2df7d71fcbe7970",
}


@pytest.mark.parametrize("spec, horizon", sorted(REGULARITY_REPORT_DIGESTS))
def test_regularity_report_bytes_are_unchanged(runner, spec, horizon):
    args = ["check", "--criterion", "regularity", "--alpha", spec, "--N", str(horizon)]
    result = invoke(runner, args)
    assert result.exit_code == 0
    digest = hashlib.sha256(result.stdout_bytes).hexdigest()
    assert digest == REGULARITY_REPORT_DIGESTS[(spec, horizon)]


# -- golden digests of a rational ``file:`` alpha --------------------------------

# alpha_n = n + (n % 7)/(8 + n % 5), n <= 400: denominators 1 to 12, scale 3960
FILE_ALPHA = ["--alpha", "file:alpha.txt"]
# (exit code, stdout sha256) of each command before the file memo held scaled ints
FILE_ALPHA_DIGESTS = {
    ("diameters", *FILE_ALPHA, "--p", "2", "--q", "5", "--count", "150", "--method", "both"):
        (0, "9f719fb4fb4aaf7dbb5431685f19c3bb23a221eadc86b14dc2d84bee997bec68"),
    ("diameters", *FILE_ALPHA, "--p", "1", "--q", "3", "--count", "150", "--method", "both",
     "--output", "json"):
        (0, "1b70ad71fe5884035801b450a22b55c4dfefa170daa2bb4639fb05b846253e57"),
    ("plot-data", *FILE_ALPHA, "--p", "2", "--q", "5", "--count", "150"):
        (0, "78ac367c3bb26ccaca827260a5217ddc3f0f544698dca2e3189e930260aea057"),
    ("gen-matrix", *FILE_ALPHA, "--k-max", "6", "--n-max", "30"):
        (0, "64684049875039ef5251afac1d14af17388b2ed83aaf92095c02ddb5bc11d807"),
    ("check", "--criterion", "d2", *FILE_ALPHA, "--j", "2", "--B", "50"):
        (0, "ec32f0c7c2249b0043d20445c4c5fe58a94e9aef8749121e4d995c0c6a5cc67f"),
    ("check", "--criterion", "nuclearity", *FILE_ALPHA, "--k", "3", "--N", "300"):
        (0, "76742936e1c67a06421d6cad894c2d4e2be00f15e38dee26e9ff73989ae960cf"),
    ("check", "--criterion", "regularity", *FILE_ALPHA, "--N", "300"):
        (0, "ed110312926094bc3d6ba54425260f8bdf30b2b48d98d7b3ffc5aa2a08bee89c"),
    ("verify", "--what", "sandwich", *FILE_ALPHA, "--pairs", "1:2,2:5", "--count", "60"):
        (0, "473bf4d2b10b297eb8a76038e43e4f86092ec22a2b04370aae499b7b06cf5e99"),
    ("verify", "--what", "delta-probe", *FILE_ALPHA, "--pairs", "1:2,2:5", "--count", "150",
     "--theta", "1/3"):
        (0, "3082d6ccb908d1800d3c64e4b55b741d9f4d18a25582207c1967948d98123b9e"),
}


@pytest.mark.parametrize("args", list(FILE_ALPHA_DIGESTS),
                         ids=lambda args: " ".join(a for a in args if a not in FILE_ALPHA))
def test_file_alpha_output_bytes_are_unchanged(runner, tmp_path, monkeypatch, args):
    (tmp_path / "alpha.txt").write_text("# alpha_n = n + (n % 7)/(8 + n % 5)\n" + "".join(
        f"{n + Fraction(n % 7, 8 + n % 5)}\n" for n in range(1, 401)))
    monkeypatch.chdir(tmp_path)
    result = invoke(runner, list(args))
    assert (result.exit_code, hashlib.sha256(result.stdout_bytes).hexdigest()) == \
        FILE_ALPHA_DIGESTS[args]
