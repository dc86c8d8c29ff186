"""The streamed CLI output against the buffered renderer it replaced.

The reference here builds each output the old way: the rows as lists of
cells, each cell passed through ``str`` and joined, and the ``diameters``
JSON as one ``json.dumps(payload, sort_keys=True, indent=2)`` over the
whole payload.  The CLI must match it byte for byte, on stdout and in an
``--out`` file alike.
"""
import io
import json
import math
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner

from kothedim import diameters as dm
from kothedim.cli import main
from kothedim.exact import format_rational, fraction_to_float, logterm_cmp
from kothedim.grid import BandIndexing, column_of, unpair
from kothedim.kothe import KotheFamily
from kothedim.report import jsonable
from kothedim.sequences import ExponentSequence


@pytest.fixture(autouse=True)
def int_str_limit():
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)


@pytest.fixture(scope="module")
def rational_alpha(tmp_path_factory):
    path = tmp_path_factory.mktemp("alpha") / "rational.txt"
    # alpha_n = n(n+1)/2 + 1/(1 + n % 12): strictly increasing, rational
    path.write_text("".join(
        f"{Fraction(n * (n + 1), 2) + Fraction(1, 1 + n % 12)}\n" for n in range(1, 401)
    ))
    return f"file:{path}"


def spec_of(alpha, rational_alpha):
    return rational_alpha if alpha == "rational" else alpha


# -- the old renderer ------------------------------------------------------


def old_csv(rows, header):
    buf = io.StringIO()
    buf.write("# kothedim schema=1\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(str(cell) for cell in row) + "\n")
    return buf.getvalue()


def old_entry_to_json(entry, seq):
    value, clamped = seq.exp_float(entry.coeff, entry.alpha_index)
    payload = {
        "n": entry.n,
        "coeff": entry.coeff,
        "alpha_index": entry.alpha_index,
        "segment": entry.segment,
        "source_ratio_index": entry.alpha_index,
        "certified": entry.certified,
        "approx_value": value,
    }
    if clamped:
        payload["approx_clamped"] = True
    return payload


def old_diameters(spec, p, q, count, horizon, method, output):
    family = KotheFamily(ExponentSequence.from_spec(spec))
    seq = family.seq
    oracle = None
    if method != "closed":
        oracle = dm.oracle_diameters(family, p, q, count, horizon)
    primary = oracle if method == "oracle" else dm.closedform_diameters(family, p, q, count)
    entries = primary.entries
    agrees = []
    if method == "both":
        for e, o in zip(entries, oracle.entries):
            agrees.append("" if not o.certified else logterm_cmp(o, e, seq) == 0)
    if output == "json":
        payload = {
            "schema": 1,
            "p": p,
            "q": q,
            "alpha": seq.name,
            "method": method,
            "floats_display_only": True,
            "entries": [old_entry_to_json(e, seq) for e in entries],
        }
        if method == "both":
            payload["oracle_agrees"] = all(equal for equal in agrees if equal != "")
        return json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n"
    header = ["n", "coeff", "alpha_index", "segment", "approx_value", "certified"]
    if method == "both":
        header += ["oracle_coeff", "oracle_alpha_index", "values_equal"]
    rows = []
    for n, e in enumerate(entries):
        approx = repr(seq.exp_float(e.coeff, e.alpha_index)[0])
        row = [n, format_rational(e.coeff), e.alpha_index, e.segment, approx, e.certified]
        if method == "both":
            o = oracle.entry(n)
            row[-1] = e.certified and o.certified
            row += [format_rational(o.coeff), o.alpha_index, agrees[n]]
        rows.append(row)
    if output == "csv":
        return old_csv(rows, header)
    widths = [max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def old_plot_data(spec, p, q, count):
    family = KotheFamily(ExponentSequence.from_spec(spec))
    seq = family.seq
    rows = []
    for n, e in enumerate(dm.closedform_diameters(family, p, q, count).entries):
        eps_value = -e.log_value(seq)
        alpha_next = seq.value(n + 1)
        ratio = -e.coeff * seq.quotient(e.alpha_index, n + 1)
        floats = [repr(fraction_to_float(x)[0]) for x in (eps_value, alpha_next, ratio)]
        rows.append([n, *floats, *map(format_rational, (eps_value, alpha_next, ratio))])
    header = ["n", "neg_log_dn", "alpha_next", "ratio",
              "neg_log_dn_exact", "alpha_next_exact", "ratio_exact"]
    return old_csv(rows, header)


def old_grid(max_n):
    rows = [[n, *unpair(n), column_of(n)] for n in range(1, max_n + 1)]
    return old_csv(rows, ["n", "x", "y", "column"])


def old_band_grid(p, q, count):
    b = BandIndexing(p=p, q=q)
    markers, k = {}, b.k_min
    while b.s_k(k) <= count:
        markers[b.s_k(k)] = k
        k += 1
    rows = [[i, b.element(i), *unpair(b.element(i)), markers.get(i, "")]
            for i in range(1, count + 1)]
    return old_csv(rows, ["i", "n", "x", "y", "marker_k"])


def old_gen_matrix(spec, k_max, n_max):
    family = KotheFamily(ExponentSequence.from_spec(spec))
    rows = []
    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            term = family.log_entry(k, n)
            approx, _ = family.seq.exp_float(term.coeff, term.alpha_index)
            rows.append([k, n, column_of(n), format_rational(term.coeff), repr(approx)])
    return old_csv(rows, ["k", "n", "column", "coeff", "approx"])


# -- the CLI against it ------------------------------------------------------


def assert_same_bytes(args, want, tmp_path):
    """stdout, and the --out file of a second run, are ``want`` exactly."""
    runner = CliRunner()
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == want.encode()
    out = tmp_path / "rendered.out"
    result = runner.invoke(main, args + ["--out", str(out)], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == b""
    assert out.read_bytes() == want.encode()


ALPHAS = ["linear", "factorial", "superproduct", "poly:2", "rational"]
# (p, q, count, horizon): one entry; a table through L, K, M and a tail; a
# fixed prefix that leaves the last rows uncertified
TABLES = [(1, 2, 1, None), (2, 5, 60, None), (1, 2, 12, 12)]


@pytest.mark.parametrize("output", ["csv", "json", "table"])
@pytest.mark.parametrize("method", ["oracle", "closed", "both"])
@pytest.mark.parametrize("p,q,count,horizon", TABLES)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_diameters_bytes_match_the_old_renderer(
    tmp_path, rational_alpha, alpha, p, q, count, horizon, method, output
):
    spec = spec_of(alpha, rational_alpha)
    args = ["diameters", "--alpha", spec, "--p", str(p), "--q", str(q),
            "--count", str(count), "--method", method, "--output", output]
    if horizon is not None:
        args += ["--horizon", str(horizon)]
    want = old_diameters(spec, p, q, count, horizon, method, output)
    if alpha == "linear" and horizon is not None and method == "both" and output == "csv":
        assert ",\n" in want  # an empty values_equal cell: d_11 stays uncertified
    assert_same_bytes(args, want, tmp_path)


@pytest.mark.parametrize("alpha", ["linear", "factorial"])
def test_diameters_json_with_clamped_entries_matches(tmp_path, alpha):
    """e^(coeff * alpha_m) below e^-746 clamps to 0.0 with the flag set:
    from alpha_1492 on for linear 1:2, early for factorial."""
    args = ["diameters", "--alpha", alpha, "--p", "1", "--q", "2", "--count", "1600",
            "--output", "json"]
    want = old_diameters(alpha, 1, 2, 1600, None, "both", "json")
    payload = json.loads(want)
    assert any(e.get("approx_clamped") for e in payload["entries"])
    assert not all(e.get("approx_clamped") for e in payload["entries"])
    assert_same_bytes(args, want, tmp_path)


def test_a_clamp_to_infinity_is_written_as_json_does(monkeypatch, tmp_path):
    """No diameter clamps upwards (every coefficient is negative), so the
    display double is forced to inf here to pin the JSON spelling."""
    monkeypatch.setattr(ExponentSequence, "exp_float", lambda self, c, m: (math.inf, True))
    args = ["diameters", "--alpha", "linear", "--p", "1", "--q", "2", "--count", "3",
            "--output", "json"]
    want = old_diameters("linear", 1, 2, 3, None, "both", "json")
    assert '"approx_value": Infinity' in want
    assert_same_bytes(args, want, tmp_path)


# every alpha on three tables, then band rows (d_n's alpha index not n + 1)
# with large alpha on the ratio kinds, and deeper into the other kinds
PLOT_DATA = [(alpha, *table) for alpha in ALPHAS for table in [(1, 2, 1), (2, 5, 60), (1, 2, 200)]]
PLOT_DATA += [("factorial", 1, 2, 400), ("superproduct", 2, 5, 300), ("poly:2", 2, 5, 300),
              ("rational", 1, 3, 300)]


@pytest.mark.parametrize("alpha,p,q,count", PLOT_DATA)
def test_plot_data_bytes_match_the_old_renderer(tmp_path, rational_alpha, alpha, p, q, count):
    spec = spec_of(alpha, rational_alpha)
    args = ["plot-data", "--alpha", spec, "--p", str(p), "--q", str(q), "--count", str(count)]
    assert_same_bytes(args, old_plot_data(spec, p, q, count), tmp_path)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_gen_matrix_bytes_match_the_old_renderer(tmp_path, rational_alpha, alpha):
    spec = spec_of(alpha, rational_alpha)
    args = ["gen-matrix", "--alpha", spec, "--k-max", "7", "--n-max", "16"]
    assert_same_bytes(args, old_gen_matrix(spec, 7, 16), tmp_path)


@pytest.mark.parametrize("max_n", [1, 21, 300])
def test_grid_bytes_match_the_old_renderer(tmp_path, max_n):
    assert_same_bytes(["grid", "--max-n", str(max_n)], old_grid(max_n), tmp_path)


@pytest.mark.parametrize("p,q,count", [(1, 2, 1), (2, 5, 20), (3, 7, 5000)])
def test_band_grid_bytes_match_the_old_renderer(tmp_path, p, q, count):
    args = ["grid", "--p", str(p), "--q", str(q), "--count", str(count)]
    assert_same_bytes(args, old_band_grid(p, q, count), tmp_path)
