"""Command-line front end: deterministic CSV/JSON export of every operation.

Identical configurations produce byte-identical output (there are no
timestamps); every exact value is emitted as a "p/q" rational string and
floats only ever appear next to their exact counterpart, marked
display-only.  ``diameters --method both`` decides its ``values_equal``
column with ``exact.logterm_cmp``, and leaves it empty where the oracle
entry is not certified; ``oracle_agrees`` reads the same cells.

Exit codes: 0 success, 2 invalid usage or alpha spec, 3 uncertifiable
horizon or exhausted sequence prefix, 4 file I/O failure, 5 internal
segment-coverage failure.  Exact integers are printed and parsed without
Python's int-to-str digit limit, so a large valid value never exits 2.
"""
from __future__ import annotations

import io
import json
import math
import os
import sys
from fractions import Fraction

import click

from . import diameters as dm
from . import kothe as km
from . import sequences as sq
from . import verify as vf
from .exact import format_rational, fraction_to_float, logterm_cmp, parse_rational
from .grid import BandIndexing, column_of, unpair
from .report import SCHEMA_VERSION, jsonable

EXIT_BAD_CONFIG = 2
EXIT_UNCERTIFIABLE = 3
EXIT_IO = 4
EXIT_INTERNAL = 5

OUT_DIR_ENV = "KOTHEDIM_OUT"

_CSV_HEADER = f"# kothedim schema={SCHEMA_VERSION}"

# counts and matrix indices start at 1; click rejects 0 with exit 2
POSITIVE = click.IntRange(min=1)


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            p_str, q_str = chunk.split(":")
            p, q = int(p_str), int(q_str)
        except ValueError:
            _fail(EXIT_BAD_CONFIG, f"bad pair {chunk!r}; expected like 1:2")
        if not q > p >= 1:
            _fail(EXIT_BAD_CONFIG, f"pair {chunk!r} must satisfy q > p >= 1")
        pairs.append((p, q))
    if not pairs:
        _fail(EXIT_BAD_CONFIG, "no pairs given")
    return pairs


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
        return
    base = os.environ.get(OUT_DIR_ENV)
    path = os.path.join(base, out) if base and not os.path.isabs(out) else out
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write {path}: {exc}")
    click.echo(f"wrote {path}", err=True)


def _csv(rows: list[list], header: list[str]) -> str:
    buf = io.StringIO()
    buf.write(_CSV_HEADER + "\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(str(cell) for cell in row) + "\n")
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    payload = {"schema": SCHEMA_VERSION, **payload}
    return json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n"


def _rational_option(name: str, text: str) -> Fraction:
    """Parse a rational option value; an invalid one, empty included, exits 2
    with a message that names the option."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        _fail(EXIT_BAD_CONFIG, f"{exc} (option {name})")


# exception -> (exit code, message prefix), first match wins:
# PrefixExhaustedError is a SequenceError, which is a ValueError
_EXIT_CODES = (
    (sq.PrefixExhaustedError, EXIT_UNCERTIFIABLE, ""),
    (km.SearchCapExceeded, EXIT_UNCERTIFIABLE, ""),
    (dm.CoverageError, EXIT_INTERNAL, "segment coverage failure: "),
    (ValueError, EXIT_BAD_CONFIG, ""),
)


class _Group(click.Group):
    """Maps the errors of every subcommand to exit codes through _EXIT_CODES."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except tuple(kind for kind, _, _ in _EXIT_CODES) as exc:
            code, prefix = next((c, pre) for kind, c, pre in _EXIT_CODES if isinstance(exc, kind))
            _fail(code, f"{prefix}{exc}")


@click.group(cls=_Group)
def main() -> None:
    """Exact Kolmogorov diameters of a two-regime Köthe space family."""
    # print and parse exact values in full (older Pythons have no limit)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


# -- grid ---------------------------------------------------------------------


@main.command("grid")
@click.option("--max-n", type=POSITIVE, default=21, show_default=True)
@click.option("--p", type=int, default=None)
@click.option("--q", type=int, default=None)
@click.option("--count", type=POSITIVE, default=20, show_default=True)
@click.option("--out", type=str, default=None)
def grid_cmd(max_n: int, p: int | None, q: int | None, count: int, out: str | None):
    """Print the pairing table, or a band enumeration when --p/--q are given."""
    if (p is None) != (q is None):
        _fail(EXIT_BAD_CONFIG, "give both --p and --q or neither")
    if p is not None:
        if not q > p >= 1:
            _fail(EXIT_BAD_CONFIG, "need q > p >= 1")
        b = BandIndexing(p=p, q=q)
        markers = {}
        k = b.k_min
        while True:
            s = b.s_k(k)
            if s > count:
                break
            markers[s] = k
            k += 1
        rows = []
        for i in range(1, count + 1):
            n = b.element(i)
            x, y = unpair(n)
            rows.append([i, n, x, y, markers.get(i, "")])
        _emit(_csv(rows, ["i", "n", "x", "y", "marker_k"]), out)
        return
    rows = []
    for n in range(1, max_n + 1):
        x, y = unpair(n)
        rows.append([n, x, y, column_of(n)])
    _emit(_csv(rows, ["n", "x", "y", "column"]), out)


# -- gen-matrix ----------------------------------------------------------------


@main.command("gen-matrix")
@click.option("--alpha", "alpha_spec", required=True)
@click.option("--k-max", type=POSITIVE, default=6, show_default=True)
@click.option("--n-max", type=POSITIVE, default=15, show_default=True)
@click.option("--out", type=str, default=None)
def gen_matrix_cmd(alpha_spec: str, k_max: int, n_max: int, out: str | None):
    """Export the log-domain matrix entries e^(coeff * alpha_n)."""
    family = km.KotheFamily(sq.ExponentSequence.from_spec(alpha_spec))
    rows = []
    for k in range(1, k_max + 1):
        for n in range(1, n_max + 1):
            term = family.log_entry(k, n)
            approx, _ = family.seq.exp_float(term.coeff, term.alpha_index)
            rows.append(
                [k, n, column_of(n), format_rational(term.coeff), repr(approx)]
            )
    _emit(_csv(rows, ["k", "n", "column", "coeff", "approx"]), out)


# -- diameters -----------------------------------------------------------------


@main.command("diameters")
@click.option("--alpha", "alpha_spec", required=True)
@click.option("--p", type=int, required=True)
@click.option("--q", type=int, required=True)
@click.option("--count", type=POSITIVE, default=50, show_default=True)
@click.option(
    "--horizon",
    type=click.IntRange(min=2),
    default=None,
    help="Merge only the ratio terms up to this index in the oracle and "
    "certify the entries above the next one (default: merge them all, "
    "every entry final); must be >= count and >= 2.",
)
@click.option(
    "--method",
    type=click.Choice(["oracle", "closed", "both"]),
    default="both",
    show_default=True,
)
@click.option(
    "--output",
    type=click.Choice(["csv", "json", "table"]),
    default="csv",
    show_default=True,
)
@click.option("--out", type=str, default=None)
def diameters_cmd(alpha_spec, p, q, count, horizon, method, output, out):
    """Compute d_n(U_q, U_p) for n < count."""
    if not q > p >= 1:
        _fail(EXIT_BAD_CONFIG, "need q > p >= 1")
    if horizon is not None and horizon < count:
        _fail(EXIT_BAD_CONFIG, "--horizon must be at least --count")
    family = km.KotheFamily(sq.ExponentSequence.from_spec(alpha_spec))
    seq = family.seq
    oracle = None
    if method != "closed":
        if horizon is None:
            oracle = dm.oracle_diameters_certified(family, p, q, count)
        else:
            oracle = dm.oracle_diameters(family, p, q, horizon)
            if not oracle.entries:
                _fail(EXIT_UNCERTIFIABLE, oracle.diagnostic)
    primary = oracle if method == "oracle" else dm.closedform_diameters(family, p, q, count)
    entries = primary.entries[:count]
    agrees = []
    if method == "both":
        # the oracle holds at least count entries; agreement is only
        # meaningful where its entry is final
        for e, o in zip(entries, oracle.entries):
            agrees.append("" if not o.certified else logterm_cmp(o, e, seq) == 0)

    if output == "json":
        payload = {
            "p": p,
            "q": q,
            "alpha": seq.name,
            "method": method,
            "floats_display_only": True,
            "entries": [dm.entry_to_json(e, seq) for e in entries],
        }
        if method == "both":
            payload["oracle_agrees"] = all(equal for equal in agrees if equal != "")
        _emit(_json_text(payload), out)
        return
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
        _emit(_csv(rows, header), out)
    else:
        widths = [max(len(str(h)), max((len(str(r[i])) for r in rows), default=0)) for i, h in enumerate(header)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
        for r in rows:
            lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
        _emit("\n".join(lines) + "\n", out)


# -- check ---------------------------------------------------------------------


@main.command("check")
@click.option(
    "--criterion",
    type=click.Choice(["nuclearity", "dn", "omega", "d2", "regularity"]),
    required=True,
)
@click.option("--alpha", "alpha_spec", required=True)
@click.option("--p", type=POSITIVE, default=1, show_default=True)
@click.option("--k", type=POSITIVE, default=None)
@click.option("--j", "j_value", type=str, default=None)
@click.option("--lambda", "lambda_value", type=str, default=None)
@click.option("--n", "--N", "horizon", type=POSITIVE, default=1000, show_default=True)
@click.option("--b", "--B", "bound", type=str, default="1000000")
@click.option("--search-cap", type=POSITIVE, default=100_000, show_default=True)
@click.option("--out", type=str, default=None)
def check_cmd(criterion, alpha_spec, p, k, j_value, lambda_value, horizon, bound, search_cap, out):
    """Run one matrix criterion check and emit its JSON report."""
    family = km.KotheFamily(sq.ExponentSequence.from_spec(alpha_spec))
    if criterion == "nuclearity":
        report = km.check_nuclearity(family, k or 1, horizon)
    elif criterion == "dn":
        if lambda_value is None:
            lam = km.dn_lambda_bound(p) / 2
        else:
            lam = _rational_option("--lambda", lambda_value)
        report = km.check_dn(family, p, lam, horizon)
    elif criterion == "omega":
        kk = k if k is not None else p + 1
        if j_value is None:
            j = Fraction(math.ceil(km.omega_j_bound(p, kk)))
        else:
            j = _rational_option("--j", j_value)
        report = km.check_omega(family, p, kk, j, horizon)
    elif criterion == "d2":
        try:
            jj = int(j_value) if j_value is not None else 1
        except ValueError:
            _fail(EXIT_BAD_CONFIG, f"--j must be an integer column index for d2, got {j_value!r}")
        if jj < 1:
            _fail(EXIT_BAD_CONFIG, f"--j must be at least 1 for d2, got {jj}")
        report = km.check_d2_failure(family, jj, _rational_option("--B", bound), search_cap)
    else:
        report = km.check_regularity(family, horizon)
    _emit(_json_text(report.to_json()), out)


# -- verify --------------------------------------------------------------------


@main.command("verify")
@click.option(
    "--what",
    type=click.Choice(["sandwich", "eadd", "aa", "edd-tail", "delta-probe"]),
    required=True,
)
@click.option("--alpha", "alpha_spec", required=True)
@click.option("--pairs", type=str, default="1:2", show_default=True)
@click.option("--count", type=POSITIVE, default=200, show_default=True)
@click.option("--theta", type=str, default="0")
@click.option("--tail-window", type=int, default=50, show_default=True)
@click.option("--out", type=str, default=None)
def verify_cmd(what, alpha_spec, pairs, count, theta, tail_window, out):
    """Theorem-level verifications over closed-form diameter tables."""
    family = km.KotheFamily(sq.ExponentSequence.from_spec(alpha_spec))
    pair_list = _parse_pairs(pairs)
    tables = {(p, q): dm.closedform_diameters(family, p, q, count) for p, q in pair_list}

    def pair_report(p: int, q: int) -> dict:
        table = tables[(p, q)]
        if what == "sandwich":
            return vf.verify_sandwich(family, p, q, table).to_json()
        if what == "edd-tail":
            return vf.edd_tail_check(family, p, q, table).to_json()
        return {
            "p": p,
            "q": q,
            "expected": 1 - km.c_pq(p, q),
            "ratios": vf.eadd_ratio(family, p, q, table),
        }

    payload = {"what": what, "alpha": family.seq.name}
    if what == "aa":
        payload["statistic"] = vf.aa_statistic(family, tables, tail_window).to_json()
    elif what == "delta-probe":
        theta_value = _rational_option("--theta", theta)
        payload["report"] = vf.delta_membership_probe(family, theta_value, tables).to_json()
    else:
        payload["reports"] = [pair_report(p, q) for p, q in pair_list]
    _emit(_json_text(payload), out)


# -- plot-data -----------------------------------------------------------------


@main.command("plot-data")
@click.option("--alpha", "alpha_spec", required=True)
@click.option("--p", type=int, required=True)
@click.option("--q", type=int, required=True)
@click.option("--count", type=POSITIVE, default=200, show_default=True)
@click.option("--out", type=str, default=None)
def plot_data_cmd(alpha_spec, p, q, count, out):
    """CSV companion for plots: n, -log d_n, alpha_{n+1} and their ratio."""
    if not q > p >= 1:
        _fail(EXIT_BAD_CONFIG, "need q > p >= 1")
    family = km.KotheFamily(sq.ExponentSequence.from_spec(alpha_spec))
    seq = family.seq
    closed = dm.closedform_diameters(family, p, q, count)
    rows = []
    for n, e in enumerate(closed.entries):
        eps_value = -e.log_value(seq)
        alpha_next = seq.value(n + 1)
        ratio = -e.coeff * seq.quotient(e.alpha_index, n + 1)
        f_eps, _ = fraction_to_float(eps_value)
        f_alpha, _ = fraction_to_float(alpha_next)
        f_ratio, _ = fraction_to_float(ratio)
        rows.append(
            [
                n,
                repr(f_eps),
                repr(f_alpha),
                repr(f_ratio),
                format_rational(eps_value),
                format_rational(alpha_next),
                format_rational(ratio),
            ]
        )
    _emit(
        _csv(
            rows,
            [
                "n",
                "neg_log_dn",
                "alpha_next",
                "ratio",
                "neg_log_dn_exact",
                "alpha_next_exact",
                "ratio_exact",
            ],
        ),
        out,
    )


if __name__ == "__main__":
    main()
