"""Command-line front end: deterministic CSV/JSON export of every operation.

Identical configurations produce byte-identical output (there are no
timestamps); every exact value is emitted as a "p/q" rational string and
floats only ever appear next to their exact counterpart, marked
display-only.  Rows stream through :func:`_emit` as they are rendered.

Exit codes: 0 success, 2 invalid usage or alpha spec, 3 uncertifiable
horizon or exhausted sequence prefix, 4 file I/O failure, 5 internal
segment-coverage failure.  Exact integers are printed and parsed without
Python's int-to-str digit limit, so a large valid value never exits 2.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from decimal import Decimal
from fractions import Fraction

import click

from . import diameters as dm
from . import kothe as km
from . import sequences as sq
from . import verify as vf
from .exact import EXACT_DECIMAL, cancel, format_rational, fraction_to_float, parse_rational
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


class _WriteError(Exception):
    """An ``--out`` file could not be written."""


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
            raise ValueError(f"bad pair {chunk!r}; expected like 1:2")
        if not q > p >= 1:
            raise ValueError(f"pair {chunk!r} must satisfy q > p >= 1")
        pairs.append((p, q))
    if not pairs:
        raise ValueError("no pairs given")
    return pairs


_CHUNK_CHARS = 1 << 16  # text per write: a plot-data row can hold every digit of alpha


def _chunks(lines: Iterable[str]) -> Iterator[str]:
    """``lines`` joined into chunks of at least _CHUNK_CHARS characters but
    the last."""
    chunk, size = [], 0
    for line in lines:
        chunk.append(line)
        if (size := size + len(line)) >= _CHUNK_CHARS:
            yield "".join(chunk)
            chunk, size = [], 0
    yield "".join(chunk)


def _echo(text: str, name: str = "stdout", nl: bool = True) -> None:
    """``click.echo`` to the stream it picks by default, fetched anew: its
    cache of that stream, keyed by ``sys.stdout`` or ``sys.stderr``, keeps
    every stream it saw alive, and with it each in-process run's output."""
    click.echo(text, file=click.get_text_stream(name, errors=None), nl=nl)


def _emit(lines: Iterable[str], out: str | None) -> None:
    """Write ``lines`` to stdout or to the ``--out`` file in chunks; the
    file is created here, after the engines, so a failing command writes
    nothing."""
    chunks = _chunks(lines)
    if out is None:
        for chunk in chunks:
            _echo(chunk, nl=False)
        return
    base = os.environ.get(OUT_DIR_ENV)
    path = os.path.join(base, out) if base and not os.path.isabs(out) else out
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise _WriteError(f"cannot write {path}: {exc}") from exc
    _echo(f"wrote {path}", "stderr")


def _csv(header: str, rows: Iterable[str]) -> Iterator[str]:
    return itertools.chain([f"{_CSV_HEADER}\n{header}\n"], rows)


def _json_text(payload: dict) -> str:
    payload = {"schema": SCHEMA_VERSION, **payload}
    return json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n"


def _rational_option(name: str, text: str) -> Fraction:
    """Parse a rational option value; an invalid one, empty included, raises
    a ValueError that names the option."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise ValueError(f"{exc} (option {name})")


# exception -> (exit code, message prefix), first match wins:
# PrefixExhaustedError (a SequenceError) and UncertifiableError are ValueErrors.
# No OSError row: a closed stdout pipe ends as click ends it, exit 1, silent
_EXIT_CODES = (
    (sq.PrefixExhaustedError, EXIT_UNCERTIFIABLE, ""),
    (dm.UncertifiableError, EXIT_UNCERTIFIABLE, ""),
    (km.SearchCapExceeded, EXIT_UNCERTIFIABLE, ""),
    (dm.CoverageError, EXIT_INTERNAL, "segment coverage failure: "),
    (_WriteError, EXIT_IO, ""),
    (ValueError, EXIT_BAD_CONFIG, ""),
)


class _Group(click.Group):
    """The one exit route of every subcommand's errors, through _EXIT_CODES."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except tuple(kind for kind, _, _ in _EXIT_CODES) as exc:
            code, prefix = next((c, pre) for kind, c, pre in _EXIT_CODES if isinstance(exc, kind))
            _echo(f"error: {prefix}{exc}", "stderr")
            sys.exit(code)


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
        raise ValueError("give both --p and --q or neither")
    if p is not None:
        b = BandIndexing(p=p, q=q)
        markers = {}
        for k in itertools.count(b.k_min):
            if (s := b.s_k(k)) > count:
                break
            markers[s] = k

        def band_rows() -> Iterator[str]:
            for i in range(1, count + 1):
                n = b.element(i)
                x, y = unpair(n)
                yield f"{i},{n},{x},{y},{markers.get(i, '')}\n"

        _emit(_csv("i,n,x,y,marker_k", band_rows()), out)
        return

    def pair_rows() -> Iterator[str]:
        for n in range(1, max_n + 1):
            x, y = unpair(n)
            yield f"{n},{x},{y},{column_of(n)}\n"

    _emit(_csv("n,x,y,column", pair_rows()), out)


# -- gen-matrix ----------------------------------------------------------------


@main.command("gen-matrix")
@click.option("--alpha", "alpha_spec", required=True)
@click.option("--k-max", type=POSITIVE, default=6, show_default=True)
@click.option("--n-max", type=POSITIVE, default=15, show_default=True)
@click.option("--out", type=str, default=None)
def gen_matrix_cmd(alpha_spec: str, k_max: int, n_max: int, out: str | None):
    """Export the log-domain matrix entries e^(coeff * alpha_n)."""
    family = km.KotheFamily(sq.ExponentSequence.from_spec(alpha_spec))
    family.seq.prefill(n_max)  # a short file prefix exits 3 before any row

    def rows() -> Iterator[str]:
        for k in range(1, k_max + 1):
            for n in range(1, n_max + 1):
                coeff = family.entry_coeff(k, n)
                approx, _ = family.seq.exp_float(coeff, n)
                yield f"{k},{n},{column_of(n)},{format_rational(coeff)},{approx!r}\n"

    _emit(_csv("k,n,column,coeff,approx", rows()), out)


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
    help="Merge only the ratio terms up to this index in the oracle (--method "
    "oracle or both) and certify the entries above the next one (default: "
    "merge them all, every entry final); must be >= count and >= 2.",
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
    if horizon is not None and method == "closed":
        raise ValueError("--horizon sets the oracle's prefix; use --method oracle or both")
    if horizon is not None and horizon < count:
        raise ValueError("--horizon must be at least --count")
    family = km.KotheFamily(sq.ExponentSequence.from_spec(alpha_spec))
    seq = family.seq
    oracle = dm.oracle_diameters(family, p, q, count, horizon) if method != "closed" else None
    primary = oracle if method == "oracle" else dm.closedform_diameters(family, p, q, count)
    both = method == "both"
    entries = primary.entries
    # both engines list count entries, the closed form's all final; one table
    # is paired with itself, so a row is final in both when n < other.certified
    other = oracle.entries if both else entries
    # both tables hold the pair's two coefficients, by the same codes
    texts = [format_rational(c) for c in entries.coeffs]
    nums = km.ratio_numerators(p, q)
    def columns() -> Iterator[tuple[int, int, int, str, int, int]]:
        """n, code, alpha index, segment; then the other table's code and index."""
        segments = itertools.chain.from_iterable(
            itertools.repeat(dm.SEGMENTS[seg], length) for _, length, _, _, seg in entries.runs())
        for (n, code, m), seg, (_, o_code, o_m) in zip(entries.rows(), segments, other.rows()):
            yield n, code, m, seg, o_code, o_m

    def equal(n: int, code: int, m: int, o_code: int, o_m: int) -> bool | str:
        # only where the oracle's entry is final; with the same code the
        # index decides, and the kernel decides the rest on numerators over pq
        return "" if n >= other.certified else m == o_m if code == o_code else seq.compare(
            nums[o_code], o_m, nums[code], m) == 0

    def csv_rows() -> Iterator[str]:
        for n, code, m, seg, o_code, o_m in columns():
            approx = seq.exp_float(entries.coeffs[code], m)[0]
            row = f"{n},{texts[code]},{m},{seg},{approx!r},{n < other.certified}"
            yield (f"{row},{texts[o_code]},{o_m},{equal(n, code, m, o_code, o_m)}\n"
                   if both else f"{row}\n")

    def json_document() -> Iterator[str]:
        """Byte for byte ``_json_text``'s document, one entry at a time with
        its keys sorted: ``entries`` comes before ``oracle_agrees``, which
        is decided along the way."""
        yield f'{{\n  "alpha": {json.dumps(seq.name)},\n  "entries": [\n'
        agree, sep = True, ""
        for n, code, m, seg, o_code, o_m in columns():
            value, clamped = seq.exp_float(entries.coeffs[code], m)
            agree = agree and (not both or equal(n, code, m, o_code, o_m) is not False)
            clamp = '      "approx_clamped": true,\n' if clamped else ""
            yield (
                f'{sep}    {{\n'
                f'      "alpha_index": {m},\n{clamp}'
                f'      "approx_value": {"Infinity" if value == math.inf else repr(value)},\n'
                f'      "certified": {"true" if n < entries.certified else "false"},\n'
                f'      "coeff": "{texts[code]}",\n'
                f'      "n": {n},\n'
                f'      "segment": "{seg}",\n'
                f'      "source_ratio_index": {m}\n'  # d_n's ratio term: alpha's index
                f'    }}'
            )
            sep = ",\n"
        agreement = f'  "oracle_agrees": {json.dumps(agree)},\n' if both else ""
        yield (f'\n  ],\n  "floats_display_only": true,\n  "method": "{method}",\n'
               f'{agreement}  "p": {p},\n  "q": {q},\n  "schema": {SCHEMA_VERSION}\n}}\n')

    header = "n,coeff,alpha_index,segment,approx_value,certified"
    header += ",oracle_coeff,oracle_alpha_index,values_equal" if both else ""
    if output != "table":
        _emit(json_document() if output == "json" else _csv(header, csv_rows()), out)
        return
    # a cell holds no comma, so the table splits the CSV rows: one pass over
    # them sizes the columns, a second emits them, and no cell is kept
    def cells() -> Iterator[list[str]]:
        yield header.split(",")
        for row in csv_rows():
            yield row[:-1].split(",")

    widths = [0] * (header.count(",") + 1)
    for row in cells():
        widths = list(map(max, widths, map(len, row)))
    _emit(("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n" for r in cells()), out)


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
            raise ValueError(f"--j must be an integer column index for d2, got {j_value!r}")
        if jj < 1:
            raise ValueError(f"--j must be at least 1 for d2, got {jj}")
        report = km.check_d2_failure(family, jj, _rational_option("--B", bound), search_cap)
    else:
        report = km.check_regularity(family, horizon)
    _emit([_json_text(report.to_json())], out)


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
    _emit([_json_text(payload)], out)


# -- plot-data -----------------------------------------------------------------


def _cells(x: Fraction) -> tuple[str, str]:
    """The display double and the exact text of a rational."""
    return repr(fraction_to_float(x)[0]), format_rational(x)


def _quotient_cells(k: int, a: int, digits: Decimal, den: int) -> tuple[str, str]:
    """:func:`_cells` of ``k * a / den`` for positive ints, ``digits`` being
    a as an exact Decimal: the common factor g is :func:`cancel`'s, which
    reads ``a mod den`` alone, and the numerator's digits come from the
    Decimal, in time linear in their number, where ``str`` of an int takes
    quadratic time; k = 1 and g = 1 take no Decimal pass."""
    g = cancel(k, a, den)[0]
    try:
        approx = repr(k * a / den)  # correctly rounded, as float() of the Fraction
    except OverflowError:  # past the double range, clamped as fraction_to_float does
        approx = "inf"
    top = digits if k == 1 else EXACT_DECIMAL.multiply(digits, k)
    top = str(top if g == 1 else EXACT_DECIMAL.divide_int(top, g))
    return approx, top if den == g else f"{top}/{den // g}"


@main.command("plot-data")
@click.option("--alpha", "alpha_spec", required=True)
@click.option("--p", type=int, required=True)
@click.option("--q", type=int, required=True)
@click.option("--count", type=POSITIVE, default=200, show_default=True)
@click.option("--out", type=str, default=None)
def plot_data_cmd(alpha_spec, p, q, count, out):
    """CSV companion for plots: n, -log d_n, alpha_{n+1} and their ratio.

    The rows walk alpha in order: row n takes ``alpha_(n+1) * scale`` from
    ``scaled_values`` and as a Decimal from ``scaled_decimals``, one ratio
    step each on a ratio kind.  Where d_n's alpha index m is n + 1, as on
    every tail entry, -log d_n is ``-coeff * alpha_(n+1)``, the ratio is
    ``-coeff`` itself, and the row builds no Fraction; the other rows take
    the exact ``exponent`` and ``quotient`` route.
    """
    family = km.KotheFamily(sq.ExponentSequence.from_spec(alpha_spec))
    seq = family.seq
    entries = dm.closedform_diameters(family, p, q, count).entries
    negated = [-coeff for coeff in entries.coeffs]  # once per coefficient
    ratio_cells = [_cells(neg) for neg in negated]

    def rows() -> Iterator[str]:
        scale = seq.scale
        # row n reads alpha_(n+1): row 0 alpha_1
        values = zip(entries.rows(), seq.scaled_values(), seq.scaled_decimals())
        for (n, code, m), a, digits in values:
            neg = negated[code]
            if m == n + 1:
                eps = _quotient_cells(neg.numerator, a, digits, neg.denominator * scale)
                ratio = ratio_cells[code]
            else:
                eps, ratio = _cells(seq.exponent(neg, m)), _cells(neg * seq.quotient(m, n + 1))
            alpha = _quotient_cells(1, a, digits, scale)
            yield f"{n},{eps[0]},{alpha[0]},{ratio[0]},{eps[1]},{alpha[1]},{ratio[1]}\n"

    header = "n,neg_log_dn,alpha_next,ratio,neg_log_dn_exact,alpha_next_exact,ratio_exact"
    _emit(_csv(header, rows()), out)


if __name__ == "__main__":
    main()
