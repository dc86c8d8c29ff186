"""The two-regime Köthe matrix in log domain and its criterion checks.

Matrix entries live entirely in the exponent: entry (k, n) is
``e^(coeff * alpha_n)`` with coeff = -1/k on columns s >= k and
coeff = -1/k + 1 below (n in column s).  Because every exponent is a
rational multiple of the same alpha_n, each per-n inequality in the
nuclearity/DN/Omega checks divides through by alpha_n > 0 and becomes a
pure rational inequality, decided exactly.  It depends on n only through
n's column region, so these checks decide each region once, and DN and
Omega count its failures up to the horizon in closed form.  The checks
that do depend on alpha read it only through the sequence's integer
kernel: the (d2) witness search and nuclearity's index domination compare
``a * alpha_n`` with a constant through ``ExponentSequence.compare_to``,
the nuclearity display terms come from ``ExponentSequence.exp_float``, and
the regularity criterion and the matrix definition compare ``a * alpha_n``
with ``b * alpha_{n+1}`` through ``ExponentSequence.compare``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import LogTerm, Rational, scaled_numerator
from .grid import band_count_below, column_of, column_start, gallop, pair_index, unpair
from .report import FAIL, PASS, CheckReport
from .sequences import _RATIO_KINDS, ExponentSequence


class SearchCapExceeded(RuntimeError):
    """A bounded witness search ran out of budget."""


def ratio_numerators(p: int, q: int) -> tuple[int, int]:
    """The two ratio coefficients of the pair as numerators over pq: c_pq =
    (p - q)/pq for an index off the band, c_pq - 1 for one on it."""
    if not q > p >= 1:
        raise ValueError("need q > p >= 1")
    return p - q, p - q - p * q


def c_pq(p: int, q: int) -> Rational:
    """The negative ratio coefficient -1/p + 1/q."""
    return Fraction(ratio_numerators(p, q)[0], p * q)


def a_pq(p: int, q: int) -> Rational:
    """The comparison threshold multiplier 1 + pq/(q-p)."""
    if not q > p >= 1:
        raise ValueError("need q > p >= 1")
    return 1 + Fraction(p * q, q - p)


def dn_lambda_bound(p: int) -> Rational:
    """Largest admissible interpolation weight: (1/p - 1/(p+1)) / (2 - 1/(p+1))."""
    return (Fraction(1, p) - Fraction(1, p + 1)) / (2 - Fraction(1, p + 1))


def omega_j_bound(p: int, k: int) -> Rational:
    """Smallest admissible power: (1/(p+1) - 1/k + 1) / (1/p - 1/(p+1))."""
    return (Fraction(1, p + 1) - Fraction(1, k) + 1) / (
        Fraction(1, p) - Fraction(1, p + 1)
    )


def _column_coeff(k: int, s: int) -> Rational:
    """The coefficient of row k on column s: -1/k, plus 1 when k > s."""
    if k <= s:
        return Fraction(-1, k)
    return Fraction(-1, k) + 1


@dataclass
class KotheFamily:
    """The matrix family parameterized by an exponent sequence alpha."""

    seq: ExponentSequence

    def entry_coeff(self, k: int, n: int) -> Rational:
        if k < 1 or n < 1:
            raise ValueError("matrix indices are 1-based")
        return _column_coeff(k, column_of(n))

    def log_entry(self, k: int, n: int) -> LogTerm:
        return LogTerm(self.entry_coeff(k, n), n)


# -- Grothendieck-Pietsch nuclearity ---------------------------------------


def check_nuclearity(family: KotheFamily, k: int, horizon: int) -> CheckReport:
    """Per-term bound a_{k,n}/a_{k+1,n} <= e^((-1/k + 1/(k+1)) alpha_n), exactly.

    The exact part is the coefficient inequality for every n <= horizon.  A
    float partial sum and, when alpha_n >= n holds over the prefix, the
    geometric tail bound r^(horizon+1)/(1-r) with r = e^(-1/(k(k+1))) are
    reported for display.

    The inequality depends on n only through its column region, so each
    region is decided once.  The display sum stops at the first n from
    which no term can change the float, so neither part reads alpha up to
    the horizon: the cost does not grow with it.
    """
    seq = family.seq
    bound = Fraction(-1, k) + Fraction(1, k + 1)
    # the difference depends on n only through its column region: s < k,
    # s = k or s > k
    diffs = [_column_coeff(k, s) - _column_coeff(k + 1, s) for s in (k - 1, k, k + 1)]
    at_bound = [diff == bound for diff in diffs]

    def region(n: int) -> int:
        s = column_of(n)
        return (s >= k) + (s > k)

    alpha_dominates = True  # strictly increasing integers from alpha_1 >= 1
    if seq.kind == "file":
        seq.prefill(horizon)  # a horizon past the stored prefix raises
        alpha_dominates = all(seq.compare_to(1, n, n) >= 0 for n in range(1, horizon + 1))
    # decided per region: for k >= 1 the differences are bound, bound - 1
    # and bound, so no region breaks the bound
    witnesses = [{"region": name, "coeff_diff": diff, "bound": bound}
                 for name, diff in zip(("s<k", "s=k", "s>k"), diffs) if diff > bound]

    # every difference is at most bound < 0 and alpha increases, so the
    # float e^(bound * alpha_n) bounds term n and every later term.  Once
    # twice it is below the ulp of the sum, each of those terms rounds away
    # and the sum can no longer change: it stops there with the same bits.
    partial_sum = 0.0
    for n in range(1, horizon + 1):
        top, _ = seq.exp_float(bound, n)
        if 2 * top < math.ulp(partial_sum):
            break
        r = region(n)
        partial_sum += top if at_bound[r] else seq.exp_float(diffs[r], n)[0]
    details: dict = {
        "partial_sum_float": partial_sum,
        "alpha_dominates_index": alpha_dominates,
        "floats_display_only": True,
    }
    if alpha_dominates:
        r = math.exp(bound)
        details["geometric_tail_bound_float"] = r ** (horizon + 1) / (1 - r)
    return CheckReport(
        criterion="nuclearity",
        params={"k": k, "l": k + 1, "N": horizon, "alpha": family.seq.name},
        verdict=PASS if not witnesses else FAIL,
        witnesses=witnesses,
        details=details,
    )


# -- DN and Omega ------------------------------------------------------------


def _check_regions(
    criterion: str,
    params: dict,
    details: dict,
    cases: list[tuple[str, bool]],
    regions: list[tuple[str, int, int | None, Rational, Rational]],
    horizon: int,
) -> CheckReport:
    """Decide ``lhs <= rhs`` once per column region and count its failures.

    A region row ``(name, lo, hi, lhs, rhs)`` covers the columns
    ``lo <= s < hi`` (``hi`` None: unbounded) and carries both sides of the
    inequality divided by alpha_n, which depend on n only through its
    region.  A failing region fails at each of its n <= horizon, so the
    count comes from ``band_count_below`` and its first witness is
    ``column_start(lo)``; an empty region counts nothing but still reports
    its verdict.
    """
    horizon = max(horizon, 0)  # a horizon below 1 leaves no n to count
    witnesses = [{"type": "case", "case": case} for case, ok in cases if not ok]
    region_verdicts = {}
    per_n_failures = 0
    n_witnesses = []
    for name, lo, hi, lhs, rhs in regions:
        region_verdicts[name] = ok = lhs <= rhs
        if ok or (hi is not None and hi <= lo):
            continue
        if hi is None:
            below = band_count_below(1, lo, horizon + 1) if lo > 1 else 0
            per_n_failures += horizon - below
        else:
            per_n_failures += band_count_below(lo, hi, horizon + 1)
        n = column_start(lo)
        if n <= horizon:
            n_witnesses.append({"type": "n", "n": n, "region": name})
    witnesses += sorted(n_witnesses, key=lambda w: w["n"])
    passed = all(ok for _, ok in cases) and per_n_failures == 0
    details.update(region_verdicts=region_verdicts, per_n_failures=per_n_failures)
    return CheckReport(
        criterion=criterion,
        params=params,
        verdict=PASS if passed else FAIL,
        witnesses=witnesses,
        details=details,
    )


def check_dn(
    family: KotheFamily, p: int, lam: Rational, horizon: int
) -> CheckReport:
    """a_{p,n} <= (a_{1,n})^lam (a_{p+1,n})^(1-lam) with C = 1, p0 = 1, q = p+1.

    Two layers: the symbolic case verdicts with the proof's worst-case
    entries (cases p <= s and s < p), and the inequality with the actual
    coefficients of each column region (s >= p+1, s = p, s < p).  The
    inequality depends on n only through its region, so each region is
    decided once and its failures among n <= horizon are counted in closed
    form: the cost does not grow with the horizon.
    """
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise ValueError("lambda must lie strictly between 0 and 1")

    # rows p, 1 and p+1 on a column s >= the row; a row r > s adds 1
    mp, m1, mq = Fraction(-1, p), Fraction(-1), Fraction(-1, p + 1)

    def rhs(c1: Rational, cq: Rational) -> Rational:
        return lam * c1 + (1 - lam) * cq

    # symbolic cases, worst-case matrix entries as in the DN proof
    case_p_le_s = mp <= rhs(m1, mq)
    case_s_lt_p = mp + 1 <= rhs(m1, mq + 1)
    return _check_regions(
        "dn",
        {"p": p, "p0": 1, "q": p + 1, "C": 1, "lambda": lam, "N": horizon,
         "alpha": family.seq.name},
        {"lambda_bound": dn_lambda_bound(p), "case_p_le_s": case_p_le_s,
         "case_s_lt_p": case_s_lt_p},
        [("p<=s", case_p_le_s), ("s<p", case_s_lt_p)],
        [
            ("s>=p+1", p + 1, None, mp, rhs(m1, mq)),
            ("s=p", p, p + 1, mp, rhs(m1, mq + 1)),
            ("s<p", 1, p, mp + 1, rhs(m1, mq + 1)),
        ],
        horizon,
    )


def check_omega(
    family: KotheFamily, p: int, k: int, j: Rational, horizon: int
) -> CheckReport:
    """(a_{p,n})^j a_{k,n} <= (a_{p+1,n})^(j+1) with C = 1, q = p+1.

    Same two layers as the DN check, over the regions s >= k, p+1 <= s < k,
    s = p and s < p, each decided once with its failures counted in closed
    form.  The binding symbolic case (p <= s with worst-case entries) is
    only realized by an actual column when k >= p+2, so a sub-threshold j
    can fail symbolically without an n witness.
    """
    if k <= p:
        raise ValueError("omega check needs k > p")
    j = Fraction(j)

    # rows p, k and p+1 on a column s >= the row; a row r > s adds 1
    mp, mk, mq = Fraction(-1, p), Fraction(-1, k), Fraction(-1, p + 1)
    case_p_le_s = j * mp + (mk + 1) <= (j + 1) * mq
    case_s_lt_p = j * (mp + 1) + (mk + 1) <= (j + 1) * (mq + 1)
    return _check_regions(
        "omega",
        {"p": p, "q": p + 1, "k": k, "C": 1, "j": j, "N": horizon,
         "alpha": family.seq.name},
        {"j_bound": omega_j_bound(p, k), "case_p_le_s": case_p_le_s,
         "case_s_lt_p": case_s_lt_p},
        [("p<=s", case_p_le_s), ("s<p", case_s_lt_p)],
        [
            ("s>=k", k, None, j * mp + mk, (j + 1) * mq),
            ("p+1<=s<k", p + 1, k, j * mp + mk + 1, (j + 1) * mq),
            ("s=p", p, p + 1, j * mp + mk + 1, (j + 1) * (mq + 1)),
            ("s<p", 1, p, j * (mp + 1) + mk + 1, (j + 1) * (mq + 1)),
        ],
        horizon,
    )


# -- (d2) failure -------------------------------------------------------------


def check_d2_failure(
    family: KotheFamily, j: int, bound: Rational, search_cap: int = 100_000
) -> CheckReport:
    """Least n in column j with ((j+2)/(j(j+1))) alpha_n > bound.

    On column j the quotient a_{1,n} a_{j+1,n} / (a_{j,n})^2 equals
    e^(((j+2)/(j(j+1))) alpha_n), so a single witness pushes the sup past
    any prescribed bound.  Column element y is n = pair_index(j-1, y), and
    alpha increases along the column, so the elements without a witness
    form a prefix: :func:`~kothedim.grid.gallop` finds the least witness y
    in O(log y) kernel calls and never reads alpha at y >= search_cap.  Its
    probes never jump over the last stored column element, so a file prefix
    is read past exactly where a one-step scan would read past it.  The
    report counts y + 1 scanned column elements, as that scan would.
    """
    if j < 1:
        raise ValueError("need j >= 1")
    seq = family.seq
    bound = Fraction(bound)
    coefficient = Fraction(j + 2, j * (j + 1))
    # coefficient * alpha_n > bound, cross-multiplied by the positive
    # denominators of both sides
    lhs = coefficient.numerator * bound.denominator
    rhs = bound.numerator * coefficient.denominator

    def misses(y: int) -> bool:
        return y < search_cap and seq.compare_to(lhs, pair_index(j - 1, y), rhs) <= 0

    # the last stored column element lies on the diagonal of the last
    # stored index, or on the one before when that index is left of column j
    x, y = unpair(len(seq))
    y = gallop(misses, -1, x + y - (j - 1) - (x < j - 1)) + 1
    if y >= search_cap:
        raise SearchCapExceeded(
            f"no witness in the first {search_cap} elements of column {j}"
        )
    n = pair_index(j - 1, y)
    return CheckReport(
        criterion="d2-failure",
        params={"j": j, "B": bound, "alpha": family.seq.name},
        verdict=PASS,
        witnesses=[
            {
                "n": n,
                "column": j,
                "exponent_coeff": coefficient,
                "exponent_value": seq.exponent(coefficient, n),
            }
        ],
        details={"scanned_column_elements": y + 1},
    )


# -- regularity ---------------------------------------------------------------


def regularity_criterion(family: KotheFamily, s: int, n: int) -> bool:
    """(1 + s(s+1)) alpha_n <= alpha_{n+1}, exactly."""
    return family.seq.compare(1 + s * (s + 1), n, 1, n + 1) <= 0


@lru_cache(maxsize=1024)  # the definition window asks once per (k, column) and check
def _row_step(k: int, s: int) -> int:
    """k(k+1) times the coefficient of row k+1 minus that of row k on
    column s: 1, plus k(k+1) on column k."""
    return scaled_numerator(_column_coeff(k + 1, s) - _column_coeff(k, s), k * (k + 1))


# the matrix-definition window: rows 1..DEFINITION_K, n up to DEFINITION_N
DEFINITION_K = 12
DEFINITION_N = 300


def check_regularity(family: KotheFamily, horizon: int) -> CheckReport:
    """Column criterion for all n <= horizon, cross-validated on the matrix.

    The criterion scan is exact and cheap; the matrix definition is
    re-checked directly on the rows k <= DEFINITION_K and the n <=
    min(horizon, DEFINITION_N) as an independent route, and the two must
    agree pointwise at k = s.

    The scan walks the diagonals: on diagonal t, n runs from T_t + 1 to
    T_{t+1} and its column s = n - T_t from 1 to t + 1.  For ``factorial``
    and ``superproduct`` the ratio alpha_{n+1}/alpha_n never decreases, so
    when the diagonal's first n meets the diagonal's largest requirement,
    1 + (t+1)(t+2), every n on it passes: one comparison per diagonal.
    Any other diagonal, and every diagonal of the other kinds, is scanned
    n by n.
    """
    seq = family.seq
    monotone_ratios = seq.kind in _RATIO_KINDS
    witnesses = []
    t = first = 0  # diagonal t starts after first = T_t
    while first < horizon and len(witnesses) < 5:
        if not (
            monotone_ratios
            and seq.compare(1 + (t + 1) * (t + 2), first + 1, 1, first + 2) <= 0
        ):
            for n in range(first + 1, min(first + t + 1, horizon) + 1):
                s = n - first
                if not regularity_criterion(family, s, n):
                    witnesses.append(
                        {
                            "n": n,
                            "column": s,
                            "required_ratio": Fraction(1 + s * (s + 1)),
                            "actual_ratio": seq.quotient(n + 1, n),
                        }
                    )
                    if len(witnesses) >= 5:
                        break
        t, first = t + 1, first + t + 1

    definition_n = min(horizon, DEFINITION_N)
    definition_witness = None
    # k enters only through the row steps: per column pair (s, s_next), the
    # k of one step pair form a group decided by one kernel call per n
    groups: dict[tuple[int, int], list[tuple[tuple[int, int], list[int]]]] = {}
    s_next = column_of(1)
    for n in range(1, definition_n + 1):
        s, s_next = s_next, column_of(n + 1)
        if (key := (s, s_next)) not in groups:
            by_steps: dict[tuple[int, int], list[int]] = {}
            for k in range(1, DEFINITION_K + 1):
                by_steps.setdefault((_row_step(k, s), _row_step(k, s_next)), []).append(k)
            groups[key] = list(by_steps.items())
        crit = regularity_criterion(family, s, n)
        # the matrix definition binds exactly at k = s, matching the column
        # criterion, except at n = 1: there n and n+1 share column 1 and the
        # definition collapses to alpha_1 <= alpha_2, strictly weaker than
        # the criterion's 3*alpha_1 <= alpha_2
        binding = s if n >= 2 else None
        wrong: list[int] = []
        for (step, step_next), ks in groups[key]:
            defn = seq.compare(step, n, step_next, n + 1) <= 0
            wrong += [k for k in ks if defn != (crit if k == binding else True)]
        if wrong:
            definition_witness = {"k": min(wrong), "n": n}
            break

    return CheckReport(
        criterion="regularity",
        params={"N": horizon, "alpha": family.seq.name},
        verdict=PASS if not witnesses else FAIL,
        witnesses=witnesses,
        details={
            "definition_window": {"K": DEFINITION_K, "N": definition_n},
            "definition_agrees_with_criterion": definition_witness is None,
            "definition_witness": definition_witness,
        },
    )
