"""Theorem-level verification harness over computed diameter tables.

Everything here is an exact finite proxy: the two-sided diameter estimate
is scanned for its threshold index, the unstable-tail ratio law is checked
as a rational identity, and the membership probes are restricted to the
geometric family where a sign analysis decides boundedness exactly.
Absence of a threshold within the certified horizon is reported as
"inconclusive", never as "false".
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction

from .diameters import DiameterTable, PlanRow
from .exact import LogTerm, Rational, fraction_to_float, logterm_cmp
from .grid import BandIndexing
from .kothe import KotheFamily, c_pq, ratio_numerators
from .report import FAIL, INCONCLUSIVE, PASS, CheckReport
from .sequences import UNSTABLE


@dataclass
class SandwichReport:
    """Two-sided estimate c_pq*alpha_4n <= log d_n <= c_pq*alpha_n.

    The upper bound must hold at every certified index; the lower bound
    from some threshold on.  ``n_found`` is the least such threshold seen,
    None when it lies past the certified range, where no index shows it.
    """

    p: int
    q: int
    horizon: int
    n_found: int | None
    upper_violations: list[int] = field(default_factory=list)
    lower_violations: list[int] = field(default_factory=list)

    @property
    def conclusive(self) -> bool:
        return self.n_found is not None

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "horizon": self.horizon,
            "upper_bound_violations": self.upper_violations,
            "lower_bound_violations_before_threshold": self.lower_violations,
            "N_found": self.n_found,
            "conclusive": self.conclusive,
        }


def _check_pair(p: int, q: int, table: DiameterTable) -> None:
    """Refuse a table of another pair: its codes would read wrong coefficients."""
    if (p, q) != (table.p, table.q):
        raise ValueError(f"table is for the pair {table.p}:{table.q}, not {p}:{q}")


def verify_sandwich(
    family: KotheFamily, p: int, q: int, table: DiameterTable
) -> SandwichReport:
    """Exact scan of both bounds over the certified range (n >= 1).

    An entry's coefficient is read by its code as a numerator over pq
    (:func:`~kothedim.kothe.ratio_numerators`).  An off-band entry (code 0)
    shares the bounds' coefficient c_pq < 0, and alpha strictly increases,
    so its index decides: at (n, m) it breaks the upper bound iff m < n
    and the lower one iff m > 4n.  Only a band entry (code 1) has the
    other coefficient, and each of its bounds is one ``seq.compare``.  A
    ``file`` alpha is first checked to hold every value the bounds name,
    so a short prefix raises ``PrefixExhaustedError`` as a compare would.
    A table of another pair raises ``ValueError``.
    """
    _check_pair(p, q, table)
    seq = family.seq
    c_num, red_num = ratio_numerators(p, q)
    horizon = table.certified_horizon
    if seq.kind == "file":
        seq.prefill(max(4 * horizon, max(table.entries.alpha_index[1 : horizon + 1], default=0)))
    upper_violations: list[int] = []
    lower_violations: list[int] = []
    for n, code, m in table.entries.rows(1, horizon + 1):
        if code:
            if seq.compare(red_num, m, c_num, n) > 0:
                upper_violations.append(n)
            if seq.compare(red_num, m, c_num, 4 * n) < 0:
                lower_violations.append(n)
        else:
            if m < n:
                upper_violations.append(n)
            if m > 4 * n:
                lower_violations.append(n)
    n_found = lower_violations[-1] + 1 if lower_violations else 1
    if n_found > horizon:
        n_found = None
    return SandwichReport(
        p=p,
        q=q,
        horizon=horizon,
        n_found=n_found,
        upper_violations=upper_violations,
        lower_violations=lower_violations,
    )


def _tail_band(table: DiameterTable) -> list[PlanRow]:
    """The plan rows from a0 on whose band term lands inside the certified
    range; a tail band term n_a lands at n_a - 1."""
    if table.plan is None or table.a0 is None:
        return []
    horizon = table.certified_horizon
    return [row for row in table.plan[table.a0 - 1 :] if row.n_a - 1 <= horizon]


def _decay_ratios(seq, table: DiameterTable, positions: Iterable[int]) -> Iterator[Rational]:
    """The exact ratios -log(d_n) / alpha_{n+1} at ``positions``, built from
    no alpha value: -coeff itself where d_n's alpha index is n + 1."""
    entries, negated = table.entries, [-coeff for coeff in table.entries.coeffs]
    for n in positions:
        neg, m = negated[entries.codes[n]], entries.alpha_index[n]
        yield neg if m == n + 1 else neg * seq.quotient(m, n + 1)


def eadd_ratio(
    family: KotheFamily, p: int, q: int, table: DiameterTable
) -> list[dict]:
    """Exact ratios -log(d_{n_a - 1}) / alpha_{n_a} over the tail band terms.

    Only asserted for unstable parameter sequences (the law the tail proves);
    each returned ratio is exactly 1 - c_pq.  Another pair's table raises.
    """
    _check_pair(p, q, table)
    if family.seq.declared_class != UNSTABLE:
        raise ValueError(
            "the tail ratio law is only asserted for unstable alpha; "
            f"{family.seq.name} is declared {family.seq.declared_class}"
        )
    if table.method != "closed" or table.plan is None:
        raise ValueError("eadd_ratio needs a closed-form table with a plan")
    if table.a0 is None:
        raise ValueError(
            "table never enters the tail regime within its range; "
            "increase the count"
        )
    rows = _tail_band(table)
    ratios = _decay_ratios(family.seq, table, (row.n_a - 1 for row in rows))
    return [{"a": row.a, "n_a": row.n_a, "ratio": ratio} for row, ratio in zip(rows, ratios)]


@dataclass
class AAStatistic:
    """Window statistics for the ratios -log(d_n)/alpha_{n+1}."""

    tail_window: int
    per_pair: list[dict] = field(default_factory=list)
    proxy_inf_sup: Rational | None = None
    note: str = ""

    def to_json(self) -> dict:
        return {
            "tail_window": self.tail_window,
            "per_pair": self.per_pair,
            "proxy_inf_sup": self.proxy_inf_sup,
            "note": self.note,
        }


def aa_statistic(
    family: KotheFamily,
    tables: dict[tuple[int, int], DiameterTable],
    tail_window: int,
) -> AAStatistic:
    """Per-pair sup of -log(d_n)/alpha_{n+1} over the last ``tail_window``
    certified indices, plus the inf over p of the sup over q as a finite
    proxy.  One-sided by construction: it can refute a decay claim (the
    sup along the band subsequence never drops below 1 - c_pq for unstable
    alpha) but can only support one for stable alpha.
    """
    if tail_window < 0:
        raise ValueError("tail window must be >= 0")
    stat = AAStatistic(tail_window=tail_window)
    if tail_window == 0 or not tables:
        stat.note = "empty window: no statistics"
        return stat
    seq = family.seq
    by_p: dict[int, Rational] = {}
    for (p, q), table in sorted(tables.items()):
        horizon = table.certified_horizon
        lo = max(0, horizon - tail_window + 1)
        sup: Rational | None = None
        red_sup: Rational | None = None
        red_points = 0
        red_positions = {row.n_a - 1 for row in _tail_band(table)}
        window = range(lo, horizon + 1)
        for n, ratio in zip(window, _decay_ratios(seq, table, window)):
            if sup is None or ratio > sup:
                sup = ratio
            if n in red_positions:
                red_points += 1
                if red_sup is None or ratio > red_sup:
                    red_sup = ratio
        record = {
            "p": p,
            "q": q,
            "window": [lo, horizon],
            "sup_ratio": sup,
            "sup_ratio_approx": fraction_to_float(sup)[0] if sup is not None else None,
            "band_subsequence_sup": red_sup,
            "band_points_in_window": red_points,
        }
        stat.per_pair.append(record)
        if sup is not None:
            cur = by_p.get(p)
            by_p[p] = sup if cur is None or sup > cur else cur
    if by_p:
        stat.proxy_inf_sup = min(by_p.values())
    if seq.declared_class == UNSTABLE:
        stat.note = (
            "unstable alpha: the sup along the band subsequence equals "
            "1 - c_pq per pair and never decays; the proxy stays above 1"
        )
    else:
        stat.note = (
            "finite-window sups reported; no law is asserted for this "
            "sequence class"
        )
    return stat


def edd_tail_check(
    family: KotheFamily, p: int, q: int, table: DiameterTable
) -> CheckReport:
    """Past the tail threshold the ratio sequence itself is descending and
    d_n is literally its (n+1)-th term; both checked exactly over the whole
    certified table on numerators over pq (another pair's table raises).  Two
    consecutive ratio terms with one numerator are in order by their
    indices, so only the terms next to a band element (read from
    ``BandIndexing.element``) can be out of order; the kernel orders
    those.  An entry with ratio term n + 1's index and numerator matches,
    else compared.  A ``file`` alpha too short
    for alpha_(horizon+1) raises ``PrefixExhaustedError`` unless a ratio
    term out of order is found first.
    """
    _check_pair(p, q, table)
    params = {"p": p, "q": q, "alpha": family.seq.name}
    if table.tail_start is None:
        return CheckReport(
            criterion="edd-tail",
            params=params,
            verdict=INCONCLUSIVE,
            details={
                "note": "threshold not found within the table range "
                "(expected for stable alpha)"
            },
        )
    seq = family.seq
    horizon = table.certified_horizon
    threshold = table.tail_start
    nums = ratio_numerators(p, q)  # by code, and by band membership for ratio term m
    # the band elements from threshold + 1 to horizon + 1
    bnd = BandIndexing(p=p, q=q)
    elements = map(bnd.element, itertools.count(bnd.count_below(threshold + 1) + 1))
    band = set(itertools.takewhile(lambda e: e <= horizon + 1, elements))
    witnesses = []
    # one negative numerator: alpha_m < alpha_(m+1) orders the pair, so only
    # an m next to a band element can be out of order
    for m in sorted({m for e in band for m in (e - 1, e) if threshold < m <= horizon}):
        if (m in band) != (m + 1 in band) and seq.compare(
                nums[m in band], m, nums[m + 1 in band], m + 1) < 0:
            witnesses.append({"type": "ratio-order", "m": m})
            break
    else:
        if threshold < horizon:  # the skipped compares would have read up to alpha_(horizon+1)
            seq.prefill(horizon + 1)
    for n, code, m in table.entries.rows(threshold, horizon + 1):
        num, r = nums[code], nums[n + 1 in band]
        if (m != n + 1 or num != r) and seq.compare(num, m, r, n + 1) != 0:
            witnesses.append({"type": "value", "n": n})
            break
    return CheckReport(
        criterion="edd-tail",
        params=params,
        verdict=PASS if not witnesses else FAIL,
        witnesses=witnesses,
        details={"threshold": threshold, "horizon": horizon},
    )


@dataclass
class DeltaProbeReport:
    """Membership probe of t_n = e^(theta*alpha_{n+1}) in both dimension sets."""

    theta: Rational
    per_pair: list[dict] = field(default_factory=list)
    kothe_member: bool = False
    kothe_witness_p: int | None = None
    lambda1_member: bool = False
    lambda1_witness_k: int | None = None

    @property
    def verdicts_coincide(self) -> bool:
        return self.kothe_member == self.lambda1_member

    def to_json(self) -> dict:
        return {
            "theta": self.theta,
            "per_pair": self.per_pair,
            "kothe_member": self.kothe_member,
            "kothe_witness_p": self.kothe_witness_p,
            "lambda1_member": self.lambda1_member,
            "lambda1_witness_k": self.lambda1_witness_k,
            "verdicts_coincide": self.verdicts_coincide,
        }


def delta_membership_probe(
    family: KotheFamily,
    theta: Rational,
    tables: dict[tuple[int, int], DiameterTable],
) -> DeltaProbeReport:
    """Exact sign analysis of sup_n (theta*alpha_{n+1} + log d_n).

    Tail-regime tables admit an exact per-pair verdict: off-band positions
    contribute (theta + c_pq)*alpha_{n+1} and tail band positions
    (theta + c_pq - 1)*alpha_{n_a}, so the sup is finite iff
    theta <= -c_pq.  Both family verdicts reduce to the sign of theta:
    membership on the Köthe side means for every p some q works, and
    sup_q(-c_pq) = 1/p; on the power-series side the k-th norm of the probe
    is e^((theta - 1/k)*alpha_{n+1}).
    """
    theta = Fraction(theta)
    report = DeltaProbeReport(theta=theta)
    for (p, q), table in sorted(tables.items()):
        c = c_pq(p, q)
        record: dict = {"p": p, "q": q, "neg_c_pq": -c}
        if table.a0 is not None and family.seq.declared_class == UNSTABLE:
            record["bounded"] = theta <= -c
            record["off_band_exponent_coeff"] = theta + c
            record["band_exponent_coeff"] = theta + c - 1
            record["mode"] = "tail-sign-analysis"
        else:
            # theta*alpha_{n+1} + log d_n as one term over alpha_{n+1}
            seq = family.seq
            best: LogTerm | None = None
            certified = range(table.certified_horizon + 1)
            for n, ratio in zip(certified, _decay_ratios(seq, table, certified)):
                v = LogTerm(theta - ratio, n + 1)
                if best is None or logterm_cmp(v, best, seq) > 0:
                    best = v
            sup = best.log_value(seq) if best is not None else None
            record["bounded"] = None
            record["prefix_sup_exponent"] = sup
            record["prefix_sup_exponent_approx"] = (
                fraction_to_float(sup)[0] if sup is not None else None
            )
            record["mode"] = "empirical-prefix"
        report.per_pair.append(record)

    report.kothe_member = report.lambda1_member = theta <= 0
    if theta > 0:
        report.kothe_witness_p = report.lambda1_witness_k = math.ceil(1 / theta)
    return report
