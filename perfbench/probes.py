"""Per-layer metrics of the traced run: spans, counters and probes.

``Instruments.install`` puts spans around the public functions each layer
exposes, by replacing the module attribute the callers look up (the
benchmark's table passes and ``kothedim.cli`` alike).  Internal helpers are
left alone, so a recursive or per-element function never pays for a span.

Some layers do their work in calls too small or too many to wrap one by
one.  They are measured by probes that run after the pass, outside its
wall time:

- ``sequences.prefill_s``: ``.prefill(memo_len)`` on a fresh sequence of
  each kind the pass used, to the largest memo that kind reached;
- ``exact.cmp_s``: ``logterm_cmp`` replayed on adjacent entries of every
  closed-form table, the comparisons of its monotonicity pass;
- ``grid.locate_k_s``: ``BandIndexing.locate_k`` replayed on every plan
  row's ``i_a``;
- ``grid.column_of_s``: ``column_of(1..100000)``.

A layer the workload does not reach reads 0.
"""
from __future__ import annotations

import statistics
import sys

from kothedim import cli, exact, grid
from kothedim import diameters as dm
from kothedim import kothe as km
from kothedim import verify as vf
from kothedim.sequences import ExponentSequence

CLI_SUBCOMMANDS = ("grid", "gen-matrix", "diameters", "check", "verify", "plot-data")
KOTHE_CHECKS = {
    "d2": "check_d2_failure",
    "nuclearity": "check_nuclearity",
    "dn": "check_dn",
    "omega": "check_omega",
    "regularity": "check_regularity",
}
VERIFY_CALLS = {
    "sandwich": "verify_sandwich",
    "eadd": "eadd_ratio",
    "edd_tail": "edd_tail_check",
    "aa": "aa_statistic",
}
COUNTERS = (
    "diameters.plan_rows",
    "diameters.tail_a0",
    "diameters.oracle_prefix",
    "diameters.oracle_doublings",
    "exact.cmp_count",
    "grid.locate_k_calls",
    "kothe.d2_scanned",
    "cli.output_bytes",
)
COLUMN_OF_PROBE_N = 100_000


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def memo_mib(seq) -> float:
    """Bytes held by the memo's integers (a denominator of 1 is shared)."""
    size = 0
    for v in seq.memo:
        size += sys.getsizeof(v.numerator)
        if v.denominator != 1:
            size += sys.getsizeof(v.denominator)
    return size / 2**20


class Instruments:
    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.created: list[ExponentSequence] = []  # built since the last step
        self.memo_len: dict[str, int] = {}  # largest memo per alpha kind
        self.closed: list[tuple[str, dm.DiameterTable]] = []
        self.memo_bits = 0
        self.memo_size = 0.0

    def install(self) -> None:
        t = self.tracer
        t.wrap(dm, "closedform_diameters", "diameters.closed", self._closed_done)
        t.wrap(dm, "oracle_diameters_certified", "diameters.oracle", self._oracle_done)
        for name, attr in VERIFY_CALLS.items():
            t.wrap(vf, attr, f"verify.{name}")
        for name, attr in KOTHE_CHECKS.items():
            t.wrap(km, attr, f"kothe.{name}", self._d2_done if name == "d2" else None)
        t.wrap(cli, "jsonable", "report.jsonable")
        t.wrap(ExponentSequence, "from_spec", "sequences.from_spec",
               lambda args, kwargs, seq: self.created.append(seq))

    def _closed_done(self, args, kwargs, table) -> None:
        self.tracer.count("diameters.plan_rows", len(table.plan))
        self.tracer.count("diameters.tail_a0", table.a0 or 0)
        self.closed.append((args[0].seq.name, table))

    def _oracle_done(self, args, kwargs, table) -> None:
        count = args[3] if len(args) > 3 else kwargs["count"]
        self.tracer.count("diameters.oracle_prefix", table.oracle_prefix)
        # oracle_diameters_certified starts at count + 16 and doubles
        self.tracer.count(
            "diameters.oracle_doublings",
            (table.oracle_prefix // (count + 16)).bit_length() - 1,
        )

    def _d2_done(self, args, kwargs, report) -> None:
        self.tracer.count("kothe.d2_scanned", report.details["scanned_column_elements"])

    def step_done(self) -> None:
        """Note the memo length of every sequence built since the last step
        (one CLI invocation, or one alpha kind of a table pass)."""
        for seq in self.created:
            self.memo_len[seq.name] = max(self.memo_len.get(seq.name, 0), len(seq))
        self.created.clear()

    # -- after the pass ----------------------------------------------------

    def run_probes(self) -> None:
        t = self.tracer
        with t.span("probes"):
            for name, length in sorted(self.memo_len.items()):
                seq = ExponentSequence.from_spec(name)
                with t.span("sequences.prefill"):
                    seq.prefill(length)
                self.memo_bits = max(self.memo_bits, seq.memo[-1].numerator.bit_length())
                self.memo_size = max(self.memo_size, memo_mib(seq))
                for kind, table in self.closed:
                    if kind == name:
                        self._replay_cmp(seq, table)
                del seq
            self.created.clear()  # the probes' own from_spec calls
            for _, table in self.closed:
                self._replay_locate_k(table)
            with t.span("grid.column_of"):
                for n in range(1, COLUMN_OF_PROBE_N + 1):
                    grid.column_of(n)

    def _replay_cmp(self, seq, table) -> None:
        terms = [e.term() for e in table.entries]
        with self.tracer.span("exact.cmp"):
            for x, y in zip(terms, terms[1:]):
                exact.logterm_cmp(x, y, seq)
        self.tracer.count("exact.cmp_count", len(terms) - 1)

    def _replay_locate_k(self, table) -> None:
        band = grid.BandIndexing(p=table.p, q=table.q)
        points = [row.i_a for row in table.plan if row.i_a is not None]
        with self.tracer.span("grid.locate_k"):
            for m in points:
                band.locate_k(m)
        self.tracer.count("grid.locate_k_calls", len(points))

    # -- the metrics -------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        t = self.tracer
        out: dict[str, tuple[float, str]] = {
            "sequences.memo_len": (sum(self.memo_len.values()), "count"),
            "sequences.prefill_s": (t.total("sequences.prefill"), "s"),
            "sequences.alpha_max_bits": (self.memo_bits, "bits"),
            "sequences.memo_mb": (self.memo_size, "MiB"),
            "grid.locate_k_s": (t.total("grid.locate_k"), "s"),
            "grid.column_of_s": (t.total("grid.column_of"), "s"),
            "diameters.closed_s": (t.total("diameters.closed"), "s"),
            "diameters.oracle_s": (t.total("diameters.oracle"), "s"),
            "diameters.agree_s": (t.total("diameters.agree"), "s"),
            "exact.cmp_s": (t.total("exact.cmp"), "s"),
            "report.jsonable_s": (t.total("report.jsonable"), "s"),
        }
        for name in VERIFY_CALLS:
            out[f"verify.{name}_s"] = (t.total(f"verify.{name}"), "s")
        for name in KOTHE_CHECKS:
            out[f"kothe.{name}_s"] = (t.total(f"kothe.{name}"), "s")
        for key in COUNTERS:
            out[key] = (t.counts.get(key, 0), "count")

        invocations = []
        for sub in CLI_SUBCOMMANDS:
            durations = t.durations(f"cli.{sub}")
            invocations += durations
            out[f"cli.{sub}_ms"] = (1000 * median_or_zero(durations), "ms")
        p90 = statistics.quantiles(invocations, n=10)[-1] if len(invocations) > 1 else 0.0
        out["cli.cmd_p50_ms"] = (1000 * median_or_zero(invocations), "ms")
        out["cli.cmd_p90_ms"] = (1000 * p90, "ms")
        out["cli.overhead_ms"] = (1000 * median_or_zero(self._check_overheads()), "ms")
        return out

    def _check_overheads(self) -> list[float]:
        """Per ``check`` invocation, the CLI span minus its kothe span."""
        overhead = {
            sid: end - start
            for sid, name, start, end, _ in self.tracer.spans
            if name == "cli.check"
        }
        for _, name, start, end, parent in self.tracer.spans:
            if parent in overhead and name.startswith("kothe."):
                overhead[parent] -= end - start
        return list(overhead.values())
