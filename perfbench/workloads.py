"""The benchmark workloads: one pass each, every operation checked exactly.

A pass is a closed loop with one client on one thread: each operation
starts when the previous one has finished.  An operation is one public
library call together with its check (table workloads), or one CLI
invocation checked against its golden digest (``cli-mix``).  The seed only
permutes the order of pairs and of commands; the inputs never change.

Library functions are always called through their module attribute
(``dm.closedform_diameters`` and so on), so the traced run can put spans
around them by replacing that attribute; the untraced run calls them bare.
"""
from __future__ import annotations

import gc
import hashlib
import json
import random
import shlex
from pathlib import Path
from time import perf_counter

from click.testing import CliRunner

from kothedim import cli
from kothedim import diameters as dm
from kothedim import verify as vf
from kothedim.kothe import KotheFamily, c_pq
from kothedim.report import PASS
from kothedim.sequences import ExponentSequence

from tracing import span_or_nothing

PAIRS = ((1, 2), (2, 5), (3, 7))
AA_TAIL_WINDOW = 200

# full size, then the size of the smoke run that checks the harness itself
STABLE_COUNT = {"full": 16000, "smoke": 50}
UNSTABLE_COUNT = {"full": 4000, "smoke": 50}
CLI_ROUNDS = {"full": 8, "smoke": 1}

# ROADMAP's baseline commands, run once per pass before the README rounds
BASELINE_COMMANDS = (
    "check --criterion d2 --alpha linear --j 1 --B 1000000",
    "check --criterion nuclearity --alpha linear --k 1 --N 100000",
    "diameters --alpha linear --p 1 --q 2 --count 1000 --method both",
)
# README's CLI section, verbatim.  The last one is a known defect: it exits
# 1 with an OverflowError from exact.fraction_to_float and is counted as a
# failed operation, never skipped.
README_COMMANDS = (
    "grid --max-n 15",
    "grid --p 2 --q 5 --count 20",
    "gen-matrix --alpha linear --k-max 4 --n-max 12",
    "diameters --alpha linear --p 1 --q 2 --count 100 --method both",
    "diameters --alpha factorial --p 2 --q 3 --count 50 --output json",
    "check --criterion regularity --alpha superproduct --N 5000",
    "check --criterion dn --alpha linear --p 3 --N 10000",
    "check --criterion omega --alpha linear --p 2 --k 8 --N 10000",
    "check --criterion d2 --alpha factorial --j 2 --B 1000",
    "verify --what sandwich --alpha linear --pairs 1:2,2:3 --count 400",
    "verify --what eadd --alpha factorial --pairs 1:2,2:3 --count 100",
    "verify --what aa --alpha factorial --pairs 1:2,1:3,2:3 --tail-window 60",
    "verify --what edd-tail --alpha superproduct --pairs 1:2",
    "verify --what delta-probe --alpha factorial --pairs 1:2,2:3 --theta 1/100",
    "plot-data --alpha factorial --p 1 --q 2 --count 200",
)
GOLDEN_PATH = Path(__file__).with_name("golden.json")


class Ledger:
    """Operations attempted in one pass, their latencies and failures.

    A failure is either ``wrong`` (the output failed its check) or an
    ``error`` (the call raised, or could not run because an operation it
    depends on failed).
    """

    def __init__(self, pacer=None) -> None:
        self.pacer = pacer  # measures the machine's speed before each op
        self.attempted = 0
        self.latencies: list[float] = []  # seconds, per operation run
        self.wrong: list[str] = []
        self.errors: list[str] = []

    def op(self, name: str, call, check):
        """Run ``call`` and ``check`` its result as one timed operation.

        ``check`` returns None when the output is right, else the reason it
        is wrong.  Returns the call's result, or None when the op failed.
        """
        self.attempted += 1
        if self.pacer is not None:
            self.pacer.mark()
        start = perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed op is counted, the pass goes on
            self.latencies.append(perf_counter() - start)
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        try:
            problem = check(result)
        except Exception as exc:  # a malformed result fails its check
            problem = f"check raised {type(exc).__name__}: {exc}"
        self.latencies.append(perf_counter() - start)
        if problem:
            self.wrong.append(f"{name}: {problem}")
            return None
        return result

    def skip(self, name: str, reason: str) -> None:
        self.attempted += 1
        self.errors.append(f"{name}: not run, {reason}")


# -- table workloads ----------------------------------------------------------


def _check_closed(table, count):
    if len(table.entries) != count or table.certified_horizon != count - 1:
        return f"{len(table.entries)} entries, horizon {table.certified_horizon}"
    return None


def disagreements(seq, oracle, closed) -> list[int]:
    """Indices where the oracle entry is uncertified or differs in value."""
    return [
        n
        for n, (o, c) in enumerate(zip(oracle.entries, closed.entries))
        if not o.certified or o.log_value(seq) != c.log_value(seq)
    ]


def _check_oracle(family, oracle, closed, count, tracer):
    if oracle.certified_horizon < count - 1:
        return f"certified only to {oracle.certified_horizon}"
    if closed is None:
        return "no closed-form table to compare with"
    with span_or_nothing(tracer, "diameters.agree"):
        bad = disagreements(family.seq, oracle, closed)
    return f"oracle != closed at {len(bad)} indices, first {bad[0]}" if bad else None


def _check_eadd(ratios, expected):
    if not ratios:
        return "no tail band terms"
    bad = [r["a"] for r in ratios if r["ratio"] != expected]
    return f"ratio != 1 - c_pq at a={bad[:5]}" if bad else None


def _check_aa(stat, pairs):
    if len(stat.per_pair) != len(pairs):
        return f"{len(stat.per_pair)} pair records for {len(pairs)} pairs"
    for record in stat.per_pair:
        expected = 1 - c_pq(record["p"], record["q"])
        if record["band_points_in_window"] == 0:
            return f"no band points in the window of {record['p']}:{record['q']}"
        if record["band_subsequence_sup"] != expected:
            return f"band sup != 1 - c_pq for {record['p']}:{record['q']}"
    if not stat.proxy_inf_sup > 1:
        return "inf-sup proxy not above 1"
    return None


def _pair_ops(ledger, family, kind, p, q, count, unstable, tracer):
    label = f"{kind} {p}:{q}"
    closed = ledger.op(
        f"closed {label}",
        lambda: dm.closedform_diameters(family, p, q, count),
        lambda t: _check_closed(t, count),
    )
    ledger.op(
        f"oracle {label}",
        lambda: dm.oracle_diameters_certified(family, p, q, count),
        lambda t: _check_oracle(family, t, closed, count, tracer),
    )
    later = ["sandwich"] + (["eadd", "edd-tail"] if unstable else [])
    if closed is None:
        for name in later:
            ledger.skip(f"{name} {label}", "closed-form table failed")
        return None
    ledger.op(
        f"sandwich {label}",
        lambda: vf.verify_sandwich(family, p, q, closed),
        lambda r: f"upper bound violated at {r.upper_violations[:5]}"
        if r.upper_violations else None,
    )
    if unstable:
        ledger.op(
            f"eadd {label}",
            lambda: vf.eadd_ratio(family, p, q, closed),
            lambda ratios: _check_eadd(ratios, 1 - c_pq(p, q)),
        )
        ledger.op(
            f"edd-tail {label}",
            lambda: vf.edd_tail_check(family, p, q, closed),
            lambda r: None if r.verdict == PASS else f"verdict {r.verdict}",
        )
    return closed


def _table_pass(ledger, rng, kinds, count, unstable, tracer, on_kind_done):
    """One family per kind, shared by its pairs and freed before the next;
    returns the seed's order of the pairs."""
    pairs = rng.sample(PAIRS, len(PAIRS))
    for kind in kinds:
        family = KotheFamily(ExponentSequence.from_spec(kind))
        tables = {}
        for p, q in pairs:
            closed = _pair_ops(ledger, family, kind, p, q, count, unstable, tracer)
            if closed is not None:
                tables[(p, q)] = closed
        if unstable:
            if len(tables) == len(pairs):
                ledger.op(
                    f"aa {kind}",
                    lambda: vf.aa_statistic(family, tables, AA_TAIL_WINDOW),
                    lambda stat: _check_aa(stat, pairs),
                )
            else:
                ledger.skip(f"aa {kind}", "a closed-form table failed")
        on_kind_done()
        del family, tables
        gc.collect()
    return [f"{p}:{q}" for p, q in pairs]


def stable_table(ledger, rng, size, tracer, on_step):
    return _table_pass(ledger, rng, ["linear"], STABLE_COUNT[size], False, tracer, on_step)


def unstable_table(ledger, rng, size, tracer, on_step):
    return _table_pass(
        ledger, rng, ["factorial", "superproduct"], UNSTABLE_COUNT[size], True,
        tracer, on_step,
    )


# -- cli-mix ------------------------------------------------------------------


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def _check_csv(text: str, rows: int):
    """Header line, column names, then ``rows`` rows numbered from 0."""
    lines = text.splitlines()
    if len(lines) != rows + 2 or not lines[0].startswith("# kothedim schema="):
        return f"{len(lines)} lines, expected {rows + 2}"
    width = len(lines[1].split(","))
    for n, line in enumerate(lines[2:]):
        cells = line.split(",")
        if len(cells) != width or cells[0] != str(n):
            return f"malformed row {n}"
    return None


def check_invocation(result, want: dict):
    """Exit code and stdout digest against the golden record, or, where no
    digest exists, exit code plus a well-formed CSV."""
    if result.exit_code != want["exit_code"]:
        return f"exit {result.exit_code}, expected {want['exit_code']}"
    if want["stdout_sha256"] is None:
        return _check_csv(result.stdout, want["csv_rows"])
    if digest(result.stdout_bytes) != want["stdout_sha256"]:
        return "stdout digest differs from golden"
    return None


def cli_commands(rng, size) -> list[str]:
    commands = rng.sample(BASELINE_COMMANDS, len(BASELINE_COMMANDS))
    for _ in range(CLI_ROUNDS[size]):
        commands += rng.sample(README_COMMANDS, len(README_COMMANDS))
    return commands


def cli_mix(ledger, rng, size, tracer, on_step):
    golden = load_golden()
    runner = CliRunner()
    commands = cli_commands(rng, size)
    for command in commands:
        args = shlex.split(command)

        def invoke():
            with span_or_nothing(tracer, f"cli.{args[0]}"):
                result = runner.invoke(cli.main, args)
            if tracer is not None:
                tracer.count("cli.output_bytes", len(result.stdout_bytes))
            # a usage error exits through SystemExit; anything else crashed
            if result.exception is not None and not isinstance(
                result.exception, SystemExit
            ):
                raise result.exception
            return result

        ledger.op(command, invoke, lambda r: check_invocation(r, golden[command]))
        on_step()
    return commands


WORKLOADS = {
    "stable-table": stable_table,
    "unstable-table": unstable_table,
    "cli-mix": cli_mix,
}
# How far each workload's time follows the speed of calibrate.py's
# reference: the log-log slope of its pass time on the reference's time,
# measured on the machine the README names (see README, Noise).
# unstable-table spends its time on big-int arithmetic over a 450 MB memo
# and slows about 0.6 as much as the reference does.
SPEED_SENSITIVITY = {"stable-table": 1.0, "unstable-table": 0.6, "cli-mix": 1.0}


def run_pass(workload: str, seed: int, size: str, tracer=None, on_step=lambda: None,
             pacer=None):
    """Run one pass; returns (ledger, the seed's order of pairs or commands)."""
    ledger = Ledger(pacer)
    order = WORKLOADS[workload](ledger, random.Random(seed), size, tracer, on_step)
    return ledger, order
