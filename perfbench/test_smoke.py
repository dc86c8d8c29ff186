"""Smoke tests of the benchmark harness at tiny size (count 50, one CLI round).

    python3 -m pytest perfbench

They live outside the package's ``testpaths``, so the package's own test
run does not collect them.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from click.testing import CliRunner  # noqa: E402

from kothedim import cli  # noqa: E402
from kothedim import diameters as dm  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402
from run import MIN_PASSES  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
KNOWN_DEFECT = "plot-data --alpha factorial --p 1 --q 2 --count 200"


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "7", "--seconds", "0",
               "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    # the README's factorial plot-data is the one failing operation
    failures = [line for line in lines if line.startswith(("WRONG", "ERROR"))]
    if workload == "cli-mix":
        # once per pass: untraced and traced, or the run's passes
        assert result["failed"] == (2 if trace else MIN_PASSES)
        assert failures == [f"ERROR {KNOWN_DEFECT}: OverflowError: "
                            "int too large to convert to float"]
    else:
        assert result["failed"] == 0 and not failures


def test_refuses_a_tree_without_sources():
    bare = ROOT / ".perfbench" / "bare"  # only BENCHMARK.json and perfbench/
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "cli-mix", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=bare)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_a_wrong_diameter_fails_the_agreement_check(monkeypatch):
    real = dm.closedform_diameters

    def last_entry_off_by_one(family, p, q, count):
        table = real(family, p, q, count)
        e = table.entries[-1]
        table.entries[-1] = dataclasses.replace(e, alpha_index=e.alpha_index + 1)
        return table

    monkeypatch.setattr(dm, "closedform_diameters", last_entry_off_by_one)
    ledger, _ = workloads.run_pass("stable-table", 1, "smoke")
    assert len(ledger.wrong) == 3 and not ledger.errors
    assert all(w.startswith("oracle linear") for w in ledger.wrong)


def test_a_changed_cli_output_fails_its_digest():
    result = CliRunner().invoke(cli.main, ["grid", "--max-n", "15"])
    golden = workloads.load_golden()["grid --max-n 15"]
    assert workloads.check_invocation(result, golden) is None
    altered = dict(golden, stdout_sha256=workloads.digest(b"other"))
    assert workloads.check_invocation(result, altered) == "stdout digest differs from golden"


@pytest.mark.parametrize("sensitivity", [1.0, 0.6])
def test_pacer_scales_each_stretch_by_the_speed_around_it(monkeypatch, sensitivity):
    clock = iter([0.0, 0.0, 1.0, 1.0, 3.0, 3.0])
    speeds = iter([0.002, 0.004, 0.004])  # the machine halves its speed
    monkeypatch.setattr(calibrate, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(calibrate, "reference_s", lambda: next(speeds))
    pacer = calibrate.Pacer(sensitivity=sensitivity)
    for _ in range(3):
        pacer.mark()
    assert pacer.raw_s == 3.0
    nominal = calibrate.REF_NOMINAL_S
    assert pacer.calibrated_s == pytest.approx(
        1.0 * (nominal / 0.003) ** sensitivity + 2.0 * (nominal / 0.004) ** sensitivity
    )
