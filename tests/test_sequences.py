import dataclasses
import itertools
import math
import random
import re
import sys
import threading
from fractions import Fraction

import pytest

from kothedim.diameters import closedform_diameters
from kothedim.kothe import KotheFamily
from kothedim.sequences import (
    ExponentSequence,
    PrefixExhaustedError,
    SequenceError,
    classify_prefix,
    finitely_nuclear_probe,
)


def test_superproduct_values():
    seq = ExponentSequence.superproduct()
    # 1, 1*3, 1*3*7, 1*3*7*13
    assert [seq.value(n) for n in range(1, 5)] == [1, 3, 21, 273]


def test_factorial_and_linear_values():
    assert ExponentSequence.factorial().value(5) == 120
    assert ExponentSequence.linear().value(7) == 7
    assert ExponentSequence.polynomial(3).value(4) == 64


@pytest.mark.parametrize("spec", ["linear", "factorial", "superproduct", "poly:3"])
def test_strictly_increasing_positive_prefix(spec):
    seq = ExponentSequence.from_spec(spec)
    seq.prefill(10_000 + 1)
    values = [seq.scaled(n) for n in range(1, 10_000 + 2)]
    assert values[0] > 0
    assert all(a < b for a, b in zip(values, values[1:]))
    # no generated kind grows its memo past alpha_1
    assert seq.memo == [1]


def ratio_recurrence(spec: str, count: int) -> list[int]:
    """alpha_1..alpha_count of a ratio kind from its recurrence."""
    values = [1]
    for n in range(2, count + 1):
        values.append(values[-1] * (n if spec == "factorial" else 1 + (n - 1) * n))
    return values


@pytest.mark.parametrize("spec", ["factorial", "superproduct"])
def test_stored_reads_the_cursor_in_any_order(spec):
    """Forward, back by one, far back and shuffled reads on one sequence,
    each from wherever the last read left the cursor."""
    want = ratio_recurrence(spec, 400)
    seq = ExponentSequence.from_spec(spec)
    orders = {
        "forward": range(1, 401),
        "back by one": range(400, 0, -1),
        "far back": [400, 3, 399, 2, 400, 1, 250, 120, 119, 1, 200],
        "shuffled": random.Random(17).sample(range(1, 401), 400),
    }
    for name, order in orders.items():
        for n in order:
            assert seq.scaled(n) == want[n - 1], (name, n)
    assert seq.memo == [1] and len(seq) == 1


@pytest.mark.parametrize("spec", ["factorial", "superproduct"])
def test_stored_steps_from_the_nearer_of_the_cursor_and_alpha_1(spec, monkeypatch):
    want = ratio_recurrence(spec, 400)
    seq = ExponentSequence.from_spec(spec)
    assert seq.scaled(400) == want[399]
    steps: list[int] = []
    ratio = seq._ratio
    monkeypatch.setattr(seq, "_ratio", lambda i: steps.append(i) or ratio(i))
    reads = [(3, [2, 3]), (2, [3]), (5, [3, 4, 5]), (300, list(range(6, 301))), (299, [300])]
    for n, walked in reads:
        steps.clear()
        assert seq.scaled(n) == want[n - 1]
        assert steps == walked, n


@pytest.mark.parametrize("spec", ["factorial", "superproduct"])
def test_threads_sharing_one_sequence_read_the_recurrence(spec):
    """Each read works from the cursor snapshot it took, so reads racing on
    one sequence never mix two threads' walks."""
    want = ratio_recurrence(spec, 40)
    seq = ExponentSequence.from_spec(spec)
    wrong: list[tuple[int, int]] = []

    def reader(seed: int) -> None:
        for n in random.Random(seed).choices(range(1, 41), k=20000):
            if seq.scaled(n) != want[n - 1]:
                wrong.append((seed, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_plot_data_reads_cost_ratio_steps_linear_in_the_count(monkeypatch):
    """plot-data's read pattern (log_value of entry n, then alpha_(n+1)) on
    factorial 1:2 costs one ratio step per index, not one walk from alpha_1."""

    def ratio_steps(count: int) -> int:
        family = KotheFamily(ExponentSequence.factorial())
        seq = family.seq
        table = closedform_diameters(family, 1, 2, count)
        steps, ratio = 0, seq._ratio

        def spy(i: int) -> int:
            nonlocal steps
            steps += 1
            return ratio(i)

        monkeypatch.setattr(seq, "_ratio", spy)
        want = ratio_recurrence("factorial", count + 1)
        for n, e in enumerate(table.entries):
            assert e.log_value(seq) == e.coeff * want[e.alpha_index - 1]
            assert seq.value(n + 1) == want[n]
        assert seq.memo == [1]
        return steps

    steps = {count: ratio_steps(count) for count in (150, 300)}
    assert steps[300] <= 2 * 300
    assert steps[300] - steps[150] <= 2 * 150


@pytest.mark.parametrize("spec", ["linear", "factorial", "superproduct", "poly:3", "file"])
def test_scaled_values_reads_alpha_in_order_without_the_memo(spec):
    if spec == "file":
        seq = ExponentSequence(
            name="file", kind="file", declared_class="unspecified",
            memo=[n * n + Fraction(1, 1 + n % 5) for n in range(1, 301)],
        )
    else:
        seq = ExponentSequence.from_spec(spec)
    got = list(itertools.islice(seq.scaled_values(), 300))
    memo = list(seq.memo)
    assert got == [seq.scaled(n) for n in range(1, 301)]
    # scaled_values read the memo as it was: alpha_1 alone for a generated kind
    assert len(memo) == (300 if spec == "file" else 1)
    if spec == "file":
        with pytest.raises(PrefixExhaustedError):
            list(seq.scaled_values())


def test_from_spec_rejects_unknown():
    with pytest.raises(SequenceError):
        ExponentSequence.from_spec("fibonacci")
    with pytest.raises(SequenceError):
        ExponentSequence.from_spec("poly:x")
    with pytest.raises(SequenceError):
        ExponentSequence.polynomial(0)


def test_file_sequence_round_trip(tmp_path):
    path = tmp_path / "alpha.txt"
    path.write_text("1\n3/2\n2\n# comment\n10\n")
    seq = ExponentSequence.from_spec(f"file:{path}")
    assert seq.value(2) == Fraction(3, 2)
    assert seq.value(4) == 10
    with pytest.raises(PrefixExhaustedError):
        seq.value(5)


def test_file_sequence_rejects_non_increasing(tmp_path):
    path = tmp_path / "alpha.txt"
    path.write_text("1\n1\n2\n")
    with pytest.raises(SequenceError):
        ExponentSequence.from_spec(f"file:{path}")


def file_alpha(memo, scale=1):
    return ExponentSequence(name="f", kind="file", declared_class="unspecified",
                            memo=memo, scale=scale)


def test_replacing_a_file_sequence_gives_an_equal_one():
    seq = file_alpha([Fraction(1, 2), Fraction(3, 2), Fraction(7, 3), Fraction(11, 4), 4])
    assert seq.scale == 12
    copy = dataclasses.replace(seq)
    assert copy == seq and copy.scale == 12 and copy.memo == seq.memo
    indices = range(1, len(seq.memo) + 1)
    assert [copy.value(n) for n in indices] == [seq.value(n) for n in indices]
    assert copy.value(1) == Fraction(1, 2)
    for coeff in (Fraction(-1, 2), Fraction(-3, 4), Fraction(-3, 10), Fraction(5)):
        for n in indices:
            assert copy.exponent(coeff, n) == seq.exponent(coeff, n) == coeff * seq.value(n)
    pairs = itertools.product(indices, repeat=2)
    assert all(copy.compare(3, m, 2, n) == seq.compare(3, m, 2, n) for m, n in pairs)
    with pytest.raises(PrefixExhaustedError):
        copy.value(len(seq.memo) + 1)


def test_a_file_memo_over_a_scale_folds_to_the_least_scale():
    # memo / scale is alpha: [2, 4, 7] / 4 is [1/2, 1, 7/4]; [1/3, 2] / 2 is [1/6, 1]
    assert file_alpha([2, 4, 7], scale=4) == file_alpha([Fraction(1, 2), 1, Fraction(7, 4)])
    assert file_alpha([2, 4], scale=4) == file_alpha([1, 2], scale=2)
    assert (seq := file_alpha([Fraction(1, 3), 2], scale=2)).scale == 6 and seq.memo == [1, 6]
    with pytest.raises(SequenceError, match=r"alpha_2=1/2 breaks strict positive increase"):
        file_alpha([3, 2], scale=4)


@pytest.mark.parametrize("kind, scale", [("file", 0), ("file", -2), ("file", 1.5),
                                         ("file", True), ("factorial", 2), ("linear", 3)])
def test_a_scale_is_a_positive_int_and_1_off_a_file(kind, scale):
    with pytest.raises(SequenceError, match="scale must be a positive int, 1 off a file alpha"):
        ExponentSequence(name="x", kind=kind, declared_class="unspecified", memo=[1], scale=scale)


def test_classify_linear_doubling_exactly_two():
    report = classify_prefix(ExponentSequence.linear(), 1000)
    assert report.max_doubling_ratio == 2
    assert report.consistent_with_declared
    seq = ExponentSequence.linear()
    assert all(seq.value(2 * n) / seq.value(n) == 2 for n in range(1, 501))


def test_classify_factorial_unstable():
    report = classify_prefix(ExponentSequence.factorial(), 50)
    # successive ratio is n+1, strictly increasing from the start
    assert report.max_successive_ratio == 50
    assert report.consistent_with_declared


def test_classify_superproduct_unstable():
    report = classify_prefix(ExponentSequence.superproduct(), 30)
    assert report.max_successive_ratio == 1 + 29 * 30
    assert report.min_successive_ratio_tail > 1
    assert report.consistent_with_declared


def test_classify_ratio_kinds_match_the_closed_forms_without_a_memo():
    horizon = 300
    for seq, alpha in [
        (ExponentSequence.factorial(), math.factorial),
        (ExponentSequence.superproduct(), lambda n: math.prod(1 + i * (i + 1) for i in range(n))),
    ]:
        report = classify_prefix(seq, horizon)
        successive = [Fraction(alpha(n + 1), alpha(n)) for n in range(1, horizon)]
        assert report.max_doubling_ratio == max(
            Fraction(alpha(2 * n), alpha(n)) for n in range(1, horizon // 2 + 1)
        )
        assert report.max_successive_ratio == max(successive)
        tail_lo = (9 * horizon) // 10  # the last decade of the prefix
        assert report.min_successive_ratio_tail == min(successive[tail_lo - 1 :])
        assert len(seq) == 1


def test_nuclear_probe_linear_consistent():
    probe = finitely_nuclear_probe(ExponentSequence.linear(), 10_000)
    assert probe.verdict == "consistent"
    values = [v for _, v in probe.samples]
    assert values[-1] < values[0]


def test_nuclear_probe_factorial_consistent():
    probe = finitely_nuclear_probe(ExponentSequence.factorial(), 100)
    assert probe.verdict == "consistent"


def compare_to_exp_float(seq, coeff, m):
    """Reference: ``exp_float`` with both clamps settled by ``compare_to``."""
    num, den = coeff.numerator, coeff.denominator
    if num > 0 and seq.compare_to(num, m, 710 * den) >= 0:
        return math.inf, True
    if num < 0 and seq.compare_to(num, m, -746 * den) <= 0:
        return 0.0, True
    try:
        return math.exp(num * seq.scaled(m) / den), False
    except OverflowError:
        return math.inf, True


@pytest.mark.parametrize("spec", ["linear", "poly:2", "poly:3"])
def test_closed_form_exp_float_matches_the_compare_to_route(spec):
    seq = ExponentSequence.from_spec(spec)
    tiny = Fraction(1, 10**12)
    for m in (1, 2, 3, 7, 40, 1000):
        alpha = seq.scaled(m)
        # exponents 709, 710, -745 and -746, each exactly (a tie with the
        # clamp where there is one) and a hair to either side
        for exponent in (709, 710, -745, -746, Fraction(70978, 100), 0):
            for e in (exponent, exponent - tiny, exponent + tiny):
                coeff = Fraction(e) / alpha
                assert seq.exp_float(coeff, m) == compare_to_exp_float(seq, coeff, m), (e, m)
        for coeff in (Fraction(-3, 10), Fraction(1, 2), Fraction(-7)):
            assert seq.exp_float(coeff, m) == compare_to_exp_float(seq, coeff, m), (coeff, m)
    assert seq.exp_float(Fraction(710), 1) == (math.inf, True)
    assert seq.exp_float(Fraction(-746), 1) == (0.0, True)
    assert seq.exp_float(Fraction(709), 1) == (math.exp(709), False)
    for coeff in (Fraction(1), Fraction(0), Fraction(-1)):
        with pytest.raises(SequenceError, match="got 0"):
            seq.exp_float(coeff, 0)


# -- input checks -----------------------------------------------------------


def file_cases(tmp_path):
    """(path, message pattern) of each alpha file that cannot be loaded."""
    bad = tmp_path / "bad.txt"
    bad.write_text("1\n# a comment\n2/3x\n")
    empty = tmp_path / "empty.txt"
    empty.write_text("# only a comment\n\n")
    cases = [
        (tmp_path / "missing.txt", "cannot read alpha file {}: .*No such file"),
        (tmp_path, "cannot read alpha file {}: .*Is a directory"),
        (bad, "{}:3: bad rational '2/3x'"),
        (empty, "{}: empty sequence"),
        ("", "alpha file path is empty"),  # not the directory "."
    ]
    return [(path, message.format(re.escape(str(path)))) for path, message in cases]


def test_from_file_rejects_unreadable_bad_and_empty_files(tmp_path):
    for path, message in file_cases(tmp_path):
        with pytest.raises(SequenceError, match=message):
            ExponentSequence.from_file(path)


def test_unreadable_bad_and_empty_files_exit_2_through_the_cli(tmp_path):
    from click.testing import CliRunner

    from kothedim.cli import main

    for path, message in file_cases(tmp_path):
        args = ["gen-matrix", "--alpha", f"file:{path}"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, args
        assert result.stdout == ""
        assert re.match(f"error: {message}", result.output), result.output
        assert result.output.count("\n") == 1 and "Traceback" not in result.output


def test_unknown_declared_class_is_rejected():
    with pytest.raises(SequenceError, match="unknown declared class 'tame'"):
        ExponentSequence(name="x", kind="file", declared_class="tame", memo=[Fraction(1)])


def test_classification_and_probe_horizons_have_a_floor():
    seq = ExponentSequence.linear()
    with pytest.raises(SequenceError, match="classification horizon must be >= 4"):
        classify_prefix(seq, 3)
    assert classify_prefix(seq, 4).horizon == 4
    with pytest.raises(SequenceError, match="probe horizon must be >= 10"):
        finitely_nuclear_probe(seq, 9)
    assert finitely_nuclear_probe(seq, 10).horizon == 10
