import itertools
import math
from fractions import Fraction

import pytest

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
    # linear and poly:d are closed forms: their memo stays at alpha_1
    assert seq.memo == (values if spec in ("factorial", "superproduct") else [1])


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
