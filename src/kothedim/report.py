"""Structured pass/fail reports shared by the criterion checks."""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .exact import format_rational

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


def jsonable(value):
    """Recursively convert Fractions to "p/q" strings for JSON export."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


@dataclass
class CheckReport:
    """Verdict plus witnesses for one finite-checkable criterion."""

    criterion: str
    params: dict
    verdict: str
    witnesses: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_json(self) -> dict:
        return {"schema": SCHEMA_VERSION, **jsonable(asdict(self))}
