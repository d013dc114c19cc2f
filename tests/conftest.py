from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures() -> Path:
    return FIXTURES


def load(name: str) -> str:
    return (FIXTURES / name).read_text()


def fractions_of(cf) -> dict[str, Fraction]:
    """A {reagent: Fraction} view of a concentration vector."""
    return {k: Fraction(v, 1 << cf.exp) for k, v in cf.nums}
