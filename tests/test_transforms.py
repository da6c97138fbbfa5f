"""Numeric down/up transforms."""

import pytest

from entroscope.core import builtin
from entroscope.transforms import down


@pytest.mark.parametrize("name", ["halfgauss", "exp", "pareto"])
def test_down_level_roundtrip(name):
    d = down(builtin(name), 3.0)
    assert d.monotone_decreasing
    lo = d.support.lower
    for s in (lo + 0.3, lo + 2.0, lo + 20.0):
        assert abs(d.invert_level(d(s)) - s) <= 1e-10 * max(1.0, abs(s))
