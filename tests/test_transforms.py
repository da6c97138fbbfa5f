"""Numeric down/up transforms."""

import math

import numpy as np
import pytest

from entroscope.core import builtin, integrate
from entroscope.errors import TargetOutOfRange
from entroscope.special import down_of_gg, gg_density, up_of_gg
from entroscope.transforms import down, down_support_length, up

GG_PARAMS = [(2.0, 0.7), (3.0, 1.0), (2.0, 1.5)]
INTERIOR_T = np.array([0.1, 0.3, 0.5, 0.7, 0.9])


@pytest.mark.parametrize("name", ["halfgauss", "exp", "pareto"])
def test_down_level_roundtrip(name):
    d = down(builtin(name), 3.0)
    assert d.monotone_decreasing
    lo = d.support.lower
    for s in (lo + 0.3, lo + 2.0, lo + 20.0):
        assert abs(d.invert_level(d(s)) - s) <= 1e-10 * max(1.0, abs(s))


@pytest.mark.parametrize("p,lam", GG_PARAMS)
def test_numeric_images_match_closed_forms(p, lam):
    g = gg_density(p, lam)
    pairs = [(down(g, a), down_of_gg(p, lam, a)) for a in (1.5, 2.0, 3.0)]
    pairs.append((up(g, 3.0), up_of_gg(p, lam, 3.0)))
    for numeric, closed in pairs:
        for s in numeric.support.at(INTERIOR_T):
            s = float(s)
            assert numeric(s) == pytest.approx(closed(s), rel=1e-10)


MONOTONE_BUILTINS = [
    ("exp", {}),
    ("halfgauss", {}),
    ("pareto", {}),
    ("powerlaw", {"a": -0.5}),
    ("powerlaw", {"a": 2.0}),
]


@pytest.mark.parametrize("name,params", MONOTONE_BUILTINS)
@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_down_support_length(name, params, alpha):
    f = builtin(name, params)
    assert down_support_length(f, alpha) == down(f, alpha).support.length


@pytest.mark.parametrize("name", ["exp", "pareto"])
@pytest.mark.parametrize("alpha", [1.5, 3.0])
def test_down_preserves_mass(name, alpha):
    f = builtin(name)
    d = down(f, alpha)
    assert abs(integrate(d, d.support, tol=1e-12).value - f.mass) <= 1e-12


def test_up_level_and_log_value():
    u = up(builtin("halfgauss"), 3.0)
    assert u.monotone
    for s in u.support.at(INTERIOR_T):
        s = float(s)
        v = u(s)
        assert abs(u.invert_level(v) - s) <= 1e-13 * max(1.0, abs(s))
        assert v == pytest.approx(math.exp(u.log_value(s)), rel=1e-14)


@pytest.mark.parametrize("name", ["exp", "pareto"])
def test_down_level_roundtrip_near_edge(name):
    # the preimage lies between the source edge and the outermost probe node
    d = down(builtin(name), 3.0)
    s = d.support.lower + 0.01
    assert abs(d.invert_level(d(s)) - s) <= 1e-13 * max(1.0, abs(s))


def test_down_level_zero_not_inverted():
    # a value that underflowed to 0 has no representable preimage; near the
    # source edge at x = 0 a solver would stop at a finite x far from it
    d = down(builtin("powerlaw", {"a": 2.0}), 2.0)
    with pytest.raises(TargetOutOfRange):
        d.invert_level(0.0)
