"""Numeric down/up transforms."""

import math

import numpy as np
import pytest

from entroscope.core import Density, Support, builtin, integrate
from entroscope.errors import EdgeIllConditioned, EntroscopeError, TargetOutOfRange
from entroscope.special import down_of_gg, gg_density, mirror_gg, up_of_gg
from entroscope.transforms import (
    compose_downdown,
    compose_updown,
    double_down_admissible,
    down,
    down_support_length,
    gauge_align,
    tail_classify_down,
    tail_classify_up,
    up,
)

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
    pairs = [(down(g, a), down_of_gg(p, lam, a)) for a in (-1.0, 0.5, 1.5, 2.0, 3.0)]
    pairs += [(up(g, a), up_of_gg(p, lam, a)) for a in (-1.0, 0.5, 3.0)]
    for numeric, closed in pairs:
        for s in numeric.support.at(INTERIOR_T):
            s = float(s)
            assert numeric(s) == pytest.approx(closed(s), rel=1e-10, abs=0.0)


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
        assert v == pytest.approx(math.exp(u.log_value(s)), rel=1e-14, abs=0.0)


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


# deep tails: u(x) = (x + 1) e^{-x} for exp and sqrt(2/pi) e^{-x^2/2} for
# halfgauss, read through the level inverter u(sigma(1/x)) at alpha = 3
@pytest.mark.parametrize(
    "name,xs,exact",
    [
        ("exp", (0.3, 2.0, 10.0, 50.0, 200.0, 600.0, 700.0), lambda x: (x + 1.0) * math.exp(-x)),
        (
            "halfgauss",
            (0.3, 2.0, 10.0, 25.0, 35.0),
            lambda x: math.sqrt(2.0 / math.pi) * math.exp(-x * x / 2.0),
        ),
    ],
)
def test_up_coordinate_deep_tail(name, xs, exact):
    u = up(builtin(name), 3.0)
    assert u.anchor == "upper"
    for x in xs:
        assert u.invert_level(1.0 / x) == pytest.approx(exact(x), rel=1e-13, abs=0.0)


def test_down_value_not_formed_where_source_derivative_underflows():
    # g_{3,0.7} carries no analytic log |f'|, and deep in its tail f'
    # underflows to 0: the image value is unknown there, not infinite
    d = down(gg_density(3.0, 0.7), 3.0)
    with pytest.raises(EdgeIllConditioned):
        d(1e280)


def test_up_beyond_reach():
    # exp at alpha = 2: U = e^{-x} at u = -x, far below double precision
    u = up(builtin("exp"), 2.0)
    assert u(-1e300) == 0.0
    assert u.log_value(-1e300) == -math.inf
    assert u.derivative(-1e300) == 0.0


@pytest.mark.parametrize("x", [107.30, 117.8])
def test_up_reaches_past_the_last_knot(x):
    # pareto(eta=3) at alpha = 2: U = e^{-x}.  Past the last knot (105.39)
    # the march's next step (158) is beyond reach, where the mass from the
    # knot passes 1e50; the solve bisects back to the points between
    u = up(builtin("pareto", {"eta": 3.0}), 2.0)
    log_u, sign = u.log_coordinate_at(np.array([x]))
    s = float(sign[0] * np.exp(log_u[0]))
    assert u.locate(s) == pytest.approx(x, rel=1e-12, abs=0.0)
    assert u(s) == pytest.approx(math.exp(-x), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "name, params, alpha",
    [("pareto", {"eta": 3.0}, 1.5), ("pareto", {"eta": 3.0}, 3.0),
     ("powerlaw", {"a": 2.0}, 0.5), ("powerlaw", {"a": 2.0}, 3.0),
     ("pareto", {"eta": 3.5}, 0.5), ("powerlaw", {"a": 2.0}, 2.0), ("exp", {}, 0.5),
     ("halfgauss", {}, 0.5), ("gg", {"p": 2.0, "lambda": 0.7}, 0.5), ("gg", {"p": 3.0, "lambda": 1.0}, 0.5)],
)
def test_up_preserves_mass(name, params, alpha):
    f = builtin(name, params)
    u = up(f, alpha)
    assert integrate(u.value, u.support, tol=1e-10).value == pytest.approx(f.mass, abs=1e-9)


def _cauchy() -> Density:
    return Density(
        support=Support(-math.inf, math.inf),
        value=lambda x: 1.0 / (math.pi * (1.0 + np.asarray(x, dtype=float) ** 2)),
        derivative=lambda x: -2.0 * np.asarray(x, dtype=float)
        / (math.pi * (1.0 + np.asarray(x, dtype=float) ** 2) ** 2),
        label="cauchy",
    )


def test_up_median_anchor():
    # |x| f(x) is not integrable at either edge, so u is anchored at the
    # median knot x = 0: |u| = ln(1 + x^2) / (2 pi) and U = 1/|x|
    u = up(_cauchy(), 3.0)
    assert u.anchor == "median"
    assert u.support == Support(-math.inf, math.inf)
    for s in (0.01, 0.3, 2.0, 3.0):
        exact = (math.expm1(2.0 * math.pi * s)) ** -0.5
        assert u(s) == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert u(-s) == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_up_far_side_marching():
    # alpha = 2 on exp: the weighted density e^x e^{-x} is 1, the anchor is
    # the lower edge, and u = -x, reached far beyond the knot table
    u = up(builtin("exp"), 2.0)
    assert u.anchor == "lower"
    for s in (-0.5, -30.0, -1e4, -1e5, -1e7):
        assert u.log_value(s) == pytest.approx(s, rel=1e-12, abs=0.0)


def test_up_coordinates_stateless():
    # a far coordinate comes out the same whatever was evaluated before it
    def far(earlier):
        u = up(builtin("exp"), 2.0)
        for s in earlier:
            u.log_value(s)
        return u.log_value(-1e7)

    fresh = far([])
    assert far([-1e5, -3e4]) == fresh
    assert far([-3e4, -1e5]) == fresh


@pytest.mark.parametrize("alpha,beta", [(3.0, 3.0), (3.0, 1.5)])
def test_double_down_preserves_mass(alpha, beta):
    d = compose_downdown(builtin("exp"), alpha, beta)
    assert abs(integrate(d, d.support, tol=1e-12).value - 1.0) <= 1e-12


@pytest.mark.parametrize("alpha,beta", [(3.0, 3.0), (3.0, 1.5)])
def test_updown_preserves_mass(alpha, beta):
    d = compose_updown(builtin("pareto", {"eta": 3.0}), alpha, beta)
    assert abs(integrate(d, d.support, tol=1e-12).value - 1.0) <= 1e-12


@pytest.mark.parametrize("name", ["exp", "pareto", "halfgauss"])
def test_updown_mass_never_overflows(name):
    # at alpha = 1.5 the inverse canonical change of the down step passes
    # the largest double for s below about -1e154: the level there is inf
    d = compose_updown(builtin(name), 1.5, 1.5)
    try:
        assert math.isfinite(integrate(d, d.support, tol=1e-10).value)
    except EntroscopeError:
        pass


@pytest.mark.parametrize("alpha,beta", [(3.0, 3.0), (1.5, 1.5), (3.0, 1.5)])
def test_double_down_unresolved_edge_raises(alpha, beta):
    # the first image of halfgauss is unbounded at its lower edge, where its
    # coordinate cannot resolve the preimages of the second image's levels
    d = compose_downdown(builtin("halfgauss"), alpha, beta)
    with pytest.raises(EntroscopeError):
        integrate(d, d.support, tol=1e-12)


# derivatives of numeric images: derivative against a central difference of
# value, log_abs_derivative against log |derivative|
@pytest.mark.parametrize(
    "transform,name,alpha",
    [
        (down, "exp", 3.0),
        (down, "halfgauss", 1.5),
        (down, "pareto", 2.0),
        (down, "exp", 0.5),
        (down, "pareto", -1.0),
        (down, "halfgauss", 2.0),
        (up, "halfgauss", 3.0),
        (up, "exp", 1.5),
        (up, "pareto", 3.0),
        (up, "exp", 0.5),
        (up, "halfgauss", 2.0),
        (up, "pareto", -1.0),
    ],
)
def test_image_derivatives(transform, name, alpha):
    d = transform(builtin(name), alpha)
    for s in d.support.at(np.array([0.2, 0.4, 0.6, 0.8])):
        s = float(s)
        h = 1e-5 * max(1.0, abs(s))
        der = d.derivative(s)
        assert (d(s + h) - d(s - h)) / (2.0 * h) == pytest.approx(der, rel=1e-8, abs=0.0)
        assert d.log_abs_derivative(s) == pytest.approx(math.log(abs(der)), rel=1e-15, abs=1e-15)


def test_down_log_derivative_where_f_times_f2_overflows():
    # powerlaw(a=-0.5) at x = 9e-104: f f'' = 0.1875 x^-3 overflows, while
    # |D'| = f^2/|f'| = sqrt(x) = e^s / 2 at s = -ln f(x), and D' > 0 there
    d = down(builtin("powerlaw", {"a": -0.5}), 2.0)
    s = -117.94266536646231
    assert d.log_abs_derivative(s) == pytest.approx(s - math.log(2.0), rel=1e-15, abs=0.0)
    assert d.derivative(s) == pytest.approx(math.exp(s) / 2.0, rel=1e-13, abs=0.0)


def _loglog_slope(d, s1: float, s2: float) -> float:
    return (math.log(d(s2)) - math.log(d(s1))) / math.log(s2 / s1)


@pytest.mark.parametrize("eta", [3.0, 4.5])
@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
def test_tail_exponent_down(eta, alpha):
    d = down(builtin("pareto", {"eta": eta}), alpha)
    assert d.support.upper == math.inf
    report = tail_classify_down(eta, alpha)
    assert report.regime == "algebraic"
    assert _loglog_slope(d, 1e6, 1e7) == pytest.approx(-report.exponent, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("eta,alpha", [(3.0, 2.25), (3.0, 2.4), (4.0, 2.2)])
def test_tail_exponent_up(eta, alpha):
    u = up(builtin("pareto", {"eta": eta}), alpha)
    assert u.support.lower == -math.inf
    report = tail_classify_up(eta, alpha)
    assert report.regime == "algebraic"
    assert _loglog_slope(u, -1e3, -1e4) == pytest.approx(report.exponent, rel=2e-4, abs=0.0)


def test_double_down_admissible_threshold():
    # f f''/f'^2 = 1 everywhere for exp; alpha must exceed it by the margin
    f = builtin("exp")
    assert not double_down_admissible(f, 1.0 + 1e-9)
    assert double_down_admissible(f, 1.0 + 2e-9)


def test_double_down_admissible_mirror_gg():
    # mirror_gg carries f'' from the kernel it shares with gg_density
    assert double_down_admissible(mirror_gg(2, 1.5), 3.0).admissible


# up(down(f)) is f again up to the gauge; bounds are the round trip's
# errors at the interior points (halfgauss loses digits in the up coordinate)
@pytest.mark.parametrize("name,bound", [("exp", 1e-14), ("halfgauss", 1e-7), ("pareto", 1e-12)])
@pytest.mark.parametrize("alpha", [1.5, 3.0])
def test_gauge_aligned_round_trip(name, bound, alpha):
    f = builtin(name)
    g = gauge_align(up(down(f, alpha), alpha), f)
    assert g.support == f.support
    for x in f.support.at(np.array([0.1, 0.3, 0.5, 0.7])):
        x = float(x)
        assert g(x) == pytest.approx(float(f(x)), rel=bound, abs=0.0)
