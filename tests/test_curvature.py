"""Down images built from their source's closed forms.

A density that carries edge forms and the curvature fields (r = f f''/f'^2
in closed form and its range) gives `down` its support and its monotone
flags without probing.  Each closed field is checked here against the
probes it replaces (`_edge_limit`, `_curvature_ratio`), and r also against
mpmath; `down` with the fields stripped must build the same image.
"""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from entroscope.core import builtin, reflect, rescale, translate
from entroscope.special import gg_density
from entroscope.transforms import (
    _curvature,
    _curvature_ratio,
    _edge_limit,
    _edge_value,
    double_down_admissible,
    down,
)

# the down sources of the benchmark, at their nominal parameters
SOURCES = {
    "exp": builtin("exp", {"rate": 1.5}),
    "exp1": builtin("exp"),
    "halfgauss": builtin("halfgauss"),
    "pareto": builtin("pareto", {"eta": 3.5}),
    "pareto3": builtin("pareto", {"eta": 3.0}),
    "powerlaw-": builtin("powerlaw", {"a": -0.5}),
    "powerlaw+": builtin("powerlaw", {"a": 2.0}),
    **{f"gg({p:g},{lam:g})": gg_density(p, lam)
       for p, lam in ((2.0, 0.7), (3.0, 1.0), (2.0, 1.5), (3.0, 0.7), (2.0, 1.0), (2.0, 2.0), (1.5, 1.5))},
    "rescale(gg(2,2))": rescale(gg_density(2.0, 2.0), 1.7),
}
ALPHAS = (1.5, 2.0, 3.0)
INTERIOR_T = np.linspace(0.05, 0.95, 19)


def _copies(f):
    """f and affine copies of it: rescaled, reflected, translated, all three."""
    return [f, rescale(f, 1.7), reflect(f), translate(f, -0.6),
            translate(reflect(rescale(f, 0.4)), 2.5)]


def _stripped(f):
    return dataclasses.replace(f, edge_forms=None, curvature=None, curvature_range=None)


def _pair_curvature(f, x):
    """r from the log pair and f'', as `_curvature` forms it without the field."""
    return _curvature(dataclasses.replace(f, curvature=None), x)


# ------------------------------------------------------------ edge limits


@pytest.mark.parametrize("name", SOURCES)
def test_form_limits_match_the_probes(name):
    for f in _copies(SOURCES[name]):
        for side in ("lower", "upper"):
            if not math.isfinite(getattr(f.support, side)):
                assert _edge_value(f, side) == 0.0
                continue
            closed, probed = _edge_value(f, side), _edge_limit(f, side)
            if probed in (0.0, math.inf) or closed in (0.0, math.inf):
                assert closed == probed, (f.label, side)
            else:
                assert closed == pytest.approx(probed, rel=1e-13, abs=0.0), (f.label, side)


@pytest.mark.parametrize("p, lam, probed", [(1.5, 3.0, 1.01e-7), (2.0, 6.0, 3.7e-3),
                                            (2.0, 11.0, 0.134), (3.0, 21.0, 1.29)])
@pytest.mark.parametrize("alpha", [1.5, 3.0])
def test_vanishing_edge_above_lambda_two(p, lam, probed, alpha):
    # g vanishes at its upper edge as t^{1/(lambda-1)}: too slowly for the
    # probes, which read a positive limit there; the image's edge is sigma(0)
    g = gg_density(p, lam)
    assert _edge_limit(g, "upper") == pytest.approx(probed, rel=0.01, abs=0.0)
    assert _edge_value(g, "upper") == 0.0
    assert down(g, alpha).support.upper == (0.0 if alpha < 2 else math.inf)


def test_form_limit_falls_back_to_the_probes():
    # a = B = 0 but f(x0) is not finite and positive: the probes decide
    f = builtin("exp")
    broken = dataclasses.replace(f, value=lambda x: np.where(np.asarray(x) == 0.0, np.nan, f.value(x)))
    assert _edge_value(broken, "lower") == _edge_limit(broken, "lower")
    assert _edge_value(broken, "lower") == pytest.approx(1.0, rel=1e-13, abs=0.0)


# ------------------------------------------------------------- curvature


def _interior(f):
    return f.support.at(INTERIOR_T)


@pytest.mark.parametrize("name", SOURCES)
def test_closed_curvature_matches_the_log_pair(name):
    for f in _copies(SOURCES[name]):
        x = _interior(f)
        pair = _pair_curvature(f, x)
        # far out on an infinite support f' may underflow, and the pair is nan
        ok = np.isfinite(pair)
        assert ok.sum() >= len(x) - 2
        assert f.curvature(x[ok]) == pytest.approx(pair[ok], rel=1e-12, abs=0.0), f.label


@pytest.mark.parametrize("p, lam", [(2.0, 0.7), (3.0, 1.5), (1.5, 2.5)])
def test_closed_curvature_of_sym_members(p, lam):
    f = gg_density(p, lam, mode="sym")
    x = f.support.at(np.array([0.1, 0.3, 0.45, 0.55, 0.7, 0.9]))
    assert f.curvature(x) == pytest.approx(_pair_curvature(f, x), rel=1e-12, abs=0.0)
    assert f.curvature_range == gg_density(p, lam).curvature_range


# p* = p/(p-1): 3 and 1.5 above 1, 2/3 and 0.5 below it
MP_GRID = [(p, lam) for p in (1.5, 3.0, -2.0, -1.0) for lam in (0.7, 1.0, 1.5, 2.5)]


@pytest.mark.parametrize("p, lam", MP_GRID)
def test_closed_curvature_against_mpmath(p, lam):
    f = gg_density(p, lam)
    with mp.workdps(30):
        ps = mp.mpf(p) / (p - 1)
        if lam == 1.0:
            g = lambda x: mp.exp(-(x**ps))
        else:
            g = lambda x: (1 - (lam - 1) * x**ps) ** (1 / mp.mpf(lam - 1))
        for x in _interior(f)[::3]:
            x = mp.mpf(float(x))
            exact = g(x) * mp.diff(g, x, 2) / mp.diff(g, x, 1) ** 2
            got = float(f.curvature(float(x)))
            # r = K - c x^{-p*} is formed by one subtraction: rounding of
            # the larger term bounds its absolute error
            scale = abs(float((ps - 1) / ps * x**-ps)) + 1.0
            assert abs(got - float(exact)) <= 1e-14 * scale, (float(x), got, float(exact))


@pytest.mark.parametrize("name", SOURCES)
def test_probes_lie_inside_the_closed_range(name):
    f = SOURCES[name]
    lo, hi = f.curvature_range
    probes = _curvature_ratio(dataclasses.replace(f, curvature=None), 65)
    slack = 1e-12 * max(1.0, float(np.max(np.abs(probes))))
    assert lo - slack <= probes.min() and probes.max() <= hi + slack


def test_far_out_curvature_is_its_constant():
    # the log pair reads nan here: f'' underflows where exp(log f - 2 log |f'|) overflows
    pareto, powerlaw = builtin("pareto", {"eta": 3.0}), builtin("powerlaw", {"a": -0.5})
    far, near = np.array([1e80, 1e200]), np.array([1e-200, 1e-300])
    assert np.isnan(_pair_curvature(pareto, far)).all() and np.isnan(_pair_curvature(powerlaw, near)).all()
    assert list(_curvature(pareto, far)) == [4.0 / 3.0] * 2
    assert list(_curvature(powerlaw, near)) == [3.0] * 2


def test_uniform_down_image_has_zero_derivative():
    # powerlaw(a=-0.5) has r = 3 exactly, so down at alpha = 3 is uniform
    d = down(builtin("powerlaw", {"a": -0.5}), 3.0)
    for s in d.support.at(INTERIOR_T):
        assert d.derivative(float(s)) == 0.0


def test_admissibility_witness_is_the_closed_sup():
    assert double_down_admissible(builtin("halfgauss"), 1.5).observed_sup == 1.0
    assert double_down_admissible(builtin("pareto", {"eta": 3.0}), 1.5).observed_sup == 4.0 / 3.0
    # p* = 2/3 < 1: r grows without bound toward 0
    assert not double_down_admissible(gg_density(-2.0, 0.7), 1e6)


# ------------------------------------------------------- down from fields


@pytest.mark.parametrize("name", SOURCES)
@pytest.mark.parametrize("alpha", [0.5, 1.5, 2.0, 3.0])
def test_down_without_the_fields_builds_the_same_image(name, alpha):
    f = SOURCES[name]
    closed, probed = down(f, alpha), down(_stripped(f), alpha)
    for a, b in ((closed.support.lower, probed.support.lower), (closed.support.upper, probed.support.upper)):
        assert a == pytest.approx(b, rel=1e-13, abs=0.0)
    assert (closed.monotone_decreasing, closed.monotone_increasing) == (
        probed.monotone_decreasing, probed.monotone_increasing)
    for s in closed.support.at(INTERIOR_T):
        s = float(s)
        assert closed(s) == pytest.approx(probed(s), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("name", SOURCES)
def test_down_builds_without_probes(name, monkeypatch):
    def probe(*args):
        raise AssertionError("probed")

    monkeypatch.setattr("entroscope.transforms._edge_limit", probe)
    monkeypatch.setattr("entroscope.transforms._curvature_ratio", probe)
    for alpha in ALPHAS:
        down(SOURCES[name], alpha)


# --------------------------------------------------- level-inverter table


@pytest.mark.parametrize("f, alpha", [(builtin("exp"), 1.5), (builtin("halfgauss"), 3.0),
                                      (gg_density(2.0, 0.7), 2.0)])
def test_level_inverter_table_and_round_trip(f, alpha):
    d = down(f, alpha)
    xs, gs, _ = d.level_inverter.table()
    scalar = np.array([math.exp(float(d.log_value_at(float(x)))) for x in xs])
    assert np.all(np.abs(gs - scalar) <= 2 * np.spacing(scalar))
    for s in d.support.at(np.linspace(0.02, 0.98, 25)):
        s = float(s)
        assert abs(d.invert_level(d(s)) - s) <= 1e-12 * max(1.0, abs(s))
