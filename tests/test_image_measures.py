"""Measures of down/up images, taken by pullback to the source.

The transforms preserve mass, D(s(x)) |s'(x)| = f(x), so each moment or
entropy of an image is an integral against its source.  The identities
below state such an integral in closed terms of the source alone, and the
references are plain quadratures of the source (or its Fisher-type
integral), which share no step with the image's maps.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroscope import core, measures, parse_density
from entroscope.core import integrate
from entroscope.errors import DivergentIntegral, EdgeIllConditioned, EntroscopeError, MissingDerivative
from entroscope.measures import (
    entropic_Sp,
    exp_moment,
    fisher,
    fisher_integral,
    fisher_zero,
    log_moment,
    renyi_power,
    shannon,
    typical_deviation,
)
from entroscope.special import down_of_gg, gg_density, up_of_gg
from entroscope.transforms import down, up

SOURCES = ["exp", "halfgauss", "pareto", "gg:p=2,lambda=0.7", "gg:p=3,lambda=1", "gg:p=2,lambda=1.5"]
ALPHAS = [1.5, 2.0, 3.0]
REL = 1e-9


def _source_integral(f, g, points=()) -> float:
    """int g(x, f(x)) f(x) dx over the support of f, one plain quadrature;
    a point where g f cannot be formed (f or f' out of the double range)
    carries no mass."""

    def integrand(x):
        x = np.asarray(x, dtype=float)
        v = np.asarray(f(x), dtype=float)
        with np.errstate(all="ignore"):
            out = g(x, v) * v
        return np.where((v > 0.0) & np.isfinite(out), out, 0.0)

    return integrate(integrand, f.support, tol=1e-12, points=points).value


def _agrees(measure, reference) -> None:
    """The image's measure matches the reference, or raises its class."""
    try:
        ref = reference()
    except EntroscopeError as exc:
        with pytest.raises(type(exc)):
            measure()
        return
    assert measure() == pytest.approx(ref, rel=REL, abs=0.0)


def _log_abs_derivative(f):
    return lambda x: np.log(np.abs(np.asarray(f.derivative(x), dtype=float)))


def _level_one(f) -> tuple:
    """The source point where f = 1, where s = -ln f changes sign."""
    return (f.invert_level(1.0),) if f(f.support.lower + 1e-300) > 1.0 else ()


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("spec", SOURCES)
@pytest.mark.parametrize("q", [0.5, 2.0])
def test_down_moment_identity(spec, alpha, q):
    # |s|^q f = |alpha-2|^-q f^lam with lam = 1 + (2-alpha) q; at alpha = 2,
    # s = -ln f and the moment is int f |ln f|^q, kinked where f = 1
    f = parse_density(spec)
    if (spec, alpha, q) == ("gg:p=2,lambda=1.5", 3.0, 2.0):
        # |s|^2 f = f^-1 ~ t^-2 at the finite edge, where f ~ t^2: the
        # integral diverges, and the plain quadrature of the reference
        # only fails to converge there
        with pytest.raises(DivergentIntegral):
            typical_deviation(down(f, alpha), q)
        return

    def reference():
        if alpha != 2.0:
            lam = 1.0 + (2.0 - alpha) * q
            return _source_integral(f, lambda x, v: v ** (lam - 1.0)) ** (1.0 / q) / abs(alpha - 2.0)
        return _source_integral(f, lambda x, v: np.abs(np.log(v)) ** q, _level_one(f)) ** (1.0 / q)

    _agrees(lambda: typical_deviation(down(f, alpha), q), reference)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("spec", SOURCES)
@pytest.mark.parametrize("lam", [0.7, 1.5])
def test_down_renyi_identity(spec, alpha, lam):
    # D^{lam-1} f = |f^{alpha-2} f'|^{1-lam} f: a Fisher-type integral of f
    f = parse_density(spec)
    reference = lambda: fisher_integral(f, 1.0 - lam, 2.0 - alpha) ** (1.0 / (1.0 - lam))
    _agrees(lambda: renyi_power(down(f, alpha), lam), reference)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("spec", SOURCES)
def test_down_shannon_identity(spec, alpha):
    # -log D = log |f'| - alpha log f
    f = parse_density(spec)
    ld = _log_abs_derivative(f)
    reference = lambda: _source_integral(f, lambda x, v: ld(x) - alpha * np.log(v))
    _agrees(lambda: shannon(down(f, alpha)), reference)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("spec", SOURCES)
def test_down_exp_log_and_entropic_moments(spec, alpha):
    # against s = sigma_alpha(f(x)) and log D = alpha log f - log |f'| at x
    f = parse_density(spec)
    d, ld, kink = down(f, alpha), _log_abs_derivative(f), _level_one(f)
    s = (lambda v: -np.log(v)) if alpha == 2.0 else (lambda v: v ** (2.0 - alpha) / (alpha - 2.0))
    _agrees(lambda: exp_moment(d, 1.0), lambda: _source_integral(f, lambda x, v: np.exp(-s(v)), kink))
    log_s2 = lambda x, v: np.log(np.abs(s(v))) ** 2
    _agrees(lambda: log_moment(d, 2.0), lambda: _source_integral(f, log_s2, kink))
    log_d2 = lambda x, v: (alpha * np.log(v) - ld(x)) ** 2
    _agrees(lambda: entropic_Sp(d, 2.0), lambda: _source_integral(f, log_d2) ** 0.5)


def test_up_exp_log_and_entropic_moments():
    # up(exp, 3): u = (x + 1) e^{-x} and log U = -log x at the source point x
    f = parse_density("exp")
    u = up(f, 3.0)
    coord = lambda x: (x + 1.0) * np.exp(-x)
    assert exp_moment(u, 1.0) == pytest.approx(_source_integral(f, lambda x, v: np.exp(-coord(x))), rel=REL, abs=0.0)
    log_u2 = lambda x, v: np.log(coord(x)) ** 2
    assert log_moment(u, 2.0) == pytest.approx(_source_integral(f, log_u2), rel=REL, abs=0.0)
    log_x2 = lambda x, v: np.log(x) ** 2
    assert entropic_Sp(u, 2.0) == pytest.approx(_source_integral(f, log_x2) ** 0.5, rel=REL, abs=0.0)


def _log_u(alpha):
    """log U at the source point x: -x at alpha = 2, else
    log |(alpha-2) x| / (2-alpha)."""
    if alpha == 2.0:
        return lambda x: -x
    return lambda x: np.log(np.abs((alpha - 2.0) * x)) / (2.0 - alpha)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("spec", SOURCES)
@pytest.mark.parametrize("lam", [0.7, 1.5])
def test_up_renyi_identity(spec, alpha, lam):
    # U^{lam-1} = |(alpha-2) x|^{(1-lam)/(alpha-2)}, e^{(1-lam) x} at alpha = 2
    f = parse_density(spec)
    lu = _log_u(alpha)
    weight = lambda x, v: np.exp((lam - 1.0) * lu(x))
    reference = lambda: _source_integral(f, weight) ** (1.0 / (1.0 - lam))
    _agrees(lambda: renyi_power(up(f, alpha), lam), reference)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("spec", SOURCES)
def test_up_shannon_identity(spec, alpha):
    f = parse_density(spec)
    lu = _log_u(alpha)
    _agrees(lambda: shannon(up(f, alpha)), lambda: _source_integral(f, lambda x, v: -lu(x)))


GG_MEMBERS = [(2.0, 0.7), (3.0, 1.0), (2.0, 1.5)]
INTERIOR_T = np.array([0.05, 0.2, 0.4, 0.6, 0.8, 0.95])


def _assert_maps_match(image, closed, xs):
    """The image value at the image coordinate of each source point, both
    from the maps, is the closed-form image there."""
    log_t, sign = image.log_coordinate_at(xs)
    ts = sign * np.exp(log_t)
    expected = [float(closed(float(t))) for t in ts]
    assert np.exp(image.log_value_at(xs)) == pytest.approx(expected, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("p,lam", GG_MEMBERS)
def test_maps_match_closed_forms(p, lam):
    g = gg_density(p, lam)
    for a in (1.5, 2.0, 3.0):
        _assert_maps_match(down(g, a), down_of_gg(p, lam, a), g.support.at(INTERIOR_T))
    # the last point is x = 19 on g_{2,0.7}, deep in the u -> 0 tail
    for a in (-1.0, 0.5, 3.0):
        _assert_maps_match(up(g, a), up_of_gg(p, lam, a), g.support.at(INTERIOR_T))


@pytest.mark.parametrize("alpha", [-1.0, 0.5, 3.0])
def test_up_coordinate_in_the_tail(alpha):
    # u(x) = int_x^inf |(alpha-2) t|^{1/(alpha-2)} g(t) dt for g_{2,0.7}
    import mpmath as mp

    from entroscope.special import gg_normalization

    g = gg_density(2.0, 0.7)
    amp = 2.0 * gg_normalization(2.0, 0.7)
    xs = np.array([4.0, 19.0])
    with mp.workdps(30):
        lm1 = mp.mpf(0.7 - 1.0)  # lambda - 1 as the library forms it
        w = lambda t: amp * (1 - lm1 * t**2) ** (1 / lm1) * abs((alpha - 2) * t) ** (1 / (alpha - 2))
        expected = [float(mp.quad(w, [x, mp.inf])) for x in xs]
    log_u, sign = up(g, alpha).log_coordinate_at(xs)
    assert sign * np.exp(log_u) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("p,lam", GG_MEMBERS)
def test_down_renyi_matches_closed_form(p, lam, alpha):
    # N_0.7 of the closed form, integrated over the image support
    numeric = renyi_power(down(gg_density(p, lam), alpha), 0.7)
    assert numeric == pytest.approx(renyi_power(down_of_gg(p, lam, alpha), 0.7), rel=1e-9, abs=0.0)


# each case ends in under 1 s; with an inversion per quadrature node, three of them take 27-43 s
def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    assert time.perf_counter() - t0 < 1.0
    return out


def test_shannon_of_up_halfgauss():
    # -int f log U = E[log x] under the half-Gaussian at alpha = 3
    euler_gamma = 0.5772156649015329
    value = _timed(lambda: shannon(up(parse_density("halfgauss"), 3.0)))
    assert value == pytest.approx(-(euler_gamma + math.log(2.0)) / 2.0, rel=1e-10, abs=0.0)


def test_second_moment_of_up_exp():
    # u = (x + 1) e^{-x}, so sigma_2^2 = int (x + 1)^2 e^{-3x} = 17/27
    value = _timed(lambda: typical_deviation(up(parse_density("exp"), 3.0), 2.0))
    assert value == pytest.approx(math.sqrt(17.0 / 27.0), rel=1e-10, abs=0.0)


def test_renyi_of_up_uniform_diverges():
    # U = 1/x at alpha = 3, and int_0^1 U^{lam-1} dx diverges at lam = 2
    def measure():
        with pytest.raises(DivergentIntegral):
            renyi_power(up(parse_density("uniform"), 3.0), 2.0)

    _timed(measure)


def test_renyi_of_down_halfgauss():
    # D = f^2 / x, and int D^{1/2} f = (2/pi) int x^{-1/2} e^{-x^2} = Gamma(1/4)/pi
    value = _timed(lambda: renyi_power(down(parse_density("halfgauss"), 3.0), 1.5))
    assert value == pytest.approx((math.pi / math.gamma(0.25)) ** 2, rel=1e-10, abs=0.0)
    assert value == pytest.approx(0.7508230473, rel=1e-9, abs=0.0)


def _cauchy():
    return core.Density(
        support=core.Support(-math.inf, math.inf),
        value=lambda x: 1.0 / (math.pi * (1.0 + np.asarray(x, dtype=float) ** 2)),
        label="cauchy",
    )


_MEASURES = {
    "sigma": lambda d: typical_deviation(d, 0.5),
    "renyi": lambda d: renyi_power(d, 0.7),
    "shannon": shannon,
}


_SPLIT_CASES = {
    "down-exp2-2": (lambda: down(parse_density("exp:rate=2"), 2.0), 1),  # s = 0 where f = 1
    "down-halfgauss-3": (lambda: down(parse_density("halfgauss"), 3.0), 0),
    "up-exp-3": (lambda: up(parse_density("exp"), 3.0), 0),
    "up-cauchy-3": (lambda: up(_cauchy(), 3.0), 1),  # u = 0 at the median anchor
}
_FAR_NODE = pytest.mark.xfail(
    raises=EdgeIllConditioned,
    strict=True,
    reason="u at a node near -1e275 sums w over 270 decades from the last knot, and stalls",
)


@pytest.mark.parametrize(
    "case, measure",
    [
        pytest.param(c, m, marks=_FAR_NODE if (c, m) == ("up-cauchy-3", "sigma") else ())
        for c in _SPLIT_CASES
        for m in sorted(_MEASURES)
    ],
)
def test_no_inversion_per_node(monkeypatch, case, measure):
    # the source's level inverter and the inverse of u run once per split
    # point of the image, never at the quadrature nodes
    image, splits = _SPLIT_CASES[case]
    d = image()
    inversions, evaluations = [], []
    src_invert = d.source.invert_level
    object.__setattr__(d.source, "invert_level", lambda y: inversions.append(y) or src_invert(y))
    x_of_u = core._Cumulative.x_of_u
    monkeypatch.setattr(core._Cumulative, "x_of_u", lambda c, u: inversions.append(u) or x_of_u(c, u))

    def counted(*args, **kwargs):
        r = counted.inner(*args, **kwargs)
        evaluations.append(r.evaluations)
        return r

    counted.inner = measures.integrate
    monkeypatch.setattr(measures, "integrate", counted)
    assert len(measures._split_points(d)) == splits
    assert math.isfinite(_MEASURES[measure](d))
    assert len(inversions) == splits
    assert sum(evaluations) > 50


FUZZ_SPECS = [
    "exp", "halfgauss", "gauss", "pareto", "pareto:eta=1.5", "powerlaw:a=-0.5", "powerlaw:a=2",
    "uniform", "gg:p=2,lambda=0.7", "gg:p=3,lambda=1", "gg:p=2,lambda=1.5",
]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(FUZZ_SPECS),
    st.sampled_from([down, up]),
    st.sampled_from([0.5, 1.5, 2.0, 2.5, 3.0, 4.0]),
    st.sampled_from(["sigma", "renyi", "shannon", "fisher", "fisherZero"]),
    st.floats(min_value=0.25, max_value=3.0),
)
def test_finite_value_or_entroscope_error(spec, transform, alpha, measure, order):
    fn = {
        "sigma": typical_deviation,
        "renyi": renyi_power,
        "shannon": lambda d, _: shannon(d),
        "fisher": lambda d, q: fisher(d, q, 1.0 + q),
        "fisherZero": fisher_zero,
    }[measure]
    try:
        value = fn(transform(parse_density(spec), alpha), order)
    except EntroscopeError:
        return
    assert math.isfinite(value)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2.0, 0.7), (4.0, 0.85), (3.0, 1.0), (2.0, 1.5), (1.5, 3.0)]),
    st.sampled_from([down_of_gg, up_of_gg]),
    st.sampled_from([-1.0, 0.5, 3.0, 4.0]),
    st.sampled_from(["sigma", "renyi", "shannon"]),
    st.floats(min_value=0.25, max_value=3.0),
)
def test_closed_form_finite_value_or_entroscope_error(member, closed_form, alpha, measure, order):
    # the closed-form images, whose nodes may round onto an edge: where x
    # rounds to 0, up_of_gg's value x^(1/(2-alpha)) at alpha > 2 has no
    # finite value to give
    fn = {"sigma": typical_deviation, "renyi": renyi_power, "shannon": lambda d, _: shannon(d)}[measure]
    try:
        value = fn(closed_form(*member, alpha), order)
    except EntroscopeError:
        return
    assert math.isfinite(value)


@pytest.mark.parametrize("transform", [down, up])
@pytest.mark.parametrize("measure", [lambda d: fisher(d, 2.0, 1.0), lambda d: fisher_zero(d, 1.0)])
def test_fisher_of_an_image_raises_before_any_quadrature(monkeypatch, transform, measure):
    # through pointwise values every node would invert; until the pullback
    # lands, the image's Fisher functionals say so without integrating
    d = transform(parse_density("exp"), 3.0)
    monkeypatch.setattr(measures, "integrate", lambda *a, **k: pytest.fail("integrated"))
    with pytest.raises(MissingDerivative, match="pullback"):
        measure(d)
