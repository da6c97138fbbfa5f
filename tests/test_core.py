"""Core quadrature, inversion, and builtin-density tests.

Derived expected values are produced by independent oracles (recursions,
fixed-point iterations, finite differences) rather than by the code paths
under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroscope.core import (
    Density,
    Support,
    builtin,
    integrate,
    invert_monotone,
    parse_density,
    quantiles,
    reflect,
    rescale,
    translate,
)
from entroscope.errors import (
    DivergentIntegral,
    InvalidParams,
    NonConvergent,
    NotMonotone,
    TargetOutOfRange,
    UnknownDensity,
)
from entroscope.transforms import down


# ----------------------------------------------------------------- oracles
def gamma_int_oracle(n: int) -> float:
    """Gamma(n) for integer n via the factorial recursion."""
    out = 1.0
    for k in range(1, n):
        out *= k
    return out


def fixed_point_oracle():
    """Solve x + sin x = 1 by iterating x <- 1 - sin x."""
    x = 0.5
    for _ in range(500):
        x = 1.0 - math.sin(x)
    return x


# --------------------------------------------------------------- integrate
class TestIntegrate:
    def test_exponential(self):
        r = integrate(lambda x: np.exp(-np.asarray(x)), Support(0.0, math.inf), tol=1e-12)
        assert abs(r.value - 1.0) < 1e-12

    def test_endpoint_singularity(self):
        r = integrate(lambda x: np.asarray(x) ** -0.5, Support(0.0, 1.0), tol=1e-11)
        assert abs(r.value - 2.0) < 1e-10

    def test_gamma3(self):
        expected = gamma_int_oracle(3)  # = 2
        r = integrate(lambda x: np.asarray(x) ** 2 * np.exp(-np.asarray(x)), Support(0.0, math.inf))
        assert abs(r.value - expected) < 1e-10

    def test_gaussian_full_line(self):
        c = 1.0 / math.sqrt(2 * math.pi)
        r = integrate(lambda x: c * np.exp(-np.asarray(x) ** 2 / 2), Support(-math.inf, math.inf))
        assert abs(r.value - 1.0) < 1e-10

    def test_divergent_constant_tail(self):
        with pytest.raises(DivergentIntegral):
            integrate(lambda x: np.ones_like(np.asarray(x, dtype=float)), Support(0.0, math.inf))

    def test_divergent_endpoint(self):
        with pytest.raises(DivergentIntegral):
            integrate(lambda x: 1.0 / np.asarray(x), Support(0.0, 1.0))

    def test_divergent_log_tail(self):
        with pytest.raises(DivergentIntegral):
            integrate(lambda x: 1.0 / (1.0 + np.asarray(x)), Support(0.0, math.inf))

    def test_interior_split_point(self):
        r = integrate(
            lambda x: np.abs(np.asarray(x)) ** -0.5,
            Support(-1.0, 1.0),
            tol=1e-11,
            points=(0.0,),
        )
        assert abs(r.value - 4.0) < 1e-9

    def test_error_estimate_fields(self):
        r = integrate(lambda x: np.exp(-np.asarray(x)), Support(0.0, math.inf))
        assert r.error_estimate >= 0
        assert r.evaluations > 0

    def test_mass_beyond_an_underflowed_midpoint(self):
        # the integrand is exactly 0 around the midpoint: each side must
        # still expand until it reaches the mass at the endpoint
        r = integrate(lambda x: np.exp(-np.asarray(x) ** 2), Support(0.0, 100.0))
        assert r.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-14)
        r = integrate(lambda x: np.exp(-np.asarray(x)), Support(700.0, 1200.0), min_scale=0.0)
        assert r.value == pytest.approx(math.exp(-700.0) - math.exp(-1200.0), rel=1e-13)

    def test_nonconvergent_carries_result(self):
        # a 1e-12 ripple keeps the level-to-level error near 2e-14
        def g(x):
            x = np.asarray(x)
            return np.exp(-x) * (1.0 + 1e-12 * np.sin(1e7 * x))

        with pytest.raises(NonConvergent) as info:
            integrate(g, Support(0.0, math.inf), tol=1e-15)
        r = info.value.result
        assert r.value == 1.0000000000000016
        assert r.error_estimate == pytest.approx(2.43e-14, rel=1e-2)
        assert r.evaluations == 4457

    def test_raising_integrand_called_once_on_an_array(self):
        # an exception from an array call propagates; the chunk is not
        # evaluated again point by point
        array_calls = []

        def g(x):
            if np.ndim(x):
                array_calls.append(len(x))
                raise ValueError("no arrays")
            return math.exp(-x)

        with pytest.raises(ValueError):
            integrate(g, Support(0.0, 1.0))
        assert len(array_calls) == 1

    def test_constant_integrand(self):
        assert integrate(lambda x: 2.0, Support(0.0, 3.0)).value == pytest.approx(6.0, rel=1e-14)


# --------------------------------------------------------- invert_monotone
class TestInvertMonotone:
    def test_cube_root(self):
        x = invert_monotone(lambda t: t**3, 8.0, (0.0, 3.0), tol=1e-14)
        assert abs(x - 2.0) < 1e-12

    def test_identity_point(self):
        x = invert_monotone(lambda t: math.exp(-t), 1.0, (-1.0, 1.0), tol=1e-14)
        assert abs(x) < 1e-12

    def test_x_plus_sin(self):
        expected = fixed_point_oracle()
        x = invert_monotone(lambda t: t + math.sin(t), 1.0, (0.0, 2.0), tol=1e-14)
        assert abs(x - expected) < 1e-10

    def test_newton_branch(self):
        x = invert_monotone(lambda t: t**3, 8.0, (0.0, 3.0), tol=1e-14, dg=lambda t: 3 * t**2)
        assert abs(x - 2.0) < 1e-12

    def test_target_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            invert_monotone(lambda t: t, 5.0, (0.0, 1.0))

    def test_not_monotone_detected(self):
        with pytest.raises(NotMonotone):
            invert_monotone(lambda t: math.sin(3 * t), 0.4, (0.0, 2.6))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.02, max_value=0.98))
    def test_roundtrip_random_levels(self, u):
        for g, dg, lo, hi in [
            (lambda t: t**3 + t, lambda t: 3 * t**2 + 1, -2.0, 2.0),
            (lambda t: math.exp(-t), lambda t: -math.exp(-t), 0.0, 5.0),
        ]:
            x_true = lo + u * (hi - lo)
            x = invert_monotone(g, g(x_true), (lo, hi), tol=1e-13, dg=dg)
            assert abs(x - x_true) < 1e-9 * max(1, abs(x_true))


# ------------------------------------------------------------------ builtins
class TestBuiltins:
    @pytest.mark.parametrize(
        "spec",
        [
            "exp:rate=1",
            "exp:rate=0.5",
            "halfgauss:sigma=1",
            "gauss:sigma=1",
            "pareto:eta=3,xmin=1",
            "powerlaw:a=-0.5",
            "uniform:a=0,b=1",
            "gg:p=2,lambda=1",
            "gg:p=2,lambda=2",
            "exp",
            "gg",
            "gg:p=3,lambda=1.5,mode=paper",
        ],
    )
    def test_normalized(self, spec):
        f = parse_density(spec)
        pts = (0.0,) if f.support.contains(0.0) else ()
        r = integrate(f.value, f.support, tol=1e-11, points=pts)
        assert abs(r.value - f.mass) < 1e-8

    def test_exp_value(self):
        f = builtin("exp", {"rate": 1})
        assert abs(f(1.0) - math.exp(-1)) < 1e-15

    def test_pareto_formulas(self):
        f = builtin("pareto", {"eta": 3, "xmin": 1})
        assert abs(f(1.5) - 2 * 1.5**-3) < 1e-14
        assert abs(f.d(1.5) - (-6 * 1.5**-4)) < 1e-14

    def test_pareto_invalid_eta(self):
        with pytest.raises(InvalidParams):
            builtin("pareto", {"eta": 1.0})

    def test_unknown_name(self):
        with pytest.raises(UnknownDensity):
            builtin("cauchy", {})

    def test_unknown_key(self):
        with pytest.raises(InvalidParams):
            parse_density("exp:rate=1,scale=2")

    def test_case_insensitive(self):
        f = parse_density("EXP:Rate=2")
        assert abs(f(0.0) - 2.0) < 1e-15

    @pytest.mark.parametrize(
        "spec",
        ["exp:rate=1", "halfgauss:sigma=2", "pareto:eta=3,xmin=1", "powerlaw:a=-0.5"],
    )
    def test_derivative_matches_finite_differences(self, spec):
        f = parse_density(spec)
        qs = quantiles(f, np.linspace(0.02, 0.98, 50))
        for x in qs:
            h = 6e-6 * abs(x)  # cbrt(eps)-scaled relative step
            fd = (f(x + h) - f(x - h)) / (2 * h)
            an = f.d(x)
            assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))

    def test_monotone_flags(self):
        assert builtin("exp", {}).monotone_decreasing
        assert not builtin("gauss", {}).monotone_decreasing
        assert builtin("powerlaw", {"a": 0.5}).monotone_increasing

    def test_level_inversion(self):
        f = builtin("halfgauss", {"sigma": 1})
        y = f(0.7)
        assert abs(f.invert_level(y) - 0.7) < 1e-10


# ------------------------------------------------------------------ rescale
class TestRescale:
    def test_identity(self):
        f = builtin("exp", {"rate": 1})
        assert rescale(f, 1.0) is f

    def test_definition(self):
        f = builtin("exp", {"rate": 1})
        g = rescale(f, 2.0)
        x = 0.3
        assert abs(g(x) - 2 * math.exp(-2 * x)) < 1e-14
        assert g.support.lower == 0.0 and math.isinf(g.support.upper)

    def test_second_moment_halves(self):
        # sigma_2[rescale(halfgauss, 2)] = sigma_2[halfgauss] / 2, both by quadrature
        f = builtin("halfgauss", {"sigma": 1})
        g = rescale(f, 2.0)
        m_f = integrate(lambda x: np.asarray(x) ** 2 * f(x), f.support).value ** 0.5
        m_g = integrate(lambda x: np.asarray(x) ** 2 * g(x), g.support).value ** 0.5
        assert abs(m_g - m_f / 2) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.2, max_value=5.0))
    def test_involution(self, kappa):
        f = builtin("exp", {"rate": 1})
        g = rescale(rescale(f, kappa), 1.0 / kappa)
        for x in (0.1, 0.5, 1.0, 3.0):
            assert abs(g(x) - f(x)) < 1e-12 * max(1.0, f(x))

    def test_invalid_kappa(self):
        with pytest.raises(InvalidParams):
            rescale(builtin("exp", {}), -1.0)


class TestReflectTranslate:
    def test_reflect(self):
        f = builtin("exp", {"rate": 1})
        g = reflect(f)
        assert g.support.upper == 0.0
        assert abs(g(-1.0) - f(1.0)) < 1e-15
        assert g.monotone_increasing and not g.monotone_decreasing
        assert abs(g.d(-1.0) + f.d(1.0)) < 1e-15

    def test_translate(self):
        f = builtin("uniform", {"a": 0, "b": 1})
        g = translate(f, 2.0)
        assert g.support.lower == 2.0 and g.support.upper == 3.0
        assert abs(g(2.5) - 1.0) < 1e-15


# (map, sigma, kappa, c): each map sends a source coordinate X to
# x = sigma X / kappa + c and a density f to x -> kappa f(X)
AFFINE_MAPS = [
    pytest.param(lambda f: rescale(f, 1.7), 1.0, 1.7, 0.0, id="rescale"),
    pytest.param(reflect, -1.0, 1.0, 0.0, id="reflect"),
    pytest.param(lambda f: translate(f, 0.6), 1.0, 1.0, 0.6, id="translate"),
]


class TestAffineFields:
    @pytest.mark.parametrize("amap,sigma,kappa,c", AFFINE_MAPS)
    def test_every_field(self, amap, sigma, kappa, c):
        f = builtin("exp", {"rate": 1})
        g = amap(f)
        lk = math.log(kappa)
        for X in (0.2, 1.0, 2.5):
            x = sigma * X / kappa + c
            assert g(x) == pytest.approx(kappa * f(X), rel=1e-13)
            assert g.d(x) == pytest.approx(sigma * kappa**2 * f.d(X), rel=1e-13)
            assert g.dd(x) == pytest.approx(kappa**3 * f.dd(X), rel=1e-13)
            assert g.invert_level(g(x)) == pytest.approx(x, rel=1e-12)
            assert g.log_value(x) == pytest.approx(lk + f.log_value(X), rel=1e-13, abs=1e-15)
            assert g.log_abs_derivative(x) == pytest.approx(
                2 * lk + f.log_abs_derivative(X), rel=1e-13, abs=1e-15
            )
        ends = sorted(sigma * e / kappa + c for e in (f.support.lower, f.support.upper))
        assert (g.support.lower, g.support.upper) == tuple(ends)
        assert g.mass == f.mass
        dec, inc = f.monotone_decreasing, f.monotone_increasing
        assert (g.monotone_decreasing, g.monotone_increasing) == ((inc, dec) if sigma < 0 else (dec, inc))

    @pytest.mark.parametrize("amap,sigma,kappa,c", AFFINE_MAPS)
    def test_image_float_value(self, amap, sigma, kappa, c):
        d = down(builtin("halfgauss", {"sigma": 1}), 3.0)
        g = amap(d)
        X = d.support.lower + 1.0
        v = g(sigma * X / kappa + c)
        assert type(v) is float
        assert v == pytest.approx(kappa * d(X), rel=1e-12)


class TestQuantiles:
    def test_uniform(self):
        f = builtin("uniform", {"a": 0, "b": 1})
        q = quantiles(f, [0.25, 0.5, 0.75])
        assert np.allclose(q, [0.25, 0.5, 0.75], atol=1e-8)

    def test_exp_median(self):
        f = builtin("exp", {"rate": 1})
        (q,) = quantiles(f, [0.5])
        assert abs(q - math.log(2)) < 1e-8

    def test_support_supremum(self):
        f = builtin("uniform", {"a": 0, "b": 1})
        assert abs(quantiles(f, [0.999])[0] - 0.999) < 1e-6
