"""Core quadrature, inversion, and builtin-density tests.

Derived expected values are produced by independent oracles (recursions,
fixed-point iterations, finite differences) rather than by the code paths
under test.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroscope import core, transforms
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
    EdgeIllConditioned,
    EntroscopeError,
    InvalidParams,
    NonConvergent,
    NotMonotone,
    TargetOutOfRange,
    UnknownDensity,
)
from entroscope.transforms import down, up


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
        assert r.evaluations == 4717

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

    @pytest.mark.parametrize(
        "g, support",
        [
            (lambda x: np.exp(-np.asarray(x)), Support(0.0, math.inf)),
            (lambda x: np.asarray(x) ** -0.5, Support(0.0, 1.0)),
        ],
        ids=["exp", "inverse_sqrt"],
    )
    def test_one_array_call_per_level(self, monkeypatch, g, support):
        # each level evaluates both sides in one array call (the midpoint
        # in a scalar call before the first), and a side at most one chunk
        # of nodes past where it stopped at the level before
        shapes, sides = [], []

        def counted(x):
            shapes.append(np.shape(x))
            return g(x)

        def side_sum(terms, *args):
            out = side_sum.inner(terms, *args)
            sides.append((len(terms), out[0]))  # (evaluated, used)
            return out

        side_sum.inner = core._side_sum
        monkeypatch.setattr(core, "_side_sum", side_sum)
        integrate(counted, support)
        assert shapes[0] == ()
        levels = [sides[i : i + 2] for i in range(0, len(sides), 2)]
        assert len(shapes) - 1 == len(levels) >= 3
        for level, (shape, pair) in enumerate(zip(shapes[1:], levels)):
            assert shape == (sum(evaluated for evaluated, _ in pair),)
            if level == 0:
                continue
            ts, before = core._level_nodes(level)[0], core._level_nodes(level - 1)[0]
            for (evaluated, _), (_, used) in zip(pair, levels[level - 1]):
                stopped = before[used - 1]
                assert sum(t > stopped for t in ts[:evaluated]) <= core._CHUNK

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=20),
        st.floats(min_value=0.05, max_value=5.0),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.0, 1.0, -3.0]),
    )
    def test_side_sum_matches_the_chunk_loop(self, n, zeros, decay, seed, total):
        # the vectorized truncation against the loop it replaced: add chunk
        # by chunk, stop after the first chunk below eps * running sum
        def chunk_loop(terms, total, max_term):
            for c0 in range(0, len(terms), core._CHUNK):
                chunk = terms[c0 : c0 + core._CHUNK]
                total += float(chunk.sum())
                chunk_max = float(np.abs(chunk).max())
                max_term = max(max_term, chunk_max)
                if max_term > 0.0 and chunk_max <= core._TRUNC_EPS * max(abs(total), max_term):
                    return min(len(terms), c0 + core._CHUNK), total, max_term
            return len(terms), total, max_term

        rng = np.random.default_rng(seed)
        terms = rng.standard_normal(n) * np.exp(-decay * np.arange(n) ** 1.5)
        terms[: min(zeros, n)] = 0.0  # an integrand underflowed near the midpoint
        expected = chunk_loop(terms, total, abs(total))
        assert core._side_sum(terms, total, abs(total)) == expected

    def test_far_tail_map_follows_the_interval(self):
        # (a, inf) is mapped by x = a + L t/(1-t) with L on the scale of a,
        # so an interval far out takes a few hundred nodes at most
        r = integrate(lambda x: 2 * x**-2, Support(1e89, math.inf), tol=1e-13, min_scale=0.0)
        assert r.value == pytest.approx(2e-89, rel=1e-13)
        assert r.evaluations <= 200


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
        # a non-numeric value is invalid too, given directly or parsed
        with pytest.raises(InvalidParams):
            builtin("exp", {"rate": "abc"})
        with pytest.raises(InvalidParams):
            parse_density("exp:rate=abc")

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

    @pytest.mark.parametrize(
        "name, params, y",
        [
            ("exp", {}, 0.0),  # not a positive level
            ("halfgauss", {}, 1.0),  # above sup f = sqrt(2/pi)
            ("pareto", {"eta": 3}, -1.0),  # the closed form would be complex
            ("exp", {}, 10.0),  # the closed form gives x < 0
            ("gg", {"p": 2, "lambda": 0.7}, 1.0),  # the closed form gives nan
        ],
    )
    def test_level_outside_range_raises(self, name, params, y):
        with pytest.raises(TargetOutOfRange):
            builtin(name, params).invert_level(y)

    def test_gg_level_above_amplitude_is_quiet(self):
        # the closed-form inverter checks its range before it takes a
        # fractional power, which numpy would warn about
        f = builtin("gg", {"p": 2, "lambda": 0.7})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TargetOutOfRange):
                f.invert_level(1.0)


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

    @pytest.mark.parametrize("flip", [False, True])
    def test_heavy_tail_beyond_outer_knot(self, flip):
        # pareto(eta=1.5): 1 - F(x) = x^{-1/2}, so the 1 - 1e-6 quantile is
        # 1e12, far past the outermost knot; the 1e-10 tolerance is on the
        # cumulative fraction and bounds x only to about 2e-4 there
        f = builtin("pareto", {"eta": 1.5})
        q, exact = (1.0 - 1e-6, 1e12) if not flip else (1e-6, -1e12)
        (x,) = quantiles(reflect(f) if flip else f, [q])
        assert x == pytest.approx(exact, rel=1e-3)

    def test_upper_tail_by_complement(self):
        # 1 - q is exact in floating point for q > 1/2; the exact quantiles
        # of q are sqrt(2) erfinv(2q - 1) (mpmath, 40 digits) and -ln(1 - q)
        q = 1.0 - 1e-9
        g, e = quantiles(builtin("gauss"), [q])[0], quantiles(builtin("exp"), [q])[0]
        assert g == pytest.approx(5.997807019601637, rel=1e-9)
        assert e == pytest.approx(-math.log(1.0 - q), rel=1e-9)

    @pytest.mark.parametrize(
        "spec, q", [("exp", 0.3), ("exp", 0.7), ("pareto:eta=1.5", 1.0 - 1e-6)]
    )
    def test_bracket_ends_not_integrated_again(self, monkeypatch, spec, q):
        # the solve takes the fraction at both ends of its bracket from where
        # it was computed: the table's masses for a finite segment, the
        # march for the pair it returns.  A quadrature is an `integrate`
        # call or a row that the batched pass settles (a row it hands back
        # is integrated again by `integrate`, and counted there).
        calls, settled = [], []

        def counted(g, support, *args, **kwargs):
            calls.append((support.lower, support.upper, kwargs.get("tol")))
            return counted.inner(g, support, *args, **kwargs)

        def batched(g, los, his, tol):
            values, errors = batched.inner(g, los, his, tol)
            rows = [(a, b, tol) for a, b, v in zip(los, his, values) if not math.isnan(v)]
            settled.extend(rows)
            calls.extend(rows)
            return values, errors

        counted.inner, batched.inner = core.integrate, core._integrate_many
        monkeypatch.setattr(core, "integrate", counted)
        monkeypatch.setattr(core, "_integrate_many", batched)
        quantiles(parse_density(spec), [q])
        assert len(set(calls)) == len(calls)
        if spec == "exp":
            # 65 table segments (the 63 between knots in one batched pass,
            # then the head and tail by `integrate`), then 3 quadratures in
            # the solve at q = 0.3 and 4 at q = 0.7 (u to 1e-13 relative),
            # none of them over a table segment
            table = {(lo, hi) for lo, hi, _ in calls[:65]}
            assert calls[:63] == settled
            assert len(calls) == {0.3: 68, 0.7: 69}[q]
            assert not table & {(lo, hi) for lo, hi, _ in calls[65:]}

    def test_lower_tail(self):
        (x,) = quantiles(builtin("gauss"), [1e-9])
        assert x == pytest.approx(-5.99780701500769, rel=1e-10)

    def test_tails_at_full_precision(self):
        # both tails solve u to 1e-13 relative from their own edge; the gauss
        # values are sqrt(2) erfinv(2q - 1) in mpmath at 40 digits for the
        # float q
        lo, hi = 1e-12, 1.0 - 1e-12
        g = quantiles(builtin("gauss"), [lo, hi])
        assert g[0] == pytest.approx(-7.034483825301132, rel=1e-12)
        assert g[1] == pytest.approx(7.034486910047835, rel=1e-12)
        e = quantiles(builtin("exp"), [lo, hi])
        assert e[0] == pytest.approx(-math.log1p(-lo), rel=1e-12)
        assert e[1] == pytest.approx(-math.log(1.0 - hi), rel=1e-12)

    @pytest.mark.parametrize("flip", [False, True])
    def test_unresolved_heavy_tail_raises(self, flip):
        # pareto(eta=1.01): the open segment past the last knot does not
        # converge, and the 1 - 1e-6 quantile lies near 1e600
        f = builtin("pareto", {"eta": 1.01})
        q = 1e-6 if flip else 1.0 - 1e-6
        with pytest.raises(EntroscopeError):
            quantiles(reflect(f) if flip else f, [q])


# ---------------------------------------------------------- segment tables


def _masses_one_by_one(w, support, knots):
    """The segment table with one `_w_mass` quadrature per segment: the
    per-interval path that the batched pass must reproduce."""

    def seg(lo, hi, open_ended):
        try:
            return core._w_mass(w, lo, hi)
        except (DivergentIntegral, EdgeIllConditioned) as exc:
            if open_ended or isinstance(exc, DivergentIntegral):
                return math.inf
            raise

    inner = np.array([seg(a, b, False) for a, b in zip(knots[:-1], knots[1:])])
    return inner, seg(support.lower, knots[0], True), seg(knots[-1], support.upper, True)


def _table(monkeypatch, spec, alpha=None):
    """(weight, support, knots) of the segment table that up(spec, alpha)
    builds for its weight f/U, or that quantiles builds for f itself."""
    f = parse_density(spec)
    if alpha is None:
        return f.value, f.support, np.unique(f.support.clustered(64))
    seen = []
    real = transforms._segment_masses
    with monkeypatch.context() as m:
        m.setattr(transforms, "_segment_masses", lambda *table: seen.append(table) or real(*table))
        up(f, alpha)
    return seen[0]


def _assert_within_ulps(got, want, ulps=4):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    assert np.all(np.abs(got[fin] - want[fin]) <= ulps * np.spacing(np.abs(want[fin])))


# a weight on (0, 2) per exit of the batched pass, each forced on known
# segments between the knots KNOTS
KNOTS = np.unique(Support(0.0, 2.0).clustered(16))
_C = float(KNOTS[7])


def _pole(x):
    # a term is not finite where a node rounds onto the knot; the mass diverges
    return 1.0 / np.abs(np.asarray(x, dtype=float) - _C)


def _step(x):
    # no convergence by the last level: the segment's integral stalls
    x = np.asarray(x, dtype=float)
    return np.where(x < 0.5 * (KNOTS[3] + KNOTS[4]) + 1e-3 * math.pi, 1.0, 2.0)


def _nan_band(x):
    # nan where the weight has underflowed anyway: no mass is lost
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        v = np.where(x > _C, np.exp(-1.0 / (x - _C)), 1.0)
    return np.where((x > _C) & (x < _C + 1e-3), np.nan, v)


def _raising(x):
    # a weight that reports its own divergence on (KNOTS[10], KNOTS[11])
    x = np.asarray(x, dtype=float)
    if np.any((x > KNOTS[10]) & (x < KNOTS[11])):
        raise DivergentIntegral("weight not integrable here")
    return np.ones_like(x)


class TestSegmentMasses:
    @pytest.mark.parametrize(
        "spec, alpha",
        [("exp", 3.0), ("pareto:eta=3.5", 2.0), ("gauss", None)],
        ids=["up(exp,3)", "up(pareto:eta=3.5,2)", "quantiles(gauss)"],
    )
    def test_batched_equals_one_by_one(self, monkeypatch, spec, alpha):
        table = _table(monkeypatch, spec, alpha)
        inner, head, tail = core._segment_masses(*table)
        ref_inner, ref_head, ref_tail = _masses_one_by_one(*table)
        _assert_within_ulps(np.append(inner, [head, tail]), np.append(ref_inner, [ref_head, ref_tail]))
        # up(pareto:eta=3.5, 2): the weight x^{-eta} e^x passes 1e50 on the
        # 8 outermost segments, whose partial sums then count as divergent
        outer = list(range(len(inner) - 8, len(inner))) if "pareto" in spec else []
        assert np.flatnonzero(np.isinf(inner)).tolist() == outer

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=12, unique=True),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-0.9, max_value=2.0),
    )
    def test_each_row_is_its_own_quadrature(self, points, k, p):
        # row by row, the batched pass makes the nodes, sums and stop
        # decisions of one `integrate` call on its interval, to the bit: on
        # (0, b) for x^p e^{kx}, whose terms near a singular edge at 0 stay
        # comparable within a chunk, and on the smooth (b, b + 1)
        b = np.array(sorted(points))
        los, his = np.append(np.zeros(len(b)), b), np.append(b, b + 1.0)

        def g(x):
            x = np.asarray(x, dtype=float)
            return x**p * np.exp(k * x)

        values, errors = core._integrate_many(g, los, his, core._SEG_TOL)
        assert np.isfinite(values[len(b) :]).all()
        for lo, hi, v, e in zip(los, his, values, errors):
            if math.isnan(v):
                continue  # handed back
            r = integrate(g, Support(lo, hi), tol=core._SEG_TOL, min_scale=0.0)
            assert (v, e) == (r.value, r.error_estimate)

    @pytest.mark.parametrize(
        "w, handed_back",
        [(_pole, [6, 7]), (_step, [3]), (_nan_band, [7]), (_raising, list(range(15)))],
        ids=["pole", "stall", "nan", "raising"],
    )
    def test_rows_leaving_clean_convergence_run_alone(self, w, handed_back):
        values, _ = core._integrate_many(w, KNOTS[:-1], KNOTS[1:], core._SEG_TOL)
        assert np.flatnonzero(np.isnan(values)).tolist() == handed_back
        support = Support(0.0, 2.0)
        if w is _step:
            # the closed segment's EdgeIllConditioned propagates, as one by one
            with pytest.raises(EdgeIllConditioned, match="stalled") as ref:
                _masses_one_by_one(w, support, KNOTS)
            with pytest.raises(EdgeIllConditioned) as got:
                core._segment_masses(w, support, KNOTS)
            assert str(got.value) == str(ref.value)
            return
        inner, head, tail = core._segment_masses(w, support, KNOTS)
        ref_inner, ref_head, ref_tail = _masses_one_by_one(w, support, KNOTS)
        _assert_within_ulps(np.append(inner, [head, tail]), np.append(ref_inner, [ref_head, ref_tail]))
        inf = {_pole: [6, 7], _nan_band: [], _raising: [10]}[w]
        assert np.flatnonzero(np.isinf(inner)).tolist() == inf

    def test_one_integrand_call_per_level(self, monkeypatch):
        # up(exp,3)'s 159 inner segments take one call per level between
        # them; the head and tail are two `integrate` calls of their own,
        # and the evaluations are those of one quadrature per segment
        w, support, knots = _table(monkeypatch, "exp", 3.0)
        sizes, alone = [], []

        def counted(x):
            sizes.append(np.size(x))
            return w(x)

        def integrate_alone(*args, **kwargs):
            n0 = len(sizes)
            out = integrate_alone.inner(*args, **kwargs)
            alone.append(len(sizes) - n0)
            return out

        integrate_alone.inner = core.integrate
        monkeypatch.setattr(core, "integrate", integrate_alone)
        core._segment_masses(counted, support, knots)
        batched, evals = len(sizes) - sum(alone), sum(sizes)
        assert len(alone) == 2
        assert batched <= core._MAX_LEVEL + 1
        sizes.clear()
        _masses_one_by_one(counted, support, knots)
        assert sum(sizes) == evals
