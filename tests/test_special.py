"""Stretched-Gaussian family, generalized trig functions, incomplete Gamma."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc
from scipy.special import gamma as scipy_gamma

from entroscope import core, special
from entroscope.core import Support, integrate
from entroscope.errors import DivergentIntegral, EntroscopeError, OutOfDomain, OutOfRange
from entroscope.special import (
    GGParams,
    _arcsin_quarter,
    _arcsinh_limit,
    arcsin_gen,
    arcsinh_gen,
    exp_lambda,
    gg_density,
    gg_normalization,
    gg_support_edge,
    inc_gamma_upper,
    inv_inc_gamma_upper,
    mirror_gg,
    sin_gen,
    sinh_gen,
    up_of_gg,
)
from entroscope.transforms import up


# ----------------------------------------------------------------- oracles
def gamma_half_oracle() -> float:
    """Gamma(1/2) = sqrt(pi)."""
    return math.sqrt(math.pi)


def beta_oracle(a: float, b: float) -> float:
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


def lemniscatic_series_oracle() -> float:
    """int_0^1 (1 - t^4)^{-1/2} dt = sum_k binom(2k,k) 4^{-k} / (4k+1),
    accelerated by Richardson extrapolation in K^{-1/2}."""

    def partial(K: int) -> float:
        s = 0.0
        term = 1.0  # binom(2k,k)/4^k at k = 0
        for k in range(K):
            s += term / (4 * k + 1)
            term *= (2 * k + 1) / (2 * k + 2)
        return s

    # partial sums behave like S - c1 K^{-1/2} - c2 K^{-3/2} - ...
    Ks = [2_000, 8_000, 32_000, 128_000]
    vals = [partial(K) for K in Ks]
    expo = 0.5
    for level in range(1, len(Ks)):
        new = []
        for i in range(len(vals) - 1):
            r = (Ks[i + 1] / Ks[i]) ** expo
            new.append((r * vals[i + 1] - vals[i]) / (r - 1.0))
        vals = new
        expo += 1.0
    return vals[-1]


# -------------------------------------------------------------- exp_lambda
class TestExpLambda:
    def test_classical_limit(self):
        assert abs(exp_lambda(1.0, 1.0) - math.e) < 1e-14

    def test_plugin(self):
        # lambda=2, x=-0.5: (1 + (1-2)(-0.5))^{1/(1-2)} = 1.5^{-1}
        assert abs(exp_lambda(2.0, -0.5) - 2.0 / 3.0) < 1e-14

    def test_positive_part_cutoff(self):
        assert exp_lambda(0.0, -2.0) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-3, max_value=3))
    def test_continuity_at_one(self, x):
        for eps in (1e-4, 1e-5):
            lo = exp_lambda(1.0 - eps, x)
            hi = exp_lambda(1.0 + eps, x)
            ref = math.exp(x)
            assert abs(lo - ref) < 2e-3 * ref
            assert abs(hi - ref) < 2e-3 * ref

    def test_array_input(self):
        out = exp_lambda(2.0, np.array([-0.5, 0.0]))
        assert np.allclose(out, [2.0 / 3.0, 1.0])


# ------------------------------------------------------------ normalization
class TestGGNormalization:
    def test_gaussian_point(self):
        # p=2, lambda=1: p*/(2 Gamma(1/p*)) = 1/sqrt(pi)
        expected = 2.0 / (2.0 * gamma_half_oracle())
        assert abs(gg_normalization(2, 1) - expected) < 1e-14

    def test_epanechnikov_point(self):
        # p=2, lambda=2: 1/B(1/2, 2) = 3/4 (indicator term vanishes, 1-lambda < 0)
        assert abs(gg_normalization(2, 2) - 1.0 / beta_oracle(0.5, 2.0)) < 1e-14
        assert abs(gg_normalization(2, 2) - 0.75) < 1e-14

    def test_heavy_tail_indicator_side(self):
        # p=2, lambda=1/2 has the indicator active: a = sqrt(2)/pi
        assert abs(gg_normalization(2, 0.5) - math.sqrt(2) / math.pi) < 1e-13

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, -1.0, -2.0])
    # 0.999 and 1.001 lie in the band where Gamma(a + b) of the Beta
    # constant overflows
    @pytest.mark.parametrize("lam", [0.6, 1.0, 1.5, 2.0, 3.0, 0.999, 1.001])
    def test_matches_quadrature_grid(self, p, lam):
        ps = math.inf if p == 1 else p / (p - 1)
        if not lam > 1 - ps:
            pytest.skip("outside integrability domain")
        f = gg_density(p, lam, mode="sym")
        total = integrate(f.value, f.support, tol=1e-11, points=(0.0,)).value
        assert abs(total - 1.0) < 1e-9

    @pytest.mark.parametrize(
        "p, lam, rel",
        # lambda near 1, where the Beta constant's second argument is ~1e5 and ~1e6
        [(1.5, 1 - 1e-5, 1e-13), (2.0, 1 - 1e-6, 1e-13)]
        # the benchmark's members off lambda = 1
        + [(p, lam, 1e-14) for p, lam in [(2.0, 0.7), (4.0, 0.85), (2.0, 1.5), (1.5, 3.0), (3.0, 0.7),
                                           (2.0, 2.0), (1.5, 1.5)]]
        # second argument 33-1e3, where scipy's poch goes through lgamma
        + [(p, lam, 1e-15) for p, lam in [(3.0, 0.99), (3.0, 0.999), (1.5, 1.001), (2.0, 0.97)]]
        # second argument 19.3, shifted up to the Stirling form
        + [(3.0, 0.95, 2e-15)],
    )
    def test_beta_constant_against_mpmath(self, p, lam, rel):
        import mpmath as mp

        with mp.workdps(40):
            mp_p, mp_lam = mp.mpf(p), mp.mpf(lam)
            ps, d = mp_p / (mp_p - 1), abs(1 - mp_lam)
            second = mp_lam / d + (1 / mp_p if mp_lam < 1 else 0)
            expected = float(ps * d ** (1 / ps) / (2 * mp.beta(1 / ps, second)))
        assert gg_normalization(p, lam) == pytest.approx(expected, rel=rel, abs=0.0)

    def test_constant_at_random_members_against_mpmath(self):
        # 40 members drawn once over p in (1.05, 6) or (-6, -0.2) and lambda up
        # to 3.5; scipy's gamma and poch formed the constant within 7.14e-16
        # of these references, and the standard-library forms may not be worse
        import mpmath as mp

        rng = random.Random(22)
        members = []
        while len(members) < 40:
            p = rng.choice([rng.uniform(1.05, 6.0), rng.uniform(-6.0, -0.2)])
            lam = rng.uniform(max(1.0 - p / (p - 1.0), 0.0) + 0.02, 3.5)
            members.append((round(p, 3), round(lam, 3)))
        with mp.workdps(40):
            expected = []
            for p, lam in members:
                mp_p, mp_lam = mp.mpf(p), mp.mpf(lam)
                ps, d = mp_p / (mp_p - 1), abs(1 - mp_lam)
                second = mp_lam / d + (1 / mp_p if mp_lam < 1 else 0)
                expected.append(float(ps * d ** (1 / ps) / (2 * mp.beta(1 / ps, second))))
        got = [gg_normalization(p, lam) for p, lam in members]
        assert got == pytest.approx(expected, rel=7e-16, abs=0.0)

    def test_beta_against_mpmath(self):
        # Gamma(s)/(Gamma(l + s)/Gamma(l)) on a 15 x 15 grid of (0.05, 8)^2;
        # scipy's beta is up to 2.7e-15 off on the same grid
        import mpmath as mp

        grid = [float(x) for x in np.linspace(0.05, 8.0, 15)]
        with mp.workdps(40):
            expected = [float(mp.beta(x, y)) for x in grid for y in grid]
        got = [special._beta(x, y) for x in grid for y in grid]
        assert got == pytest.approx(expected, rel=8e-16, abs=0.0)

    @pytest.mark.parametrize("x", [0.0, -0.0, -1.0, 172.0])
    def test_gamma_where_math_gamma_raises(self, x):
        # poles and overflow: scipy's values, not math.gamma's exceptions
        expected, got = float(scipy_gamma(x)), special._gamma(x)
        assert (math.isnan(got) and math.isnan(expected)) or got == expected

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            gg_normalization(2, -1.5)  # lambda <= 1 - p* = -1
        with pytest.raises(OutOfDomain):
            gg_normalization(0.5, 2.0)  # p in (0,1) has p* < 0

    def test_p_zero_branch(self):
        # a_{0,lambda} = 1 / (2 Gamma(lambda/(lambda-1)))
        lam = 2.0
        assert abs(gg_normalization(0, lam) - 1.0 / (2 * math.gamma(2.0))) < 1e-14
        f = gg_density(0, lam, mode="sym")
        total = integrate(f.value, f.support, tol=1e-11, points=(0.0,)).value
        assert abs(total - 1.0) < 1e-9


class TestGGDensity:
    def test_gaussian_shape(self):
        f = gg_density(2, 1, mode="sym")
        a = 1.0 / math.sqrt(math.pi)
        assert abs(f(0.3) - a * math.exp(-0.09)) < 1e-14

    def test_epanechnikov_shape(self):
        f = gg_density(2, 2, mode="sym")
        assert abs(f(0.5) - 0.75 * (1 - 0.25)) < 1e-14
        assert gg_support_edge(2, 2) == 1.0
        assert f(1.2) == 0.0

    def test_half_mode_doubles(self):
        h = gg_density(2, 2, mode="half")
        s = gg_density(2, 2, mode="sym")
        assert abs(h(0.4) - 2 * s(0.4)) < 1e-14
        assert h.mass == 1.0

    def test_paper_mode_mass(self):
        f = gg_density(2, 2, mode="paper")
        assert f.mass == 0.5
        total = integrate(f.value, f.support, tol=1e-11).value
        assert abs(total - 0.5) < 1e-9

    def test_support_edge_from_normalization(self):
        # the edge is the zero of the positive part: (lambda-1)^{-1/p*}
        assert abs(gg_support_edge(2, 3) - 2 ** -0.5) < 1e-14
        f = gg_density(2, 3, mode="sym")
        total = integrate(f.value, f.support, tol=1e-11, points=(0.0,)).value
        assert abs(total - 1.0) < 1e-9

    def test_uniform_limit_p_to_one(self):
        # p -> 1 gives a constant density over a unit-length support
        f = gg_density(1 + 1e-5, 2, mode="sym")
        assert abs(f(0.25) - 0.5) < 1e-3
        total = integrate(f.value, f.support, tol=1e-9, points=(0.0,)).value
        assert abs(total - 1.0) < 1e-6

    def test_derivative_finite_differences(self):
        for p, lam in [(2, 1), (2, 2), (3, 1.5), (-1, 3)]:
            f = gg_density(p, lam, mode="half")
            hi = f.support.upper if math.isfinite(f.support.upper) else 3.0
            for x in np.linspace(0.15, 0.85, 8) * hi:
                h = 1e-6 * max(1.0, abs(x))
                if x + h >= hi:
                    continue
                fd = (f(x + h) - f(x - h)) / (2 * h)
                an = f.d(x)
                assert abs(fd - an) <= 2e-6 * max(1.0, abs(an))

    def test_second_derivative_finite_differences(self):
        f = gg_density(2, 2, mode="half")
        for x in (0.2, 0.5, 0.8):
            h = 3e-5
            fd = (f.d(x + h) - f.d(x - h)) / (2 * h)
            assert abs(fd - f.dd(x)) < 1e-5 * max(1.0, abs(f.dd(x)))

    @pytest.mark.parametrize("lam", [1.5, 2.0, 3.0])
    def test_p_zero_derivatives_finite_differences(self, lam):
        # A (-ln x)^{1/(lambda-1)} on (0, 1): f' and f'' against central differences
        f = gg_density(0, lam, mode="half")
        for x in np.linspace(0.15, 0.85, 8):
            h = 1e-6
            assert abs((f(x + h) - f(x - h)) / (2 * h) - f.d(x)) <= 2e-6 * max(1.0, abs(f.d(x)))
            h = 3e-5
            assert abs((f.d(x + h) - f.d(x - h)) / (2 * h) - f.dd(x)) < 1e-5 * max(1.0, abs(f.dd(x)))

    def test_level_inverter(self):
        f = gg_density(2, 2, mode="half")
        y = f(0.33)
        assert abs(f.invert_level(y) - 0.33) < 1e-12

    def test_params_dataclass(self):
        gp = GGParams(2, 2)
        assert abs(gp.pstar - 2.0) < 1e-15
        assert abs(gp.a - 0.75) < 1e-14
        assert abs(gp.support_edge - 1.0) < 1e-15
        with pytest.raises(OutOfDomain):
            GGParams(2, -2.0)

    def test_mirror_gg_matches_paper_mode_for_lam_gt1(self):
        m = mirror_gg(2, 2)
        g = gg_density(2, 2, mode="paper")
        for x in (0.1, 0.5, 0.9):
            assert abs(m(x) - g(x)) < 1e-12
        assert abs(m.mass - 0.5) < 1e-8

    def test_mirror_gg_formal_member(self):
        # (p,lambda) = (-1,-1): amplitude 3/4, edge where 1 - 2 sqrt(t) = 0
        m = mirror_gg(-1, -1)
        assert abs(m(0.0 + 1e-300) - 0.75) < 1e-10
        assert abs(m.support.upper - 0.25) < 1e-14
        assert abs(m.mass - 0.5) < 1e-8  # integrable edge divergence

    @pytest.mark.parametrize("p,lam", [(2, -0.2), (4, -0.3), (-1, -1)])
    def test_mirror_gg_mass_closed_form(self, p, lam):
        # against mpmath quadrature of the density at 40 digits, in the
        # edge distance t = edge (1 - v^8), which resolves the edge divergence
        mp = pytest.importorskip("mpmath")
        m = mirror_gg(p, lam)
        with mp.workdps(40):
            ps = mp.mpf(p) / (p - 1)
            c, e = abs(mp.mpf(lam) - 1), 1 / (mp.mpf(lam) - 1)
            A = m(1e-300) / (1 - c * mp.mpf(1e-300) ** ps) ** e
            edge = c ** (-1 / ps)

            def weighted(v):
                # 1 - c t^{p*} = 1 - (1 - v^8)^{p*}, without cancellation
                return 8 * v**7 * edge * A * (-mp.expm1(ps * mp.log1p(-(v**8)))) ** e

            ref = mp.quad(weighted, [0, 0.5, 1])
        assert m.mass == pytest.approx(float(ref), rel=1e-13, abs=0.0)

    def test_mirror_gg_is_paper_mode_for_lam_gt1(self):
        # one kernel: the same value, f', f'' and level inverter, bit for bit
        m, g = mirror_gg(2, 1.5), gg_density(2, 1.5, mode="paper")
        xs = np.linspace(0.01, 0.99, 25) * g.support.upper
        for field in ("value", "derivative", "second_derivative"):
            assert np.array_equal(getattr(m, field)(xs), getattr(g, field)(xs))
        for y in g(xs):
            assert m.invert_level(y) == g.invert_level(y)

    @pytest.mark.parametrize("p,lam", [(2, -0.2), (4, -0.3), (-1, -1)])
    def test_mirror_gg_second_derivative_and_levels(self, p, lam):
        m = mirror_gg(p, lam)
        assert m.monotone_increasing
        for t in np.array([0.2, 0.35, 0.5, 0.65, 0.8]) * m.support.upper:
            h = 3e-6 * t
            fd = (m.d(t + h) - m.d(t - h)) / (2 * h)
            assert abs(fd - m.dd(t)) <= 1e-8 * abs(m.dd(t))
            assert abs(m.invert_level(m(t)) - t) <= 1e-13 * max(1.0, t)

    @pytest.mark.parametrize("lam", [0.5, 0.0])
    def test_mirror_gg_divergent_mass(self, lam):
        # e = 1/(lambda - 1) <= -1: the edge divergence is not integrable
        with pytest.raises(DivergentIntegral):
            mirror_gg(2, lam)

    def test_mirror_gg_requires_positive_pstar(self):
        # p = 0.3 gives p* < 0: the member is 0 on its whole support
        with pytest.raises(OutOfDomain):
            mirror_gg(0.3, 1.5)


# ------------------------------------------------------- generalized trig
class TestGeneralizedTrig:
    def test_classical_arcsin(self):
        assert abs(arcsin_gen(2, 2, 1.0) - math.pi / 2) < 1e-11

    def test_classical_sine(self):
        for y in np.linspace(0.05, math.pi / 2 - 0.05, 9):
            assert abs(sin_gen(2, 2, y) - math.sin(y)) < 1e-10

    def test_lemniscatic_value(self):
        expected = lemniscatic_series_oracle()
        assert abs(arcsin_gen(2, 4, 1.0) - expected) < 1e-9
        assert abs(expected - 1.3110287771460599) < 1e-9

    def test_b_one_closed_form(self):
        # sin_{v,1}(x) = 1 - (1 - ((v-1)/v) x)^{v/(v-1)}
        v = 3.0
        for y in (0.1, 0.4, 0.9):
            closed = 1.0 - (1.0 - (v - 1.0) / v * y) ** (v / (v - 1.0))
            assert abs(sin_gen(v, 1.0, y) - closed) < 1e-10

    def test_roundtrip(self):
        for v, b in [(2, 2), (-1, 1), (3, 2), (2, 4)]:
            for x in np.linspace(0.05, 0.95, 7):
                y = arcsin_gen(v, b, x)
                assert abs(sin_gen(v, b, y) - x) < 1e-10

    @pytest.mark.parametrize("v, b", [(0.5, 2.0), (1.0, 3.0)])
    def test_sine_past_infinite_quarter_period(self, v, b):
        # 1/v >= 1: arcsin_gen diverges at 1, so the quarter period is
        # infinite and every y >= 0 has a preimage in [0, 1)
        for y in (0.1, 0.5, 2.0):
            assert arcsin_gen(v, b, sin_gen(v, b, y)) == pytest.approx(y, rel=1e-10, abs=0.0)

    def test_classical_sinh(self):
        # arcsinh_{2,2} is the classical arcsinh
        for x in (0.3, 1.0, 2.5):
            assert abs(arcsinh_gen(2, 2, x) - math.asinh(x)) < 1e-11
        for y in (0.25, 1.0, 1.6):
            assert abs(sinh_gen(2, 2, y) - math.sinh(y)) < 1e-9

    def test_sinh_odd_origin(self):
        assert sinh_gen(3, 2, 0.0) == 0.0

    def test_sinh_roundtrip(self):
        v, b = 3, 2
        for x in (0.2, 0.7, 1.0, 4.0):
            y = arcsinh_gen(v, b, x)
            assert abs(sinh_gen(v, b, y) - x) < 1e-9 * max(1, x)

    def test_sinh_roundtrip_far(self):
        # the preimage lies far past any fixed bracket cap
        y = arcsinh_gen(3, 2, 1e14)
        assert sinh_gen(3, 2, y) == pytest.approx(1e14, rel=1e-9, abs=0.0)

    def test_domain_errors(self):
        with pytest.raises(OutOfDomain):
            arcsin_gen(2, 2, 1.5)
        with pytest.raises(OutOfDomain):
            arcsin_gen(2, -1, 0.5)
        for fn in (arcsin_gen, sin_gen, arcsinh_gen, sinh_gen):
            with pytest.raises(OutOfDomain):
                fn(0.0, 2.0, 0.5)

    @pytest.mark.parametrize(
        "p, lam, alpha", [(2.0, 0.7, 3.0), (4.0, 0.85, -1.0), (2.0, 1.5, 4.0), (1.5, 3.0, 0.5)]
    )
    def test_up_of_gg_reads_one_coordinate(self, monkeypatch, p, lam, alpha):
        # the four finite-range members: each value is one solve on the
        # generalized sine's cumulative coordinate, whose pieces between
        # knots the 7-15 pair certifies, so interior values run no
        # tanh-sinh quadrature; the support is C times the quarter period
        # (lambda > 1) or the range limit (lambda < 1)
        d = up_of_gg(p, lam, alpha)
        xs = d.support.at(np.linspace(0.05, 0.95, 12))
        quadratures = []
        real = core._tanh_sinh
        monkeypatch.setattr(core, "_tanh_sinh", lambda *a: quadratures.append(1) or real(*a))
        assert all(float(d.value(float(x))) > 0.0 for x in xs)
        assert quadratures == []
        A, _ = special._gg_amplitude(p, lam, "half")
        ps, a2 = p / (p - 1.0), alpha - 2.0
        m = abs(lam - 1.0) ** (1.0 / ps)
        b, v = (a2 / (alpha - 1.0)) * ps, 1.0 - lam
        C = A * abs(a2) ** (1.0 / a2) * a2 / ((alpha - 1.0) * m ** ((alpha - 1.0) / a2))
        edge = _arcsin_quarter(v, b) if lam > 1 else _arcsinh_limit(v, b)
        assert d.support.lower == 0.0
        assert d.support.upper == pytest.approx(C * edge, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "p, lam", [(2.0, 0.7), (4.0, 0.85), (3.0, 1.0), (2.0, 1.5), (1.5, 3.0), (-2.0, 1.2)]
    )
    def test_down_of_gg_against_mpmath(self, p, lam):
        # C y^{alpha+lambda-2} |y^{lambda-1} - A^{lambda-1}|^{-1/p}, and
        # y^{alpha-1} ln(A/y)^{-1/p} / p* at lambda = 1, at the level y of s,
        # in 40 digits from the same float s and A.  The two powers in the
        # bracket cancel near the lower edge, where the value may not lose
        # more digits than its level y does
        import mpmath as mp

        A = mp.mpf(special._gg_amplitude(p, lam, "half")[0])
        for alpha in (-1.0, 0.5, 1.5, 2.0, 3.0):
            d = special.down_of_gg(p, lam, alpha)
            ss = [float(s) for s in d.support.at(np.linspace(0.05, 0.95, 7))]
            with mp.workdps(40):
                P, L, a = mp.mpf(p), mp.mpf(lam), mp.mpf(alpha)
                ps = P / (P - 1)
                ys = [mp.exp(-mp.mpf(s)) if alpha == 2 else ((a - 2) * s) ** (1 / (2 - a)) for s in ss]
                if lam == 1:
                    expected = [float(y ** (a - 1) * mp.log(A / y) ** (-1 / P) / ps) for y in ys]
                else:
                    C = abs(1 - L) ** (1 / P) / (A ** ((L - 1) / ps) * ps)
                    bracket = [abs(y ** (L - 1) - A ** (L - 1)) for y in ys]
                    expected = [float(C * y ** (a + L - 2) * b ** (-1 / P)) for y, b in zip(ys, bracket)]
            assert d.value(np.array(ss)) == pytest.approx(expected, rel=5e-15, abs=0.0)

    @pytest.mark.parametrize("p, lam", [(2.0, 0.7), (3.0, 1.0), (2.0, 1.5)])
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_up_of_gg_is_the_numeric_image_inside_1_2(self, p, lam, alpha):
        # no closed form for 1 <= alpha <= 2: up_of_gg hands back up(g, alpha)
        closed, numeric = up_of_gg(p, lam, alpha), up(gg_density(p, lam), alpha)
        assert closed.support == numeric.support
        for s in numeric.support.at(np.array([0.1, 0.3, 0.5, 0.7, 0.9])):
            assert closed(float(s)) == numeric(float(s))

    def test_up_of_gg_far_tail_without_warnings(self):
        # far in sinh_gen's tail w at a bracket end is tiny, and no step
        # may overflow (a library RuntimeWarning is an error in these
        # tests).  The value 4 x^-2 at x = z^(1/3)/m, m = 2^(-2/3), where
        # 2 (ln(1 + sqrt z) + 1/(1 + sqrt z) - 1) = 99/C and C = A/3,
        # A = 2 a_{3,0.5}: mpmath at 40 digits.  It moves by 252 dA/A, so
        # the float A alone keeps 1.5e-14
        assert up_of_gg(3, 0.5, 2.5).value(-99.0) == pytest.approx(3.833324533347336e-111, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "p, lam, alpha, builds",
        # cg = 202, Gamma(cg) = inf: the length and the argument in log space
        [(-0.01, 1.0, 3.0, True),
         # cg = 603 and the amplitude 0 (Gamma(1/p*) = inf), so K = 0 and the length nan
         (-0.005, 1.0, 2.5, False),
         # cg = 667 and |alpha-2|^(1/(2-alpha)) = 1e3000
         (3.0, 1.0, 2.001, False)],
    )
    def test_up_of_gg_where_gamma_overflows(self, p, lam, alpha, builds):
        # the lambda = 1 support has length K Gamma(cg), cg = (alpha-1)/((alpha-2) p*)
        if not builds:
            with pytest.raises(EntroscopeError):
                up_of_gg(p, lam, alpha)
            return
        import mpmath as mp

        d = up_of_gg(p, lam, alpha)
        # at alpha = 3: K = 1/Gamma(1/p*), and the value at s is 1/x with
        # Gamma(cg, x^{p*}) = s/K, against 40-digit mpmath
        with mp.workdps(40):
            ps = mp.mpf(special.holder_conjugate(p))
            cg, K = 2 / ps, 1 / mp.gamma(1 / ps)
            assert d.support.upper == pytest.approx(float(K * mp.gamma(cg)), rel=1e-13, abs=0.0)
            for s in (1.0, 1e3, 1e100):
                z = mp.findroot(lambda z: mp.log(mp.gammainc(cg, z) * K / s), 250)
                assert d.value(s) == pytest.approx(float(z ** (-1 / ps)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("v, b", [(2.0, 2.0), (3.0, 4.0), (-1.0, 1.5), (-0.5, 3.0)])
    def test_quarter_period_and_limit_closed_forms(self, v, b):
        # B(1/b, 1 - 1/v)/b and B(1/b, 1/v - 1/b)/b against the quadratures
        assert _arcsin_quarter(v, b) == pytest.approx(arcsin_gen(v, b, 1.0), rel=1e-12, abs=0.0)
        if b / v > 1.0:
            assert _arcsinh_limit(v, b) == pytest.approx(arcsinh_gen(v, b, math.inf), rel=1e-12, abs=0.0)
        else:
            assert _arcsinh_limit(v, b) == math.inf


# ------------------------------------------------------- incomplete Gamma
class TestIncGamma:
    def test_exponential_case(self):
        assert abs(inc_gamma_upper(1.0, 2.0) - math.exp(-2)) < 1e-14

    def test_half_order_vs_erfc(self):
        expected = math.sqrt(math.pi) * erfc(1.0)
        assert abs(inc_gamma_upper(0.5, 1.0) - expected) < 1e-12
        assert abs(expected - 0.27880558528066) < 1e-11

    def test_inverse_exponential(self):
        assert abs(inv_inc_gamma_upper(1.0, math.exp(-3.0)) - 3.0) < 1e-10

    def test_negative_order_recursion(self):
        # independent oracle: direct quadrature of t^{a-1} e^{-t}
        for a, x in [(-0.5, 0.7), (-1.5, 2.0), (-0.25, 0.1)]:
            direct = integrate(
                lambda t: np.asarray(t, dtype=float) ** (a - 1.0) * np.exp(-np.asarray(t)),
                Support(x, math.inf),
                tol=1e-12,
            ).value
            assert abs(inc_gamma_upper(a, x) - direct) < 1e-10 * max(1, abs(direct))

    def test_negative_order_cancellation_raises(self):
        # Gamma(a+1, x) and x^a e^{-x} agree in their leading digits here;
        # against mpmath the recursion is off by 5.8e10 and 4e-10 relative
        for a, x in [(-9.2, 500.0), (-2.7, 30.0)]:
            with pytest.raises(OutOfRange):
                inc_gamma_upper(a, x)

    def test_quadrature_agreement_positive(self):
        for a, x in [(0.3, 0.5), (2.5, 4.0), (5.0, 1.0)]:
            direct = integrate(
                lambda t: np.asarray(t, dtype=float) ** (a - 1.0) * np.exp(-np.asarray(t)),
                Support(x, math.inf),
                tol=1e-12,
            ).value
            assert abs(inc_gamma_upper(a, x) - direct) < 1e-11 * max(1, abs(direct))

    def test_roundtrip(self):
        for a in (0.5, 1.0, 2.5):
            for x in (0.2, 1.0, 3.0):
                y = inc_gamma_upper(a, x)
                assert abs(inv_inc_gamma_upper(a, y) - x) < 1e-9 * max(1, x)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            inc_gamma_upper(-1.0, 1.0)  # non-positive integer order
        with pytest.raises(OutOfRange):
            inv_inc_gamma_upper(1.0, 2.0)  # above Gamma(1) = 1
        with pytest.raises(OutOfRange):
            inv_inc_gamma_upper(-0.5, 1.0)  # non-positive order
