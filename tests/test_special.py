"""Stretched-Gaussian family, generalized trig functions, incomplete Gamma."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from entroscope.core import Support, integrate
from entroscope.errors import OutOfDomain, OutOfRange
from entroscope.special import (
    GGParams,
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
)


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
    @pytest.mark.parametrize("lam", [0.6, 1.0, 1.5, 2.0, 3.0])
    def test_matches_quadrature_grid(self, p, lam):
        ps = math.inf if p == 1 else p / (p - 1)
        if not lam > 1 - ps:
            pytest.skip("outside integrability domain")
        f = gg_density(p, lam, mode="sym")
        total = integrate(f.value, f.support, tol=1e-11, points=(0.0,)).value
        assert abs(total - 1.0) < 1e-9

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

    def test_domain_errors(self):
        with pytest.raises(OutOfDomain):
            arcsin_gen(2, 2, 1.5)
        with pytest.raises(OutOfDomain):
            arcsin_gen(2, -1, 0.5)


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
