"""Moment, entropy, and Fisher functionals against independent oracles."""

import dataclasses
import math

import numpy as np
import pytest

from entroscope.core import builtin, rescale
from entroscope.errors import DivergentIntegral, MissingDerivative, NonConvergent, OutOfDomain, Unbounded
from entroscope.measures import (
    _ROUNDS,
    entropic_Sp,
    evaluate_measure,
    exp_moment,
    fisher,
    fisher_integral,
    fisher_sup,
    fisher_zero,
    holder_conjugate,
    log_moment,
    renyi_power,
    shannon,
    tsallis,
    typical_deviation,
)


def gamma_int_oracle(n: int) -> float:
    out = 1.0
    for k in range(1, n):
        out *= k
    return out


def euler_gamma_oracle() -> float:
    """Euler-Mascheroni via H_n - ln n with Euler-Maclaurin correction."""
    n = 200_000
    h = sum(1.0 / k for k in range(1, n + 1))
    return h - math.log(n) - 1.0 / (2 * n) + 1.0 / (12 * n**2)


EXP = builtin("exp", {"rate": 1})
GAUSS = builtin("gauss", {"sigma": 1})
UNIF = builtin("uniform", {"a": 0, "b": 1})


class TestHolderConjugate:
    def test_values(self):
        assert holder_conjugate(2) == 2
        assert holder_conjugate(-1) == 0.5
        assert math.isinf(holder_conjugate(1))
        assert holder_conjugate(0) == 0


class TestTypicalDeviation:
    def test_exp_second(self):
        expected = gamma_int_oracle(3) ** 0.5  # sqrt(2)
        assert abs(typical_deviation(EXP, 2) - expected) < 1e-9

    def test_gauss_unit_variance(self):
        assert abs(typical_deviation(GAUSS, 2) - 1.0) < 1e-9

    def test_uniform_sup(self):
        assert typical_deviation(UNIF, math.inf) == 1.0

    def test_p_zero_geometric_mean(self):
        # exp(int_0^1 ln x dx) = exp(-1)
        assert abs(typical_deviation(UNIF, 0) - math.exp(-1)) < 1e-9

    def test_negative_order(self):
        # <|x|^{-1/2}> over uniform(0,1) = 2
        assert abs(typical_deviation(UNIF, -0.5) - 2.0 ** (1 / -0.5)) < 1e-9

    def test_divergent_moment(self):
        pareto = builtin("pareto", {"eta": 3, "xmin": 1})
        with pytest.raises(DivergentIntegral):
            typical_deviation(pareto, 2.5)


class TestLogExpMoments:
    def test_log_moment_p0(self):
        assert abs(log_moment(EXP, 0) - 1.0) < 1e-9

    def test_log_moment_uniform(self):
        # int_0^1 |ln x| dx = 1 by parts: [x - x ln x]
        assert abs(log_moment(UNIF, 1) - 1.0) < 1e-9

    def test_log_moment_exp(self):
        # int_0^inf e^{-x} |ln x| dx = -euler_gamma - 2 int_0^1 ln(x) e^{-x} dx,
        # with the unit-interval piece summed by the exact series
        # int_0^1 x^k ln x dx = -1/(k+1)^2
        gamma = euler_gamma_oracle()
        assert abs(gamma - 0.5772156649015329) < 1e-10
        unit_piece = -sum(
            (-1.0) ** k / (math.factorial(k) * (k + 1) ** 2) for k in range(30)
        )
        expected = -gamma - 2.0 * unit_piece
        assert abs(log_moment(EXP, 1) - expected) < 1e-7
        # note: the signed integral int e^{-x} ln x dx equals -euler_gamma;
        # the absolute-value moment is strictly larger
        assert log_moment(EXP, 1) > gamma

    def test_exp_moment_geometric(self):
        # (int e^{x/2} e^{-x})^{-2} = 2^{-2}
        assert abs(exp_moment(EXP, -0.5) - 0.25) < 1e-10

    def test_exp_moment_point_mass_limit(self):
        for eps in (0.1, 0.01, 0.001):
            u = builtin("uniform", {"a": -eps, "b": eps})
            assert abs(exp_moment(u, 1) - 1.0) < eps

    def test_exp_moment_gauss_mgf(self):
        assert abs(exp_moment(GAUSS, 1) - math.exp(0.5)) < 1e-9


class TestRenyiShannonTsallis:
    def test_exp_order2(self):
        assert abs(renyi_power(EXP, 2) - 2.0) < 1e-9

    def test_uniform_any_order(self):
        u = builtin("uniform", {"a": 0, "b": 3})
        for lam in (0.5, 2, 3):
            assert abs(renyi_power(u, lam) - 3.0) < 1e-9

    def test_gauss_shannon_power(self):
        assert abs(renyi_power(GAUSS, 1) - math.sqrt(2 * math.pi * math.e)) < 1e-8

    def test_uniform_entropies_zero(self):
        assert abs(shannon(UNIF)) < 1e-10
        assert abs(tsallis(UNIF, 2)) < 1e-10

    def test_exp_shannon(self):
        # -int e^{-x} ln e^{-x} = Gamma(2) = 1
        assert abs(shannon(EXP) - gamma_int_oracle(2)) < 1e-9

    def test_gauss_tsallis2(self):
        # T_2 = 1 - int g^2 = 1 - 1/(2 sqrt(pi))
        assert abs(tsallis(GAUSS, 2) - (1 - 1 / (2 * math.sqrt(math.pi)))) < 1e-9

    def test_continuity_at_one(self):
        n1 = renyi_power(GAUSS, 1)
        for eps in (1e-3, 1e-4):
            assert abs(renyi_power(GAUSS, 1 + eps) - n1) < 1e-2 * n1
            assert abs(renyi_power(GAUSS, 1 - eps) - n1) < 1e-2 * n1

    def test_tsallis_renyi_consistency(self):
        for lam in (0.5, 2, 3):
            n = renyi_power(EXP, lam)
            t = tsallis(EXP, lam)
            assert abs(t - (n ** (1 - lam) - 1) / (1 - lam)) < 1e-10


class TestFisher:
    def test_gauss_classical(self):
        assert abs(fisher(GAUSS, 2, 1) - 1.0) < 1e-9

    def test_exp_classical(self):
        # (f'/f)^2 = 1 identically
        assert abs(fisher(EXP, 2, 1) - 1.0) < 1e-9

    def test_exp_order22(self):
        # (int e^{-3x})^{1/4} = 3^{-1/4}
        assert abs(fisher(EXP, 2, 2) - 3 ** -0.25) < 1e-9

    def test_scale_homogeneity(self):
        for kappa in (0.5, 2, 5):
            g = rescale(GAUSS, kappa)
            assert abs(fisher(g, 2, 1) - kappa * fisher(GAUSS, 2, 1)) < 1e-8 * kappa
            assert abs(fisher(g, 2, 2) - kappa * fisher(GAUSS, 2, 2)) < 1e-8 * kappa

    def test_missing_derivative(self):
        from entroscope.core import Density, Support

        bare = Density(support=Support(0, 1), value=lambda x: np.ones_like(np.asarray(x, float)))
        with pytest.raises(MissingDerivative):
            fisher(bare, 2, 1)

    def test_uniform_zero(self):
        # f' = 0: the integral is 0, its positive root is 0
        assert fisher(UNIF, 2, 1) == 0.0

    @pytest.mark.parametrize("p,lam", [(-2, 1), (2, -1)])
    def test_uniform_negative_root(self, p, lam):
        with pytest.raises(DivergentIntegral):
            fisher(UNIF, p, lam)

    def test_negative_order_integral(self):
        # int |f^{0} f'|^{-1} f dx for Exp = int e^{x} e^{-x} -> divergent
        with pytest.raises(DivergentIntegral):
            fisher_integral(EXP, -1, 2)


class TestFisherSup:
    def test_uniform_zero(self):
        assert fisher_sup(UNIF, 2) == 0.0

    def test_exp_unbounded(self):
        # |f^{-3/2} f'| = e^{x/2} grows without bound toward the infinite edge
        with pytest.raises(Unbounded):
            fisher_sup(EXP, 0.5)

    def test_exp_edge_max(self):
        # |f^0 f'| = e^{-x}, supremum 1 at the left edge
        assert abs(fisher_sup(EXP, 2) - 1.0) < 1e-6

    def test_gauss_interior_max(self):
        # max |x| phi(x) at x = 1: e^{-1/2}/sqrt(2 pi)
        expected = math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert abs(fisher_sup(GAUSS, 2) - expected) < 1e-8
        assert abs(expected - 0.24197072451914337) < 1e-15

    @pytest.mark.parametrize(
        "f,edges",
        [
            (GAUSS, 0),
            (EXP, 1),
            (builtin("powerlaw", {"a": 2.0}), 1),
            (dataclasses.replace(builtin("powerlaw", {"a": 2.0}), edge_forms=None), 2),
        ],
    )
    def test_one_array_call_per_round(self, f, edges):
        # the grid, _ROUNDS zoom rounds and one probe per finite edge that
        # it reads, each one call of the integrand on an array; the value is
        # the one the density's own log pair gives.  With edge forms only an
        # edge where h tends to a nonzero constant is probed: h ~ x of
        # powerlaw(a=2) vanishes at 0, and without forms both edges are probed
        shapes = []

        def value(x):
            shapes.append(np.shape(x))
            return f.value(x)

        plain = dataclasses.replace(f, value=value, log_value=None, log_abs_derivative=None)
        assert fisher_sup(plain, 2) == pytest.approx(fisher_sup(f, 2), rel=1e-14, abs=0.0)
        assert len(shapes) == 1 + _ROUNDS + edges
        assert all(len(shape) == 1 and shape[0] > 1 for shape in shapes)

    @pytest.mark.parametrize("f,orders", [(GAUSS, (32, 64)), (EXP, (64, 256))])
    def test_large_p_agreement(self, f, orders):
        # phi_{p,lam}^lam -> sup monotonically; the f-weighted L^p norm of the
        # exponential converges like (1/(p+1))^{1/p}, so it needs higher p
        # than the Gaussian to land within 5%
        target = fisher_sup(f, 2)
        prev_gap = None
        for p in orders:
            approx = fisher(f, p, 2) ** 2
            gap = abs(approx - target) / target
            if prev_gap is not None:
                assert gap <= prev_gap + 1e-12
            prev_gap = gap
        assert prev_gap < 0.05

    def test_exp_exact_large_p_rate(self):
        # exact value (1/(p+1))^{1/p} pins the convergence rate
        for p in (32, 64):
            assert abs(fisher(EXP, p, 2) ** 2 - (1.0 / (p + 1)) ** (1.0 / p)) < 1e-8


class TestFisherZero:
    def test_normalization(self):
        assert abs(fisher_zero(EXP, 0) - 1.0) < 1e-10

    def test_divergent(self):
        with pytest.raises(DivergentIntegral):
            fisher_zero(EXP, 1)

    def test_inverse_order(self):
        # (|f'|/f^2)^{-1} = e^{-x}; int e^{-x} e^{-x} = 1/2
        assert abs(fisher_zero(EXP, -1) - 0.5) < 1e-10


class TestEntropicSp:
    def test_uniform_zero(self):
        for p in (0.5, 1, 2):
            assert abs(entropic_Sp(UNIF, p)) < 1e-12

    def test_exp_first(self):
        assert abs(entropic_Sp(EXP, 1) - 1.0) < 1e-9

    def test_exp_second(self):
        assert abs(entropic_Sp(EXP, 2) - math.sqrt(2)) < 1e-9


class TestScaleCovariance:
    @pytest.mark.parametrize("kappa", [0.5, 2, 5])
    def test_sigma_and_renyi(self, kappa):
        f = builtin("halfgauss", {"sigma": 1})
        g = rescale(f, kappa)
        for p in (1, 2):
            assert abs(typical_deviation(g, p) - typical_deviation(f, p) / kappa) < 1e-8
        for lam in (0.5, 2):
            assert abs(renyi_power(g, lam) - renyi_power(f, lam) / kappa) < 1e-8


class TestEvaluateMeasure:
    def test_ids(self):
        out = evaluate_measure("sigma", EXP, p=2)
        assert abs(out["value"] - math.sqrt(2)) < 1e-8
        out = evaluate_measure("renyiN", UNIF, lam=2)
        assert abs(out["value"] - 1.0) < 1e-9
        out = evaluate_measure("fisher", GAUSS, p=2, lam=1)
        assert abs(out["value"] - 1.0) < 1e-8

    def test_unknown(self):
        from entroscope.errors import InvalidParams

        with pytest.raises(InvalidParams):
            evaluate_measure("nope", EXP)
        with pytest.raises(InvalidParams):
            evaluate_measure("sigma", EXP, p="abc")


def test_a_contradicted_heuristic_carries_its_name_interval_and_estimates():
    # the edge forms of exp say sigma_2 converges at rate 1e-30, so the
    # quadrature's overflow heuristic becomes NonConvergent, which keeps
    # what fired, where, and the estimates up to it
    with pytest.raises(NonConvergent) as info:
        typical_deviation(builtin("exp", {"rate": 1e-30}), 2.0)
    assert info.value.heuristic == "overflow"
    assert info.value.interval == (0.0, math.inf)
    assert info.value.estimates and abs(info.value.estimates[-1]) > 1e50
