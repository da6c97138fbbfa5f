"""The edge rule of `measures` against closed-form convergence conditions.

Each density that carries edge forms has its integrals decided at its
support edges before any quadrature: divergent ones raise
DivergentIntegral there, convergent ones run the quadrature as before.
The conditions below are derived by hand from each density's formula,
not from the forms, and each threshold the benchmark sits on is checked
from both sides, with mpmath references on the converging side.
"""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entroscope.core import EdgeForm, builtin, reflect, rescale, translate
from entroscope.errors import DivergentIntegral, NonConvergent, Unbounded
from entroscope.measures import (
    _edge_rule,
    _Spec,
    exp_moment,
    fisher,
    fisher_integral,
    fisher_sup,
    fisher_zero,
    holder_conjugate,
    renyi_power,
    shannon,
    typical_deviation,
)
from entroscope.special import gg_density, gg_normalization
from entroscope.transforms import down, up

MARGIN = 1e-6  # draws this close to a threshold are left to the threshold tests


def verdict(f, spec):
    """True (converges), None (the forms cannot tell) or False (raised)."""
    try:
        return _edge_rule(f, spec)
    except DivergentIntegral:
        return False


PARAM = dict(allow_nan=False, allow_infinity=False)


# ------------------------------------------------------- carried forms


def test_affine_maps_carry_the_forms():
    f = builtin("halfgauss", {"sigma": 1.0})
    g = rescale(f, 2.0)
    # the edge moves with the support, and exp(-x^2/2) becomes exp(-2 x^2)
    assert [e.x0 for e in g.edge_forms] == [0.0, math.inf]
    assert g.edge_forms[1].B == pytest.approx(2.0, rel=1e-15, abs=0.0)
    r = reflect(builtin("pareto", {"eta": 3.0, "xmin": 2.0}))
    assert sorted(e.x0 for e in r.edge_forms) == [-math.inf, -2.0]
    t = translate(builtin("exp"), 1.5)
    assert [e.x0 for e in t.edge_forms] == [1.5, math.inf]
    assert builtin("gauss").edge_forms[1] == EdgeForm(0.0, 0.0, 1.0)


@pytest.mark.parametrize(
    "f, run",
    [
        (builtin("exp", {"rate": 1.3}), lambda f: typical_deviation(f, 2.0)),
        (builtin("gauss"), lambda f: typical_deviation(f, -0.5)),
        (builtin("pareto", {"eta": 3.5}), lambda f: renyi_power(f, 0.6)),
        (builtin("powerlaw", {"a": -0.5}), lambda f: shannon(f)),
        (gg_density(2.0, 0.7), lambda f: fisher(f, 2.0, 1.0)),
        (down(gg_density(2.0, 1.5), 3.0), lambda f: renyi_power(f, 0.7)),
        (up(builtin("exp"), 3.0), lambda f: renyi_power(f, 0.5)),
    ],
)
def test_converging_integrals_keep_their_bits(f, run):
    # "converges" runs exactly the quadrature that a density without forms runs
    bare = dataclasses.replace(f, edge_forms=None)
    if getattr(f, "source", None) is not None:
        bare = dataclasses.replace(f, source=dataclasses.replace(f.source, edge_forms=None))
    assert run(f).hex() == run(bare).hex()


# ------------------------------------------ verdicts against closed forms


@settings(max_examples=80, deadline=None)
@given(eta=st.floats(1.05, 6.0, **PARAM), q=st.floats(-3.0, 6.0, **PARAM),
       xmin=st.floats(0.3, 3.0, **PARAM), kappa=st.floats(0.2, 5.0, **PARAM))
def test_pareto_moments(eta, q, xmin, kappa):
    # sigma_q of pareto converges iff q < eta - 1, rescaled or reflected
    assume(abs(q) > MARGIN and abs(q - (eta - 1.0)) > MARGIN)
    f = builtin("pareto", {"eta": eta, "xmin": xmin})
    expected = q < eta - 1.0
    for g in (f, rescale(f, kappa), reflect(f)):
        assert verdict(g, _Spec(q=q)) is expected
    # moved onto the origin, |x|^q is singular at the lower edge too, and
    # moved past it, at the interior point 0, where f is smooth
    assume(abs(q + 1.0) > MARGIN)
    assert verdict(translate(f, -xmin), _Spec(q=q)) is (-1.0 < q < eta - 1.0)
    assert verdict(translate(f, -2.0 * xmin), _Spec(q=q)) is (-1.0 < q < eta - 1.0)


@settings(max_examples=80, deadline=None)
@given(eta=st.floats(1.05, 6.0, **PARAM), lam=st.floats(0.05, 4.0, **PARAM))
def test_pareto_power_integrals(eta, lam):
    # int f^lam of pareto converges iff lam eta > 1
    assume(abs(lam * eta - 1.0) > MARGIN and abs(lam - 1.0) > MARGIN)
    f = builtin("pareto", {"eta": eta})
    assert verdict(f, _Spec(m=lam - 1.0)) is (lam * eta > 1.0)


@settings(max_examples=80, deadline=None)
@given(a=st.floats(-0.95, 3.0, **PARAM), lam=st.floats(0.05, 4.0, **PARAM), q=st.floats(-3.0, 3.0, **PARAM))
def test_powerlaw_integrals(a, lam, q):
    # int f^lam of powerlaw(a) converges iff lam a > -1, and sigma_q iff q + a > -1
    assume(abs(a) > 1e-3 and abs(lam * a + 1.0) > MARGIN and abs(q + a + 1.0) > MARGIN)
    f = builtin("powerlaw", {"a": a})
    assert verdict(f, _Spec(m=lam - 1.0)) is (lam * a > -1.0)
    assert verdict(f, _Spec(q=q)) is (q + a > -1.0)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(1.2, 5.0, **PARAM), u=st.floats(0.0, 1.0, **PARAM), q=st.floats(0.0, 3.0, **PARAM))
def test_fisher_zero_of_heavy_tailed_members(p, u, q):
    # g_{p,lambda} with lambda < 1 and beta = p*/(1-lambda) > 1: f ~ x^-beta and
    # |f'| ~ x^-beta-1 at infinity, so int |f'|^q f^{1-2q} converges there iff q < 1
    ps = holder_conjugate(p)
    lam = max(0.0, 1.0 - ps) + (1.0 - max(0.0, 1.0 - ps)) * u
    assume(1e-3 < 1.0 - lam and ps / (1.0 - lam) > 1.0 + 1e-3 and abs(q - 1.0) > MARGIN)
    assert verdict(gg_density(p, lam), _Spec(m=-2.0 * q, n=q)) is (q < 1.0)


@settings(max_examples=60, deadline=None)
@given(rate=st.floats(1e-3, 1e3, **PARAM), p=st.floats(-4.0, 4.0, **PARAM), lam=st.floats(-2.0, 3.0, **PARAM))
def test_exponential_integrals(rate, p, lam):
    # e^{-p x} r e^{-r x} converges iff p > -r; |f^{lam-2} f'|^p f = r^.. e^{-r x (p(lam-1)+1)}
    assume(abs(p + rate) > MARGIN * rate and abs(p * (lam - 1.0) + 1.0) > MARGIN and abs(p) > MARGIN)
    f = builtin("exp", {"rate": rate})
    assert verdict(f, _Spec(c=p)) is (p > -rate)
    assert verdict(f, _Spec(m=p * (lam - 2.0), n=p)) is (p * (lam - 1.0) + 1.0 > 0.0)


@settings(max_examples=60, deadline=None)
@given(sigma=st.floats(0.1, 10.0, **PARAM), q=st.floats(-3.0, 4.0, **PARAM), p=st.floats(-3.0, 3.0, **PARAM))
def test_gaussian_integrals(sigma, q, p):
    # |x|^q exp(-x^2/2s^2) converges iff q > -1, at 0 inside the support of
    # gauss, and |f'|^p = |x/s^2|^p f^p, as f^(1-p) in fisher_zero(p), iff p > -1
    assume(abs(q + 1.0) > MARGIN and abs(q) > MARGIN and abs(p + 1.0) > MARGIN and abs(p) > MARGIN)
    for name in ("halfgauss", "gauss"):
        f = builtin(name, {"sigma": sigma})
        assert verdict(f, _Spec(q=q)) is (q > -1.0)
        assert verdict(f, _Spec(m=-2.0 * p, n=p)) is (p > -1.0 and (1.0 - p > 0.0))


@settings(max_examples=40, deadline=None)
@given(eta=st.floats(1.2, 5.0, **PARAM), q=st.floats(0.1, 4.0, **PARAM), alpha=st.sampled_from([1.5, 3.0, 4.0]))
def test_down_moments_of_pareto(eta, q, alpha):
    # |s|^q f = |alpha-2|^-q f^{1+(2-alpha) q}, and f ~ x^-eta: converges iff eta (1 + (2-alpha) q) > 1
    lam = 1.0 + (2.0 - alpha) * q
    assume(abs(eta * lam - 1.0) > MARGIN)
    assert verdict(down(builtin("pareto", {"eta": eta}), alpha), _Spec(q=q)) is (eta * lam > 1.0)


@settings(max_examples=40, deadline=None)
@given(rate=st.floats(0.1, 10.0, **PARAM), lam=st.floats(-3.0, 3.0, **PARAM), alpha=st.sampled_from([1.5, 2.0, 3.0]))
def test_down_renyi_of_exp(rate, lam, alpha):
    # D = r^{alpha-2} e^{-(alpha-1) r x}, so D^{lam-1} f converges iff (alpha-1)(lam-1) + 1 > 0
    g = (alpha - 1.0) * (lam - 1.0) + 1.0
    assume(abs(g) > MARGIN and abs(lam - 1.0) > MARGIN)
    assert verdict(down(builtin("exp", {"rate": rate}), alpha), _Spec(m=lam - 1.0)) is (g > 0.0)


def test_up_renyi_of_pareto():
    # U^{lam-1} f = |(alpha-2) x|^{(lam-1)/(2-alpha)} f, f ~ x^-3: at alpha = 3, x^{1-lam-3}
    img = up(builtin("pareto", {"eta": 3.0}), 3.0)
    assert verdict(img, _Spec(m=-0.5)) is True  # x^-2.5
    assert verdict(img, _Spec(m=-2.5)) is False  # x^-0.5
    # at alpha = 3 over exp, U f = x^-1 e^-x is not integrable at 0
    assert verdict(up(builtin("exp"), 3.0), _Spec(m=1.0)) is False
    assert verdict(img, _Spec(q=2.0)) is None  # the coordinate u is no closed form of x


def test_what_the_forms_cannot_tell():
    uniform = builtin("uniform", {"a": 0.0, "b": 2.0})
    assert verdict(uniform, _Spec(m=-2.0, n=2.0)) is None  # f' vanishes identically
    # |ln f| tends to a constant, which bounds it: enough to converge
    assert verdict(uniform, _Spec(l=1.0)) is True
    # |ln f|^-1 under a factor that may tend to 1 is not bounded
    assert verdict(builtin("exp"), _Spec(l=-1.0)) is None
    assert verdict(dataclasses.replace(builtin("exp"), edge_forms=None), _Spec(q=-2.0)) is None
    assert verdict(down(builtin("exp"), 3.0), _Spec(c=1.0)) is None  # exp moments of images
    assert verdict(down(builtin("exp"), 2.0), _Spec(q=-0.5)) is None  # s = -ln f vanishes inside


# ------------------------------------------- the bench thresholds, both sides


def _value_or_nonconvergent(measure, reference):
    """On the converging side the quadrature may not reach 1e-10 so close
    to a threshold; it may then say NonConvergent, never DivergentIntegral."""
    try:
        got = measure()
    except NonConvergent:
        return
    assert got == pytest.approx(float(reference()), rel=1e-8, abs=0.0)


@pytest.mark.parametrize("eta", [3.001, 2.999])
def test_sigma2_of_pareto_at_eta_3(eta):
    f = builtin("pareto", {"eta": eta})
    if eta < 3.0:
        with pytest.raises(DivergentIntegral, match="edge x = inf"):
            typical_deviation(f, 2.0)
        return
    assert verdict(f, _Spec(q=2.0)) is True
    with mp.workdps(30):
        # int_1^inf x^2 (eta-1) x^-eta dx = (eta-1)/(eta-3)
        e = mp.mpf(eta)
        _value_or_nonconvergent(lambda: typical_deviation(f, 2.0), lambda: mp.sqrt((e - 1) / (e - 3)))


@pytest.mark.parametrize("lam", [1.499, 1.501])
def test_renyi_of_down_gg_at_lambda_1_5(lam):
    # N_lam of down(g_{1.5,1.5}, 2) is (int f^{2 lam - 1} |f'|^{1-lam})^{1/(1-lam)};
    # f = A (1 - x^3/2)^2 and |f'| = 3 A x^2 (1 - x^3/2), so |f'|^{1-lam} ~ x^{2(1-lam)} at 0
    img = down(gg_density(1.5, 1.5), 2.0)
    if lam > 1.5:
        with pytest.raises(DivergentIntegral, match="edge x = 0.0"):
            renyi_power(img, lam)
        return
    assert verdict(img, _Spec(m=lam - 1.0)) is True

    def ref():
        with mp.workdps(30):
            L = mp.mpf(lam)
            # with w = x^3/2: int x^{2(1-L)} (1-w)^{3L-1} dx = 2^{(3-2L)/3}/3 B((3-2L)/3, 3L)
            A = 1 / (mp.mpf(2) ** (mp.mpf(1) / 3) / 3 * mp.beta(mp.mpf(1) / 3, 3))
            core = mp.mpf(2) ** ((3 - 2 * L) / 3) / 3 * mp.beta((3 - 2 * L) / 3, 3 * L)
            return (A**L * 3 ** (1 - L) * core) ** (1 / (1 - L))

    assert 2.0 * gg_normalization(1.5, 1.5) == pytest.approx(
        float(1 / (mp.mpf(2) ** (mp.mpf(1) / 3) / 3 * mp.beta(mp.mpf(1) / 3, 3))), rel=1e-14, abs=0.0
    )
    _value_or_nonconvergent(lambda: renyi_power(img, lam), ref)


@pytest.mark.parametrize("q", [0.999, 1.001])
def test_fisher_zero_of_gg_at_q_1(q):
    # g_{2,0.7}: f = A (1 + 0.3 x^2)^{-1/0.3}, |f'| = 2 A x (1 + 0.3 x^2)^{-13/3}, so
    # f^{1-2q} |f'|^q = A^{1-q} 2^q x^q (1 + 0.3 x^2)^{-e}, e = 10/3 - 7q/3
    f = gg_density(2.0, 0.7)
    if q > 1.0:
        with pytest.raises(DivergentIntegral, match="edge x = inf"):
            fisher_zero(f, q)
        return
    assert verdict(f, _Spec(m=-2.0 * q, n=q)) is True

    def ref():
        with mp.workdps(30):
            Q, c = mp.mpf(q), mp.mpf(3) / 10
            A = 2 * mp.sqrt(c) / mp.beta(mp.mpf(1) / 2, 1 / c - mp.mpf(1) / 2)
            e = mp.mpf(10) / 3 - 7 * Q / 3
            # int_0^inf x^q (1 + c x^2)^-e dx = c^{-(q+1)/2} B((q+1)/2, e - (q+1)/2) / 2
            return A ** (1 - Q) * 2**Q * c ** (-(Q + 1) / 2) * mp.beta((Q + 1) / 2, e - (Q + 1) / 2) / 2

    _value_or_nonconvergent(lambda: fisher_zero(f, q), ref)


@pytest.mark.parametrize("p, lam", [(2.0, 0.7), (2.5, 0.1), (4.0, 0.3), (5.0, 0.3)])
def test_fisher_zero_at_q_1_sits_on_the_log_threshold(p, lam):
    # f^-1 |f'| ~ x^-1 at infinity for every g_{p,lambda} with lambda < 1; in
    # floats the exponent of the last three reads -1 only to within an ulp
    with pytest.raises(DivergentIntegral, match="E = -1, log power 0"):
        fisher_zero(gg_density(p, lam), 1.0)


# ---------------------------------------------------------- failures named


def test_divergence_names_edge_monomial_and_exponents():
    with pytest.raises(DivergentIntegral) as info:
        renyi_power(down(gg_density(1.5, 1.5), 2.0), 1.5)
    msg = str(info.value)
    assert "edge x = 0.0" in msg and "f^2 |f'|^-0.5" in msg
    assert "E = -1, log power 0, B = 0" in msg
    with pytest.raises(DivergentIntegral) as info:
        exp_moment(builtin("exp"), -2.0)
    assert "exp(2 x)" in str(info.value) and "B = -1" in str(info.value)


def test_a_heuristic_that_contradicts_the_forms_is_nonconvergent():
    # sigma_2 of exp(rate=1e-30) is sqrt(2) 1e30: its partial sums pass the
    # quadrature's overflow threshold, which alone would call it divergent
    f = builtin("exp", {"rate": 1e-30})
    with pytest.raises(NonConvergent, match=r"partial sums exceed overflow threshold on \(0.0, inf\)"):
        typical_deviation(f, 2.0)
    with pytest.raises(DivergentIntegral, match="overflow threshold"):
        typical_deviation(dataclasses.replace(f, edge_forms=None), 2.0)


def test_fisher_integral_of_uniform_is_left_to_the_quadrature():
    uniform = builtin("uniform")
    assert fisher_integral(uniform, 2.0, 1.0) == 0.0
    with pytest.raises(DivergentIntegral):
        fisher_integral(uniform, -2.0, 1.0)


# --------------------------------------------------------------- fisher_sup


@pytest.mark.parametrize(
    "f, lam",
    [
        (gg_density(4.0, 0.85), 0.3),
        (gg_density(4.0, 0.85), 0.5),
        (builtin("pareto", {"eta": 3.0}), 0.3),
        (gg_density(3.0, 1.0), 0.3),
        (builtin("powerlaw", {"a": -0.5}), 2.0),
    ],
)
def test_fisher_sup_grows_toward_an_edge(f, lam):
    # |f^{lam-2} f'| ~ t^{(lam-2) a + b} exp(-(lam-1) B t^-k) grows toward infinity
    # (toward 0 for powerlaw), where the clustered grid ends at a finite value
    with pytest.raises(Unbounded, match="from its edge forms"):
        fisher_sup(f, lam)


def test_fisher_sup_reads_a_finite_edge_limit():
    # |f^{lam-2} f'| = r^lam e^{-(lam-1) r x} has its supremum r^lam at the edge 0
    rate, lam = 1.3, 2.1
    assert fisher_sup(builtin("exp", {"rate": rate}), lam) == pytest.approx(rate**lam, rel=1e-12, abs=0.0)
    bare = dataclasses.replace(builtin("exp", {"rate": rate}), edge_forms=None)
    assert fisher_sup(bare, lam) == fisher_sup(builtin("exp", {"rate": rate}), lam)
    assert np.isfinite(fisher_sup(gg_density(2.0, 1.5), 2.0))
