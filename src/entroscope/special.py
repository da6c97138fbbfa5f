"""Stretched deformed Gaussians, generalized trigonometric functions,
incomplete-Gamma machinery, and closed-form down/up images of the family.

The family g_{p,lambda}(x) = a_{p,lambda} * exp_{2-lambda}(-|x|^{p*}) is the
minimizer of the biparametric Stam and moment-entropy inequalities.  Three
construction modes are supported:

* ``half``  - restriction to (0, edge) rescaled to unit mass (doubled),
* ``sym``   - symmetric density on (-edge, edge) with unit mass,
* ``paper`` - bare restriction to (0, edge) carrying mass 1/2.

Every member, mirror_gg's sign-flipped one included, comes from one kernel
A (1 - sign (lambda-1) x^{p*})_+^{1/(lambda-1)}, and every Beta constant from
scipy.special.  Closed-form transform images below are parameterized by the
actual amplitude of the input, so they are exact for every mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import beta, gammaincc, gammainccinv
from scipy.special import gamma as _gamma_fn

from .core import Density, Support, _pointwise, _solve, integrate
from .errors import DivergentIntegral, InvalidParams, OutOfDomain, OutOfRange
from .measures import _SHANNON_WINDOW, holder_conjugate

__all__ = [
    "exp_lambda",
    "GGParams",
    "gg_normalization",
    "gg_density",
    "gg_support_edge",
    "mirror_gg",
    "arcsin_gen",
    "sin_gen",
    "arcsinh_gen",
    "sinh_gen",
    "inc_gamma_upper",
    "inv_inc_gamma_upper",
    "down_of_gg",
    "up_of_gg",
]

_QUAD_TOL = 1e-12  # relative tolerance of arcsin_gen and arcsinh_gen
_INV_TOL = 1e-11  # relative tolerance of sin_gen and sinh_gen
_GAMMA_REL = 1e-10  # largest relative error bound inc_gamma_upper returns
_EPS = np.finfo(float).eps


def exp_lambda(lam: float, x) -> float:
    """Generalized Tsallis exponential (1 + (1-lambda) x)_+^{1/(1-lambda)};
    the window |lambda - 1| < 1e-9 routes to exp."""
    if abs(lam - 1.0) < _SHANNON_WINDOW:
        return np.exp(x) if not np.isscalar(x) else math.exp(x)
    base = 1.0 + (1.0 - lam) * np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        out = np.where(base > 0.0, np.where(base > 0.0, base, 1.0) ** (1.0 / (1.0 - lam)), 0.0)
    return float(out) if np.isscalar(x) else out


def gg_support_edge(p: float, lam: float) -> float:
    """Upper edge of the positive half of the support of g_{p,lambda}."""
    if lam <= 1.0:
        return math.inf
    if p == 0:
        return 1.0
    return (lam - 1.0) ** (-1.0 / holder_conjugate(p))


def _check_gg_domain(p: float, lam: float) -> None:
    if p == 1:
        raise OutOfDomain("g_{p,lambda} requires p != 1 (the p -> 1 limit is a uniform density)")
    if p == 0:
        if not lam > 1:
            raise OutOfDomain("the p = 0 family member requires lambda > 1")
        return
    ps = holder_conjugate(p)
    if not ps > 0:
        raise OutOfDomain(f"g_{{p,lambda}} requires p > 1 or p < 0 (p* > 0); got p = {p}")
    if not lam > 1.0 - ps:
        raise OutOfDomain(f"integrability requires lambda > 1 - p* = {1.0 - ps}; got {lam}")


def gg_normalization(p: float, lam: float) -> float:
    """Normalization constant a_{p,lambda} (Beta/Gamma closed form)."""
    _check_gg_domain(p, lam)
    return _gg_constant(p, lam)


def _gg_constant(p: float, lam: float) -> float:
    """a_{p,lambda} unchecked, its Beta form continued formally to mirrored members."""
    if p == 0:
        return 1.0 / (2.0 * _gamma_fn(lam / (lam - 1.0)))
    ps = holder_conjugate(p)
    if abs(lam - 1.0) < _SHANNON_WINDOW:
        return ps / (2.0 * _gamma_fn(1.0 / ps))
    second = lam / abs(1.0 - lam) + (1.0 / p if 1.0 - lam > 0 else 0.0)
    return ps * abs(1.0 - lam) ** (1.0 / ps) / (2.0 * beta(1.0 / ps, second))


@dataclass(frozen=True)
class GGParams:
    """Parameter pair (p, lambda) with its derived quantities."""

    p: float
    lam: float

    def __post_init__(self) -> None:
        _check_gg_domain(self.p, self.lam)

    @property
    def pstar(self) -> float:
        return holder_conjugate(self.p)

    @property
    def a(self) -> float:
        return gg_normalization(self.p, self.lam)

    @property
    def support_edge(self) -> float:
        return gg_support_edge(self.p, self.lam)


def _gg_halfline_callables(p: float, lam: float, amplitude: float, sign: float = 1.0):
    """(value, f', f'', level inverter) of A (1 - sign (lambda-1) x^{p*})_+^{1/(lambda-1)}
    on (0, edge): sign = 1 is g_{p,lambda}, sign = -1 its mirror for lambda < 1."""
    A = amplitude
    if p == 0:
        c = 1.0 / (lam - 1.0)

        def val(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(all="ignore"):
                u = -np.log(x)
                return A * np.where(u > 0, np.where(u > 0, u, 1.0) ** c, 0.0)

        def der(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(all="ignore"):
                u = -np.log(x)
                return -A * c * u ** (c - 1.0) / x

        def sec(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(all="ignore"):
                u = -np.log(x)
                return A * c / x**2 * ((c - 1.0) * u ** (c - 2.0) + u ** (c - 1.0))

        inv = lambda y: math.exp(-((y / A) ** (1.0 / c)))
        return val, der, sec, inv

    ps = holder_conjugate(p)
    if abs(lam - 1.0) < _SHANNON_WINDOW:

        def val(x):
            x = np.asarray(x, dtype=float)
            return A * np.exp(-(x**ps))

        def der(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(all="ignore"):
                return -A * ps * x ** (ps - 1.0) * np.exp(-(x**ps))

        def sec(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(all="ignore"):
                return A * ps * x ** (ps - 2.0) * np.exp(-(x**ps)) * (ps * x**ps - (ps - 1.0))

        inv = lambda y: math.log(A / y) ** (1.0 / ps)
        return val, der, sec, inv

    lm1 = lam - 1.0
    c = sign * lm1  # B = 1 - c x^{p*}, e c = sign with e = 1/(lambda-1)
    m = (2.0 - lam) / lm1  # exponent of B in the derivative

    if c > 0:
        edge = c ** (-1.0 / ps)

        def _B(x):
            # 1 - c x^{p*} = -expm1(p* log(x/edge)): exact up to the
            # support edge, where the naive form cancels catastrophically
            with np.errstate(all="ignore"):
                return -np.expm1(ps * (np.log(x) - math.log(edge)))

    else:

        def _B(x):
            return 1.0 - c * x**ps

    def val(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            b = _B(x)
            return A * np.where(b > 0, np.where(b > 0, b, 1.0) ** (1.0 / lm1), 0.0)

    # derivative limit at the support edge (B = 0): 0 for m > 0, the finite
    # -A p* x^{ps-1} for m = 0 (lambda = 2), divergent for m < 0
    if m > 0:
        edge_der = lambda x: np.zeros_like(x)
    elif m == 0:
        edge_der = lambda x: -A * ps * x ** (ps - 1.0)
    else:
        edge_der = lambda x: np.full_like(x, -sign * np.inf)

    def der(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            b = _B(x)
            good = b > 0
            return np.where(
                good, -sign * A * ps * x ** (ps - 1.0) * np.where(good, b, 1.0) ** m, edge_der(x)
            )

    def sec(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            b = _B(x)
            good = b > 0
            bb = np.where(good, b, 1.0)
            return np.where(
                good,
                -sign * A * ps * x ** (ps - 2.0) * bb ** (m - 1.0)
                * ((ps - 1.0) * bb - sign * (2.0 - lam) * ps * x**ps),
                0.0,
            )

    def inv(y):
        b = (1.0 - (y / A) ** lm1) / c
        if not b >= 0.0:  # a fractional power of b < 0 would be nan, with a warning
            raise ValueError(f"level {y} outside the value range")
        return b ** (1.0 / ps)

    return val, der, sec, inv


def gg_density(p: float, lam: float, mode: str = "half") -> Density:
    """Stretched deformed Gaussian g_{p,lambda} as a Density.

    mode 'half' doubles the positive-half restriction to unit mass, 'sym'
    is the symmetric unit-mass density, 'paper' is the bare restriction to
    the positive half line carrying mass 1/2.
    """
    mode = mode.lower()
    if mode not in ("half", "sym", "paper"):
        raise InvalidParams(f"gg mode must be half, sym, or paper; got {mode!r}")
    _check_gg_domain(p, lam)
    edge = gg_support_edge(p, lam)
    if mode == "sym":
        val_h, der_h, sec_h, _ = _gg_halfline_callables(p, lam, gg_normalization(p, lam))

        def val(x):
            return val_h(np.abs(np.asarray(x, dtype=float)))

        def der(x):
            x = np.asarray(x, dtype=float)
            return np.sign(x) * der_h(np.abs(x))

        def sec(x):
            return sec_h(np.abs(np.asarray(x, dtype=float)))

        return Density(
            support=Support(-edge, edge),
            value=val,
            derivative=der,
            second_derivative=sec,
            label=f"gg(p={p:g},lambda={lam:g},sym)",
        )
    amp, mass = _gg_amplitude(p, lam, mode)
    val, der, sec, inv = _gg_halfline_callables(p, lam, amp)
    return Density(
        support=Support(0.0, edge),
        value=val,
        derivative=der,
        second_derivative=sec,
        monotone_decreasing=True,
        label=f"gg(p={p:g},lambda={lam:g},{mode})",
        mass=mass,
        level_inverter=inv,
    )


def mirror_gg(p: float, lam: float) -> Density:
    """Family member with the modulus-flipped deformation sign:

        a_{p,lambda} (1 - |lambda-1| t^{p*})_+^{1/(lambda-1)}  on (0, edge).

    For lambda > 1 this is the ordinary restricted member (paper mode); for
    lambda < 1 it is the formal mirrored-domain member, divergent at its
    support edge, with the Beta-formula constant continued formally.  With
    w = |lambda-1| t^{p*} the mass is A t_e B(1/p*, e+1) / p*, e = 1/(lambda-1),
    t_e the support edge: finite exactly when e > -1, so lambda in [0, 1)
    raises DivergentIntegral.
    """
    if lam == 1 or p in (0, 1):
        raise OutOfDomain("mirror_gg requires lambda != 1 and p not in {0, 1}")
    ps = holder_conjugate(p)
    if not ps > 0:
        # for p* < 0 the bracket 1 - |lambda-1| t^{p*} is negative on all of
        # (0, edge): the member vanishes and the mass formula does not apply
        raise OutOfDomain("mirror_gg requires p > 1 or p < 0 (p* > 0)")
    A = _gg_constant(p, lam)
    if not (math.isfinite(A) and A > 0):
        raise OutOfDomain(f"formal normalization constant undefined at (p, lambda) = ({p}, {lam})")
    e = 1.0 / (lam - 1.0)
    if not e > -1.0:
        raise DivergentIntegral(
            f"mirror_gg mass diverges at its support edge for lambda = {lam} (e = {e:g} <= -1)"
        )
    val, der, sec, inv = _gg_halfline_callables(p, lam, A, 1.0 if lam > 1 else -1.0)
    edge = abs(lam - 1.0) ** (-1.0 / ps)
    return Density(
        support=Support(0.0, edge),
        value=val,
        derivative=der,
        second_derivative=sec,
        monotone_decreasing=lam > 1,
        monotone_increasing=lam < 1,
        label=f"mirror_gg(p={p:g},lambda={lam:g})",
        mass=A * edge * beta(1.0 / ps, e + 1.0) / ps,
        level_inverter=inv,
    )


# ---------------------------------------------------------------------------
# generalized trigonometric / hyperbolic functions
# ---------------------------------------------------------------------------


def arcsin_gen(v: float, b: float, x: float) -> float:
    """arcsin_{v,b}(x) = int_0^x (1 - t^b)^{-1/v} dt for x in [0, 1]."""
    if not b > 0 or v == 0:
        raise OutOfDomain("arcsin_gen requires b > 0 and v != 0")
    if not 0.0 <= x <= 1.0:
        raise OutOfDomain(f"arcsin_gen argument must lie in [0, 1]; got {x}")
    if x == 0.0:
        return 0.0

    def integrand(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(all="ignore"):
            return (1.0 - t**b) ** (-1.0 / v)

    if x < 0.75:
        return integrate(integrand, Support(0.0, x), tol=_QUAD_TOL).value

    # split so the (possibly singular) edge t = 1 becomes an origin in the
    # substituted variable u = 1 - t, where 1 - (1-u)^b = -expm1(b log1p(-u))
    # is free of cancellation
    def integrand_sub(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(all="ignore"):
            return (-np.expm1(b * np.log1p(-u))) ** (-1.0 / v)

    head = integrate(integrand, Support(0.0, 0.5), tol=_QUAD_TOL / 2).value
    tail = integrate(integrand_sub, Support(1.0 - x, 0.5), tol=_QUAD_TOL / 2).value
    return head + tail


def _arcsin_quarter(v: float, b: float) -> float:
    """Quarter period arcsin_{v,b}(1) = B(1/b, 1 - 1/v) / b, infinite when 1/v >= 1."""
    return float(beta(1.0 / b, 1.0 - 1.0 / v)) / b if 1.0 / v < 1.0 else math.inf


def sin_gen(v: float, b: float, y: float) -> float:
    """Principal-branch inverse of arcsin_gen: sin_{v,b}(y) in [0, 1]."""
    if not b > 0 or v == 0:
        raise OutOfDomain("sin_gen requires b > 0 and v != 0")
    ymax = _arcsin_quarter(v, b)
    if y < -_INV_TOL or y > ymax * (1.0 + 1e-12) + _INV_TOL:
        raise OutOfDomain(f"sin_gen argument {y} outside principal branch [0, {ymax}]")
    y = min(max(y, 0.0), ymax)
    if y == 0.0:
        return 0.0

    def dg(t):
        base = 1.0 - t**b
        if base <= 0.0:
            return math.inf
        return base ** (-1.0 / v)

    # both ends are known, the quarter period infinite when its integral diverges
    g = lambda t: arcsin_gen(v, b, t)
    return _solve(g, y, (0.0, 1.0), (0.0, ymax), (0.0, 1.0), _INV_TOL, dg)


def arcsinh_gen(v: float, b: float, x: float) -> float:
    """arcsinh_{v,b}(x) = int_0^x (1 + t^b)^{-1/v} dt for x >= 0."""
    if not b > 0 or v == 0:
        raise OutOfDomain("arcsinh_gen requires b > 0 and v != 0")
    if x < 0:
        raise OutOfDomain("arcsinh_gen requires x >= 0")
    if x == 0.0:
        return 0.0

    def integrand(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(all="ignore"):
            return (1.0 + t**b) ** (-1.0 / v)

    return integrate(integrand, Support(0.0, x), tol=_QUAD_TOL).value


def _arcsinh_limit(v: float, b: float) -> float:
    """Limit arcsinh_{v,b}(inf) = B(1/b, 1/v - 1/b) / b, finite iff b/v > 1."""
    return float(beta(1.0 / b, 1.0 / v - 1.0 / b)) / b if b / v > 1.0 else math.inf


def sinh_gen(v: float, b: float, y: float) -> float:
    """Inverse of arcsinh_gen on its range."""
    if not b > 0 or v == 0:
        raise OutOfDomain("sinh_gen requires b > 0 and v != 0")
    if y < 0:
        raise OutOfDomain("sinh_gen requires y >= 0")
    if y == 0.0:
        return 0.0
    ylim = _arcsinh_limit(v, b)
    if y >= ylim:
        raise OutOfDomain(f"sinh_gen argument {y} beyond range limit {ylim}")

    def dg(t):
        with np.errstate(all="ignore"):
            return (1.0 + t**b) ** (-1.0 / v)

    # past t = 1 the solve marches out from the value there
    g = lambda t: arcsinh_gen(v, b, t)
    x = _solve(g, y, (0.0, 1.0), (0.0, g(1.0)), (0.0, math.inf), _INV_TOL, dg)
    if x is None:
        raise OutOfDomain(f"sinh_gen argument {y} not reached by arcsinh_gen")
    return x


# ---------------------------------------------------------------------------
# incomplete Gamma
# ---------------------------------------------------------------------------

def inc_gamma_upper(a: float, x: float) -> float:
    """Upper incomplete Gamma(a, x) = int_x^inf t^{a-1} e^{-t} dt.

    scipy's regularized gammaincc times Gamma(a) for a > 0; non-positive
    non-integer orders are lifted by the recursion
    Gamma(a, x) = (Gamma(a+1, x) - x^a e^{-x}) / a, which raises OutOfRange
    where its cancellation leaves a relative error bound above _GAMMA_REL.
    """
    if x < 0:
        raise OutOfRange("inc_gamma_upper requires x >= 0")
    if a <= 0 and abs(a - round(a)) < 1e-14:
        raise OutOfRange("inc_gamma_upper: order must not be a non-positive integer")
    if a <= 0:
        if x == 0:
            raise OutOfRange("Gamma(a, 0) diverges for a <= 0")
        n = int(math.ceil(-a)) + 1
        g = inc_gamma_upper(a + n, x)
        lx = math.log(x)
        err = _EPS  # relative error bound of g
        for j in range(n - 1, -1, -1):
            aj = a + j
            t = math.exp(-x + aj * lx)
            # t carries the rounding of its exponent; the difference g - t
            # amplifies both errors by the cancellation
            err_t = _EPS * (1.0 + x + abs(aj * lx))
            err = (err * abs(g) + err_t * t) / max(abs(g - t), math.ulp(0.0)) + _EPS
            g = (g - t) / aj
        if err > _GAMMA_REL:
            raise OutOfRange(
                f"Gamma({a}, {x}): the recursion from order {a + n} cancels "
                f"(relative error bound {err:.1e})"
            )
        return g
    return float(gammaincc(a, x) * _gamma_fn(a))


def inv_inc_gamma_upper(a: float, y: float) -> float:
    """Inverse of x -> Gamma(a, x) (strictly decreasing) for a > 0, by
    scipy's gammainccinv of y / Gamma(a)."""
    if not a > 0:
        raise OutOfRange("inv_inc_gamma_upper requires order a > 0")
    if not y > 0:
        raise OutOfRange("inv_inc_gamma_upper requires y > 0")
    top = _gamma_fn(a)
    if y > top * (1.0 + 1e-12):
        raise OutOfRange(f"y = {y} above Gamma({a}) = {top}")
    if y >= top:
        return 0.0
    return float(gammainccinv(a, y / top))


# ---------------------------------------------------------------------------
# closed-form down/up images of g_{p,lambda}
# ---------------------------------------------------------------------------


def _gg_amplitude(p: float, lam: float, mode: str) -> tuple[float, float]:
    """(amplitude, mass) of the half-line representation used by transforms."""
    a = gg_normalization(p, lam)
    mode = mode.lower()
    if mode == "half":
        return 2.0 * a, 1.0
    if mode == "paper":
        return a, 0.5
    raise InvalidParams("closed-form transforms operate on half or paper mode")


def down_of_gg(p: float, lam: float, alpha: float, mode: str = "half") -> Density:
    """Closed-form density of the alpha-order down transform of g_{p,lambda}.

    The four analytic branches (generic, lambda=1, alpha=2, both) are exact
    in the canonical variable; they cross-validate the numeric transform.
    """
    if p == 0:
        raise OutOfDomain("closed-form down images require p != 0")
    A, mass = _gg_amplitude(p, lam, mode)
    ps = holder_conjugate(p)
    lam1 = abs(lam - 1.0) < _SHANNON_WINDOW
    if alpha != 2:
        s_lo = A ** (2.0 - alpha) / (alpha - 2.0)
        s_hi = 0.0 if alpha < 2 else math.inf
        sup = Support(s_lo, s_hi)
        if lam1:

            def val(s):
                s = np.asarray(s, dtype=float)
                with np.errstate(all="ignore"):
                    X = (alpha - 2.0) * s
                    logterm = np.log(A ** (alpha - 2.0) * X) / (alpha - 2.0)
                    return (1.0 / ps) * X ** ((alpha - 1.0) / (2.0 - alpha)) * logterm ** (-1.0 / p)

        else:
            C = abs(1.0 - lam) ** (1.0 / p) / (A ** ((lam - 1.0) / ps) * ps)

            def val(s):
                s = np.asarray(s, dtype=float)
                with np.errstate(all="ignore"):
                    X = (alpha - 2.0) * s
                    return (
                        C
                        * X ** ((alpha + lam - 2.0) / (2.0 - alpha))
                        * np.abs(X ** ((lam - 1.0) / (2.0 - alpha)) - A ** (lam - 1.0))
                        ** (-1.0 / p)
                    )

    else:
        sup = Support(-math.log(A), math.inf)
        if lam1:

            def val(s):
                s = np.asarray(s, dtype=float)
                with np.errstate(all="ignore"):
                    return np.exp(-s) / (ps * (s + math.log(A)) ** (1.0 / p))

        else:
            C = abs(1.0 - lam) ** (1.0 / p) * A ** (1.0 - lam) / ps

            def val(s):
                s = np.asarray(s, dtype=float)
                with np.errstate(all="ignore"):
                    return (
                        C
                        * np.exp(-lam * s)
                        * np.abs(A ** (1.0 - lam) * np.exp((1.0 - lam) * s) - 1.0) ** (-1.0 / p)
                    )

    return Density(
        support=sup,
        value=val,
        label=f"down_of_gg(p={p:g},lambda={lam:g},alpha={alpha:g},{mode})",
        mass=mass,
    )


def up_of_gg(p: float, lam: float, alpha: float, mode: str = "half"):
    """Closed-form density of the alpha-order up transform of g_{p,lambda}.

    Generalized sine form for lambda > 1, hyperbolic form for lambda < 1,
    inverse incomplete Gamma for lambda = 1, each valid for alpha outside
    [1, 2].  Inside [1, 2] no closed form exists and the numeric transform
    is returned instead (a TransformedDensity, which flags the fallback).
    """
    if p == 0:
        raise OutOfDomain("closed-form up images require p != 0")
    _check_gg_domain(p, lam)
    if 1.0 <= alpha <= 2.0:
        from .transforms import up

        return up(gg_density(p, lam, mode=mode), alpha)
    A, mass = _gg_amplitude(p, lam, mode)
    ps = holder_conjugate(p)
    a2 = alpha - 2.0
    pref = abs(a2) ** (1.0 / (2.0 - alpha))

    if abs(lam - 1.0) < _SHANNON_WINDOW:
        cg = (alpha - 1.0) / (a2 * ps)
        K = (A / ps) * abs(a2) ** (1.0 / a2)
        length = K * _gamma_fn(cg)
        sup = Support(0.0, length)

        def x_of_s(s: float) -> float:
            return inv_inc_gamma_upper(cg, s / K) ** (1.0 / ps)

    else:
        m = abs(lam - 1.0) ** (1.0 / ps)
        b = (a2 / (alpha - 1.0)) * ps
        C = A * abs(a2) ** (1.0 / a2) * a2 / ((alpha - 1.0) * m ** ((alpha - 1.0) / a2))
        exq = a2 / (alpha - 1.0)
        v = 1.0 - lam
        if lam > 1:
            y_quarter = _arcsin_quarter(v, b)
            sup = Support(0.0, C * y_quarter)

            def x_of_s(s: float) -> float:
                y = y_quarter - s / C
                return sin_gen(v, b, y) ** exq / m

        else:
            ylim = _arcsinh_limit(v, b)
            if math.isfinite(ylim):
                sup = Support(0.0, C * ylim)

                def x_of_s(s: float) -> float:
                    y = ylim - s / C
                    return sinh_gen(v, b, y) ** exq / m

            else:
                sup = Support(-math.inf, 0.0)

                def x_of_s(s: float) -> float:
                    return sinh_gen(v, b, -s / C) ** exq / m

    def val(s: float) -> float:
        return pref * x_of_s(s) ** (1.0 / (2.0 - alpha))

    return Density(
        support=sup,
        value=_pointwise(val),
        label=f"up_of_gg(p={p:g},lambda={lam:g},alpha={alpha:g},{mode})",
        mass=mass,
    )
