"""Stretched deformed Gaussians, generalized trigonometric functions,
incomplete-Gamma machinery, and closed-form down/up images of the family.

The family g_{p,lambda}(x) = a_{p,lambda} * exp_{2-lambda}(-|x|^{p*}) is the
minimizer of the biparametric Stam and moment-entropy inequalities.  Three
construction modes are supported:

* ``half``  - restriction to (0, edge) rescaled to unit mass (doubled),
* ``sym``   - symmetric density on (-edge, edge) with unit mass,
* ``paper`` - bare restriction to (0, edge) carrying mass 1/2.

Every member, mirror_gg's sign-flipped one included, comes from one kernel
A (1 - sign (lambda-1) x^{p*})_+^{1/(lambda-1)}.  Gamma is math.gamma
(`_gamma`) and every Beta constant Gamma(s)/(Gamma(l+s)/Gamma(l))
(`_gamma_ratio`).  scipy.special is imported only inside inc_gamma_upper,
inv_inc_gamma_upper and `_gammainccinv`, when one of them first runs; of
the rest, only the values of up_of_gg's lambda = 1 image call them.  Closed-form
transform images below are parameterized by the actual amplitude of the
input, so they are exact for every mode.
down_of_gg maps s to its source level y by one level map, the inverse of
the canonical variable, and values it by one kernel of y, whose lambda = 1
case is the limit of the others.
sin_gen, sinh_gen and the closed up images for lambda != 1 solve on a
cumulative coordinate of the generalized sine's weight (`core._Cumulative`);
arcsin_gen and arcsinh_gen stay plain quadratures, an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Density, EdgeForm, Support, _Cumulative, _curvature_fields, _distinct, _pointwise,
                   _segment_masses, integrate)
from .errors import DivergentIntegral, EdgeIllConditioned, InvalidParams, OutOfDomain, OutOfRange
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
_INV_TOL = 1e-11  # slack of sin_gen's principal-branch check
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
        return 1.0 / (2.0 * _gamma(lam / (lam - 1.0)))
    ps = holder_conjugate(p)
    if abs(lam - 1.0) < _SHANNON_WINDOW:
        return ps / (2.0 * _gamma(1.0 / ps))
    second = lam / abs(1.0 - lam) + (1.0 / p if 1.0 - lam > 0 else 0.0)
    # 1/B(1/p*, second) = Gamma(second + 1/p*)/Gamma(second)/Gamma(1/p*): scipy's beta is 2.4e-10 off at (1.5, 1 - 1e-5)
    return ps * abs(1.0 - lam) ** (1.0 / ps) * _gamma_ratio(second, 1.0 / ps) / (2.0 * _gamma(1.0 / ps))


def _stirling_tail(z: float) -> float:
    """The terms of Stirling's series for ln Gamma(z) after (z - 1/2) ln z
    - z + ln(2 pi)/2, through z^-11.  The first term left out, 1/(156 z^13),
    changes by at most 2.9e-18 a between z = b and b + a for b >= 15."""
    w = 1.0 / (z * z)
    inner = 1.0 / 1680.0 - w * (1.0 / 1188.0 - w * 691.0 / 360360.0)
    return (1.0 / 12.0 - w * (1.0 / 360.0 - w * (1.0 / 1260.0 - w * inner))) / z


def _gamma_ratio(b: float, a: float) -> float:
    """Gamma(b + a)/Gamma(b) for a, b > 0.  Gamma(z + 1) = z Gamma(z) takes a
    below 1 and b up past 15 in exact integer products (b = P/Q, and
    a - n = R/S with S <= 2^64, exact from a - n >= 2^-11 on), rounded once
    at their division; below b = 1 a float step b/(b + a) comes first, so
    that Q stays below 2^52.  The rest, at b >= 15 and a < 1, is b^a exp(r),
    r the difference of Stirling's series at b + a and at b less a ln b,
    (b + a - 1/2) log1p(a/b) - a + (tail terms).  Within 8e-16 of mpmath for
    b in (1e-3, 300) and a in (1e-3, 120); where the products would pass
    2^1000, the shift factors are float products and a is not reduced.
    This replaces scipy's poch, up to 2.1e-15 off below b = 6."""
    n = int(a)
    if n * math.log2(b + a) < 1000.0:
        head = 1.0
        if b < 1.0:
            head, b = b / (b + a), b + 1.0
        m = max(0, math.ceil(15.0 - b))
        P, Q = float(b).as_integer_ratio()
        R, S = float(a - n).as_integer_ratio()
        if S > 1 << 64:
            R, S = round(math.ldexp(a - n, 64)), 1 << 64
        # in units of 1/step: b + k from P S, b + (a - n) + k from x
        step, x = Q * S, P * S + R * Q
        num = math.prod(range(P * S, P * S + m * step, step)) * math.prod(range(x, x + n * step, step))
        den = math.prod(range(x, x + m * step, step)) * step**n
        return head * (num / den) * _stirling_ratio(b + m, a - n)
    shift = 1.0
    while b < 15.0:
        shift *= b / (b + a)
        b += 1.0
    return shift * _stirling_ratio(b, a)


def _stirling_ratio(b: float, a: float) -> float:
    """Gamma(b + a)/Gamma(b) by Stirling's series, for b >= 15."""
    r = (b + a - 0.5) * math.log1p(a / b) - a + _stirling_tail(b + a) - _stirling_tail(b)
    return b**a * math.exp(r)


def _gamma(x: float) -> float:
    """Gamma(x) by math.gamma, with scipy's values where it raises: inf
    where it overflows (sign of x), +-inf at +-0, nan at negative integers."""
    try:
        return math.gamma(x)
    except OverflowError:
        return math.copysign(math.inf, x)
    except ValueError:
        return math.copysign(math.inf, x) if x == 0 else math.nan


def _beta(x: float, y: float) -> float:
    """B(x, y) = Gamma(s)/(Gamma(l + s)/Gamma(l)) for x, y > 0, s <= l their
    order: the ratio the gg constant uses."""
    s, l = min(x, y), max(x, y)
    return _gamma(s) / _gamma_ratio(l, s)


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


def _gg_edge_forms(p: float, lam: float, edge: float, sym: bool = False):
    """EdgeForms of the half-line member A (1 - (lambda-1) x^{p*})_+^{1/(lambda-1)}
    at 0 and at its upper edge, and at the mirrored lower edge when `sym`:
    f -> A and |f'| ~ x^{p*-1} at 0; at infinity f ~ x^{-p*/(1-lambda)}
    (lambda < 1) or exp(-x^{p*}) (lambda = 1); at a finite edge
    f ~ t^{1/(lambda-1)} (lambda > 1).  None for p = 0 (logarithmic forms),
    and just above lambda = 1, where the exp form stands on a finite support."""
    if p == 0 or (abs(lam - 1.0) < _SHANNON_WINDOW and math.isfinite(edge)):
        return None
    ps = holder_conjugate(p)
    if abs(lam - 1.0) < _SHANNON_WINDOW:
        upper = EdgeForm(edge, 0.0, 1.0 - ps, B=1.0, k=ps)
    elif lam < 1.0:
        upper = EdgeForm(edge, ps / (1.0 - lam), ps / (1.0 - lam) + 1.0)
    else:
        upper = EdgeForm(edge, 1.0 / (lam - 1.0), 1.0 / (lam - 1.0) - 1.0)
    zero = EdgeForm(0.0, 0.0, ps - 1.0)
    if sym:
        return EdgeForm(-edge, upper.a, upper.b, upper.B, upper.k), zero, upper
    return zero, upper


def _gg_curvature(p: float, lam: float) -> dict:
    """Curvature fields of g at |x| (none for p = 0): f f''/f'^2 =
    (2 - lambda) - ((p*-1)/p*) (x^{-p*} - (lambda-1)), lambda = 1 in the exp
    window; x^{-p*} is lambda - 1 at a finite upper edge."""
    if p == 0:
        return {}
    ps = holder_conjugate(p)
    c, lm1 = (ps - 1.0) / ps, 0.0 if abs(lam - 1.0) < _SHANNON_WINDOW else lam - 1.0
    return _curvature_fields(1.0 - lm1 + c * lm1, c, ps, max(lam - 1.0, 0.0))


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
            edge_forms=_gg_edge_forms(p, lam, edge, sym=True),
            **_gg_curvature(p, lam),
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
        edge_forms=_gg_edge_forms(p, lam, edge),
        **_gg_curvature(p, lam),
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
        mass=A * edge * _beta(1.0 / ps, e + 1.0) / ps,
        level_inverter=inv,
    )


# ---------------------------------------------------------------------------
# generalized trigonometric / hyperbolic functions
# ---------------------------------------------------------------------------


def _gen_sine_coordinate(v: float, b: float, hyperbolic: bool, anchor: str = "") -> _Cumulative:
    """Cumulative coordinate of the arcsinh_gen weight (1 + t^b)^{-1/v} on
    (0, inf), or of the arcsin_gen weight (-expm1(b log t))^{-1/v} on (0, 1),
    on `Support.clustered(64)` knots; anchored at 0, u = -arcsin_gen.  With the
    default anchor the arcsin_gen weight is taken in q = t - 1 on (-1, 0), so u
    near t = 1 keeps its precision (in t those pieces stall on node rounding)."""
    if hyperbolic:
        sup, base = Support(0.0, math.inf), lambda t: 1.0 + t**b
    elif anchor == "lower":
        sup, base = Support(0.0, 1.0), lambda t: -np.expm1(b * np.log(t))
    else:
        sup, base = Support(-1.0, 0.0), lambda q: -np.expm1(b * np.log1p(q))

    def w(t):
        with np.errstate(all="ignore"):
            return base(np.asarray(t, dtype=float)) ** (-1.0 / v)

    knots = _distinct(sup.clustered(64))
    return _Cumulative(w, sup, knots, _segment_masses(w, sup, knots), anchor)


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
    return _beta(1.0 / b, 1.0 - 1.0 / v) / b if 1.0 / v < 1.0 else math.inf


def sin_gen(v: float, b: float, y: float) -> float:
    """Principal-branch inverse of arcsin_gen: sin_{v,b}(y) in [0, 1], the
    solve of u = -y on its coordinate anchored at 0 (`_gen_sine_coordinate`)."""
    if not b > 0 or v == 0:
        raise OutOfDomain("sin_gen requires b > 0 and v != 0")
    ymax = _arcsin_quarter(v, b)
    if y < -_INV_TOL or y > ymax * (1.0 + 1e-12) + _INV_TOL:
        raise OutOfDomain(f"sin_gen argument {y} outside principal branch [0, {ymax}]")
    if y <= 0.0:
        return 0.0
    t = _gen_sine_coordinate(v, b, False, "lower").x_of_u(-y) if y < ymax else None
    return 1.0 if t is None else t


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
    return _beta(1.0 / b, 1.0 / v - 1.0 / b) / b if b / v > 1.0 else math.inf


def sinh_gen(v: float, b: float, y: float) -> float:
    """Inverse of arcsinh_gen on its range, the solve of u = -y on its
    coordinate anchored at 0 (`_gen_sine_coordinate`)."""
    if not b > 0 or v == 0:
        raise OutOfDomain("sinh_gen requires b > 0 and v != 0")
    if y < 0:
        raise OutOfDomain("sinh_gen requires y >= 0")
    if y == 0.0:
        return 0.0
    ylim = _arcsinh_limit(v, b)
    if y >= ylim:
        raise OutOfDomain(f"sinh_gen argument {y} beyond range limit {ylim}")
    t = _gen_sine_coordinate(v, b, True, "lower").x_of_u(-y)
    if t is None:
        raise OutOfDomain(f"sinh_gen argument {y} not reached by arcsinh_gen")
    return t


# ---------------------------------------------------------------------------
# incomplete Gamma
# ---------------------------------------------------------------------------

def inc_gamma_upper(a: float, x: float) -> float:
    """Upper incomplete Gamma(a, x) = int_x^inf t^{a-1} e^{-t} dt.

    scipy's regularized gammaincc times its gamma(a) for a > 0; non-positive
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
    from scipy.special import gamma, gammaincc

    return float(gammaincc(a, x) * gamma(a))


def inv_inc_gamma_upper(a: float, y: float) -> float:
    """Inverse of x -> Gamma(a, x) (strictly decreasing) for a > 0, by
    scipy's gammainccinv of y / Gamma(a), Gamma(a) by scipy's gamma."""
    if not a > 0:
        raise OutOfRange("inv_inc_gamma_upper requires order a > 0")
    if not y > 0:
        raise OutOfRange("inv_inc_gamma_upper requires y > 0")
    from scipy.special import gamma

    top = float(gamma(a))
    if y > top * (1.0 + 1e-12):
        raise OutOfRange(f"y = {y} above Gamma({a}) = {top}")
    if y >= top:
        return 0.0
    return _gammainccinv(a, y / top)


def _gammainccinv(a: float, q: float) -> float:
    """x with Q(a, x) = q, Q = Gamma(a, x)/Gamma(a) the regularized upper
    incomplete Gamma: scipy's gammainccinv."""
    from scipy.special import gammainccinv

    return float(gammainccinv(a, q))


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

    One level map takes s to the source level y it stands for, inverting the
    canonical variable: y = ((alpha-2) s)^{1/(2-alpha)}, or y = e^{-s} at
    alpha = 2, A the input's amplitude.  l = ln(A/y) is formed from the
    distance to the lower edge s_lo, not from the rounded y:
    log1p((s_lo - s)/s)/(2 - alpha) below alpha = 2 (|s| as the divisor, so
    l is inf at s = 0), log1p((s - s_lo)/s_lo)/(alpha - 2) above, and s - s_lo
    at alpha = 2.  One kernel values it: the source point x has
    x^{p*} = ln_lambda(A/y) = expm1((1-lambda) l) / (1-lambda), which is l at
    lambda = 1, and the value is A^{1-lambda} y^{alpha+lambda-2} (x^{p*})^{-1/p} / p*.
    Through expm1, x^{p*} does not cancel near the lower edge, as
    y^{lambda-1} - A^{lambda-1} would.  It cross-validates the numeric transform.
    """
    if p == 0:
        raise OutOfDomain("closed-form down images require p != 0")
    A, mass = _gg_amplitude(p, lam, mode)
    ps = holder_conjugate(p)
    e = 0.0 if abs(lam - 1.0) < _SHANNON_WINDOW else 1.0 - lam  # the kernel's 1 - lambda
    if alpha == 2:
        sup = Support(-math.log(A), math.inf)
        level = lambda s: (np.exp(-s), s - sup.lower)
    else:
        sup = Support(A ** (2.0 - alpha) / (alpha - 2.0), 0.0 if alpha < 2 else math.inf)

        def level(s):
            y = ((alpha - 2.0) * s) ** (1.0 / (2.0 - alpha))
            if alpha < 2:
                return y, np.log1p((s - sup.lower) / np.abs(s)) / (2.0 - alpha)
            return y, np.log1p((s - sup.lower) / sup.lower) / (alpha - 2.0)

    def val(s):
        with np.errstate(all="ignore"):
            y, ell = level(np.asarray(s, dtype=float))
            t = np.abs(ell if e == 0.0 else np.expm1(e * ell) / e)  # |t|: y may round past A
            return A**e / ps * y ** (alpha - 1.0 - e) * t ** (-1.0 / p)

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
    For lambda != 1 the value at s is read at the t with u(t) = s / C on one
    default-anchored `_gen_sine_coordinate`, built here, so no quarter period
    or range limit minus s / C cancels; the support is C times its own.
    For lambda = 1 the support has length K Gamma(cg); where Gamma(cg)
    overflows, the length and the regularized argument s / (K Gamma(cg)) of
    the inverse are formed in log space with lgamma.
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
    try:
        pref = abs(a2) ** (1.0 / (2.0 - alpha))
    except OverflowError as exc:  # alpha just above 2
        raise OutOfRange(f"up_of_gg: |alpha-2|^(1/(2-alpha)) overflows at alpha = {alpha}") from exc

    if abs(lam - 1.0) < _SHANNON_WINDOW:
        cg = (alpha - 1.0) / (a2 * ps)
        K = (A / ps) * abs(a2) ** (1.0 / a2)
        gamma_cg = _gamma(cg)
        if math.isinf(gamma_cg) and K > 0:
            # the length K Gamma(cg) and the regularized argument s / length in log space
            log_length = math.log(K) + math.lgamma(cg)
            length = math.exp(log_length) if log_length < 709.0 else math.inf

            def x_of_s(s: float) -> float:
                q = math.exp(math.log(s) - log_length) if s > 0 else 0.0
                if not 0.0 < q <= 1.0 + 1e-12:
                    raise OutOfRange(f"up_of_gg coordinate {s} outside (0, {length})")
                return (_gammainccinv(cg, q) if q < 1.0 else 0.0) ** (1.0 / ps)

        else:
            length = K * gamma_cg  # nan (InvalidParams) where K is 0 and Gamma(cg) inf

            def x_of_s(s: float) -> float:
                return inv_inc_gamma_upper(cg, s / K) ** (1.0 / ps)

        sup = Support(0.0, length)

    else:
        m = abs(lam - 1.0) ** (1.0 / ps)
        b = (a2 / (alpha - 1.0)) * ps
        C = A * abs(a2) ** (1.0 / a2) * a2 / ((alpha - 1.0) * m ** ((alpha - 1.0) / a2))
        exq = a2 / (alpha - 1.0)
        # s / C: the mass from t (q = t - 1 at lambda > 1) to the upper edge, or -arcsinh_gen(t)
        coord = _gen_sine_coordinate(1.0 - lam, b, lam < 1)
        sup = Support(C * coord.sup.lower, C * coord.sup.upper)

        # 1 + q rounds to 1 for |q| <= 2^-54: no solve nearer that edge
        u_one = coord.u_of_x(-(2.0**-54)) if lam > 1 else coord.sup.lower

        def x_of_s(s: float) -> float:
            u = s / C
            z = coord.x_of_u(u) if u_one < u < coord.sup.upper else None
            if z is None:
                # at an edge or beyond reach: the edge u goes toward, where it is finite
                z = coord.support.lower if u >= coord.u_knots[0] else coord.support.upper
                if not math.isfinite(z):
                    raise OutOfDomain(f"up_of_gg coordinate {s} not reached by its generalized sine")
            return (1.0 + z if lam > 1 else z) ** exq / m

    def val(s: float) -> float:
        x = x_of_s(s)
        if x == 0.0 and alpha > 2.0:
            # x -> 0 at the upper edge, where the value x^(1/(2-alpha)) grows without bound
            raise EdgeIllConditioned(f"up_of_gg value not formed at {s!r}: x rounds to 0 at the edge {sup.upper!r}")
        return pref * x ** (1.0 / (2.0 - alpha))

    return Density(
        support=sup,
        value=_pointwise(val),
        label=f"up_of_gg(p={p:g},lambda={lam:g},alpha={alpha:g},{mode})",
        mass=mass,
    )
