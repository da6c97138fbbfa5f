"""Density representation, quadrature, and monotone inversion.

All integrals in this library run over the *declared* support of the
integrand (integrands defined on a smaller set than the real line are
integrated over that set; this convention is applied uniformly).

Quadrature is tanh-sinh (double-exponential): endpoint-clustered nodes make
integrable endpoint singularities routine, which transformed densities need
constantly.  Infinite endpoints are mapped to (0, 1) by x = a + t/(1-t) and
its mirror before the tanh-sinh rule is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DivergentIntegral,
    EdgeIllConditioned,
    InvalidParams,
    MissingDerivative,
    MissingSecondDerivative,
    NonConvergent,
    NotMonotone,
    TargetOutOfRange,
    UnknownDensity,
)

__all__ = [
    "Support",
    "QuadResult",
    "Density",
    "integrate",
    "invert_monotone",
    "rescale",
    "reflect",
    "translate",
    "builtin",
    "parse_density",
    "quantiles",
    "EDGE_SLACK",
]

# Absolute slack when classifying a coordinate as interior vs edge;
# inversion exactly at an edge is ill-conditioned.
EDGE_SLACK = 1e-12

_INF = math.inf


@dataclass(frozen=True)
class Support:
    """Open interval (lower, upper); either endpoint may be infinite."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise InvalidParams(f"support requires lower < upper, got ({self.lower}, {self.upper})")

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lower + slack < x < self.upper - slack

    def at(self, t: np.ndarray) -> np.ndarray:
        """Coordinates for fractions t in (0, 1): affine on a bounded support,
        t/(1-t) away from a single finite edge, tan(pi (t - 1/2)) on the line."""
        lo, hi = self.lower, self.upper
        if math.isfinite(lo) and math.isfinite(hi):
            return lo + (hi - lo) * t
        if math.isfinite(lo):
            return lo + t / (1.0 - t)
        if math.isfinite(hi):
            return hi - (1.0 - t) / t
        return np.tan(math.pi * (t - 0.5))

    def clustered(self, n: int) -> np.ndarray:
        """n coordinates at t = sin^2 of an even grid, clustered at both ends."""
        return self.at(np.sin(np.linspace(0.0, 1.0, n + 2)[1:-1] * _PI_2) ** 2)


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self) -> None:
        if self.error_estimate < 0:
            raise InvalidParams("error_estimate must be nonnegative")


# ---------------------------------------------------------------------------
# tanh-sinh quadrature
# ---------------------------------------------------------------------------

_TMAX = 6.5          # truncation of the t-axis; handles x^(-s) edges up to s ~ 0.98
_PI_2 = math.pi / 2.0
_HUGE = 1e50         # partial sums beyond this are treated as divergent
_MAX_LEVEL = 10      # refinement levels (step h = 2^-level) before NonConvergent


def _ts_nodes(h: float, odd_only: bool) -> np.ndarray:
    """Positive t-abscissae for one refinement level."""
    if odd_only:
        ts = np.arange(h, _TMAX, 2.0 * h)
    else:
        ts = np.arange(0.0, _TMAX, h)
    return ts


def _eval_batch(fn: Callable, xs: np.ndarray) -> np.ndarray:
    """Evaluate fn on an array in one call; a constant result is broadcast."""
    with np.errstate(all="ignore"):
        out = np.asarray(fn(xs), dtype=float)
    # np.broadcast_to costs ten times the shape test: keep it off the common path
    return out if out.shape == xs.shape else np.broadcast_to(out, xs.shape)


_TRUNC_EPS = 1e-17  # stop expanding a side once terms fall below eps * sum
_CHUNK = 8


def _ts_level_sum(fn_left, fn_right, half: float, ts: np.ndarray, include_zero: bool):
    """One tanh-sinh level: sum of weight * f over nodes at abscissae ts.

    fn_left(delta) evaluates the integrand at distance delta from the lower
    endpoint, fn_right(delta) at distance delta from the upper endpoint;
    computing positions from the edge distance avoids catastrophic
    cancellation for singular integrands.  Each side is expanded outward in
    chunks and truncated once its terms are negligible, so deep nodes of a
    decayed integrand are never evaluated (they can be very expensive for
    transform-backed integrands).
    """
    y = _PI_2 * np.sinh(ts)
    # distance fraction from the nearer endpoint: (1 - tanh y) = 2 / (e^{2y} + 1)
    with np.errstate(over="ignore"):
        dfrac = 2.0 / (np.exp(2.0 * y) + 1.0)
        w = half * _PI_2 * np.cosh(ts) / np.cosh(y) ** 2
    deltas = half * dfrac
    total = 0.0
    n_evals = 0
    edge_terms: list[float] = []
    start = 0
    if include_zero:
        # t = 0 contributes once (midpoint)
        v0 = float(fn_right(half))  # midpoint: distance `half` from either end
        if math.isinf(v0):
            raise DivergentIntegral("integrand not finite at interval midpoint")
        if math.isnan(v0):
            v0 = 0.0  # overflow-times-underflow product: no representable mass
        total += w[0] * v0
        n_evals += 1
        start = 1
    live = (w[start:] > 0.0) & (deltas[start:] > 0.0)
    idx = np.nonzero(live)[0] + start
    if not idx.size:
        return total, n_evals, edge_terms
    dd_all = deltas[idx]
    ww_all = w[idx]
    max_term = abs(total)
    for fn in (fn_right, fn_left):
        last3: list[float] = []
        for c0 in range(0, len(dd_all), _CHUNK):
            dd = dd_all[c0 : c0 + _CHUNK]
            ww = ww_all[c0 : c0 + _CHUNK]
            vs = _eval_batch(fn, dd)
            with np.errstate(all="ignore"):
                terms = ww * vs
            bad = ~np.isfinite(terms)
            if bad.any():
                # weight underflow times a singular value gives nan; those
                # nodes carry no mass for integrable edges -- but a genuine
                # inf means the integrand outgrows the weight decay
                if np.isinf(vs[bad]).any():
                    raise DivergentIntegral(
                        "integrand grows faster than the node weights decay"
                    )
                terms = np.where(bad, 0.0, terms)
            total += float(terms.sum())
            n_evals += len(dd)
            chunk_max = float(np.abs(terms).max()) if len(terms) else 0.0
            max_term = max(max_term, chunk_max)
            last3 = [abs(float(t)) for t in terms[-3:]]
            # an integrand that underflows to 0 near the midpoint must not
            # stop a side before it reaches the mass at the endpoint
            if max_term > 0.0 and chunk_max <= _TRUNC_EPS * max(abs(total), max_term):
                break
        # keep the side whose outermost terms are largest: the divergence
        # heuristic watches for edges that fail to decay
        if last3 and (not edge_terms or max(last3) > max(edge_terms)):
            edge_terms = last3
    return total, n_evals, edge_terms


def _tanh_sinh(fn_left, fn_right, half: float, tol: float, min_scale: float) -> QuadResult:
    """Adaptive tanh-sinh on an interval of half-width `half`."""
    h = 1.0
    s = 0.0
    n_evals = 0
    estimates: list[float] = []
    last_edge: list[float] = []
    for level in range(_MAX_LEVEL + 1):
        odd = level > 0
        ts = _ts_nodes(h, odd_only=odd)
        ds, ne, edge = _ts_level_sum(fn_left, fn_right, half, ts, include_zero=(level == 0))
        s += ds
        n_evals += ne
        est = h * s
        if edge:
            last_edge = edge
        estimates.append(est)
        if abs(est) > _HUGE:
            raise DivergentIntegral("partial sums exceed overflow threshold")
        if level >= 2:
            err = abs(estimates[-1] - estimates[-2])
            scale = max(min_scale, abs(est))
            if scale == 0.0:
                scale = 1.0
            if err <= tol * scale:
                # a finite value at the truncation edge means the rule ran out
                # of axis, i.e. mass keeps arriving from the endpoint region
                if last_edge and max(last_edge) > 1e3 * tol * scale and (
                    last_edge == sorted(last_edge)
                ):
                    raise DivergentIntegral(
                        "endpoint contributions do not decay under clustering refinement"
                    )
                return QuadResult(est, err, n_evals)
        h *= 0.5
    err = abs(estimates[-1] - estimates[-2]) if len(estimates) >= 2 else abs(estimates[-1])
    scale = max(1.0, abs(estimates[-1]))
    # divergence heuristics apply only to material residual motion; tiny
    # level-to-level creep is evaluation noise on a convergent integral
    if err > 1e-6 * scale:
        growing = (
            len(estimates) >= 4
            and abs(estimates[-1]) > abs(estimates[-2]) >= abs(estimates[-3])
            and abs(estimates[-1] - estimates[-2]) >= abs(estimates[-2] - estimates[-3])
        )
        if len(estimates) >= 4:
            # logarithmic divergence: level increments neither grow nor decay
            # (a convergent tanh-sinh rule contracts increments superlinearly)
            d1 = abs(estimates[-1] - estimates[-2])
            d2 = abs(estimates[-2] - estimates[-3])
            d3 = abs(estimates[-3] - estimates[-4])
            if d3 > 0 and d2 > 0 and d1 / d3 > 0.5 and d1 / d2 > 0.7:
                raise DivergentIntegral(
                    "level increments do not contract (logarithmically divergent integral)"
                )
        if growing or (last_edge and last_edge == sorted(last_edge) and max(last_edge) > err):
            raise DivergentIntegral("partial sums grow without bound under endpoint refinement")
    raise NonConvergent(
        f"error {err:.3e} above tolerance {tol:.3e} after level {_MAX_LEVEL}",
        QuadResult(estimates[-1], err, n_evals),
    )


def _integrate_finite(g, a: float, b: float, tol: float, min_scale: float) -> QuadResult:
    half = 0.5 * (b - a)
    fn_left = lambda d: g(a + d)
    fn_right = lambda d: g(b - d)
    return _tanh_sinh(fn_left, fn_right, half, tol, min_scale)


def _integrate_upper_inf(g, a: float, tol: float, min_scale: float) -> QuadResult:
    # x = a + t/(1-t) maps t in (0,1); near t=1 use x = a + (1-d)/d
    def gl(d):  # d = t, near 0: x near a
        t = d
        return g(a + t / (1.0 - t)) / (1.0 - t) ** 2

    def gr(d):  # d = 1-t, near 0: x large
        with np.errstate(all="ignore"):
            x = a + (1.0 - d) / d
            # divide twice: d**2 can underflow to 0 while g(x)/d/d stays finite
            return g(x) / d / d

    return _tanh_sinh(gl, gr, 0.5, tol, min_scale)


def _integrate_lower_inf(g, b: float, tol: float, min_scale: float) -> QuadResult:
    h = lambda x: g(2.0 * b - x) if np.isscalar(x) else g(2.0 * b - np.asarray(x))
    return _integrate_upper_inf(h, b, tol, min_scale)


def integrate(
    g: Callable,
    support: Support,
    tol: float = 1e-10,
    *,
    points: Sequence[float] = (),
    min_scale: float = 1.0,
) -> QuadResult:
    """Integrate g over `support` to relative tolerance tol.

    `points` lists interior coordinates where the integrand is singular or
    kinked; the domain is split there (tanh-sinh clusters only at interval
    endpoints, so interior singularities must become endpoints).

    Raises NonConvergent if the error estimate of an interval stays above
    tol * max(min_scale, |value|) after _MAX_LEVEL levels (its `result`
    holds that interval's last estimate), and DivergentIntegral
    when partial sums grow without bound under endpoint refinement.
    """
    if tol <= 0:
        raise InvalidParams("tol must be positive")
    cuts = sorted(p for p in points if support.contains(p, slack=EDGE_SLACK))
    edges = [support.lower] + cuts + [support.upper]
    total = 0.0
    err = 0.0
    evals = 0
    sub_tol = tol / max(1.0, math.sqrt(len(edges) - 1))
    for lo, hi in zip(edges[:-1], edges[1:]):
        if math.isinf(lo) and math.isinf(hi):
            r1 = _integrate_lower_inf(g, 0.0, sub_tol / 2, min_scale)
            r2 = _integrate_upper_inf(g, 0.0, sub_tol / 2, min_scale)
            rs = [r1, r2]
        elif math.isinf(hi):
            rs = [_integrate_upper_inf(g, lo, sub_tol, min_scale)]
        elif math.isinf(lo):
            rs = [_integrate_lower_inf(g, hi, sub_tol, min_scale)]
        else:
            rs = [_integrate_finite(g, lo, hi, sub_tol, min_scale)]
        for r in rs:
            total += r.value
            err += r.error_estimate
            evals += r.evaluations
    return QuadResult(total, err, evals)


# ---------------------------------------------------------------------------
# monotone inversion
# ---------------------------------------------------------------------------

_MAX_ITER = 200  # bracketing steps of invert_monotone


def invert_monotone(
    g: Callable[[float], float],
    target: float,
    bracket: tuple[float, float],
    tol: float = 1e-12,
    dg: Optional[Callable[[float], float]] = None,
) -> float:
    """Solve g(x) = target for strictly monotone g on `bracket`.

    Bracketing bisection refined by secant (or Newton when dg is given);
    iterates never leave the bracket.  Raises TargetOutOfRange when the
    target is not between g(endpoints) and NotMonotone when an interior
    evaluation falls outside the value range of the current bracket.
    """
    a, b = bracket
    if a > b:
        a, b = b, a
    fa = g(a) - target
    fb = g(b) - target
    # convergence is judged relative to the target's own magnitude (the
    # variable changes inverted here span hundreds of orders of magnitude)
    scale = abs(target) if target != 0.0 else max(abs(fa), abs(fb), 1e-300)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        if min(abs(fa), abs(fb)) <= tol * scale:
            return a if abs(fa) < abs(fb) else b
        raise TargetOutOfRange(
            f"target {target} outside values g(bracket) = ({fa + target}, {fb + target})"
        )
    noise = 1e-9 * (1.0 + abs(fa) + abs(fb))
    x_prev, f_prev = a, fa
    x_cur, f_cur = b, fb
    for _ in range(_MAX_ITER):
        x_new = math.nan
        if dg is not None:
            d = dg(x_cur)
            if d != 0 and math.isfinite(d):
                x_new = x_cur - f_cur / d
        if not (a < x_new < b):
            denom = f_cur - f_prev
            if denom != 0 and math.isfinite(denom):
                x_new = x_cur - f_cur * (x_cur - x_prev) / denom
        if not (a < x_new < b) or not math.isfinite(x_new):
            x_new = 0.5 * (a + b)
        f_new = g(x_new) - target
        lo, hi = (fa, fb) if fa < fb else (fb, fa)
        if f_new < lo - noise or f_new > hi + noise:
            raise NotMonotone(
                f"g({x_new}) = {f_new + target} outside bracket value range "
                f"({lo + target}, {hi + target})"
            )
        if abs(f_new) <= tol * scale:
            return x_new
        if (f_new > 0) == (fb > 0):
            b, fb = x_new, f_new
        else:
            a, fa = x_new, f_new
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = x_new, f_new
        if b - a <= tol * max(abs(a), abs(b)):
            return 0.5 * (a + b)
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# Density
# ---------------------------------------------------------------------------


_LEVEL_TOL = 1e-13  # relative tolerance of Density.invert_level without an inverter


@dataclass(frozen=True, eq=False)
class Density:
    """Analytically specified density (or sub-probability weight) on a support.

    `value` and `derivative` are numpy-broadcastable callables.  Densities are
    immutable; every operation below returns a new instance.  `mass` records
    the total integral (1 for probability densities; restricted builtins may
    carry 1/2).
    """

    support: Support
    value: Callable
    derivative: Optional[Callable] = None
    second_derivative: Optional[Callable] = None
    monotone_decreasing: bool = False
    monotone_increasing: bool = False
    label: str = ""
    mass: float = 1.0
    level_inverter: Optional[Callable[[float], float]] = None
    # analytic log f and log |f'|: keep Fisher-type integrands exact far
    # into regions where the density itself underflows
    log_value: Optional[Callable] = None
    log_abs_derivative: Optional[Callable] = None

    def __call__(self, x):
        return self.value(x)

    def d(self, x):
        if self.derivative is None:
            raise MissingDerivative(f"density {self.label!r} carries no derivative")
        return self.derivative(x)

    def dd(self, x):
        if self.second_derivative is None:
            raise MissingSecondDerivative(f"density {self.label!r} carries no second derivative")
        return self.second_derivative(x)

    @property
    def monotone(self) -> bool:
        return self.monotone_decreasing or self.monotone_increasing

    def invert_level(self, y: float) -> float:
        """x with value(x) = y, for monotone densities."""
        if self.level_inverter is not None:
            return self.level_inverter(y)
        if not self.monotone:
            raise NotMonotone(f"density {self.label!r} is not monotone; cannot invert levels")
        lo, hi = self.support.lower, self.support.upper
        if not math.isfinite(lo) or not math.isfinite(hi):
            raise EdgeIllConditioned(
                f"density {self.label!r} has no level inverter and unbounded support"
            )
        bracket = (lo + EDGE_SLACK, hi - EDGE_SLACK)
        return invert_monotone(self.value, y, bracket, tol=_LEVEL_TOL, dg=self.derivative)


def _pointwise(one: Callable[[float], float]) -> Callable:
    """Lift a scalar function to the value convention of transformed
    densities: a scalar argument gives a float, any other argument is
    iterated into an array (so a 0-d array raises TypeError)."""

    def lifted(x):
        if np.isscalar(x):
            return one(float(x))
        return np.array([one(float(xi)) for xi in np.asarray(x, dtype=float)])

    return lifted


def _affine(f: Density, sigma: float, kappa: float, c: float, label: str) -> Density:
    """Image of f under the coordinate change x = sigma X / kappa + c.

    sigma is +1 or -1 and kappa > 0.  The image is x -> kappa f(X) with
    X = sigma kappa (x - c); every callable field of f is carried, and the
    monotone flags swap when sigma = -1.
    """

    def src(x):
        return sigma * (kappa * ((x if np.isscalar(x) else np.asarray(x)) - c))

    def image(X):
        # adding c = 0 would turn an edge at -0.0 into +0.0
        return sigma * X / kappa + c if c else sigma * X / kappa

    d1 = sigma * kappa * kappa
    d2 = kappa**3
    lk = math.log(kappa)
    val, der, sec, inv = f.value, f.derivative, f.second_derivative, f.level_inverter
    lv, ld = f.log_value, f.log_abs_derivative
    lo, hi = sorted((image(f.support.lower), image(f.support.upper)))
    dec, inc = f.monotone_decreasing, f.monotone_increasing
    if sigma < 0:
        dec, inc = inc, dec
    return Density(
        support=Support(lo, hi),
        value=lambda x: kappa * val(src(x)),
        derivative=None if der is None else (lambda x: d1 * der(src(x))),
        second_derivative=None if sec is None else (lambda x: d2 * sec(src(x))),
        monotone_decreasing=dec,
        monotone_increasing=inc,
        label=label,
        mass=f.mass,
        level_inverter=None if inv is None else (lambda y: image(inv(y / kappa))),
        log_value=None if lv is None else (lambda x: lk + lv(src(x))),
        log_abs_derivative=None if ld is None else (lambda x: 2 * lk + ld(src(x))),
    )


def rescale(f: Density, kappa: float) -> Density:
    """The density x -> kappa * f(kappa x); support scaled by 1/kappa.

    A wrapper of the affine map `_affine` with sigma = 1, c = 0.
    """
    if not kappa > 0:
        raise InvalidParams("rescale requires kappa > 0")
    if kappa == 1.0:
        return f
    k = float(kappa)
    return _affine(f, 1.0, k, 0.0, f"rescale({f.label},{k:g})")


def reflect(f: Density) -> Density:
    """Mirror image x -> f(-x) on the reflected support.

    A wrapper of the affine map `_affine` with sigma = -1, kappa = 1, c = 0.
    """
    return _affine(f, -1.0, 1.0, 0.0, f"reflect({f.label})")


def translate(f: Density, c: float) -> Density:
    """Shifted density x -> f(x - c).

    A wrapper of the affine map `_affine` with sigma = 1, kappa = 1.
    """
    if c == 0.0:
        return f
    return _affine(f, 1.0, 1.0, c, f"translate({f.label},{c:g})")


# ---------------------------------------------------------------------------
# builtin densities
# ---------------------------------------------------------------------------


def _builtin_exp(rate: float = 1.0) -> Density:
    if not rate > 0:
        raise InvalidParams("exp requires rate > 0")
    r = float(rate)
    return Density(
        support=Support(0.0, _INF),
        value=lambda x: r * np.exp(-r * np.asarray(x, dtype=float)),
        derivative=lambda x: -r * r * np.exp(-r * np.asarray(x, dtype=float)),
        second_derivative=lambda x: r**3 * np.exp(-r * np.asarray(x, dtype=float)),
        monotone_decreasing=True,
        label=f"exp(rate={r:g})",
        level_inverter=lambda y: -math.log(y / r) / r,
        log_value=lambda x: math.log(r) - r * np.asarray(x, dtype=float),
        log_abs_derivative=lambda x: 2 * math.log(r) - r * np.asarray(x, dtype=float),
    )


def _builtin_halfgauss(sigma: float = 1.0) -> Density:
    if not sigma > 0:
        raise InvalidParams("halfgauss requires sigma > 0")
    s = float(sigma)
    c = math.sqrt(2.0 / math.pi) / s

    def val(x):
        x = np.asarray(x, dtype=float)
        return c * np.exp(-(x**2) / (2 * s * s))

    def logval(x):
        return math.log(c) - np.asarray(x, dtype=float) ** 2 / (2 * s * s)

    return Density(
        support=Support(0.0, _INF),
        value=val,
        derivative=lambda x: -np.asarray(x, dtype=float) / (s * s) * val(x),
        second_derivative=lambda x: (np.asarray(x, dtype=float) ** 2 / s**4 - 1.0 / s**2) * val(x),
        monotone_decreasing=True,
        label=f"halfgauss(sigma={s:g})",
        level_inverter=lambda y: s * math.sqrt(2.0 * math.log(c / y)),
        log_value=logval,
        log_abs_derivative=lambda x: np.log(np.abs(np.asarray(x, dtype=float)) / (s * s))
        + logval(x),
    )


def _builtin_gauss(sigma: float = 1.0) -> Density:
    if not sigma > 0:
        raise InvalidParams("gauss requires sigma > 0")
    s = float(sigma)
    c = 1.0 / (s * math.sqrt(2 * math.pi))

    def val(x):
        x = np.asarray(x, dtype=float)
        return c * np.exp(-(x**2) / (2 * s * s))

    def logval(x):
        return math.log(c) - np.asarray(x, dtype=float) ** 2 / (2 * s * s)

    return Density(
        support=Support(-_INF, _INF),
        value=val,
        derivative=lambda x: -np.asarray(x, dtype=float) / (s * s) * val(x),
        second_derivative=lambda x: (np.asarray(x, dtype=float) ** 2 / s**4 - 1.0 / s**2) * val(x),
        label=f"gauss(sigma={s:g})",
        log_value=logval,
        log_abs_derivative=lambda x: np.log(np.abs(np.asarray(x, dtype=float)) / (s * s))
        + logval(x),
    )


def _builtin_pareto(eta: float = 3.0, xmin: float = 1.0) -> Density:
    if not eta > 1:
        raise InvalidParams("pareto requires exponent eta > 1")
    if not xmin > 0:
        raise InvalidParams("pareto requires xmin > 0")
    e, m = float(eta), float(xmin)
    c = (e - 1.0) * m ** (e - 1.0)
    return Density(
        support=Support(m, _INF),
        value=lambda x: c * np.asarray(x, dtype=float) ** (-e),
        derivative=lambda x: -c * e * np.asarray(x, dtype=float) ** (-e - 1.0),
        second_derivative=lambda x: c * e * (e + 1.0) * np.asarray(x, dtype=float) ** (-e - 2.0),
        monotone_decreasing=True,
        label=f"pareto(eta={e:g},xmin={m:g})",
        level_inverter=lambda y: (c / y) ** (1.0 / e),
        log_value=lambda x: math.log(c) - e * np.log(np.asarray(x, dtype=float)),
        log_abs_derivative=lambda x: math.log(c * e)
        - (e + 1.0) * np.log(np.asarray(x, dtype=float)),
    )


def _builtin_powerlaw(a: float = -0.5) -> Density:
    if not (-1.0 < a and a != 0.0):
        raise InvalidParams("powerlaw requires exponent a in (-1, 0) or a > 0")
    aa = float(a)
    c = aa + 1.0
    return Density(
        support=Support(0.0, 1.0),
        value=lambda x: c * np.asarray(x, dtype=float) ** aa,
        derivative=lambda x: c * aa * np.asarray(x, dtype=float) ** (aa - 1.0),
        second_derivative=lambda x: c * aa * (aa - 1.0) * np.asarray(x, dtype=float) ** (aa - 2.0),
        monotone_decreasing=aa < 0,
        monotone_increasing=aa > 0,
        label=f"powerlaw(a={aa:g})",
        level_inverter=lambda y: (y / c) ** (1.0 / aa),
        log_value=lambda x: math.log(c) + aa * np.log(np.asarray(x, dtype=float)),
        log_abs_derivative=lambda x: math.log(c * abs(aa))
        + (aa - 1.0) * np.log(np.asarray(x, dtype=float)),
    )


def _builtin_uniform(a: float = 0.0, b: float = 1.0) -> Density:
    if not a < b:
        raise InvalidParams("uniform requires a < b")
    h = 1.0 / (b - a)

    def val(x):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, h) if x.shape else h

    return Density(
        support=Support(float(a), float(b)),
        value=val,
        derivative=lambda x: np.zeros_like(np.asarray(x, dtype=float))
        if not np.isscalar(x)
        else 0.0,
        second_derivative=lambda x: np.zeros_like(np.asarray(x, dtype=float))
        if not np.isscalar(x)
        else 0.0,
        label=f"uniform({a:g},{b:g})",
        log_value=lambda x: np.full_like(np.asarray(x, dtype=float), math.log(h)),
        log_abs_derivative=lambda x: np.full_like(np.asarray(x, dtype=float), -_INF),
    )


def _builtin_gg(p: float = 2.0, mode: str = "half", **kw) -> Density:
    # "lambda" is a Python keyword, so it arrives through **kw
    from . import special

    return special.gg_density(p, kw.get("lambda", 1.0), mode=str(mode))


# name -> (factory, accepted parameter keys)
_BUILTINS = {
    "exp": (_builtin_exp, {"rate"}),
    "halfgauss": (_builtin_halfgauss, {"sigma"}),
    "gauss": (_builtin_gauss, {"sigma"}),
    "pareto": (_builtin_pareto, {"eta", "xmin"}),
    "powerlaw": (_builtin_powerlaw, {"a"}),
    "uniform": (_builtin_uniform, {"a", "b"}),
    "gg": (_builtin_gg, {"p", "lambda", "mode"}),
}


def builtin(name: str, params: Optional[dict] = None) -> Density:
    """Named density with exact derivative formulas.

    Known names: exp, halfgauss, gauss, pareto, powerlaw, uniform, gg.
    """
    key = name.strip().lower()
    kw = {str(k).lower(): v for k, v in (params or {}).items()}
    if key not in _BUILTINS:
        raise UnknownDensity(f"unknown density {name!r}")
    factory, keys = _BUILTINS[key]
    extra = set(kw) - keys
    if extra:
        raise InvalidParams(f"unknown parameter(s) {sorted(extra)} for density {key!r}")
    return factory(**{k: v if k == "mode" else float(v) for k, v in kw.items()})


def parse_density(spec: str) -> Density:
    """Parse the density DSL string `name:key=value,key=value`.

    Parsing is case-insensitive; unknown names and unknown keys are errors.
    """
    text = spec.strip()
    if not text:
        raise UnknownDensity("empty density spec")
    name, _, rest = text.partition(":")
    params: dict = {}
    if rest.strip():
        for item in rest.split(","):
            if not item.strip():
                continue
            if "=" not in item:
                raise InvalidParams(f"malformed density parameter {item!r} in {spec!r}")
            k, v = item.split("=", 1)
            k = k.strip().lower()
            v = v.strip()
            if k == "mode":
                params[k] = v.lower()
            else:
                try:
                    params[k] = float(v)
                except ValueError as exc:
                    raise InvalidParams(f"non-numeric value for {k!r} in {spec!r}") from exc
    return builtin(name, params)


# ---------------------------------------------------------------------------
# quantiles
# ---------------------------------------------------------------------------

_QUANTILE_TOL = 1e-10  # relative tolerance of each quantile


def quantiles(f: Density, qs: Sequence[float]) -> np.ndarray:
    """Quantile coordinates of f at cumulative fractions qs (of f.mass)."""
    qs = np.asarray(qs, dtype=float)
    if np.any((qs <= 0) | (qs >= 1)):
        raise InvalidParams("quantile fractions must lie strictly inside (0, 1)")
    lo, hi = f.support.lower, f.support.upper
    knots = np.unique(f.support.clustered(64))
    segs = [Support(lo, knots[0])] + [
        Support(a, b) for a, b in zip(knots[:-1], knots[1:])
    ] + [Support(knots[-1], hi)]
    masses = []
    for s in segs:
        masses.append(integrate(f.value, s, tol=1e-11).value)
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    total = cum[-1]
    edges = np.concatenate([[lo], knots, [hi]])
    out = np.empty_like(qs)
    for i, q in enumerate(qs):
        targ = q * total
        j = int(np.searchsorted(cum, targ, side="right")) - 1
        j = min(max(j, 0), len(segs) - 1)
        a = edges[j]
        base = cum[j]

        def cdf_local(x, a=a, base=base):
            if x <= a:
                return base
            return base + integrate(f.value, Support(a, x), tol=1e-12).value

        b = edges[j + 1]
        a_eff = a if math.isfinite(a) else min(b - 1.0, -1e8)
        b_eff = b if math.isfinite(b) else max(a + 1.0, 1e8)
        out[i] = invert_monotone(
            cdf_local, targ, (a_eff + 1e-300, b_eff), tol=_QUANTILE_TOL, dg=lambda x: float(f.value(x))
        )
    return out
