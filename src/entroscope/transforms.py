"""The down and up density transformations and their compositions.

Both transforms rest on one canonical variable change of order alpha,

    sigma_alpha(y) = y^{2-alpha} / (alpha - 2)    (alpha != 2)
    sigma_alpha(y) = -ln y                        (alpha = 2).

The down transformation sends a strictly decreasing density f to
f(x(s))^alpha / |f'(x(s))| at s(x) = sigma_alpha(f(x)), and the up
transformation is its inverse: the image value at a source point x is
sigma_alpha^{-1}(+-x), with the sign that puts the argument in the range of
sigma_alpha, at the coordinate

    u'(x) = -|(alpha-2)x|^{1/(alpha-2)} f(x)      (u'(x) = -e^x f(x) at alpha = 2),

anchored at the upper support edge, falling back to the lower edge and then
to the median knot when the defining primitive diverges.  u is cumulated
once over a table of knots, and u(x) is u at the nearest knot between x and
the anchor plus the weighted mass from that knot to x (see
`_UpCoords.u_of_x`).  Both transforms are evaluated numerically: each value
costs one monotone inversion of the variable change.

Increasing densities are handled by reflecting x -> -x before transforming;
the transforms are gauge-fixed only up to translation (and the reflection
just described), so comparisons between transformed densities use
`gauge_align`.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    EDGE_SLACK,
    Density,
    QuadResult,
    Support,
    _affine,
    _pointwise,
    integrate,
    invert_monotone,
    reflect,
)
from .errors import (
    DivergentIntegral,
    EdgeIllConditioned,
    InvalidEta,
    InvalidParams,
    MissingDerivative,
    MissingSecondDerivative,
    NonConvergent,
    NotDecreasing,
    OutOfDomain,
    TargetOutOfRange,
)

__all__ = [
    "TransformedDensity",
    "TailReport",
    "AdmissibilityWitness",
    "down",
    "up",
    "down_support_length",
    "double_down_admissible",
    "compose_updown",
    "compose_downdown",
    "tail_classify_down",
    "tail_classify_up",
    "gauge_align",
]

_TABLE_N = 160
_U_CAP = 1e305  # cumulative weighted mass beyond which a side is treated as unbounded
_SEG_TOL = 1e-13
_STALL = 1e-7  # relative error at which a weighted-mass integral has stalled
_ADMISSIBLE_GRID = 129  # probe points of double_down_admissible
_ADMISSIBLE_MARGIN = 1e-9  # alpha must exceed the observed sup by this much


@dataclass(frozen=True, eq=False)
class TransformedDensity(Density):
    """A density produced by a down or up transform, evaluated lazily via
    monotone inversion of the canonical variable change."""

    source: Optional[Density] = None
    alpha: float = 0.0
    direction: str = ""
    anchor: str = ""


@dataclass(frozen=True)
class TailReport:
    regime: str  # algebraic | exponential | compact-support | no-finite-moments
    exponent: Optional[float] = None
    alpha_c: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.exponent is not None) != (self.regime == "algebraic"):
            raise InvalidParams("exponent present iff regime is algebraic")


@dataclass(frozen=True)
class AdmissibilityWitness:
    admissible: bool
    observed_sup: float
    alpha: float
    margin: float = _ADMISSIBLE_MARGIN

    def __bool__(self) -> bool:
        return self.admissible


# ---------------------------------------------------------------------------
# edge limits
# ---------------------------------------------------------------------------


def _edge_limit(f: Density, side: str) -> float:
    """One-sided limit of f at a support edge (may be 0 or +inf)."""
    lo, hi = f.support.lower, f.support.upper
    if side == "lower":
        edge, inward = lo, +1.0
    else:
        edge, inward = hi, -1.0
    if not math.isfinite(edge):
        # integrable densities vanish at infinite edges
        return 0.0
    scale = max(1.0, abs(edge))
    vals = []
    hs = []
    for k in range(8, 104, 8):
        h = scale * 2.0**-k
        x = edge + inward * h
        if x == edge:
            break
        try:
            v = float(f.value(x))
        except (EdgeIllConditioned, DivergentIntegral):
            break
        if not math.isfinite(v):
            return math.inf
        if v == 0.0 and len(vals) >= 2 and vals[-1] > vals[-2] > 0:
            # an increasing run that collapses to 0 hit a beyond-reach
            # sentinel of a transformed density: the limit is unbounded
            return math.inf
        vals.append(v)
        hs.append(h)
    if len(vals) < 3:
        return vals[-1] if vals else math.inf
    if vals[-1] > 1e12 and vals[-1] > 2.0 * vals[-2] > 0:
        return math.inf
    # a sequence still climbing materially at the innermost probes is a
    # slowly (logarithmically) divergent limit; algebraic h^c approaches
    # have contracted far below this threshold at these depths
    tail = vals[-3:]
    if all(b > a for a, b in zip(tail[:-1], tail[1:])):
        rel = (tail[-1] - tail[-2]) / max(abs(tail[-1]), 1e-300)
        if rel > 1e-5:
            return math.inf
    # Richardson step: the last two probes differ by O(h), extrapolate to h=0
    v1 = float(f.value(edge + inward * hs[-1] * 2.0))
    v2 = float(f.value(edge + inward * hs[-1]))
    if math.isfinite(v1) and math.isfinite(v2) and abs(2.0 * v2 - v1) < 1e13:
        ext = max(2.0 * v2 - v1, 0.0)
        if ext < 1e-6 * max(vals[-1], 1e-300):
            return 0.0  # the sequence is heading linearly to zero
        return ext
    return vals[-1]


# ---------------------------------------------------------------------------
# the canonical variable change
# ---------------------------------------------------------------------------


def _canonical(a: float):
    """(sigma, sigma_inv) of the canonical variable change of order a.

    sigma maps a level y in [0, inf] to s, with its limits at both ends;
    sigma_inv sends an s outside sigma's range, which only rounding at the
    zero edge produces, to the edge level itself.
    """
    if a == 2.0:

        def sigma(y: float) -> float:
            if y == math.inf:
                return -math.inf
            if y == 0.0:
                return math.inf
            return -math.log(y)

        def sigma_inv(s: float) -> float:
            return math.exp(-s)

        return sigma, sigma_inv

    def sigma(y: float) -> float:
        if y == math.inf:
            return -math.inf if a < 2 else 0.0
        if y == 0.0:
            return 0.0 if a < 2 else math.inf
        return y ** (2.0 - a) / (a - 2.0)

    def sigma_inv(s: float) -> float:
        X = (a - 2.0) * s
        if X <= 0.0:
            return 0.0 if a < 2 else math.inf
        return X ** (1.0 / (2.0 - a))

    return sigma, sigma_inv


# ---------------------------------------------------------------------------
# down transformation
# ---------------------------------------------------------------------------


def down(f: Density, alpha: float) -> TransformedDensity:
    """Down transformation of a strictly decreasing density.

    Requires an analytic derivative and a finite lower support edge;
    increasing densities are reflected first.
    """
    if f.monotone_increasing and not f.monotone_decreasing:
        return down(reflect(f), alpha)
    if not f.monotone_decreasing:
        raise NotDecreasing(
            f"down transform requires a strictly decreasing density, got {f.label!r}"
        )
    if f.derivative is None:
        raise MissingDerivative("down transform requires an analytic derivative")
    if not math.isfinite(f.support.lower):
        raise OutOfDomain("down transform requires a finite lower support edge")

    a = float(alpha)
    sup_f = _edge_limit(f, "lower")   # largest value (decreasing density)
    inf_f = _edge_limit(f, "upper")   # smallest value
    sigma, sigma_inv = _canonical(a)
    sup = Support(sigma(sup_f), sigma(inf_f))

    y_hi = sup_f if math.isfinite(sup_f) else 1e300
    y_lo = max(inf_f, 1e-300)

    def source(s: float) -> tuple[float, float]:
        """(x, y): the source point of s and its level y = f(x).  y is pulled
        inside (y_lo, y_hi) only when it falls outside: tanh-sinh nodes sit
        within 1e-15 of the bounds, and moving them would move integrals."""
        y = sigma_inv(s)
        if not (y_lo < y < y_hi):
            y = min(max(y, y_lo * (1.0 + 1e-15)), y_hi * (1.0 - 1e-15))
        return float(f.invert_level(y)), y

    def log_kernel(s: float) -> Optional[float]:
        """log(y^alpha / |f'(x)|) at the source point of s, or None where
        neither |f'| nor an analytic log |f'| gives it."""
        x, y = source(s)
        dv = abs(float(f.derivative(x)))
        if dv == 0.0 or not math.isfinite(dv):
            # fall back to the analytic log-derivative where the linear-scale
            # derivative under- or overflows (deep edge coordinates)
            if f.log_abs_derivative is None:
                return None
            return a * math.log(y) - float(f.log_abs_derivative(x))
        return a * math.log(y) - math.log(dv)

    def value(s: float) -> float:
        lk = log_kernel(s)
        if lk is None:
            raise EdgeIllConditioned(f"source derivative vanishes at the preimage of s = {s}")
        return math.exp(lk)

    def log_value(s: float) -> float:
        lk = log_kernel(s)
        return math.inf if lk is None else lk

    # image monotonicity: sign of dD/ds is -sign(alpha - f f''/f'^2)
    mono_dec = mono_inc = False
    der = None
    log_der = None
    if f.second_derivative is not None:
        rs = _curvature_ratio(f, 65)
        if rs.size:
            if a > float(rs.max()) + 1e-9:
                mono_dec = True
            elif a < float(rs.min()) - 1e-9:
                mono_inc = True

        def source_jet(s: float) -> tuple[float, float, float]:
            x, _ = source(s)
            return float(f.value(x)), float(f.derivative(x)), float(f.second_derivative(x))

        def derivative(s: float) -> float:
            v, dv, ddv = source_jet(s)
            return v ** (2 * a - 2.0) / dv * (a - v * ddv / dv**2)

        def log_abs_derivative(s: float) -> float:
            v, dv, ddv = source_jet(s)
            mag = abs(a - v * ddv / dv**2)
            if mag == 0.0 or v <= 0.0:
                return -math.inf
            return (2 * a - 2.0) * math.log(v) - math.log(abs(dv)) + math.log(mag)

        der = _pointwise(derivative)
        log_der = _pointwise(log_abs_derivative)

    inverter = None
    if mono_dec or mono_inc:
        inverter = _down_level_inverter(f, a, sigma)

    return TransformedDensity(
        support=sup,
        value=_pointwise(value),
        derivative=der,
        monotone_decreasing=mono_dec,
        monotone_increasing=mono_inc,
        label=f"down({f.label},alpha={a:g})",
        mass=f.mass,
        level_inverter=inverter,
        log_value=_pointwise(log_value),
        log_abs_derivative=log_der,
        source=f,
        alpha=a,
        direction="down",
        anchor="canonical",
    )


def _probe_grid(f: Density, n: int) -> np.ndarray:
    return f.support.at(np.linspace(0.0, 1.0, n + 2)[1:-1])


def _curvature_ratio(f: Density, n: int) -> np.ndarray:
    """The finite values of f f''/f'^2 on the n-point probe grid."""
    xs = _probe_grid(f, n)
    with np.errstate(all="ignore"):
        r = np.asarray(f.value(xs), dtype=float) * np.asarray(
            f.second_derivative(xs), dtype=float
        ) / np.asarray(f.derivative(xs), dtype=float) ** 2
    return r[np.isfinite(r)]


def _down_level_inverter(f: Density, a: float, sigma):
    """Level inversion of a monotone down image: solve f^alpha/|f'| = y in x,
    then map back through sigma.  Brackets come from a table of
    (x, f^alpha/|f'|) on the source, sorted by value, built at the first
    inversion: building it with the image would double the cost of down()
    for images never inverted.  A level beyond the outermost table node is
    bracketed against the source edge on that side."""

    def g(x: float) -> float:
        v = float(f.value(x))
        dv = abs(float(f.derivative(x)))
        with np.errstate(all="ignore"):
            return math.exp(a * math.log(v) - math.log(dv)) if v > 0 and dv > 0 else math.inf

    @functools.cache
    def table():
        xs = _probe_grid(f, 96)
        gs = np.array([g(x) for x in xs])
        good = np.isfinite(gs)
        order = np.argsort(gs[good])
        return xs[good][order], gs[good][order]

    def beyond(x0: float, step: float, y: float) -> float:
        """A point past the outermost node x0, in the direction of step, with
        g on the other side of y: the source edge moved EDGE_SLACK inside, or
        for an infinite edge the first of x0 + step, x0 + 2 step, ... (at
        most 64 doublings)."""
        edge = f.support.upper if step > 0 else f.support.lower
        if math.isfinite(edge):
            return edge - math.copysign(EDGE_SLACK * max(1.0, abs(edge)), step)
        below = g(x0) < y
        for _ in range(64):
            x = x0 + step
            if (g(x) < y) != below:
                break
            step *= 2.0
        return x

    def inverter(y: float) -> float:
        if not y > 0.0:
            # an underflowed value: its preimage is not representable
            raise TargetOutOfRange(f"level {y} of a down image cannot be inverted")
        xs, gs = table()
        j = int(np.searchsorted(gs, y))
        if 0 < j < len(gs):
            bracket = (xs[j - 1], xs[j])
        else:
            k, inner = (0, 1) if j == 0 else (-1, -2)
            bracket = (xs[k], beyond(xs[k], xs[k] - xs[inner], y))
        x = invert_monotone(g, y, (min(bracket), max(bracket)), tol=1e-12)
        return sigma(float(f.value(x)))

    return inverter


# ---------------------------------------------------------------------------
# up transformation
# ---------------------------------------------------------------------------


def _wf_quad(wf, lo: float, hi: float) -> QuadResult:
    """Weighted mass on (lo, hi) to _SEG_TOL, pure relative, or the last
    estimate when it does not converge."""
    try:
        return integrate(wf, Support(lo, hi), tol=_SEG_TOL, min_scale=0.0)
    except NonConvergent as exc:
        return exc.result


def _wf_integral(wf, lo: float, hi: float) -> float:
    """Weighted mass on (lo, hi), its error checked against _STALL:
    integrands behind a monotone inversion carry ~1e-13 relative noise,
    below which the convergence criterion cannot be met."""
    r = _wf_quad(wf, lo, hi)
    if r.error_estimate > _STALL * max(1e-280, abs(r.value)):
        raise EdgeIllConditioned(
            f"weighted segment integral on ({lo}, {hi}) stalled at error {r.error_estimate:.2e}"
        )
    return r.value


def _up_weight(alpha: float):
    """(weight, log-weight) callables for the up variable change."""
    a = float(alpha)
    if a == 2.0:

        def w(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(all="ignore"):
                return np.exp(x)

        def logw(x):
            return np.asarray(x, dtype=float)

        return w, logw

    e = 1.0 / (a - 2.0)

    def w(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            return np.abs((a - 2.0) * x) ** e

    def logw(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            return e * np.log(np.abs((a - 2.0) * x))

    return w, logw


def up(f: Density, alpha: float) -> TransformedDensity:
    """Up transformation of a density (no monotonicity required).

    The primitive is anchored at the upper support edge; when that integral
    diverges it is anchored at the lower edge, then at the median.
    """
    a = float(alpha)
    if f.support.contains(0.0, slack=EDGE_SLACK) and 1.0 <= a < 2.0:
        raise OutOfDomain(
            "weighted change of variable is not integrable across an interior origin "
            f"for alpha = {a}"
        )
    w, logw = _up_weight(a)

    if f.log_value is not None:
        # log-space product: e^x-type weights overflow long before the
        # weighted integrand itself stops being representable
        def wf(x):
            with np.errstate(all="ignore"):
                return np.exp(logw(x) + np.asarray(f.log_value(x), dtype=float))

    else:

        def wf(x):
            with np.errstate(all="ignore"):
                return w(x) * np.asarray(f.value(x), dtype=float)

    coords = _UpCoords(f, wf)
    u_of_x = coords.u_of_x
    x_of_u = coords.x_of_u
    sigma, sigma_inv = _canonical(a)

    def value(u: float) -> float:
        x = x_of_u(u)
        if math.isnan(x):
            return 0.0
        # U = sigma_inv(+-x), with the sign that puts the argument in the
        # range of sigma; for alpha = 2 that range is the whole line
        return sigma_inv(x if a == 2.0 or (a - 2.0) * x > 0.0 else -x)

    def log_value(u: float) -> float:
        x = x_of_u(u)
        if math.isnan(x):
            return -math.inf
        if a == 2.0:
            return -x
        m = abs((a - 2.0) * x)
        return (1.0 / (2.0 - a)) * math.log(m) if m > 0 else -math.inf

    # dU/du = sign((a-2)x) |(a-2)x|^{a/(2-a)} / f(x);  for a = 2: +e^{-2x}/f(x)
    def derivative(u: float) -> float:
        x = x_of_u(u)
        if math.isnan(x):
            return 0.0
        v = float(f.value(x))
        if a == 2.0:
            return math.exp(-2.0 * x) / v
        m = (a - 2.0) * x
        return math.copysign(abs(m) ** (a / (2.0 - a)), m) / v

    def log_abs_derivative(u: float) -> float:
        x = x_of_u(u)
        if math.isnan(x):
            return -math.inf
        if f.log_value is not None:
            lv = float(f.log_value(x))
        else:
            v = float(f.value(x))
            lv = math.log(v) if v > 0 else -math.inf
        if a == 2.0:
            return -2.0 * x - lv
        m = abs((a - 2.0) * x)
        lm = math.log(m) if m > 0 else -math.inf
        return (a / (2.0 - a)) * lm - lv

    # image monotonicity: sign of dU/du is sign((a-2)x), fixed when the
    # source support does not straddle the origin; for alpha = 2 the
    # derivative e^{-2x}/f is positive on any support
    mono_dec = mono_inc = False
    if a == 2.0:
        mono_inc = True
    elif f.support.lower >= 0.0:
        if a < 2.0:
            mono_dec = True
        else:
            mono_inc = True
    elif f.support.upper <= 0.0:
        if a < 2.0:
            mono_inc = True
        else:
            mono_dec = True
    # level inversion via sigma, the inverse of the value map
    inverter = None
    if mono_dec or mono_inc:

        def inverter(y: float) -> float:
            x = sigma(y)
            if a != 2.0:
                # the preimage has the sign of the source support
                x = abs(x) if f.support.lower >= 0.0 else -abs(x)
            return u_of_x(x)

    return TransformedDensity(
        support=coords.sup,
        value=_pointwise(value),
        derivative=_pointwise(derivative),
        monotone_decreasing=mono_dec,
        monotone_increasing=mono_inc,
        label=f"up({f.label},alpha={a:g})",
        mass=f.mass,
        level_inverter=inverter,
        log_value=_pointwise(log_value),
        log_abs_derivative=_pointwise(log_abs_derivative),
        source=f,
        alpha=a,
        direction="up",
        anchor=coords.anchor,
    )


def _up_knots(f: Density) -> np.ndarray:
    xs = f.support.clustered(_TABLE_N)
    if f.support.contains(0.0, slack=EDGE_SLACK):
        xs = np.append(xs, 0.0)
    return np.unique(xs)


def _anchor_and_cumulate(knots: np.ndarray, inner: np.ndarray, head: float, tail: float):
    """(anchor, knots, u, u-support, anchor knot) from the segment masses.

    The anchor is the upper edge when the tail mass is finite (u > 0), else
    the lower edge when the head mass is finite (u < 0), else the median
    knot.  u is walked outward from the anchor index in both directions; a
    walk stops at the first knot whose |u| passes _U_CAP, and such knots are
    dropped, the u-support being unbounded on that side.
    """
    n = len(knots)
    if math.isfinite(tail):
        anchor, i0, u0 = "upper", n - 1, tail
    elif math.isfinite(head):
        anchor, i0, u0 = "lower", 0, -head
    else:
        anchor, i0, u0 = "median", n // 2, 0.0
    u = np.full(n, np.nan)
    u[i0] = u0
    for step in (-1, +1):
        acc = u0
        for j in range(i0 + step, n if step > 0 else -1, step):
            acc -= step * inner[min(j, j - step)]  # the segment between j - step and j
            if not math.isfinite(acc) or abs(acc) > _U_CAP:
                break
            u[j] = acc
    good = np.isfinite(u)
    lo_u = float(u[-1] - tail) if good[-1] else -math.inf
    hi_u = float(u[0] + head) if good[0] else math.inf
    sup = Support(lo_u if lo_u >= -_U_CAP else -math.inf, hi_u if hi_u <= _U_CAP else math.inf)
    return anchor, knots[good], u[good], sup, float(knots[i0])


class _UpCoords:
    """Cumulative coordinate u(x) of an up transform and its inverse.

    Built on the eager knots: _TABLE_N knots whose segment masses are
    cumulated from the anchor with the image.  Inversions beyond them march
    further knots, used only to bracket.  A side whose preimages exhaust the
    float range records its reach; coordinates beyond reach on an unbounded
    u-side return nan (the image value there has decayed beyond double
    precision).
    """

    def __init__(self, f: Density, wf):
        self.f = f
        self.wf = wf

        def seg(lo: float, hi: float, open_ended: bool) -> float:
            # a divergent segment, or a stalled open one, has infinite mass
            try:
                return _wf_integral(wf, lo, hi)
            except (DivergentIntegral, EdgeIllConditioned) as exc:
                if open_ended or isinstance(exc, DivergentIntegral):
                    return math.inf
                raise

        knots = _up_knots(f)
        inner = np.array([seg(xa, xb, False) for xa, xb in zip(knots[:-1], knots[1:])])
        head = seg(f.support.lower, knots[0], True)
        tail = seg(knots[-1], f.support.upper, True)
        self.anchor, knots, u_knots, self.sup, start = _anchor_and_cumulate(
            knots, inner, head, tail
        )
        edges = {"upper": f.support.upper, "lower": f.support.lower}
        self.anchor_x = edges.get(self.anchor, start)
        self.knots = knots.tolist()  # eager: u_of_x starts from these only
        self.u_knots = u_knots.tolist()
        self.xs = list(self.knots)  # eager and marched: x_of_u brackets on these
        self.us = list(self.u_knots)
        self.lo_reach: Optional[float] = None  # u at the deepest reachable x above the table
        self.hi_reach: Optional[float] = None  # u at the deepest reachable x below the table
        self._iter_hi = 0
        self._iter_lo = 0

    # -- marching ----------------------------------------------------------
    def _step(self, x_prev: float, direction: float, i: int) -> Optional[float]:
        fsup = self.f.support
        to_edge = (direction > 0 and math.isfinite(fsup.upper)) or (
            direction < 0 and math.isfinite(fsup.lower)
        )
        if to_edge:
            edge = fsup.upper if direction > 0 else fsup.lower
            dist = abs(edge - x_prev)
            dist_next = dist / 4.0 if (i < 40 or dist >= 1.0) else dist * dist
            x_next = edge - math.copysign(dist_next, direction)
            if direction > 0:
                x_next = min(x_next, math.nextafter(edge, -math.inf))
            else:
                x_next = max(x_next, math.nextafter(edge, math.inf))
        else:
            step = max(1e-6, abs(x_prev)) * (0.5 * 2.0**i)
            x_next = x_prev + direction * step
        if x_next == x_prev or not math.isfinite(x_next):
            return None
        return x_next

    def _extend(self, direction: float, n_steps: int = 4) -> bool:
        """Append up to n_steps marched anchors on one side; False if the
        side's reach is exhausted."""
        if direction > 0:
            if self.lo_reach is not None:
                return False
            x_prev, u_prev = self.xs[-1], self.us[-1]
        else:
            if self.hi_reach is not None:
                return False
            x_prev, u_prev = self.xs[0], self.us[0]
        appended = False
        base_i = self._iter_hi if direction > 0 else self._iter_lo
        for i in range(base_i, base_i + n_steps):
            x_next = self._step(x_prev, direction, i)
            if x_next is None:
                break
            try:
                with np.errstate(all="ignore"):
                    probe = float(self.wf(x_next))
            except (EdgeIllConditioned, DivergentIntegral):
                probe = math.nan
            if not math.isfinite(probe):
                x_next = None
                break
            try:
                u_next = self.u_of_x(x_next)
            except (DivergentIntegral, EdgeIllConditioned):
                x_next = None
                break
            if not math.isfinite(u_next) or abs(u_next) > _U_CAP:
                x_next = None
                break
            if direction > 0:
                self.xs.append(x_next)
                self.us.append(u_next)
                self._iter_hi = i + 1
            else:
                self.xs.insert(0, x_next)
                self.us.insert(0, u_next)
                self._iter_lo = i + 1
            appended = True
            x_prev, u_prev = x_next, u_next
        if x_next is None:
            if direction > 0:
                self.lo_reach = u_prev
            else:
                self.hi_reach = u_prev
            return appended
        return True

    def _mass(self, lo: float, hi: float) -> float:
        if lo == hi:
            return 0.0
        if math.isinf(lo) or math.isinf(hi):
            return _wf_quad(self.wf, lo, hi).value  # unchecked: see u_of_x
        return _wf_integral(self.wf, lo, hi)

    # -- public ------------------------------------------------------------
    def u_of_x(self, x: float) -> float:
        """u at the nearest eager knot between x and the anchor, plus the
        weighted mass between that knot and x; with no such knot (x beyond
        the table on the anchor side), the mass from x to the anchor.  Both
        terms have the sign of u, so u keeps full relative precision even
        where it decays by hundreds of orders of magnitude.  Marched knots
        never start a piece: near x ~ 1e162 they can sit 100x apart.

        Every piece is checked against _STALL except the mass to an infinite
        anchor: where wf underflows on the way there, its error estimate is
        no guide (8% on (5.2e161, inf) for pareto(eta=3) at alpha = 3) while
        its value is right."""
        ax = self.anchor_x
        if x == ax:
            return 0.0
        xs, us = self.knots, self.u_knots
        if x < ax:
            j = bisect.bisect_left(xs, x)
            k, uk = (xs[j], us[j]) if j < len(xs) else (ax, 0.0)
            return uk + self._mass(x, k)
        j = bisect.bisect_right(xs, x) - 1
        k, uk = (xs[j], us[j]) if j >= 0 else (ax, 0.0)
        return uk - self._mass(k, x)

    def x_of_u(self, u: float) -> float:
        for _ in range(400):
            us = self.us
            n = len(us)
            rev = us[::-1]
            j = int(np.searchsorted(rev, u))
            k = n - j  # first index with u_knot < u
            if 0 < k < n:
                x_lo, x_hi = self.xs[k - 1], self.xs[k]
                break
            direction = -1.0 if k == 0 else +1.0
            if not self._extend(direction):
                if direction < 0:
                    if math.isinf(self.sup.upper):
                        return math.nan
                    e = self.f.support.lower
                    return e + EDGE_SLACK * max(1.0, abs(e))
                if math.isinf(self.sup.lower):
                    return math.nan
                e = self.f.support.upper
                return e - EDGE_SLACK * max(1.0, abs(e))
        else:
            raise EdgeIllConditioned(f"could not bracket coordinate u = {u}")

        def du(x):
            return -float(self.wf(x))

        return invert_monotone(self.u_of_x, u, (x_lo, x_hi), tol=1e-13, dg=du)


# ---------------------------------------------------------------------------
# support length, admissibility, composition
# ---------------------------------------------------------------------------


def down_support_length(f: Density, alpha: float) -> float:
    """Length of the support of the down image, from the edge limits of f."""
    base = reflect(f) if (f.monotone_increasing and not f.monotone_decreasing) else f
    sigma, _ = _canonical(float(alpha))
    s_lo = sigma(_edge_limit(base, "lower"))
    s_hi = sigma(_edge_limit(base, "upper"))
    if math.isinf(s_lo) or math.isinf(s_hi):
        return math.inf
    return abs(s_hi - s_lo)


def double_down_admissible(f: Density, alpha: float) -> AdmissibilityWitness:
    """Whether down can be applied twice: alpha must exceed sup f f''/f'^2."""
    if f.second_derivative is None:
        raise MissingSecondDerivative("double-down admissibility requires f''")
    if f.derivative is None:
        raise MissingDerivative("double-down admissibility requires f'")
    r = _curvature_ratio(f, _ADMISSIBLE_GRID)
    if r.size == 0:
        raise EdgeIllConditioned("admissibility ratio not finite anywhere on the grid")
    sup_r = float(r.max())
    return AdmissibilityWitness(
        admissible=alpha > sup_r + _ADMISSIBLE_MARGIN, observed_sup=sup_r, alpha=float(alpha)
    )


def compose_updown(f: Density, alpha: float, beta: float) -> TransformedDensity:
    """f -> down_beta[up_alpha[f]] (lazy; evaluation chains the inversions)."""
    mid = up(f, alpha)
    if not mid.monotone:
        raise NotDecreasing("intermediate up image is not monotone; cannot apply down")
    return down(mid, beta)


def compose_downdown(f: Density, alpha: float, beta: float) -> TransformedDensity:
    """f -> down_beta[down_alpha[f]] (requires double-down admissibility)."""
    witness = double_down_admissible(f, alpha)
    if not witness.admissible:
        raise NotDecreasing(
            f"alpha = {alpha} does not exceed sup f f''/f'^2 = {witness.observed_sup}"
        )
    mid = down(f, alpha)
    if not mid.monotone:
        raise NotDecreasing("first down image not classified monotone")
    return down(mid, beta)


# ---------------------------------------------------------------------------
# tail classification
# ---------------------------------------------------------------------------


def tail_classify_down(eta: float, alpha: float) -> TailReport:
    """Tail regime of down_alpha applied to a density with f' ~ -C x^{-eta-1}.

    An algebraic tail decays as D(s) ~ s^(-exponent) for s -> inf.
    """
    if not eta > 1:
        raise InvalidEta("tail classification requires eta > 1")
    a = float(alpha)
    if a > 2.0:
        return TailReport(
            regime="algebraic", exponent=(eta * (a - 1.0) - 1.0) / (eta * (a - 2.0))
        )
    if a == 2.0:
        return TailReport(regime="exponential")
    return TailReport(regime="compact-support")


def tail_classify_up(eta: float, alpha: float) -> TailReport:
    """Tail regime of up_alpha applied to a density with f ~ C x^{-eta}.

    An algebraic tail goes as U(u) ~ |u|^exponent for |u| -> inf (the
    exponent is negative); note the sign opposite to tail_classify_down.
    """
    if not eta > 1:
        raise InvalidEta("tail classification requires eta > 1")
    a = float(alpha)
    alpha_c = 2.0 + 1.0 / (eta - 1.0)
    if a == 2.0:
        return TailReport(regime="no-finite-moments", alpha_c=alpha_c)
    if 2.0 < a < alpha_c:
        return TailReport(
            regime="algebraic", exponent=1.0 / (eta * (a - 2.0) + 1.0 - a), alpha_c=alpha_c
        )
    if a == alpha_c:
        return TailReport(regime="exponential", alpha_c=alpha_c)
    return TailReport(regime="compact-support", alpha_c=alpha_c)


# ---------------------------------------------------------------------------
# gauge alignment
# ---------------------------------------------------------------------------


def _aligned_candidate(d: Density, target: Density, flip: bool) -> Optional[Density]:
    """d under x = sigma X / kappa + c, sigma = -1 when flipped, with its
    finite edges moved onto the target's; None when the supports differ in
    which edges are finite."""
    sigma = -1.0 if flip else 1.0
    lo, hi = sorted((sigma * d.support.lower, sigma * d.support.upper))
    t_lo, t_hi = target.support.lower, target.support.upper
    finite = (math.isfinite(lo), math.isfinite(hi))
    if finite != (math.isfinite(t_lo), math.isfinite(t_hi)):
        return None
    kappa = 1.0
    if all(finite):
        len_d, len_t = hi - lo, t_hi - t_lo
        if abs(len_d - len_t) > 1e-12 * max(len_d, len_t):
            kappa = len_d / len_t
    if finite[0]:
        c = t_lo - lo / kappa
    elif finite[1]:
        c = t_hi - hi / kappa
    else:
        c = 0.0
    if sigma == 1.0 and kappa == 1.0 and c == 0.0:
        return d
    return _affine(d, sigma, kappa, c, f"gauge_align({d.label})")


def gauge_align(d: Density, target: Density) -> Density:
    """Affine image of d whose support matches the target's, built with
    one affine map.

    The transforms are defined up to a translation (and an orientation flip
    when the canonical anchor sits at the opposite edge), so comparisons
    translate and, if necessary, reflect first.  When both supports are
    bounded and their lengths differ, the map also rescales; family
    identities for transform images hold only in this affine gauge.
    Orientation is chosen by monotonicity metadata when both densities
    carry it, otherwise by probing values at a few interior points.
    """
    flips = []
    if d.monotone and target.monotone:
        flips = [
            (d.monotone_increasing and target.monotone_decreasing)
            or (d.monotone_decreasing and target.monotone_increasing)
        ]
    else:
        flips = [False, True]
    candidates = [c for fl in flips if (c := _aligned_candidate(d, target, fl)) is not None]
    if not candidates:
        return d
    if len(candidates) == 1:
        return candidates[0]
    pts = target.support.at(np.array([0.25, 0.45, 0.7]))
    tv = np.array([float(target.value(p)) for p in pts])

    def score(c: Density) -> float:
        out = 0.0
        for p, t in zip(pts, tv):
            try:
                v = float(c.value(p))
            except Exception:
                return math.inf
            if not math.isfinite(v):
                return math.inf
            with np.errstate(all="ignore"):
                out += abs(math.log(max(v, 1e-300) / max(t, 1e-300)))
        return out

    return min(candidates, key=score)
