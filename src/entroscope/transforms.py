"""The down and up density transformations and their compositions.

Both transforms rest on one canonical variable change of order alpha,

    sigma_alpha(y) = y^{2-alpha} / (alpha - 2)    (alpha != 2)
    sigma_alpha(y) = -ln y                        (alpha = 2).

Each image has a closed-form kernel at the source point x, in log space:

    down:  log D = alpha log f - log |f'|            at s = sigma_alpha(f(x)),
    up:    log U = log |(alpha-2) x| / (2 - alpha)   at u(x)   (-x at alpha = 2),

with log |D'| = (2 alpha - 2) log f - log |f'| + log |alpha - f f''/f'^2| and
log |U'| = alpha log U - log f.  `_image_fields` lifts a kernel to the four
pointwise fields: value = exp(log value), derivative = sign exp(log |D'|).
Per point, only the source point is found numerically: for down through
the level inverter of f, for up by inverting u.  u is the cumulative
coordinate of the weight f/U in `core` (`core._Cumulative`), u'(x) =
-f(x)/U(x), anchored at the upper support edge (else the lower edge, else
the median knot) and cumulated once over a table of knots; both
inversions go through the one table-bracketed solve, `core._solve`.  A
piece of u between a knot and a point is one 7-15 Gauss-Kronrod pair
where the pair certifies it; a solve between two knots starts from the
root of the row's Kronrod interpolant, so an up value costs one piece.
Measures need neither: an image also carries its maps at source points
(coordinate and log value, see TransformedDensity), and moments and
entropies integrate against the source through them.

Increasing densities are handled by reflecting x -> -x before transforming;
the transforms are gauge-fixed only up to translation (and the reflection
just described), so comparisons between transformed densities use
`gauge_align`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    EDGE_SLACK,
    Density,
    Support,
    _affine,
    _Cumulative,
    _distinct,
    _log_pair,
    _pointwise,
    _segment_masses,
    _solve,
    integrate,  # not called here; bench/test_bench.py checks the tracer rebinds it
    reflect,
)
from .errors import (
    DivergentIntegral,
    EdgeIllConditioned,
    InvalidEta,
    InvalidParams,
    MissingDerivative,
    MissingSecondDerivative,
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
_ADMISSIBLE_GRID = 129  # probe points of double_down_admissible
_ADMISSIBLE_MARGIN = 1e-9  # alpha must exceed the observed sup by this much


@dataclass(frozen=True, eq=False)
class TransformedDensity(Density):
    """A density produced by a down or up transform, evaluated lazily from
    its kernel at the source point of each coordinate.

    It carries its maps from the source: log_coordinate_at gives
    (log |t|, sign t) of the image coordinate t, and log_value_at the log
    image value, at source points x (vectorized over x, no inversion);
    locate gives the source point of an image coordinate (one inversion;
    None beyond reach).  Since the transforms preserve mass,
    D(s(x)) |s'(x)| = f(x), each moment and entropy of the image is an
    expectation under the source through these maps."""

    source: Optional[Density] = None
    alpha: float = 0.0
    direction: str = ""
    anchor: str = ""
    log_coordinate_at: Optional[Callable] = None
    log_value_at: Optional[Callable] = None
    locate: Optional[Callable[[float], Optional[float]]] = None


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
    """One-sided limit of f at a finite support edge (may be 0 or +inf),
    probed toward the edge."""
    edge = getattr(f.support, side)
    inward = 1.0 if side == "lower" else -1.0
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


def _edge_value(f: Density, side: str) -> float:
    """One-sided limit of f at a support edge: 0 at an infinite edge, where
    integrable densities vanish; at a finite one from f's EdgeForm there,
    0 where B > 0 or a > 0, inf where a < 0, f(x0) where a = B = 0 if that
    is finite and positive; else probed (`_edge_limit`)."""
    edge = getattr(f.support, side)
    form = next((e for e in f.edge_forms or () if e.x0 == edge), None)
    if not math.isfinite(edge) or form is not None and (form.B > 0.0 or form.a > 0.0):
        return 0.0
    if form is not None and form.a < 0.0:
        return math.inf
    v = float(f.value(edge)) if form is not None else math.nan
    return v if 0.0 < v < math.inf else _edge_limit(f, side)


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


def _image_fields(locate, log_value, log_derivative):
    """(value, log_value, derivative, log_abs_derivative) of an image from
    its kernel at the source point.

    locate maps an image coordinate to its source point, or to None beyond
    reach, where the image has decayed below double precision (value 0).
    log_value(point) is nan where the image value cannot be formed, and
    value raises EdgeIllConditioned there.  log_derivative(point) gives
    (log |derivative|, sign); without it the image has no derivative fields.
    """

    def log_value_at(t: float) -> float:
        point = locate(t)
        return -math.inf if point is None else log_value(point)

    def value(t: float) -> float:
        lv = log_value_at(t)
        if math.isnan(lv):
            raise EdgeIllConditioned(f"image value cannot be formed at the source point of {t}")
        return math.exp(lv)

    if log_derivative is None:
        return _pointwise(value), _pointwise(log_value_at), None, None

    def pair(t: float) -> tuple[float, float]:
        point = locate(t)
        return (-math.inf, 0.0) if point is None else log_derivative(point)

    def derivative(t: float) -> float:
        ld, sign = pair(t)
        return sign * math.exp(ld)

    return tuple(_pointwise(g) for g in (value, log_value_at, derivative, lambda t: pair(t)[0]))


# ---------------------------------------------------------------------------
# down transformation
# ---------------------------------------------------------------------------


def down(f: Density, alpha: float) -> TransformedDensity:
    """Down transformation of a strictly decreasing density.

    Requires an analytic derivative and a finite lower support edge;
    increasing densities are reflected first.  The support is sigma_alpha
    of f's edge limits, from its edge forms; the image is monotone where
    alpha - f f''/f'^2 keeps one sign, from its curvature range.  Only
    where f lacks them (images, closed images, g at p = 0, densities built
    by hand) are the limits and the ratio probed.
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
    sup_f = _edge_value(f, "lower")   # largest value (decreasing density)
    inf_f = _edge_value(f, "upper")   # smallest value
    sigma, sigma_inv = _canonical(a)
    sup = Support(sigma(sup_f), sigma(inf_f))

    y_hi = sup_f if math.isfinite(sup_f) else 1e300
    y_lo = max(inf_f, 1e-300)

    lv_f, ld_f = _log_pair(f)

    def log_kernel(x, log_y):
        """log D = alpha log y - log |f'(x)| at source points x of level y
        (scalars or arrays); nan where log |f'| is unknown."""
        return a * log_y - ld_f(x)

    def log_coordinate_at(x):
        """(log |s|, sign s) of s = sigma_alpha(f(x)) from log f at source
        points x: s itself passes the largest double where f is small."""
        log_y = np.asarray(lv_f(x), dtype=float)
        with np.errstate(all="ignore"):
            if a == 2.0:
                return np.log(np.abs(log_y)), -np.sign(log_y)
            return (2.0 - a) * log_y - math.log(abs(a - 2.0)), np.sign(a - 2.0)

    def log_value_at(x):
        with np.errstate(all="ignore"):
            return log_kernel(x, np.asarray(lv_f(x), dtype=float))

    def locate(s: float) -> tuple[float, float]:
        """(x, log y): the source point of s and its level y.  y is pulled
        inside (y_lo, y_hi) only when it falls outside: tanh-sinh nodes sit
        within 1e-15 of the bounds, and moving them would move integrals."""
        try:
            y = sigma_inv(s)
        except OverflowError:  # the level passes the largest double
            y = math.inf
        if not (y_lo < y < y_hi):
            y = min(max(y, y_lo * (1.0 + 1e-15)), y_hi * (1.0 - 1e-15))
        return float(f.invert_level(y)), math.log(y)

    # image monotonicity: sign of dD/ds is -sign(alpha - f f''/f'^2)
    mono_dec = mono_inc = False
    log_derivative = None
    if f.second_derivative is not None:
        bounds = _curvature_bounds(f, 65)
        if bounds is not None:
            lo, hi, margin = bounds
            mono_dec = a > hi + margin if margin else a >= hi
            mono_inc = a < lo - margin if margin else a <= lo

        def log_derivative(point: tuple[float, float]) -> tuple[float, float]:
            """(log |D'|, sign D') from f, f' and f'' at the source point."""
            x, _ = point
            m = a - float(_curvature(f, x))
            with np.errstate(all="ignore"):
                log_mag = (2 * a - 2.0) * float(lv_f(x)) - float(ld_f(x)) + float(np.log(abs(m)))
            return log_mag, float(np.sign(f.derivative(x)) * np.sign(m))

    value, log_value, der, log_der = _image_fields(
        locate, lambda point: float(log_kernel(*point)), log_derivative
    )
    inverter = None
    if mono_dec or mono_inc:
        inverter = _down_level_inverter(f, sigma, log_value_at, sup, value)

    return TransformedDensity(
        support=sup,
        value=value,
        derivative=der,
        monotone_decreasing=mono_dec,
        monotone_increasing=mono_inc,
        label=f"down({f.label},alpha={a:g})",
        mass=f.mass,
        level_inverter=inverter,
        log_value=log_value,
        log_abs_derivative=log_der,
        source=f,
        alpha=a,
        direction="down",
        anchor="canonical",
        log_coordinate_at=log_coordinate_at,
        log_value_at=log_value_at,
        locate=lambda s: locate(s)[0],
    )


def _probe_grid(f: Density, n: int) -> np.ndarray:
    return f.support.at(np.linspace(0.0, 1.0, n + 2)[1:-1])


def _curvature(f: Density, x):
    """f f''/f'^2 at x: f's closed form, else exp(log f - 2 log |f'|) f''
    from `core._log_pair`, since f f'' alone overflows where f and f'' are
    both large, as for powerlaw(a=-0.5) near 0."""
    if f.curvature is not None:
        return f.curvature(x)
    lv, ld = _log_pair(f)
    with np.errstate(all="ignore"):
        log_ratio = np.asarray(lv(x), dtype=float) - 2.0 * np.asarray(ld(x), dtype=float)
        return np.exp(log_ratio) * np.asarray(f.second_derivative(x), dtype=float)


def _curvature_ratio(f: Density, n: int) -> np.ndarray:
    """The finite values of f f''/f'^2 on the n-point probe grid."""
    r = _curvature(f, _probe_grid(f, n))
    return r[np.isfinite(r)]


def _curvature_bounds(f: Density, n: int) -> Optional[tuple[float, float, float]]:
    """(inf r, sup r, margin) of r = f f''/f'^2, alpha clearing an end when
    past it by more than margin: f's closed range, with margin 0 where r
    only approaches the ends and 1e-9 where it is constant, else the n-point
    probe grid's extremes with 1e-9 (None where no probe is finite)."""
    if f.curvature_range is not None:
        lo, hi = f.curvature_range
        return lo, hi, _ADMISSIBLE_MARGIN if lo == hi else 0.0
    r = _curvature_ratio(f, n)
    return (float(r.min()), float(r.max()), _ADMISSIBLE_MARGIN) if r.size else None


def _down_level_inverter(f: Density, sigma, log_g, sup: Support, value):
    """Level inversion of a monotone down image (support sup, values
    value): solve g(x) = f^alpha/|f'| = exp(log_g(x)) = y in x
    (`core._solve`), then map back through sigma.  The table of (x, g(x))
    on the source, sorted by value, is built in one call at the first
    inversion: building it with the image would double the cost of down()
    for images never inverted.  Past either end of the table the solve
    marches toward the source edge on that end's side; a level beyond reach
    raises TargetOutOfRange."""
    g = lambda x: math.exp(float(log_g(x)))  # the image value at x

    @functools.cache
    def table():
        xs = _probe_grid(f, 96)
        with np.errstate(all="ignore"):
            gs = np.exp(np.asarray(log_g(xs), dtype=float))
        good = np.isfinite(gs)
        order = np.argsort(gs[good])
        xs, gs = xs[good][order], gs[good][order]
        lo, hi = f.support.lower, f.support.upper
        return xs, gs, (hi if xs[0] > xs[1] else lo, hi if xs[-1] > xs[-2] else lo)

    def inverter(y: float) -> float:
        x = _solve(g, y, *table(), tol=1e-12)
        if x is None:
            raise TargetOutOfRange(f"level {y} of a down image is beyond reach")
        s = sigma(float(f.value(x)))
        # where f(x) rounds onto its edge limit, s lands on the image's edge,
        # where the image pulls its source level inside: s stands for y only
        # if the image's value there is y
        if not sup.contains(s) and not math.isclose(value(s), y, rel_tol=1e-12):
            raise EdgeIllConditioned(f"level {y} of a down image is not resolved at its edge")
        return s

    inverter.table = table
    return inverter


# ---------------------------------------------------------------------------
# up transformation
# ---------------------------------------------------------------------------


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
    # log U = log |(a-2) x| / (2-a) at the source point x, -x at a = 2
    if a == 2.0:

        def log_u(x):
            return -np.asarray(x, dtype=float)

    else:
        e = 1.0 / (a - 2.0)

        def log_u(x):
            with np.errstate(all="ignore"):
                return -e * np.log(np.abs((a - 2.0) * np.asarray(x, dtype=float)))

    lv_f, _ = _log_pair(f)

    def wf(x):
        """The weighted density f/U, -du/dx, in log space: e^x-type weights
        overflow long before the weighted density stops being representable."""
        with np.errstate(all="ignore"):
            return np.exp(np.asarray(lv_f(x), dtype=float) - log_u(x))

    knots = f.support.clustered(_TABLE_N)
    if f.support.contains(0.0, slack=EDGE_SLACK):
        knots = np.append(knots, 0.0)
    knots = _distinct(knots)
    coords = _Cumulative(wf, f.support, knots, _segment_masses(wf, f.support, knots))
    sigma, _ = _canonical(a)

    def locate(u: float) -> Optional[float]:
        """The source point of u.  Beyond reach toward an unbounded u-side
        it is None (the image there has decayed beyond double precision);
        toward a bounded one, the source edge moved EDGE_SLACK inside."""
        x = coords.x_of_u(u)
        if x is None:
            below = u >= coords.u_knots[0]  # the solve marched toward the lower edge
            if math.isfinite(coords.sup.upper if below else coords.sup.lower):
                edge = f.support.lower if below else f.support.upper
                return edge + (1.0 if below else -1.0) * EDGE_SLACK * max(1.0, abs(edge))
        return x

    def log_coordinate_at(x):
        """(log |u|, sign u) at source points x, one cumulative step per
        point (u_of_x)."""
        x = np.asarray(x, dtype=float)
        u = np.reshape([coords.u_of_x(xi) for xi in x.ravel().tolist()], x.shape)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(u)), np.sign(u)

    def sign_u(x: float) -> float:
        return 1.0 if a == 2.0 else float(np.sign((a - 2.0) * x))

    def log_derivative(x: float) -> tuple[float, float]:
        """(log |U'|, sign U') = (a log U - log f, sign((a-2) x))."""
        return a * float(log_u(x)) - float(lv_f(x)), sign_u(x)

    value, log_value, derivative, log_abs_derivative = _image_fields(
        locate, lambda x: float(log_u(x)), log_derivative
    )

    # image monotonicity: the sign of U' is fixed when the source support
    # does not straddle the origin (at alpha = 2, on any support)
    signs = {sign_u(x) for x in (f.support.lower, f.support.upper)} - {0.0}
    mono_inc, mono_dec = signs == {1.0}, signs == {-1.0}
    # level inversion via sigma, the inverse of the value map
    inverter = None
    if mono_dec or mono_inc:

        def inverter(y: float) -> float:
            x = sigma(y)
            if a != 2.0:
                # the preimage has the sign of the source support
                x = abs(x) if f.support.lower >= 0.0 else -abs(x)
            return coords.u_of_x(x)

    return TransformedDensity(
        support=coords.sup,
        value=value,
        derivative=derivative,
        monotone_decreasing=mono_dec,
        monotone_increasing=mono_inc,
        label=f"up({f.label},alpha={a:g})",
        mass=f.mass,
        level_inverter=inverter,
        log_value=log_value,
        log_abs_derivative=log_abs_derivative,
        source=f,
        alpha=a,
        direction="up",
        anchor=coords.anchor,
        log_coordinate_at=log_coordinate_at,
        log_value_at=log_u,
        locate=locate,
    )


# ---------------------------------------------------------------------------
# support length, admissibility, composition
# ---------------------------------------------------------------------------


def down_support_length(f: Density, alpha: float) -> float:
    """Length of the support of the down image, from the edge limits of f."""
    return down(f, alpha).support.length


def double_down_admissible(f: Density, alpha: float) -> AdmissibilityWitness:
    """Whether down can be applied twice: alpha must exceed sup f f''/f'^2
    (`_curvature_bounds`, on 129 probes where f has no curvature range)."""
    if f.second_derivative is None:
        raise MissingSecondDerivative("double-down admissibility requires f''")
    if f.derivative is None:
        raise MissingDerivative("double-down admissibility requires f'")
    bounds = _curvature_bounds(f, _ADMISSIBLE_GRID)
    if bounds is None:
        raise EdgeIllConditioned("admissibility ratio not finite anywhere on the grid")
    _, sup_r, margin = bounds
    admissible = alpha > sup_r + margin if margin else alpha >= sup_r
    return AdmissibilityWitness(admissible, float(sup_r), float(alpha), margin)


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
