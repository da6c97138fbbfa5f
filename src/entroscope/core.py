"""Density representation, quadrature, and monotone inversion.

All integrals in this library run over the *declared* support of the
integrand (integrands defined on a smaller set than the real line are
integrated over that set; this convention is applied uniformly).

Quadrature is tanh-sinh (double-exponential): endpoint-clustered nodes make
integrable endpoint singularities routine, which transformed densities need
constantly.  Infinite endpoints are mapped to (0, 1) by x = a + L t/(1-t),
L = 2^floor(log2 max(1, |a|)), and its mirror before the tanh-sinh rule is
applied: the map's scale follows the interval, and a power of two scales
it exactly.

The integrand is always called on a 1-d array.  Its first call holds the
midpoint and the live nodes of levels 0-4 on both sides (194 where the
half-width does not underflow them), where most integrals settle; each
level from 5 on makes one call of its own, so a typical quadrature makes
two.  The abscissae and weights of each level are computed once, at unit
half-width.  A side's sum stops at its first chunk of 8 terms below 1e-17
times its running sum, and the next level uses that side at most one
chunk beyond it, so from level 5 on an integrand whose deep nodes are
costly pays for at most 8 of them per side and level.  A call's terms go
into one zero-padded table of 8-term chunks by side and level, and one
vectorized pass over it (`_scan`) gives every level's running sums and
the chunk where each side stops; the reach caps then apply level by
level (`_level_sum`), so the first call's levels sum as if each had made
its own call.

A cumulative coordinate (`_Cumulative`) is the mass u(x) of a weight w
between x and an anchor, signed so that u' = -w.  A table of knots holds
u, cumulated once from segment masses to 1e-13 relative, and u(x) adds
one piece, the mass from the nearest knot toward the anchor.  The up
transform's coordinate (w = f/U), the quantiles of f (w = f, anchored at
either edge) and the generalized sines of `special` are such coordinates.
Between two knots w is smooth, so every finite piece, and every table
segment between knots, is first one 7-15 Gauss-Kronrod pair
(`_gk_pieces`, all of a table's segments on one integrand call).  The
pair's K15 stands where it certifies itself: K15 and G7 finite, agreeing
to 1e-13 relative, K15 neither 0 nor past 1e50, and the rounding of its
nodes below that bound.  A table segment that fails the agreement test
alone is halved, up to 6 times, the pieces of every such segment on one
integrand call per round, and is the sum of its pieces once the pair
certifies them all.  Every other piece goes to tanh-sinh through
`integrate`, whose checks decide it, as do a table's head and tail
segments, which may be infinite.  Every inversion past a table goes
through `_solve`: it brackets the target between neighbouring entries,
or marches out from the outermost one (`_march`, which bisects back from
a step that lands beyond reach), and hands invert_monotone the values at
both ends, which the table or the march already holds.  A solve between
the knots of a segment that the pair certified at once starts from the
root of the integral of w's degree-14 interpolant on its Kronrod nodes,
which stands where u there, one piece, is within 1e-13 of the target.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

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
    "EdgeForm",
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
_TRUNC_EPS = 1e-17   # a side stops at its first chunk of terms below eps * sum
_CHUNK = 8
_FIRST_LEVELS = 5    # levels 0-4, whose live nodes the first integrand call evaluates together


@functools.cache
def _level_nodes(level: int):
    """One level's abscissae t > 0 (multiples of h = 1 at level 0, odd
    multiples of h = 2^-level after it) as a tuple, their edge distance
    fractions 1 - tanh y = 2/(e^{2y} + 1), y = pi/2 sinh t, and their
    weights at unit half-width, pi/2 cosh t / cosh^2 y.  The midpoint t = 0
    is not among them: its weight is pi/2 at level 0."""
    h = 2.0**-level
    ts = np.arange(1.0, _TMAX, 1.0) if level == 0 else np.arange(h, _TMAX, 2.0 * h)
    y = _PI_2 * np.sinh(ts)
    with np.errstate(over="ignore"):
        dfrac, weight = 2.0 / (np.exp(2.0 * y) + 1.0), _PI_2 * np.cosh(ts) / np.cosh(y) ** 2
    for a in (dfrac, weight):
        a.flags.writeable = False
    return tuple(ts.tolist()), dfrac, weight


def _first_nodes(half: float):
    """The edge distance fractions of the midpoint (1) and of the nodes of
    levels 0 to _FIRST_LEVELS - 1 that are live at half-width `half`
    (distance and weight both positive, a prefix of each level's nodes),
    end to end; the nodes' weights; their count per level; and the least
    of their fractions and weights."""
    parts = []
    for level in range(_FIRST_LEVELS):
        _, dfrac, weight = _level_nodes(level)
        n = int(np.count_nonzero((half * dfrac > 0.0) & (half * weight > 0.0)))
        parts.append((dfrac[:n], weight[:n]))
    dfrac, weight = (np.concatenate(p) for p in zip(*parts))
    lives = tuple(len(d) for d, _ in parts)
    return np.append(1.0, dfrac), weight, lives, min(dfrac.min(initial=_INF), weight.min(initial=_INF))


_unit_first_nodes = functools.cache(functools.partial(_first_nodes, 1.0))


@functools.cache
def _first_layout(lives: tuple):
    """Where the terms of the first call go in its zero-padded table of
    shape (2 sides, levels, chunks * _CHUNK), for lives[level] terms per
    side and level (the upper side first, levels in turn within a side):
    their flat positions, and the table's shape."""
    row = _CHUNK * max(1, -(-max(lives) // _CHUNK))
    dest = np.concatenate([np.arange(n) + k * row for k, n in enumerate(lives + lives)])
    return dest, (2, len(lives), row)


class _Scan(NamedTuple):
    """The terms of one integrand call by side and level, and where each
    side of each level stops: `terms`, weight * value in the table of
    `_scan` (a term that is not finite is 0); `running`, the
    running sum of each side of each level at the end of each chunk;
    `counts[side][level]`, the count of terms; `stops[side][level]`, the
    index of the chunk at which the side stops; and `infs[side][level]`,
    the index of its first inf value (the row length where there is
    none), or None where every term is finite."""

    terms: np.ndarray
    running: np.ndarray
    counts: tuple
    stops: list
    infs: Optional[list]


def _scan(terms: np.ndarray, values: np.ndarray, counts: tuple, dest: np.ndarray, shape: tuple) -> _Scan:
    """One vectorized pass over the terms of one integrand call: its
    values and their weight * value terms, side-major and levels in turn
    within a side, which go to the flat positions `dest` of a zero-padded
    table of `shape` (2 sides, levels, chunks * _CHUNK).

    Within a side of a level, each chunk of _CHUNK terms sums in turn, and
    the running sum adds the chunk sums in turn.  The side stops at its
    first chunk whose largest |term| is below _TRUNC_EPS max(|running
    sum|, largest |term| so far), or else at its last: a side whose terms
    are all 0 so far (an integrand that underflows near the midpoint) goes
    on until it reaches the mass at the endpoint.  The reductions run over
    the table's transpose, chunk position first, where each is a handful of
    elementwise steps."""
    infs = None
    if not math.isfinite(np.add.reduce(terms)):
        at = np.zeros(math.prod(shape), dtype=bool)
        at[dest] = np.isinf(values)
        at = at.reshape(shape)
        infs = np.where(at.any(axis=2), at.argmax(axis=2), shape[2]).tolist()
        terms = np.where(np.isfinite(terms), terms, 0.0)
    table = np.zeros(math.prod(shape))
    table[dest] = terms
    table = table.reshape(shape)
    by_place = np.ascontiguousarray(table.reshape(*shape[:2], -1, _CHUNK).transpose(3, 0, 1, 2))
    running = np.add.accumulate(np.add.reduce(by_place, axis=0), axis=2)
    peaks = np.maximum.reduce(np.abs(by_place), axis=0)
    stop = peaks < _TRUNC_EPS * np.maximum(np.abs(running), np.maximum.accumulate(peaks, axis=2))
    stop[..., -1] = True
    return _Scan(table, running, counts, stop.argmax(axis=2).tolist(), infs)


def _level_sum(scan: _Scan, i: int, ts: tuple, reach: list, total: float):
    """`total` plus the sum of level i of `scan` over both sides, the upper
    side first; the terms each side uses; and whether an inf value lies
    among them.  A side uses its terms up to where it stops, and at most
    _CHUNK nodes past reach[side], the outermost t the previous level used
    on that side (updated in place): deep nodes can be very expensive for
    transform-backed integrands.  A chunk that the cap cuts short sums its
    used terms in turn."""
    used, inf = [], False
    for side in (0, 1):
        n = scan.counts[side][i]
        k = min(n, (scan.stops[side][i] + 1) * _CHUNK, bisect.bisect_right(ts, reach[side]) + _CHUNK)
        used.append(k)
        if not k:
            continue
        reach[side] = ts[k - 1]
        inf = inf or (scan.infs is not None and scan.infs[side][i] < k)
        c = (k - 1) // _CHUNK
        if k < min(n, (c + 1) * _CHUNK):
            first, *rest = scan.terms[side, i, c * _CHUNK : k].tolist()
            for t in rest:
                first += t
            total += (scan.running.item(side, i, c - 1) + first) if c else first
        else:
            total += scan.running.item(side, i, c)
    return total, used, inf


def _edge_terms(scan: _Scan, i: int, used: list) -> list:
    """The |terms| that end the used prefix of each side of level i of
    `scan` (its last three, within its last chunk), of the side whose
    largest is larger (the upper side on a tie): the divergence heuristics
    watch for edges that fail to decay."""
    edge: list[float] = []
    for side, k in enumerate(used):
        if k:
            last = np.abs(scan.terms[side, i, max(k - 3, (k - 1) // _CHUNK * _CHUNK) : k]).tolist()
            if not edge or max(last) > max(edge):
                edge = last
    return edge


def _node_values(g, sides) -> np.ndarray:
    """One call to g on the points of every (x, Jacobian divisors) pair in
    `sides`: the values end to end, each side's divided by its divisors."""
    xs = np.concatenate([x for x, _ in sides])
    vs = np.asarray(g(xs), dtype=float)
    # np.broadcast_to costs ten times the shape test: keep it off the common path
    vs = vs if vs.shape == xs.shape else np.broadcast_to(vs, xs.shape)
    if not any(jac for _, jac in sides):
        return vs
    parts, start = [], 0
    for x, jac in sides:
        v, start = vs[start : start + len(x)], start + len(x)
        for q in jac:
            v = v / q
        parts.append(v)
    return np.concatenate(parts)


def _first_call(g, edge_map, half: float):
    """The first call of `_tanh_sinh`: g once on the midpoint and on the
    live nodes of levels 0 to _FIRST_LEVELS - 1 on both sides.  Returns the
    midpoint value, the `_scan` of the other values, and the count of
    points."""
    dfrac, weight, lives, least = _unit_first_nodes()
    if not half * least > 0.0:  # a node live at unit half-width is not at this one
        dfrac, weight, lives, _ = _first_nodes(half)
    deltas = half * dfrac
    # the midpoint is the upper side's point at distance `half`
    vs = _node_values(g, [edge_map(deltas, True), edge_map(deltas[1:], False)])
    terms = (vs[1:].reshape(2, -1) * (half * weight)).ravel()
    return float(vs[0]), _scan(terms, vs[1:], (lives, lives), *_first_layout(lives)), len(vs)


def _level_call(g, edge_map, half: float, level: int, reach: list):
    """Level `level` from _FIRST_LEVELS on: g once on the live nodes that
    each side may use under its reach cap (see `_level_sum`).  Returns
    their `_scan` and the count of points."""
    ts, dfrac, weight = _level_nodes(level)
    caps = [bisect.bisect_right(ts, r) + _CHUNK for r in reach]
    n = min(len(ts), max(caps))
    w, deltas = half * weight[:n], half * dfrac[:n]
    # live nodes (weight and distance not underflowed) are a prefix
    live = n
    if not (w[n - 1] > 0.0 and deltas[n - 1] > 0.0):
        live = int(np.count_nonzero((w > 0.0) & (deltas > 0.0)))
    ku, kl = counts = [min(c, live) for c in caps]
    vs = np.empty(0)
    if ku + kl:
        vs = _node_values(g, [edge_map(deltas[:ku], True), edge_map(deltas[:kl], False)])
    row = _CHUNK * max(1, -(-max(counts) // _CHUNK))
    dest = np.concatenate((np.arange(ku), np.arange(row, row + kl)))
    return _scan(vs * np.concatenate((w[:ku], w[:kl])), vs, ((ku,), (kl,)), dest, (2, 1, row)), ku + kl


def _tanh_sinh(g, edge_map, half: float, tol: float, min_scale: float) -> QuadResult:
    """Adaptive tanh-sinh on an interval of half-width `half`, on nodes
    cached per level (_level_nodes).  edge_map(d, upper) gives the x at
    distance d from the upper (or lower) end and the divisors of the
    Jacobian in the order they apply: working from the edge distance avoids
    catastrophic cancellation for singular integrands.

    The first call to g holds the midpoint and the live nodes of levels 0
    to 4 on both sides (`_first_call`), where most integrals settle; each
    level from 5 on makes one call of its own (`_level_call`) on the nodes
    its reach caps allow.  One vectorized pass over a call's terms gives
    every level's running sums and where each side stops (`_scan`); the
    reach caps then apply level by level (`_level_sum`), so levels 0-4 sum
    as if each had made its own call.  The first call's nodes past a
    side's cap, and those of every level past the one at which the rule
    stops or raises, go unused.  They are counted in `evaluations`, which
    is the number of points given to g.

    The stop test compares the last two level estimates; it stands unless
    the terms that end the sides' used prefixes rise toward the edge.  A
    failure carries the heuristic that decided it and the estimates."""
    h = 1.0
    s = 0.0
    estimates: list[float] = []
    reach = [math.inf, math.inf]
    last = None  # (scan, level index, terms used) of the last level that used a node

    def diverges(heuristic: str, message: str) -> DivergentIntegral:
        return DivergentIntegral(message, heuristic=heuristic, estimates=estimates)

    # one errstate for the whole rule: the integrand's overflow and 0 * inf
    # are read from the values, not warned about
    with np.errstate(all="ignore"):
        v0, scan, n_evals = _first_call(g, edge_map, half)
        if math.isinf(v0):
            raise diverges("midpoint", "integrand not finite at interval midpoint")
        if math.isnan(v0):
            v0 = 0.0  # overflow-times-underflow product: no representable mass
        for level in range(_MAX_LEVEL + 1):
            i = level
            if level >= _FIRST_LEVELS:
                scan, ne = _level_call(g, edge_map, half, level, reach)
                n_evals += ne
                i = 0
            # t = 0 contributes once, at level 0: the midpoint, `half` from either end
            start = half * _PI_2 * v0 if level == 0 else 0.0
            ds, used, inf = _level_sum(scan, i, _level_nodes(level)[0], reach, start)
            # weight underflow times a singular value gives nan; those nodes
            # carry no mass for integrable edges -- but a genuine inf means the
            # integrand outgrows the weight decay
            if inf:
                raise diverges("weights", "integrand grows faster than the node weights decay")
            if used[0] or used[1]:
                last = (scan, i, used)
            s += ds
            est = h * s
            estimates.append(est)
            if abs(est) > _HUGE:
                raise diverges("overflow", "partial sums exceed overflow threshold")
            if level >= 2:
                err = abs(estimates[-1] - estimates[-2])
                scale = max(min_scale, abs(est))
                if scale == 0.0:
                    scale = 1.0
                if err <= tol * scale:
                    # a finite value at the truncation edge means the rule ran out
                    # of axis, i.e. mass keeps arriving from the endpoint region
                    edge = _edge_terms(*last) if last else []
                    if edge and max(edge) > 1e3 * tol * scale and edge == sorted(edge):
                        raise diverges("edge", "endpoint contributions do not decay under clustering refinement")
                    return QuadResult(est, err, n_evals)
            h *= 0.5
    err = abs(estimates[-1] - estimates[-2])
    scale = max(1.0, abs(estimates[-1]))
    # divergence heuristics apply only to material residual motion; tiny
    # level-to-level creep is evaluation noise on a convergent integral
    if err > 1e-6 * scale:
        d1, d2, d3 = (abs(estimates[j] - estimates[j - 1]) for j in (-1, -2, -3))
        # logarithmic divergence: level increments neither grow nor decay
        # (a convergent tanh-sinh rule contracts increments superlinearly)
        if d3 > 0 and d2 > 0 and d1 / d3 > 0.5 and d1 / d2 > 0.7:
            raise diverges("increments", "level increments do not contract (logarithmically divergent integral)")
        grow = "partial sums grow without bound under endpoint refinement"
        if abs(estimates[-1]) > abs(estimates[-2]) >= abs(estimates[-3]) and d1 >= d2:
            raise diverges("growth", grow)
        edge = _edge_terms(*last) if last else []
        if edge and edge == sorted(edge) and max(edge) > err:
            raise diverges("edge", grow)
    raise NonConvergent(
        f"error {err:.3e} above tolerance {tol:.3e} after level {_MAX_LEVEL}",
        QuadResult(estimates[-1], err, n_evals),
        heuristic="tolerance",
        estimates=estimates,
    )


def _integrate_finite(g, a: float, b: float, tol: float, min_scale: float) -> QuadResult:
    def edge_map(d, upper):
        return (b - d if upper else a + d), ()

    return _tanh_sinh(g, edge_map, 0.5 * (b - a), tol, min_scale)


def _integrate_upper_inf(g, a: float, tol: float, min_scale: float) -> QuadResult:
    L = math.ldexp(1.0, math.frexp(max(1.0, abs(a)))[1] - 1)
    if L != 1.0:  # x = a + L y: the map below then follows the scale of a
        return _integrate_upper_inf(lambda y: g(a + L * y) * L, 0.0, tol, min_scale)

    # x = a + t/(1-t) maps t in (0,1): t = d at the lower end, 1 - d at the upper
    def edge_map(d, upper):
        if upper:
            # divide twice: d**2 can underflow to 0 while g(x)/d/d stays finite
            return a + (1.0 - d) / d, (d, d)
        return a + d / (1.0 - d), ((1.0 - d) ** 2,)

    return _tanh_sinh(g, edge_map, 0.5, tol, min_scale)


def _integrate_lower_inf(g, b: float, tol: float, min_scale: float) -> QuadResult:
    return _integrate_upper_inf(lambda x: g(2.0 * b - x), b, tol, min_scale)


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

    g is called on 1-d arrays of points, first on the midpoint and the
    live nodes of levels 0-4 of each interval at once, then once per
    further level (`_tanh_sinh`), and `evaluations` counts every point
    given to it, those of the first call that the rule stops before using
    included.

    Raises NonConvergent if the error estimate of an interval stays above
    tol * max(min_scale, |value|) after _MAX_LEVEL levels (its `result`
    holds that interval's last estimate), and DivergentIntegral
    when partial sums grow without bound under endpoint refinement; its
    message names the heuristic that fired and the interval.  Both carry
    the `heuristic`, the `interval` and the per-level `estimates`.
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
        try:
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
        except DivergentIntegral as exc:
            raise DivergentIntegral(
                f"{exc} on ({lo!r}, {hi!r})", heuristic=exc.heuristic, interval=(lo, hi), estimates=exc.estimates
            ) from None
        except NonConvergent as exc:
            exc.interval = (lo, hi)
            raise
        for r in rs:
            total += r.value
            err += r.error_estimate
            evals += r.evaluations
    return QuadResult(total, err, evals)


# ---------------------------------------------------------------------------
# monotone inversion
# ---------------------------------------------------------------------------

_MAX_ITER = 200  # bracketing steps of invert_monotone and _chebyshev_root


def invert_monotone(
    g: Callable[[float], float],
    target: float,
    bracket: tuple[float, float],
    tol: float = 1e-12,
    dg: Optional[Callable[[float], float]] = None,
    x0: float = math.nan,
) -> float:
    """Solve g(x) = target for strictly monotone g on `bracket`.

    Bracketing bisection refined by secant, or by Newton when dg is given;
    iterates never leave the bracket.  x0, a caller's estimate of the root
    (`_Cumulative._seed`), is the first iterate where it lies inside the
    bracket, and stands, as every iterate does, only if g there is within
    tol of the target.  The first Newton or secant step starts from x0, or
    without it from the bracket end with the smaller residual, and each
    later step from the last iterate.  Raises TargetOutOfRange when the
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
    (x_prev, f_prev), (x_cur, f_cur) = ((b, fb), (a, fa)) if abs(fa) < abs(fb) else ((a, fa), (b, fb))
    x_new = x0
    for _ in range(_MAX_ITER):
        if dg is not None and not (a < x_new < b):
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
        x_new = math.nan
    return 0.5 * (a + b)


def _march(
    g: Callable[[float], float], target: float, x0: float, g0: float, edge: float
) -> Optional[tuple[tuple[float, float], tuple[float, float]]]:
    """Points (x_prev, g(x_prev)), (x_next, g(x_next)) past x0 toward
    `edge` between which g passes target, for g monotone on the way.  The
    start comes with its value g0 = g(x0), which a table holds, and which
    gives the side the march starts on.

    The step law: toward an infinite edge the i-th step (i = 0, 1, ...) is
    max(1e-6, |x|) 2^(i-1), so x grows faster than geometrically; toward a
    finite edge the distance to it is quartered, and squared once it is
    below 1 after 40 steps, stopping at the float next to the edge.  A step
    where g is not finite is bisected back, at most 64 times: the reach
    may end short of it, with target before its end.

    None when g raises OverflowError, or x runs out of floats, before g
    passes target: the target is beyond reach.
    """
    direction = 1.0 if edge > x0 else -1.0
    x_prev, v_prev = x0, float(g0)
    side = v_prev - target
    try:
        for i in itertools.count():
            if math.isfinite(edge):
                dist = abs(edge - x_prev)
                dist = dist / 4.0 if (i < 40 or dist >= 1.0) else dist * dist
                # never closer than the float next to the edge
                x = edge - direction * max(dist, abs(edge - math.nextafter(edge, x0)))
            else:
                x = x_prev + direction * max(1e-6, abs(x_prev)) * (0.5 * 2.0**i)
            if x == x_prev or not math.isfinite(x):
                return None
            v = float(g(x))
            if not math.isfinite(v):
                for _ in range(64):
                    mid = 0.5 * (x_prev + x)
                    v = float(g(mid)) if mid not in (x_prev, x) else math.nan
                    if math.isfinite(v) and (v - target) * side <= 0.0:
                        return (x_prev, v_prev), (mid, v)
                    x_prev, v_prev, x = (mid, v, x) if math.isfinite(v) else (x_prev, v_prev, mid)
                return None
            if (v - target) * side <= 0.0:
                return (x_prev, v_prev), (x, v)
            x_prev, v_prev = x, v
    except OverflowError:
        return None


def _solve(
    g: Callable[[float], float],
    target: float,
    xs: Sequence[float],
    gs: Sequence[float],
    edges: tuple[float, float],
    tol: float,
    dg: Optional[Callable[[float], float]] = None,
    reach: Optional[Callable[[float], float]] = None,
    seed: Optional[Callable[[int, float], float]] = None,
) -> Optional[float]:
    """x with g(x) = target, for g monotone and tabulated as gs at the
    points xs: gs rises or falls along the table (falls when it has one
    entry, as a cumulative coordinate does).

    The target is bracketed between the two neighbouring entries whose
    values straddle it.  Past the first (last) entry, `_march` goes out
    from it toward edges[0] (edges[1]) on `reach`, g by default, which a
    caller gives as nan where a point is beyond reach.  invert_monotone
    then solves with the values at both ends known, since each may have
    cost a quadrature.  Between two entries k and k + 1, seed(k, target),
    when given, is its first iterate.  None when the target is beyond
    reach, which each caller reports in its own way.
    """
    s = 1.0 if gs[-1] > gs[0] else -1.0
    k = bisect.bisect_left(gs, s * target, key=lambda v: s * v)
    x0 = seed(k - 1, target) if seed and 0 < k < len(gs) else math.nan
    if 0 < k < len(gs):
        ends = (xs[k - 1], gs[k - 1]), (xs[k], gs[k])
    else:
        i = 0 if k == 0 else -1
        ends = _march(reach or g, target, xs[i], gs[i], edges[i])
        if ends is None:
            return None
    known = dict(ends)
    g_known = lambda x: known[x] if x in known else g(x)
    return invert_monotone(g_known, target, (ends[0][0], ends[1][0]), tol=tol, dg=dg, x0=x0)


# ---------------------------------------------------------------------------
# cumulative coordinates
# ---------------------------------------------------------------------------

_SEG_TOL = 1e-13  # relative tolerance of every segment mass, and of u in a solve
_STALL = 1e-7  # relative error at which a segment-mass integral has stalled
_U_CAP = 1e305  # |u| beyond which a side of a coordinate is treated as unbounded
_HALVINGS = 6  # rounds in which a segment table halves the rows the 7-15 pair does not certify

# The 7-15 Gauss-Kronrod pair on (-1, 1), QUADPACK's qk15 table (Piessens et
# al., 1983): the Kronrod nodes from the edge in to 0, their weights, and the
# Gauss weights, which sit on every second node
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
       0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)
# the 15 nodes in increasing order, and both weight sets on them
_GK_X, _GK_K, _GK_G = (np.concatenate((s * np.array(a[:-1]), a[::-1])) for s, a in ((-1, _XGK), (1, _WGK), (1, _WG)))
for _a in (_GK_X, _GK_K, _GK_G):
    _a.flags.writeable = False
_UNIT_ROUNDOFF = 0.5 * np.finfo(float).eps


@functools.cache
def _gk_antiderivative() -> np.ndarray:
    """From w's values on the Kronrod nodes of (-1, 1) to the Chebyshev
    coefficients of the integral from -1 of their degree-14 interpolant: the
    integral of each T_k (T_1, T_2/4, T_{k+1}/(2(k+1)) - T_{k-1}/(2(k-1)))
    and the constant that makes it 0 at -1, times the inverse of T_k at the
    nodes.  Formed on first use: its solve is the library's only LAPACK call,
    and only the seeds of `_Cumulative` read it."""
    j, m = np.arange(1, 15), np.zeros((16, 15))
    m[1, 0], m[j + 1, j], m[j[1:] - 1, j[1:]] = 1.0, 0.5 / (j + 1), -0.5 / j[:-1]
    m[0] = -((-1.0) ** np.arange(1, 16)[:, None] * m[1:]).sum(axis=0)
    out = np.linalg.solve(np.cos(np.arange(15)[:, None] * np.arccos(_GK_X)), m.T).T
    out.flags.writeable = False
    return out


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of the finite floats x, sorted: np.unique's
    result without its check for masked arrays, which imports numpy.ma."""
    x = np.sort(x)
    return x[np.append(True, x[1:] != x[:-1])]


def _gk_pieces(w, los, his):
    """(K15, halve, ok, values) of w on each finite interval (los[i],
    his[i]), from one call to w on the 15 Kronrod nodes of every row, whose
    values it returns (rows x 15); his[i] < los[i] gives minus the mass on
    (his[i], los[i]).  ok marks the rows the pair certifies: K15 != 0 (a
    weight that underflows there goes to tanh-sinh, whose mass may be 0.0
    as well, so knots of a table can tie: in up(halfgauss, 3) the 16 knots
    from x = 40.37 to 10504.7 all have u = 0.0, and a solve for a u above
    0 brackets it below them), |K15| <= _HUGE (past which tanh-sinh calls
    partial sums divergent), and |K15 - G7| and the rounding of the nodes
    (see below) both within _SEG_TOL |K15|, so K15 and G7 finite.  halve
    marks the rows that fail the |K15 - G7| test alone, which a segment
    table halves (`_segment_masses`); relative to K15 the rounding does not
    shrink under halving.  A call to w that raises DivergentIntegral or
    EdgeIllConditioned certifies no row, and its values are nan."""
    lo, hi = np.asarray(los, dtype=float), np.asarray(his, dtype=float)
    half = 0.5 * (hi - lo)
    xs = ((lo + half)[:, None] + half[:, None] * _GK_X).ravel()
    try:
        with np.errstate(all="ignore"):
            v = np.asarray(w(xs), dtype=float)
            v = (v if v.shape == xs.shape else np.broadcast_to(v, xs.shape)).reshape(-1, len(_GK_X))
            k15, g7 = half * (v @ _GK_K), half * (v @ _GK_G)
            # each node is rounded to a double, which moves it by up to u |x|
            # (u the unit roundoff): K15 may be off by u max(|lo|, |hi|) times
            # the variation of w across the piece, which 15 nodes do not
            # average away where w is steep far from 0
            rounding = _UNIT_ROUNDOFF * np.maximum(np.abs(lo), np.abs(hi)) * np.abs(np.diff(v, axis=1)).sum(axis=1)
            tol = _SEG_TOL * np.abs(k15)
            # nan fails every comparison, and a finite K15 within _SEG_TOL of G7 makes G7 finite
            fine = (k15 != 0.0) & (np.abs(k15) <= _HUGE) & (rounding <= tol)
            agree = np.abs(k15 - g7) <= tol
    except (DivergentIntegral, EdgeIllConditioned):
        k15, v, fine = np.full(len(lo), math.nan), np.full((len(lo), 15), math.nan), np.zeros(len(lo), dtype=bool)
        agree = fine
    return k15, fine & ~agree, fine & agree, v


def _w_mass(w, lo: float, hi: float, checked: bool = True) -> float:
    """Mass of w on (lo, hi) to _SEG_TOL, pure relative, or the last
    estimate when it does not converge.  Checked, its error must stay
    within _STALL of it: integrands behind a monotone inversion carry
    ~1e-13 relative noise, below which the convergence criterion cannot
    be met."""
    try:
        r = integrate(w, Support(lo, hi), tol=_SEG_TOL, min_scale=0.0)
    except NonConvergent as exc:
        r = exc.result
    if checked and r.error_estimate > _STALL * max(1e-280, abs(r.value)):
        raise EdgeIllConditioned(
            f"weighted segment integral on ({lo}, {hi}) stalled at error {r.error_estimate:.2e}"
        )
    return r.value


def _segment_masses(w, support: Support, knots: np.ndarray):
    """(inner, head, tail, values): the masses of w between neighbouring
    knots, from the lower edge to the first knot, and from the last knot to
    the upper edge, and w on the Kronrod nodes of the rows between knots
    (nan but in rows the pair certifies on its first call).  A divergent
    segment, or a stalled open one, has infinite mass.

    The segments between knots are first one `_gk_pieces` call, all rows
    on one call to w; a row the pair certifies keeps its K15.  A row it
    marks to halve is halved, up to _HALVINGS rounds of one `_gk_pieces`
    call on the pieces of every open row: a certified piece stands, and a
    marked one is halved again.  A row whose pieces all stand has their
    sum; one with a piece neither certified nor marked, or with pieces
    left after the last round, runs alone through _w_mass, as do the head
    and tail, which may be infinite."""

    def seg(lo: float, hi: float, open_ended: bool) -> float:
        try:
            return _w_mass(w, lo, hi)
        except (DivergentIntegral, EdgeIllConditioned) as exc:
            if open_ended or isinstance(exc, DivergentIntegral):
                return math.inf
            raise

    inner, halve, ok, values = _gk_pieces(w, knots[:-1], knots[1:])
    rows = np.flatnonzero(halve)
    alone, sums = ~ok, np.zeros(len(inner))
    alone[rows] = False
    owner, los, his = rows, knots[rows], knots[rows + 1]
    for _ in range(_HALVINGS):
        if not len(owner):
            break
        mids = 0.5 * (los + his)
        owner, los, his = owner.repeat(2), np.column_stack((los, mids)).ravel(), np.column_stack((mids, his)).ravel()
        k15, halve, ok_piece, _ = _gk_pieces(w, los, his)
        sums += np.bincount(owner[ok_piece], k15[ok_piece], len(sums))
        alone[owner[~ok_piece & ~halve]] = True
        more = halve & ~alone[owner]
        owner, los, his = owner[more], los[more], his[more]
    alone[owner] = True
    inner[rows] = sums[rows]
    for i in np.flatnonzero(alone):
        inner[i] = seg(knots[i], knots[i + 1], False)
    values = np.where(ok[:, None], values, math.nan)
    return inner, seg(support.lower, knots[0], True), seg(knots[-1], support.upper, True), values


def _chebyshev_root(coef: list, r: float) -> float:
    """t in [-1, 1] with P(t) = r, for P = sum_k coef[k] T_k(t) rising from
    P(-1) = 0: Newton in floats from the linear guess, P and P' by
    Clenshaw's recurrence, bisecting the bracket of the iterates where a
    step leaves it.  It stops at an exact zero residual, P' = 0 or a step
    that does not move, before any bisection (which would leave an exact
    root), or once no float lies inside the bracket."""
    lo, hi, top = -1.0, 1.0, sum(coef)
    t = max(lo, min(hi, 2.0 * r / top - 1.0)) if top else 0.0
    for _ in range(_MAX_ITER):
        t2, b1, b2, d1, d2 = t + t, 0.0, 0.0, 0.0, 0.0
        for c in coef[:0:-1]:
            b1, b2 = c + t2 * b1 - b2, b1
            d1, d2 = b2 + b2 + t2 * d1 - d2, d1
        f, df = coef[0] + t * b1 - b2 - r, b1 + t * d1 - d2
        lo, hi = (t, hi) if f < 0.0 else (lo, t)
        step = t - f / df if df else t
        if step == t:  # f is 0, or the step does not move
            return t
        step = step if lo < step < hi else 0.5 * (lo + hi)
        if not lo < step < hi:  # no float inside the bracket
            return t
        t = step
    return t


class _Cumulative:
    """Cumulative coordinate u(x) of a weight w >= 0 on a support, and its
    inverse: u(x) is the mass of w between x and an anchor, signed so that
    u' = -w (positive below an upper anchor, negative above a lower one).

    Built from knots, their segment masses and w on the Kronrod nodes of
    the rows between them (`_segment_masses`); nothing changes after
    construction.  A piece of u past the table (`_mass`) is one call to w
    on the 7-15 pair's nodes where the pair certifies it, and a tanh-sinh
    quadrature otherwise.  A solve (`x_of_u`) in a row with node values
    starts from the root of the row's interpolant (`_seed`), and Newton
    steps on w go on from it unless its u, one piece, is within _SEG_TOL.
    The anchor is the upper edge when the tail mass is finite, else the
    lower edge when the head mass is finite, else the median knot, unless
    the caller names one.  u is walked outward from the anchor over the
    knots; a walk stops at the first knot whose |u| passes _U_CAP, and
    such knots are dropped, the u-support `sup` being unbounded on that
    side.
    """

    def __init__(self, w, support: Support, knots: np.ndarray, masses, anchor: str = ""):
        inner, head, tail, values = masses
        n = len(knots)
        if not anchor:
            finite = math.isfinite(tail), math.isfinite(head)
            anchor = "upper" if finite[0] else "lower" if finite[1] else "median"
        i0, u0 = {"upper": (n - 1, tail), "lower": (0, -head), "median": (n // 2, 0.0)}[anchor]
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
        cap = lambda v: v if abs(v) <= _U_CAP else math.copysign(math.inf, v)
        self.sup = Support(cap(lo_u), cap(hi_u))
        self.w, self.support, self.anchor = w, support, anchor
        self.anchor_x = float(knots[i0]) if anchor == "median" else getattr(support, anchor)
        self.knots = knots[good].tolist()
        self.u_knots = u[good].tolist()
        self.values = values[good[:-1] & good[1:]]

    def _mass(self, lo: float, hi: float) -> float:
        """The mass of w on (lo, hi): the pair's K15 where it certifies the
        piece, else `_w_mass`, unchecked toward an infinite anchor (see
        u_of_x)."""
        if lo == hi:
            return 0.0
        if math.isfinite(hi - lo):
            k15, _, ok, _ = _gk_pieces(self.w, (lo,), (hi,))
            if ok[0]:
                return float(k15[0])
        return _w_mass(self.w, lo, hi, checked=math.isfinite(lo) and math.isfinite(hi))

    def _reached(self, x: float) -> float:
        """u(x), or nan where x is beyond reach: w is not finite there, its
        mass cannot be formed, or |u| passes _U_CAP."""
        try:
            if not math.isfinite(float(self.w(x))):
                return math.nan
            u = self.u_of_x(x)
        except (DivergentIntegral, EdgeIllConditioned):
            return math.nan
        return u if abs(u) <= _U_CAP else math.nan

    def u_of_x(self, x: float) -> float:
        """u at the nearest knot between x and the anchor, plus the mass
        between that knot and x; with no such knot (x beyond the table on
        the anchor side), the mass from x to the anchor.  Both terms have
        the sign of u, so u keeps full relative precision even where it
        decays by hundreds of orders of magnitude.

        A finite piece is the 7-15 pair's K15 where the pair certifies it
        (`_gk_pieces`), else a `_w_mass` quadrature.  Every quadrature is
        checked against _STALL except the mass to an infinite anchor: where
        w underflows on the way there, its error estimate is no guide (8% on
        (5.2e161, inf) for an up image of pareto(eta=3) at alpha = 3) while
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

    def _seed(self, j: int, u: float) -> float:
        """x in row j where u_j less the integral from knot j of the row's
        Kronrod interpolant of w is u; nan where the row holds no values."""
        lo, half = self.knots[j], 0.5 * (self.knots[j + 1] - self.knots[j])
        coef, r = (_gk_antiderivative() @ self.values[j]).tolist(), float(self.u_knots[j] - u) / half
        return math.nan if math.isnan(coef[0]) else lo + half * (1.0 + _chebyshev_root(coef, r))

    def x_of_u(self, u: float) -> Optional[float]:
        """The x with u(x) = u to _SEG_TOL relative, or None beyond reach,
        solved from the seed of the row that brackets u where it has one."""
        edges = (self.support.lower, self.support.upper)
        dg = lambda x: -float(self.w(x))
        return _solve(self.u_of_x, u, self.knots, self.u_knots, edges, _SEG_TOL, dg, self._reached, self._seed)


# ---------------------------------------------------------------------------
# Density
# ---------------------------------------------------------------------------


_LEVEL_TOL = 1e-13  # relative tolerance of Density.invert_level without an inverter


@dataclass(frozen=True)
class EdgeForm:
    """How f and f' behave at x0, a support edge or an interior point, as
    t -> 0+, t the distance to x0 (1/|x| at an infinite edge):

        f ~ t^a exp(-B t^-k),    |f'| ~ t^b exp(-B t^-k).

    b is None where f' vanishes identically.  f and f' share the whole
    exponential factor, as every density of the form poly(x) exp(-B|x|^k)
    does, so it cancels exactly from f^m |f'|^n with m + n = 0.  At an
    interior point the same exponents hold on both sides.
    """

    x0: float
    a: float
    b: Optional[float]
    B: float = 0.0
    k: float = 0.0


@dataclass(frozen=True, eq=False)
class Density:
    """Analytically specified density (or sub-probability weight) on a support.

    `value` and `derivative` are numpy-broadcastable callables.  Densities are
    immutable; every operation below returns a new instance.  `mass` records
    the total integral (1 for probability densities; restricted builtins may
    carry 1/2).  `edge_forms`, where known, gives the power and exponential
    behaviour of f and f' at each support edge and singular interior point
    (see EdgeForm); `_affine` carries it.
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
    # EdgeForms at both support edges and at every interior point where f'
    # vanishes or f, f' are not smooth; between them f is smooth and
    # positive and f' nonzero.  measures decides convergence from them.
    edge_forms: Optional[tuple] = None

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
        """x with value(x) = y, for monotone densities: a finite point of the
        support (each edge within EDGE_SLACK max(1, |edge|)), or
        TargetOutOfRange for a level that is not positive and finite, or
        whose level inverter fails or lands off the support."""
        if not 0.0 < y < math.inf:
            raise TargetOutOfRange(f"level {y} of {self.label!r} is not positive and finite")
        lo, hi = self.support.lower, self.support.upper
        if self.level_inverter is not None:
            try:
                x = float(self.level_inverter(y))
            except (ArithmeticError, ValueError, TypeError) as exc:
                raise TargetOutOfRange(f"level {y} of {self.label!r}: {exc}") from exc
            # slack only off the support: this runs at every point of a down image
            if math.isfinite(x) and (
                lo <= x <= hi
                or lo - EDGE_SLACK * max(1.0, abs(lo)) <= x <= hi + EDGE_SLACK * max(1.0, abs(hi))
            ):
                return x
            raise TargetOutOfRange(f"level {y} of {self.label!r} maps to {x}, off the support")
        if not self.monotone:
            raise NotMonotone(f"density {self.label!r} is not monotone; cannot invert levels")
        if not math.isfinite(lo) or not math.isfinite(hi):
            raise EdgeIllConditioned(
                f"density {self.label!r} has no level inverter and unbounded support"
            )
        bracket = (lo + EDGE_SLACK, hi - EDGE_SLACK)
        return invert_monotone(self.value, y, bracket, tol=_LEVEL_TOL, dg=self.derivative)


def _log_pair(f: Density):
    """(log f, log |f'|) callables, analytic when the density carries both.

    Otherwise they are logs of the linear values: log f is -inf where f is
    0, a genuine zero that carries no mass, and log |f'| is nan where |f'|
    under- or overflowed, since its log is then unknown.
    """
    if f.log_value is not None and f.log_abs_derivative is not None:
        return f.log_value, f.log_abs_derivative

    def lv(x):
        with np.errstate(all="ignore"):
            return np.log(np.asarray(f.value(x), dtype=float))

    def ld(x):
        with np.errstate(all="ignore"):
            out = np.log(np.abs(np.asarray(f.derivative(x), dtype=float)))
            return out + (out - out)  # out - out: 0 where finite, nan where infinite

    return lv, ld


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

    def moved(e: EdgeForm) -> EdgeForm:
        # the source's t is r times the image's (to leading order at an infinite edge)
        r = 1.0 / kappa if math.isinf(e.x0) else kappa
        return EdgeForm(image(e.x0), e.a, e.b, e.B * r**-e.k if e.B else 0.0, e.k)

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
        edge_forms=None if f.edge_forms is None else tuple(moved(e) for e in f.edge_forms),
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
        edge_forms=(EdgeForm(0.0, 0.0, 0.0), EdgeForm(_INF, 0.0, 0.0, B=r, k=1.0)),
    )


def _gauss_tail(x0: float, s: float) -> EdgeForm:
    """f ~ exp(-x^2/(2 s^2)) and |f'| ~ |x| f at an infinite edge."""
    return EdgeForm(x0, 0.0, -1.0, B=0.5 / (s * s), k=2.0)


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
        edge_forms=(EdgeForm(0.0, 0.0, 1.0), _gauss_tail(_INF, s)),
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
        edge_forms=(_gauss_tail(-_INF, s), EdgeForm(0.0, 0.0, 1.0), _gauss_tail(_INF, s)),
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
        edge_forms=(EdgeForm(m, 0.0, 0.0), EdgeForm(_INF, e, e + 1.0)),
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
        edge_forms=(EdgeForm(0.0, aa, aa - 1.0), EdgeForm(1.0, 0.0, 0.0)),
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
        edge_forms=(EdgeForm(float(a), 0.0, None), EdgeForm(float(b), 0.0, None)),
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
    try:
        kw = {k: v if k == "mode" else float(v) for k, v in kw.items()}
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"non-numeric parameter for density {key!r}: {exc}") from exc
    return factory(**kw)


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
            params[k.strip().lower()] = v.strip().lower()  # builtin converts the numbers
    return builtin(name, params)


# ---------------------------------------------------------------------------
# quantiles
# ---------------------------------------------------------------------------


def quantiles(f: Density, qs: Sequence[float]) -> np.ndarray:
    """Quantile coordinates of f at cumulative fractions qs (of f.mass).

    Both tails read one segment table of f on the `Support.clustered`
    knots, through two cumulative coordinates: q <= 1/2 solves
    u = -q mass for the one anchored at the lower edge, q > 1/2 solves
    u = (1 - q) mass for the one anchored at the upper edge.  Each solve
    holds u to 1e-13 relative (_SEG_TOL), the tolerance of the table's
    masses, so either tail keeps the relative precision of its own mass.
    """
    qs = np.asarray(qs, dtype=float)
    if np.any((qs <= 0) | (qs >= 1)):
        raise InvalidParams("quantile fractions must lie strictly inside (0, 1)")
    sup = f.support
    knots = _distinct(sup.clustered(64))
    inner, head, tail, _ = masses = _segment_masses(f.value, sup, knots)
    total = head + float(np.sum(inner)) + tail
    if not math.isfinite(total):
        raise NonConvergent(f"the mass of {f.label!r} is not resolved on its segment table")
    lower, upper = (_Cumulative(f.value, sup, knots, masses, a) for a in ("lower", "upper"))
    out = np.empty_like(qs)
    for i, q in enumerate(qs):
        x = upper.x_of_u((1.0 - q) * total) if q > 0.5 else lower.x_of_u(-q * total)
        if x is None:
            raise TargetOutOfRange(f"quantile {q} not reached before the support edge")
        out[i] = x
    return out
