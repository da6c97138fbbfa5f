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

Each refinement level calls the integrand once, on an array that holds the
level's nodes on both sides of the midpoint (the midpoint itself is a
scalar call at level 0).  The abscissae and weight factors of each level
are computed once, at unit half-width.  A side's sum stops at its first
chunk of 8 terms below 1e-17 times the running sum, and the next level
evaluates that side at most one chunk beyond it, so an integrand whose
deep nodes are costly pays for at most 8 of them per side and level.

A cumulative coordinate (`_Cumulative`) is the mass u(x) of a weight w
between x and an anchor, signed so that u' = -w.  A table of knots holds
u, cumulated once from segment masses to 1e-13 relative, and u(x) adds
one quadrature from the nearest knot toward the anchor.  The up
transform's coordinate (w = f/U) and the quantiles of f (w = f, anchored
at either edge) are such coordinates.  A table's segments between knots
are one batched tanh-sinh pass (`_integrate_many`): each segment is a row
that follows the rule above, and each level makes one integrand call on
the nodes of every row still open.  A row that leaves clean convergence
(a term that is not finite, a partial sum past 1e50, a last chunk that is
not negligible, or no convergence by the last level) is run again alone
through `integrate`, whose checks decide it, as are the head and tail
segments, which may be infinite.  Every inversion past a table goes
through `_solve`: it brackets the target between neighbouring entries, or
marches out from the outermost one (`_march`), and hands invert_monotone
the values at both ends, which the table or the march already holds.
"""

from __future__ import annotations

import bisect
import functools
import itertools
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
_TRUNC_EPS = 1e-17   # a side stops at its first chunk of terms below eps * sum
_CHUNK = 8


@functools.cache
def _level_nodes(level: int):
    """One level's abscissae t > 0 (multiples of h = 1 at level 0, odd
    multiples of h = 2^-level after it) as a tuple, their edge distance
    fractions 1 - tanh y = 2/(e^{2y} + 1), y = pi/2 sinh t, the weight
    factors cosh t and cosh^2 y (kept apart, so that each weight is formed
    as (half pi/2) cosh t / cosh^2 y in one order).  The midpoint t = 0 is
    evaluated on its own."""
    h = 2.0**-level
    ts = np.arange(0.0, _TMAX, h) if level == 0 else np.arange(h, _TMAX, 2.0 * h)
    y = _PI_2 * np.sinh(ts)
    with np.errstate(over="ignore"):
        arrays = [2.0 / (np.exp(2.0 * y) + 1.0), np.cosh(ts), np.cosh(y) ** 2]
    arrays = [a[1:] if level == 0 else a for a in arrays]
    for a in arrays:
        a.flags.writeable = False
    return tuple((ts[1:] if level == 0 else ts).tolist()), *arrays


def _side_sum(terms: np.ndarray, total: float, max_term: float):
    """(terms used, total, largest term so far) after adding one side's
    terms to the running sum `total` by chunks of _CHUNK: pairwise within
    a chunk, in turn across chunks.  The side stops after its first chunk
    whose largest term is at most _TRUNC_EPS max(|running sum|, largest
    term so far) -- unless every term so far is 0: an integrand that
    underflows near the midpoint must not stop a side before it reaches
    the mass at the endpoint."""
    n = len(terms)
    if not n:
        return 0, total, max_term
    full = n - n % _CHUNK
    parts = [(total,), np.add.reduce(terms[:full].reshape(-1, _CHUNK), axis=1)]
    if full < n:
        parts.append((np.add.reduce(terms[full:]),))
    running = np.add.accumulate(np.concatenate(parts))[1:]
    peaks = np.maximum.reduceat(np.abs(terms), np.arange(0, n, _CHUNK))
    largest = np.maximum.accumulate(peaks)
    np.maximum(largest, max_term, out=largest)
    stop = (peaks <= _TRUNC_EPS * np.maximum(np.abs(running), largest)) & (largest > 0.0)
    c = int(stop.argmax())
    if not stop[c]:
        c = len(stop) - 1
    return min(n, (c + 1) * _CHUNK), float(running[c]), float(largest[c])


def _ts_level_sum(g, edge_map, half: float, level: int, reach: list):
    """One tanh-sinh level: sum of weight * integrand over its nodes.

    edge_map(d, upper) gives the x at distance d from the upper (or lower)
    end and the divisors of the Jacobian in the order they apply: working
    from the edge distance avoids catastrophic cancellation for singular
    integrands.  reach[side] (upper side first, updated in place) is the
    outermost t the previous level used on that side; at most _CHUNK nodes
    past it are evaluated, since deep nodes can be very expensive for
    transform-backed integrands.
    """
    ts, dfrac, cosh_t, cosh2_y = _level_nodes(level)
    total = 0.0
    n_evals = 0
    edge_terms: list[float] = []
    if level == 0:
        # t = 0 contributes once: the midpoint, distance `half` from either end
        x, jac = edge_map(half, True)
        v0 = g(x)
        for q in jac:
            v0 = v0 / q
        v0 = float(v0)
        if math.isinf(v0):
            raise DivergentIntegral("integrand not finite at interval midpoint")
        if math.isnan(v0):
            v0 = 0.0  # overflow-times-underflow product: no representable mass
        total += half * _PI_2 * v0
        n_evals += 1
    caps = [bisect.bisect_right(ts, r) + _CHUNK for r in reach]
    n = min(len(ts), max(caps))
    w = half * _PI_2 * cosh_t[:n] / cosh2_y[:n]
    deltas = half * dfrac[:n]
    # live nodes (weight and distance not underflowed) are a prefix
    live = n
    if not (w[n - 1] > 0.0 and deltas[n - 1] > 0.0):
        live = int(np.count_nonzero((w > 0.0) & (deltas > 0.0)))
    counts = [min(c, live) for c in caps]
    if not sum(counts):
        return total, n_evals, edge_terms
    sides = [edge_map(deltas[:k], upper) for k, upper in zip(counts, (True, False))]
    xs = np.concatenate([x for x, _ in sides])
    vs = np.asarray(g(xs), dtype=float)
    # np.broadcast_to costs ten times the shape test: keep it off the common path
    vs = vs if vs.shape == xs.shape else np.broadcast_to(vs, xs.shape)
    n_evals += len(xs)
    max_term = abs(total)
    for side, (k, (_, jac)) in enumerate(zip(counts, sides)):
        v, vs = vs[:k], vs[k:]
        for q in jac:
            v = v / q
        terms = w[:k] * v
        bad = None
        if not math.isfinite(np.add.reduce(terms)):
            bad = ~np.isfinite(terms)
            terms = np.where(bad, 0.0, terms)
        used, total, max_term = _side_sum(terms, total, max_term)
        # weight underflow times a singular value gives nan; those nodes
        # carry no mass for integrable edges -- but a genuine inf means the
        # integrand outgrows the weight decay
        if bad is not None and np.isinf(v[:used][bad[:used]]).any():
            raise DivergentIntegral("integrand grows faster than the node weights decay")
        if not used:
            continue
        reach[side] = ts[used - 1]
        last3 = np.abs(terms[max(used - 3, (used - 1) // _CHUNK * _CHUNK) : used]).tolist()
        # keep the side whose outermost terms are largest: the divergence
        # heuristic watches for edges that fail to decay
        if not edge_terms or max(last3) > max(edge_terms):
            edge_terms = last3
    return total, n_evals, edge_terms


def _tanh_sinh(g, edge_map, half: float, tol: float, min_scale: float) -> QuadResult:
    """Adaptive tanh-sinh on an interval of half-width `half`, whose ends
    edge_map locates (see _ts_level_sum).  Each level makes one array call
    to g for both sides (and level 0 a scalar call at the midpoint first),
    on nodes cached per level (_level_nodes).  A side stops at its first
    chunk of terms below _TRUNC_EPS times the running sum, and is evaluated
    at most one chunk (_CHUNK nodes) past where it stopped at the previous
    level; a side that has not stopped by then stops there."""
    h = 1.0
    s = 0.0
    n_evals = 0
    estimates: list[float] = []
    last_edge: list[float] = []
    reach = [math.inf, math.inf]
    for level in range(_MAX_LEVEL + 1):
        with np.errstate(all="ignore"):
            ds, ne, edge = _ts_level_sum(g, edge_map, half, level, reach)
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


def _integrate_many(g, los: np.ndarray, his: np.ndarray, tol: float):
    """(values, errors) of the integrals of g over the finite intervals
    (los[i], his[i]), each by the rule of `_tanh_sinh` at min_scale = 0:
    the same nodes, per-side reach and truncation, and stop test, so each
    row's value and evaluations are those of its own `integrate`.  The
    rows' state lives in arrays, and each level makes one call to g on the
    nodes of every row still open (level 0 adds the midpoints).

    A row that leaves clean convergence comes back as nan, for the caller
    to run through `integrate`, whose checks then decide it: a midpoint or
    term that is not finite, |estimate| past _HUGE, a last chunk not
    negligible against 1e3 tol |estimate| (a superset of the edge test of
    `_tanh_sinh`), no convergence by _MAX_LEVEL, or a call to g that raises
    DivergentIntegral or EdgeIllConditioned (every open row)."""
    values, errors = np.full(len(los), math.nan), np.full(len(los), math.nan)
    rows = np.arange(len(los))
    lo, hi = np.asarray(los, dtype=float), np.asarray(his, dtype=float)
    half = 0.5 * (hi - lo)
    s, edge = np.zeros(len(rows)), np.zeros(len(rows))
    reach = np.full((2, len(rows)), math.inf)  # upper side first, as in _ts_level_sum

    def side_sums(terms, k, total, max_term):
        """_side_sum on every row at once, row i using its first k[i] terms:
        (used, total, largest term, peak of the last chunk used)."""
        r, nch = len(k), -(-terms.shape[1] // _CHUNK)
        t3 = np.zeros((r, nch * _CHUNK))
        t3[:, : terms.shape[1]] = terms
        t3 = t3.reshape(r, nch, _CHUNK)
        sums = np.add.reduce(t3, axis=2)  # pairwise over 8 terms, as _side_sum's full chunks
        # np.add.reduce sums fewer than 8 terms in turn: so does a row's partial chunk
        ri, last = np.arange(r), np.minimum(k // _CHUNK, nch - 1)
        part = ri[k % _CHUNK > 0]
        sums[part, last[part]] = np.add.accumulate(t3[part, last[part]], axis=1)[:, -1]
        running = np.add.accumulate(np.column_stack([total, sums]), axis=1)
        peaks = np.abs(t3).max(axis=2)
        largest = np.maximum.accumulate(np.column_stack([max_term, peaks]), axis=1)
        nk = -(-k // _CHUNK)
        stop = (peaks <= _TRUNC_EPS * np.maximum(np.abs(running[:, 1:]), largest[:, 1:])) & (
            largest[:, 1:] > 0.0
        ) & (np.arange(nch) < nk[:, None])
        c = np.where(stop.any(axis=1), stop.argmax(axis=1), nk - 1)
        return np.minimum(k, (c + 1) * _CHUNK), running[ri, c + 1], largest[ri, c + 1], peaks[ri, c]

    for level in range(_MAX_LEVEL + 1):
        if not len(rows):
            break
        ts, dfrac, cosh_t, cosh2_y = _level_nodes(level)
        ts = np.array(ts)
        caps = np.searchsorted(ts, reach, side="right") + _CHUNK
        n = min(len(ts), int(caps.max()))
        w = (half * _PI_2)[:, None] * cosh_t[:n] / cosh2_y[:n]
        deltas = half[:, None] * dfrac[:n]
        counts = np.minimum(caps, np.count_nonzero((w > 0.0) & (deltas > 0.0), axis=1))
        masks = np.arange(n) < counts[:, :, None]
        parts = [(hi[:, None] - deltas)[masks[0]], (lo[:, None] + deltas)[masks[1]]]
        if level == 0:
            parts.insert(0, hi - half)
        xs = np.concatenate(parts)
        with np.errstate(all="ignore"):
            try:
                vs = np.asarray(g(xs), dtype=float) if len(xs) else xs
            except (DivergentIntegral, EdgeIllConditioned):
                break  # they decide a segment one by one: hand back every open row
            vs = vs if vs.shape == xs.shape else np.broadcast_to(vs, xs.shape)
            total = np.zeros(len(rows))
            if level == 0:
                total, vs = half * _PI_2 * vs[: len(rows)], vs[len(rows) :]
            bad = ~np.isfinite(total)
            max_term = np.abs(total)
            level_edge = np.full(len(rows), -1.0)
            for side, mask in enumerate(masks):
                v, m = np.zeros(mask.shape), int(counts[side].sum())
                v[mask], vs = vs[:m], vs[m:]
                terms = w * v
                bad |= ~np.isfinite(terms).all(axis=1)
                used, total, max_term, peak = side_sums(terms, counts[side], total, max_term)
                reach[side] = np.where(used > 0, ts[used - 1], reach[side])
                level_edge = np.where(used > 0, np.maximum(level_edge, peak), level_edge)
            s += total
            est = 2.0**-level * s
            edge = np.where(level_edge >= 0.0, level_edge, edge)
            drop = bad | (np.abs(est) > _HUGE)
            if level >= 2:
                err = np.abs(est - prev)
                scale = np.where(est == 0.0, 1.0, np.abs(est))
                done = ~drop & (err <= tol * scale)
                clean = done & ~(edge > 1e3 * tol * scale)
                values[rows[clean]], errors[rows[clean]] = est[clean], err[clean]
                drop |= done
        keep = ~drop
        rows, lo, hi, half, s, edge, reach = (a[..., keep] for a in (rows, lo, hi, half, s, edge, reach))
        prev = est[keep]
    return values, errors


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
    below 1 after 40 steps, stopping at the float next to the edge.

    None when g stops being finite (an OverflowError counts) or x runs out
    of floats before g passes target: the target is beyond reach.
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
) -> Optional[float]:
    """x with g(x) = target, for g monotone and tabulated as gs at the
    points xs: gs rises or falls along the table (falls when it has one
    entry, as a cumulative coordinate does).

    The target is bracketed between the two neighbouring entries whose
    values straddle it.  Past the first (last) entry, `_march` goes out
    from it toward edges[0] (edges[1]) on `reach`, g by default, which a
    caller gives as nan where a point is beyond reach.  invert_monotone
    then solves with the values at both ends known, since each may have
    cost a quadrature.  None when the target is beyond reach, which each
    caller reports in its own way.
    """
    s = 1.0 if gs[-1] > gs[0] else -1.0
    k = bisect.bisect_left(gs, s * target, key=lambda v: s * v)
    if 0 < k < len(gs):
        ends = (xs[k - 1], gs[k - 1]), (xs[k], gs[k])
    else:
        i = 0 if k == 0 else -1
        ends = _march(reach or g, target, xs[i], gs[i], edges[i])
        if ends is None:
            return None
    known = dict(ends)
    g_known = lambda x: known[x] if x in known else g(x)
    return invert_monotone(g_known, target, (ends[0][0], ends[1][0]), tol=tol, dg=dg)


# ---------------------------------------------------------------------------
# cumulative coordinates
# ---------------------------------------------------------------------------

_SEG_TOL = 1e-13  # relative tolerance of every segment mass, and of u in a solve
_STALL = 1e-7  # relative error at which a segment-mass integral has stalled
_U_CAP = 1e305  # |u| beyond which a side of a coordinate is treated as unbounded


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
    """(inner, head, tail): the masses of w between neighbouring knots, from
    the lower edge to the first knot, and from the last knot to the upper
    edge.  A divergent segment, or a stalled open one, has infinite mass.

    The segments between knots are one `_integrate_many` pass; a row it
    hands back, or whose error would fail _w_mass's stall check, runs
    alone through _w_mass, as do the head and tail, which may be
    infinite."""

    def seg(lo: float, hi: float, open_ended: bool) -> float:
        try:
            return _w_mass(w, lo, hi)
        except (DivergentIntegral, EdgeIllConditioned) as exc:
            if open_ended or isinstance(exc, DivergentIntegral):
                return math.inf
            raise

    inner, err = _integrate_many(w, knots[:-1], knots[1:], _SEG_TOL)
    for i in np.flatnonzero(~(err <= _STALL * np.maximum(1e-280, np.abs(inner)))):
        inner[i] = seg(knots[i], knots[i + 1], False)
    return inner, seg(support.lower, knots[0], True), seg(knots[-1], support.upper, True)


class _Cumulative:
    """Cumulative coordinate u(x) of a weight w >= 0 on a support, and its
    inverse: u(x) is the mass of w between x and an anchor, signed so that
    u' = -w (positive below an upper anchor, negative above a lower one).

    Built from knots and their segment masses (`_segment_masses`); nothing
    changes after construction.  The anchor is the upper edge when the tail
    mass is finite, else the lower edge when the head mass is finite, else
    the median knot, unless the caller names one.  u is walked outward from
    the anchor over the knots; a walk stops at the first knot whose |u|
    passes _U_CAP, and such knots are dropped, the u-support `sup` being
    unbounded on that side.
    """

    def __init__(self, w, support: Support, knots: np.ndarray, masses, anchor: str = ""):
        inner, head, tail = masses
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

    def _mass(self, lo: float, hi: float) -> float:
        if lo == hi:
            return 0.0
        # unchecked toward an infinite anchor: see u_of_x
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

        Every piece is checked against _STALL except the mass to an infinite
        anchor: where w underflows on the way there, its error estimate is
        no guide (8% on (5.2e161, inf) for an up image of pareto(eta=3) at
        alpha = 3) while its value is right."""
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

    def x_of_u(self, u: float) -> Optional[float]:
        """The x with u(x) = u to _SEG_TOL relative, or None beyond reach."""
        edges = (self.support.lower, self.support.upper)
        dg = lambda x: -float(self.w(x))
        return _solve(self.u_of_x, u, self.knots, self.u_knots, edges, _SEG_TOL, dg, self._reached)


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
    knots = np.unique(sup.clustered(64))
    inner, head, tail = masses = _segment_masses(f.value, sup, knots)
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
