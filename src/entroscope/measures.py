"""Informational functionals of a density: moments, entropies, Fisher-type.

Each moment and entropy is an expectation E[h] under the density, written
as its h: of the coordinate t (|t|^p, log|t|, e^{-pt}) or of the log value
(f^{lambda-1}, -log f, |log f|^p).  One hook, `_expect`, integrates h f
by tanh-sinh to the fixed relative tolerance _TOL = 1e-10.  For a down or
up image it integrates by pullback to the source: the transforms preserve
mass, D(s(x)) |s'(x)| = f(x), so E[h] is int h(s(x)) f(x) dx, or
int h(log D(x)) f(x) dx, over the source support, with s and log D the
image's maps at x.  No quadrature node inverts anything; a split point
given in the image coordinate costs one inversion.
A plain density is its own source.  Supports containing the origin are
split there, since |x|^p weights and symmetrized densities are kinked or
singular at 0.  The Fisher-type functionals integrate over the density's
own support, through its pointwise values; of a down or up image they
raise MissingDerivative, since pointwise values would invert at every
node, and their pullback is not implemented.

Negative moment orders are accepted (they arise in the mirrored parameter
domain); a divergent integral raises DivergentIntegral rather than
returning garbage.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import Density, _log_pair, integrate
from .errors import (
    DivergentIntegral,
    EntroscopeError,
    InvalidParams,
    MissingDerivative,
    OutOfDomain,
    Unbounded,
)

__all__ = [
    "holder_conjugate",
    "typical_deviation",
    "log_moment",
    "exp_moment",
    "renyi_power",
    "shannon",
    "tsallis",
    "fisher",
    "fisher_integral",
    "fisher_sup",
    "fisher_zero",
    "entropic_Sp",
    "MEASURE_IDS",
    "evaluate_measure",
]

# Rényi orders within this distance of 1 route to the Shannon branch to
# avoid catastrophic cancellation in 1/(1 - lambda).
_SHANNON_WINDOW = 1e-9
_TOL = 1e-10  # relative tolerance of every measure's quadrature
_SUP_GRID = 400  # probe points of fisher_sup
_ZOOM = 17  # points of each zoom round of fisher_sup: a round keeps 2/16 of its bracket
_ROUNDS = 19  # zoom rounds of fisher_sup: 8^-19 ~ 7e-18 of the two grid cells is left


def holder_conjugate(p: float) -> float:
    """p* = p/(p-1); p=1 maps to the infinity marker, p=0 to 0."""
    if p == 1:
        return math.inf
    if math.isinf(p):
        return 1.0
    if p == 0:
        return 0.0
    return p / (p - 1.0)


def _split_points(f: Density) -> tuple:
    return (0.0,) if f.support.contains(0.0) else ()


def _expect(f: Density, h, points: Optional[tuple] = None, coordinate: bool = False) -> float:
    """int h f over the support of f: h(log |t|, sign t) of the coordinate
    t when `coordinate`, else h(log f(t)) of the log value.

    An image (a TransformedDensity with its maps) is integrated as an
    expectation under its source f_src: mass is preserved, so this is
    int h(m(x)) f_src(x) dx over the source support, m the image's
    log_coordinate_at or log_value_at.  A plain density is its own source
    under the identity map.  The split points are given in f's coordinate (by
    default 0 when inside the support); each is taken to the source by the
    image's locate, one inversion per point and none per quadrature node,
    and the source's own 0 is added."""
    pts = _split_points(f) if points is None else points
    plain = getattr(f, "locate", None) is None
    src = f if plain else f.source
    cuts = set(_split_points(src))
    for t in pts:
        x = t if plain else f.locate(t)
        if x is not None:
            cuts.add(float(x))

    # integrate calls this under np.errstate(all="ignore"), and a term that
    # is nan (0 times an infinite h where the source vanishes) carries no mass
    def integrand(x):
        fs = np.asarray(src.value(x), dtype=float)
        if not coordinate:
            return h(np.log(fs) if plain else f.log_value_at(x)) * fs
        if plain:
            return h(np.log(np.abs(x)), np.sign(x)) * fs
        log_t, sign = f.log_coordinate_at(x)
        # an image coordinate that rounds onto t = 0, a split point, has no
        # usable log|t| (h may be log-singular there): nan, no mass
        return h(np.where(log_t > -np.inf, log_t, np.nan), sign) * fs

    return integrate(integrand, src.support, tol=_TOL, points=tuple(sorted(cuts))).value


def typical_deviation(f: Density, p: float) -> float:
    """sigma_p: p-th absolute moment to the power 1/p.

    p = 0 returns exp(<log|x|>); p = inf returns the essential supremum of
    |x| over the support.  Negative p is allowed when |x|^p f stays
    integrable.
    """
    if math.isinf(p):
        lo, hi = f.support.lower, f.support.upper
        return max(abs(lo), abs(hi))
    if p == 0:
        return math.exp(_expect(f, lambda lt, _: lt, coordinate=True))
    v = _expect(f, lambda lt, _: np.exp(p * lt), coordinate=True)
    if v <= 0:
        raise DivergentIntegral(f"absolute moment of order {p} is not positive")
    return v ** (1.0 / p)


def log_moment(f: Density, p: float) -> float:
    """sigma_p^(L) = int f |log|x||^p dx (the integral itself, no 1/p root)."""
    if p < 0:
        raise InvalidParams("log_moment requires p >= 0")
    # |log|x|| vanishes non-smoothly at |x| = 1
    pts = set(_split_points(f)) | {s for s in (-1.0, 1.0) if f.support.contains(s)}
    return _expect(f, lambda lt, _: np.abs(lt) ** p, tuple(sorted(pts)), coordinate=True)


def exp_moment(f: Density, p: float) -> float:
    """sigma_p^(E) = <e^{-p x}>^{1/p}."""
    if p == 0:
        raise InvalidParams("exp_moment requires p != 0")
    h = lambda lt, sign: np.exp(-p * sign * np.exp(lt))
    return _expect(f, h, coordinate=True) ** (1.0 / p)


def renyi_power(f: Density, lam: float) -> float:
    """Rényi entropy power N_lambda = (int f^lambda)^{1/(1-lambda)}; N_1 = e^S."""
    if abs(lam - 1.0) < _SHANNON_WINDOW:
        return math.exp(shannon(f))
    return _expect(f, lambda lv: np.exp((lam - 1.0) * lv)) ** (1.0 / (1.0 - lam))


def shannon(f: Density) -> float:
    """Shannon entropy S = -int f log f."""
    return _expect(f, lambda lv: -lv)


def tsallis(f: Density, lam: float) -> float:
    """Tsallis entropy via the one-to-one map from the Rényi power."""
    if abs(lam - 1.0) < _SHANNON_WINDOW:
        return shannon(f)
    n = renyi_power(f, lam)
    return (n ** (1.0 - lam) - 1.0) / (1.0 - lam)


def fisher_integral(f: Density, p: float, lam: float) -> float:
    """Raw Fisher-type integral  int |f^{lam-2} f'|^p f dx  (no root applied).

    Accepts any p != 0; negative orders occur in the mirrored domain and in
    the Fisher moment-sequence maps.
    """
    if f.derivative is None:
        raise MissingDerivative("fisher functionals require an analytic derivative")
    if getattr(f, "locate", None) is not None:
        # through pointwise values every node would cost an inversion; the
        # pullback to the source needs the zero split of alpha - f f''/f'^2
        raise MissingDerivative(
            f"fisher functionals of the image {f.label!r} need its pullback, not implemented"
        )

    lv_fn, ld_fn = _log_pair(f)

    def integrand(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            lv = np.asarray(lv_fn(x), dtype=float)
            ld = np.asarray(ld_fn(x), dtype=float)
            out = np.exp(p * ((lam - 2.0) * lv + ld) + lv)
        # genuine zeros of f (log = -inf) contribute nothing
        return np.where(np.isneginf(lv), 0.0, out)

    return integrate(integrand, f.support, tol=_TOL, points=_split_points(f)).value


def fisher(f: Density, p: float, lam: float) -> float:
    """(p, lambda)-Fisher information phi_{p,lambda} = (int |f^{lam-2} f'|^p f)^{1/(p lam)}."""
    if p == 0:
        raise InvalidParams("fisher requires p != 0")
    if lam == 0:
        raise OutOfDomain("fisher requires lambda != 0 (see fisher_zero for the limit)")
    v = fisher_integral(f, p, lam)
    if v == 0.0 and p * lam < 0:
        raise DivergentIntegral("Fisher integral is zero under a negative root")
    return v ** (1.0 / (p * lam))


def fisher_sup(f: Density, lam: float) -> float:
    """sup_x |f^{lam-2}(x) f'(x)|, the p -> infinity Fisher limit (up to the
    lambda-root).  The integrand is probed on the clustered grid of the
    support, and the two grid cells around its best point are zoomed in
    _ROUNDS rounds of _ZOOM evenly spaced points, each round keeping the
    neighbours of its best point.  Each finite support edge is probed with
    one call on 40 points approaching it geometrically: the supremum may
    sit at an edge, and values growing without bound there raise Unbounded.
    Every evaluation is one array call, 1 + _ROUNDS + 2 at most."""
    if f.derivative is None:
        raise MissingDerivative("fisher_sup requires an analytic derivative")
    if abs(lam - 1.0) < _SHANNON_WINDOW:
        raise OutOfDomain("fisher_sup requires lambda != 1")
    lv_fn, ld_fn = _log_pair(f)

    def h(x):
        with np.errstate(all="ignore"):
            lv = np.asarray(lv_fn(x), dtype=float)
            out = np.exp((lam - 2.0) * lv + np.asarray(ld_fn(x), dtype=float))
        # genuine zeros of f (log = -inf) contribute nothing, as in fisher_integral
        return np.where(np.isneginf(lv), 0.0, out)

    xs = f.support.clustered(_SUP_GRID)
    vals = h(xs)
    if not np.all(np.isfinite(vals)):
        raise Unbounded("fisher_sup integrand unbounded on the probe grid")
    best = vals.max()
    for _ in range(_ROUNDS):
        k = int(np.argmax(vals))
        xs = np.linspace(xs[max(0, k - 1)], xs[min(len(xs) - 1, k + 1)], _ZOOM)
        vals = np.fmax(h(xs), -np.inf)  # a nan, where f' is unknown, never wins
        best = max(best, vals.max())
    for edge, inward in ((f.support.lower, +1.0), (f.support.upper, -1.0)):
        if not math.isfinite(edge):
            continue
        seq = h(edge + inward * max(1.0, abs(edge)) * 2.0 ** -np.arange(8.0, 48.0))
        seq = seq[np.isfinite(seq)]
        if len(seq) >= 3 and seq[-1] > seq[-2] > seq[-3] and seq[-1] > 1e8 * max(1.0, best):
            raise Unbounded("fisher_sup grows without bound toward a support edge")
        if seq.size:
            best = max(best, seq.max())
    return float(best)


def fisher_zero(f: Density, q: float) -> float:
    """F_{q,0}[f] = int (|f'| / f^2)^q f dx (un-rooted): the lambda = 0
    Fisher integral."""
    return fisher_integral(f, q, 0.0)


def entropic_Sp(f: Density, p: float) -> float:
    """S-bar_p = (int f |ln f|^p)^{1/p}."""
    if not p > 0:
        raise InvalidParams("entropic_Sp requires p > 0")
    pts = set(_split_points(f))
    # |ln f| is kinked where f = 1
    if f.monotone:
        try:
            x1 = f.invert_level(1.0)
            if f.support.contains(x1, slack=1e-12):
                pts.add(float(x1))
        except EntroscopeError:
            pass
    return _expect(f, lambda lv: np.abs(lv) ** p, tuple(sorted(pts))) ** (1.0 / p)


# ---------------------------------------------------------------- registry

# id -> (measure, names of its parameters in call order)
_MEASURES = {
    "sigma": (typical_deviation, ("p",)),
    "sigmaL": (log_moment, ("p",)),
    "sigmaE": (exp_moment, ("p",)),
    "renyiN": (renyi_power, ("lambda",)),
    "shannon": (shannon, ()),
    "tsallis": (tsallis, ("lambda",)),
    "fisher": (fisher, ("p", "lambda")),
    "fisherSup": (fisher_sup, ("lambda",)),
    "fisherZero": (fisher_zero, ("q",)),
    "Sbar": (entropic_Sp, ("p",)),
}
MEASURE_IDS = tuple(_MEASURES)


def evaluate_measure(measure_id: str, f: Density, **params) -> dict:
    """Evaluate a measure by its stable string id; returns value and an
    error estimate suitable for machine-readable reports.  The parameter
    lambda may be passed as `lam` or `lambda`."""
    if measure_id not in _MEASURES:
        raise InvalidParams(f"unknown measure id {measure_id!r}")
    fn, names = _MEASURES[measure_id]
    args = []
    for name in names:
        val = params.get("lam", params.get("lambda")) if name == "lambda" else params.get(name)
        if val is None:
            raise InvalidParams(f"measure {measure_id!r} requires parameter {name!r}")
        try:
            args.append(float(val))
        except (TypeError, ValueError) as exc:
            raise InvalidParams(f"non-numeric {name!r} for measure {measure_id!r}: {exc}") from exc
    value = fn(f, *args)
    return {"measure": measure_id, "value": float(value), "error_estimate": _TOL * max(1.0, abs(value))}
