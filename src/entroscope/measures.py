"""Informational functionals of a density: moments, entropies, Fisher-type.

Every measure is a pure quadrature over the density's declared support,
run to the fixed relative tolerance _TOL = 1e-10.  Supports containing the
origin are split there before integrating, since |x|^p weights and
symmetrized densities are kinked or singular at 0.

Negative moment orders are accepted (they arise in the mirrored parameter
domain); a divergent integral raises DivergentIntegral rather than
returning garbage.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import Density, QuadResult, Support, integrate
from .errors import DivergentIntegral, InvalidParams, MissingDerivative, OutOfDomain, Unbounded

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


def _quad(f: Density, integrand, points: Optional[tuple] = None) -> QuadResult:
    pts = _split_points(f) if points is None else points
    return integrate(integrand, f.support, tol=_TOL, points=pts)


def _log_pair(f: Density):
    """(log f, log |f'|) callables, analytic when the density carries them."""
    if f.log_value is not None and f.log_abs_derivative is not None:
        return f.log_value, f.log_abs_derivative

    def lv(x):
        v = np.asarray(f.value(x), dtype=float)
        with np.errstate(all="ignore"):
            return np.where(v > 0, np.log(np.where(v > 0, v, 1.0)), -math.inf)

    def ld(x):
        dv = np.asarray(f.derivative(x), dtype=float)
        with np.errstate(all="ignore"):
            return np.log(np.abs(dv))

    return lv, ld


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
        r = _quad(f, lambda x: f.value(x) * np.log(np.abs(np.asarray(x, dtype=float))))
        return math.exp(r.value)
    r = _quad(f, lambda x: np.abs(np.asarray(x, dtype=float)) ** p * f.value(x))
    if r.value <= 0:
        raise DivergentIntegral(f"absolute moment of order {p} is not positive")
    return r.value ** (1.0 / p)


def log_moment(f: Density, p: float) -> float:
    """sigma_p^(L) = int f |log|x||^p dx (the integral itself, no 1/p root)."""
    if p < 0:
        raise InvalidParams("log_moment requires p >= 0")
    pts = set(_split_points(f))
    for s in (-1.0, 1.0):  # |log|x|| vanishes non-smoothly at |x| = 1
        if f.support.contains(s):
            pts.add(s)
    r = _quad(
        f,
        lambda x: f.value(x) * np.abs(np.log(np.abs(np.asarray(x, dtype=float)))) ** p,
        points=tuple(sorted(pts)),
    )
    return r.value


def exp_moment(f: Density, p: float) -> float:
    """sigma_p^(E) = <e^{-p x}>^{1/p}."""
    if p == 0:
        raise InvalidParams("exp_moment requires p != 0")
    r = _quad(f, lambda x: np.exp(-p * np.asarray(x, dtype=float)) * f.value(x))
    return r.value ** (1.0 / p)


def renyi_power(f: Density, lam: float) -> float:
    """Rényi entropy power N_lambda = (int f^lambda)^{1/(1-lambda)}; N_1 = e^S."""
    if abs(lam - 1.0) < _SHANNON_WINDOW:
        return math.exp(shannon(f))
    r = _quad(f, lambda x: f.value(x) ** lam)
    return r.value ** (1.0 / (1.0 - lam))


def shannon(f: Density) -> float:
    """Shannon entropy S = -int f log f."""

    def integrand(x):
        v = np.asarray(f.value(x), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(v > 0.0, -v * np.log(np.where(v > 0.0, v, 1.0)), 0.0)
        return out

    return _quad(f, integrand).value


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

    lv_fn, ld_fn = _log_pair(f)

    def integrand(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            lv = np.asarray(lv_fn(x), dtype=float)
            ld = np.asarray(ld_fn(x), dtype=float)
            out = np.exp(p * ((lam - 2.0) * lv + ld) + lv)
        # genuine zeros of f (log = -inf) contribute nothing
        return np.where(np.isneginf(lv), 0.0, out)

    return _quad(f, integrand).value


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
    lambda-root), evaluated on the clustered probe grid of the support with
    local refinement."""
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
    k = int(np.argmax(vals))
    lo = xs[max(0, k - 1)]
    hi = xs[min(len(xs) - 1, k + 1)]
    # golden-section refinement of the bracketed maximum
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = h(c), h(d)
    for _ in range(80):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = h(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = h(d)
    best = max(vals.max(), fc, fd)
    # probe geometrically toward finite support edges: the supremum may sit
    # at an edge, and values growing without bound there signal Unbounded
    for edge, inward in ((f.support.lower, +1.0), (f.support.upper, -1.0)):
        if not math.isfinite(edge):
            continue
        scale = max(1.0, abs(edge))
        seq = [h(edge + inward * scale * 2.0**-k) for k in range(8, 48)]
        seq = [v for v in seq if math.isfinite(v)]
        if len(seq) >= 3 and seq[-1] > seq[-2] > seq[-3] and seq[-1] > 1e8 * max(1.0, best):
            raise Unbounded("fisher_sup grows without bound toward a support edge")
        if seq:
            best = max(best, max(seq))
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
        except Exception:
            pass

    def integrand(x):
        v = np.asarray(f.value(x), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            lg = np.where(v > 0.0, np.log(np.where(v > 0.0, v, 1.0)), 0.0)
        return v * np.abs(lg) ** p

    r = _quad(f, integrand, points=tuple(sorted(pts)))
    return r.value ** (1.0 / p)


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
        args.append(float(val))
    value = fn(f, *args)
    return {"measure": measure_id, "value": float(value), "error_estimate": _TOL * max(1.0, abs(value))}
