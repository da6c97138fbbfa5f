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

Divergence is decided before any quadrature where the source carries edge
forms (`core.EdgeForm`: f ~ t^a e^{-B t^-k} and |f'| ~ t^b e^{-B t^-k} at
each support edge and singular interior point, t the distance to it).  By
the pullback each integrand is a monomial |x|^q f^m |f'|^n e^{-c x} of the
source times powers of logarithms of such monomials: a down image's
|s| = f^{2-alpha}/|alpha-2| (-ln f at alpha = 2) and D = f^alpha/|f'|, an up
image's U = |(alpha-2) x|^{1/(2-alpha)} (e^{-x} at alpha = 2).  At each
point the monomial goes as t^E |ln t|^L e^{-B t^-k}, the Jacobian t^-2 of
an infinite edge included, and one exponent rule (`_edge_rule`) gives one
of three verdicts: divergent (B < 0, or B = 0 and E < -1, or E = -1 and
L >= -1) raises DivergentIntegral naming the point, the monomial and
(E, L, B); "converges" and "unknown" both run the quadrature, so values do
not depend on the forms.  Where the rule says "converges", a divergence
heuristic of the quadrature that fires raises NonConvergent, naming it and
its interval.  The heuristics of `core._tanh_sinh` still decide what the
forms cannot tell: densities without forms (images of images, closed
images, the p = 0 member of g), the coordinate of up images, exp moments
of images, factors that vanish identically (f' of uniform), and
logarithms of factors that tend to a constant, which may be 1, where a
divergent verdict would rest on a bound.
fisher_sup reads the same forms: where |f^{lambda-2} f'| grows toward an
edge it raises Unbounded.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .core import Density, EdgeForm, _log_pair, integrate
from .errors import (
    DivergentIntegral,
    EntroscopeError,
    InvalidParams,
    MissingDerivative,
    NonConvergent,
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
# exponents within _TIE of a threshold, relative to their size, sit on it:
# computing them from float parameters rounds them by ~1e-16 of that size
_TIE = 1e-12


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


# ---------------------------------------------------------------- edge rule


class _Spec(NamedTuple):
    """Exponents of a measure's integrand h F over its density F at the
    coordinate t:  |t|^q |ln|t||^s e^{-c t} F^m |ln F|^l |F'|^n, times F."""

    q: float = 0.0
    s: float = 0.0
    c: float = 0.0
    m: float = 0.0
    l: float = 0.0
    n: float = 0.0


class _Monomial(NamedTuple):
    """The integrand pulled back to the source coordinate x:
    |x|^q f^m |f'|^n e^{-c x} times |ln g_i|^k_i for each (k_i, q_i, m_i,
    n_i) in logs, g_i = K |x|^q_i f^m_i |f'|^n_i with a constant K > 0."""

    q: float
    m: float
    n: float
    c: float
    logs: tuple


def _pullback(f: Density, spec: _Spec):
    """(source, monomial) of the integrand of spec over f, None where it is
    not such a monomial of the source.  A down image has
    |s| = f^{2-alpha}/|alpha-2| (-ln f at alpha = 2) and D = f^alpha/|f'|;
    an up image has U = |(alpha-2) x|^{1/(2-alpha)} (e^{-x} at alpha = 2)
    and a coordinate u that is no closed form of x."""
    src = getattr(f, "source", None)
    if src is None:
        logs = ((spec.s, 1.0, 0.0, 0.0),) if spec.s else ()
        logs += ((spec.l, 0.0, 1.0, 0.0),) if spec.l else ()
        return f, _Monomial(spec.q, spec.m + 1.0, spec.n, spec.c, logs)
    if spec.n or spec.c:
        return None
    a = f.alpha
    if f.direction == "down":
        logs = ((spec.l, 0.0, a, -1.0),) if spec.l else ()
        m = 1.0 + a * spec.m
        if a == 2.0:
            if spec.q < 0 or spec.s:
                return None  # s = -ln f vanishes inside the support, where f = 1
            logs += ((spec.q, 0.0, 1.0, 0.0),) if spec.q else ()
        else:
            m += (2.0 - a) * spec.q
            logs += ((spec.s, 0.0, 2.0 - a, 0.0),) if spec.s else ()
        return src, _Monomial(0.0, m, -spec.m, 0.0, logs)
    if spec.q or spec.s:
        return None
    if a == 2.0:  # |ln U| = |x|
        return src, _Monomial(spec.l, 1.0, 0.0, spec.m, ())
    logs = ((spec.l, 1.0, 0.0, 0.0),) if spec.l else ()
    return src, _Monomial(spec.m / (2.0 - a), 1.0, 0.0, 0.0, logs)


_REGULAR = EdgeForm(0.0, 0.0, 0.0)  # at an interior 0 that no form lists: f smooth, positive, f' nonzero


def _growth(e: EdgeForm, mono: _Monomial):
    """(E, L, k, B, bound): the monomial goes as t^E |ln t|^L exp(-B t^-k)
    as t -> 0+ at e, the Jacobian t^-2 of an infinite edge included;
    `bound` when this only bounds it: the logarithm of a factor that tends
    to a constant may vanish, where that constant is 1.  None where the
    form cannot tell: f' vanishes identically, or a negative power of a
    logarithm that may vanish."""
    inf = math.isinf(e.x0)
    px = -1.0 if inf else (1.0 if e.x0 == 0.0 else 0.0)  # |x| ~ t^px
    if e.b is None and (mono.n or any(g[3] for g in mono.logs)):
        return None  # f' vanishes identically
    b = e.b or 0.0
    E = mono.q * px + mono.m * e.a + mono.n * b - (2.0 if inf else 0.0)
    tie = _TIE * (1.0 + abs(mono.q) + abs(mono.m * e.a) + abs(mono.n * b))
    L = 0.0
    bound = False
    for k, qi, mi, ni in mono.logs:
        if e.B and abs((mi + ni) * e.B) > _TIE * e.B * (abs(mi) + abs(ni)):
            E -= k * e.k  # |ln g| ~ t^-k
        elif abs(qi * px + mi * e.a + ni * b) > _TIE * (abs(qi) + abs(mi * e.a) + abs(ni * b)):
            L += k  # |ln g| ~ |ln t|
        elif k < 0:
            return None
        else:
            bound = True  # g tends to a constant: |ln g| is bounded
    # k -> (coefficient of t^-k in the exponent, the size of its terms)
    exps = {e.k: ((mono.m + mono.n) * e.B, (abs(mono.m) + abs(mono.n)) * e.B)} if e.B else {}
    if mono.c and inf:
        B1, size = exps.get(1.0, (0.0, 0.0))
        exps[1.0] = (B1 + (mono.c if e.x0 > 0 else -mono.c), size + abs(mono.c))
    live = [(kk, B) for kk, (B, size) in exps.items() if abs(B) > _TIE * size]
    k, B = max(live) if live else (0.0, 0.0)
    if not B and abs(E + 1.0) <= tie:
        E = -1.0
    return E, L, k, B, bound


def _converges(E: float, L: float, B: float) -> bool:
    """Whether t^E |ln t|^L exp(-B t^-k) is integrable at t = 0+."""
    if B:
        return B > 0
    if E != -1.0:
        return E > -1.0
    return L < -1.0 - _TIE


def _describe(mono: _Monomial) -> str:
    def power(name, e):
        return "" if e == 0 else (name if e == 1 else f"{name}^{e:.12g}")

    parts = [power("|x|", mono.q), power("f", mono.m), power("|f'|", mono.n)]
    parts.append(f"exp({-mono.c:.12g} x)" if mono.c else "")
    for k, qi, mi, ni in mono.logs:
        g = " ".join(p for p in (power("|x|", qi), power("f", mi), power("|f'|", ni)) if p)
        parts.append(power(f"|ln(K {g})|", k))
    return " ".join(p for p in parts if p) or "1"


def _edge_rule(f: Density, spec: _Spec) -> Optional[bool]:
    """Decide int h F of spec over f from the edge forms of its source,
    before any quadrature: True where it converges at every support edge
    and singular interior point, None where the forms cannot tell; raises
    DivergentIntegral, naming the point, the monomial and its exponents,
    where it diverges."""
    pulled = _pullback(f, spec)
    if pulled is None or pulled[0].edge_forms is None:
        return None
    src, mono = pulled
    lo, hi = src.support.lower, src.support.upper
    edges = [e for e in src.edge_forms if e.x0 in (lo, hi)]
    points = [e for e in src.edge_forms if lo < e.x0 < hi]
    if len(edges) != 2:
        return None
    if lo < 0.0 < hi and not any(e.x0 == 0.0 for e in points):
        points.append(_REGULAR)
    verdict = True
    for e in edges + points:
        g = _growth(e, mono)
        if g is None:
            verdict = None
            continue
        E, L, k, B, bound = g
        if _converges(E, L, B):
            continue
        if bound:
            verdict = None
            continue
        where = "edge" if e.x0 in (lo, hi) else "interior point"
        of = "" if src is f else f" of its source {src.label!r}"
        tail = f" exp({-B:.12g} t^-{k:g})" if B else ""
        raise DivergentIntegral(
            f"the integral over {f.label!r} diverges at the {where} x = {e.x0!r}{of}: "
            f"the integrand {_describe(mono)} goes as t^{E:.12g} |ln t|^{L:g}{tail} "
            f"(E = {E:.12g}, log power {L:g}, B = {B:.12g}), t the distance to x "
            f"(1/|x| at an infinite edge); decided from its edge forms"
        )
    return verdict


def _integrate(f: Density, g, support, points: tuple, converges: Optional[bool]) -> float:
    """integrate g to _TOL; where the edge rule said the integral converges,
    a divergence heuristic of the quadrature that fires is NonConvergent."""
    try:
        return integrate(g, support, tol=_TOL, points=points).value
    except DivergentIntegral as exc:
        if not converges:
            raise
        raise NonConvergent(
            f"the edge forms of {f.label!r} say its integral converges, "
            f"but a quadrature heuristic fired: {exc}",
            heuristic=exc.heuristic,
            interval=exc.interval,
            estimates=exc.estimates,
        ) from exc


def _expect(f: Density, h, spec: _Spec, points: Optional[tuple] = None, coordinate: bool = False) -> float:
    """int h f over the support of f: h(log |t|, sign t) of the coordinate
    t when `coordinate`, else h(log f(t)) of the log value.  spec gives
    h's exponents, from which the edge rule decides convergence first.

    An image (a TransformedDensity with its maps) is integrated as an
    expectation under its source f_src: mass is preserved, so this is
    int h(m(x)) f_src(x) dx over the source support, m the image's
    log_coordinate_at or log_value_at.  A plain density is its own source
    under the identity map.  The split points are given in f's coordinate (by
    default 0 when inside the support); each is taken to the source by the
    image's locate, one inversion per point and none per quadrature node,
    and the source's own 0 is added."""
    converges = _edge_rule(f, spec)
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

    return _integrate(f, integrand, src.support, tuple(sorted(cuts)), converges)


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
        return math.exp(_expect(f, lambda lt, _: lt, _Spec(s=1.0), coordinate=True))
    v = _expect(f, lambda lt, _: np.exp(p * lt), _Spec(q=p), coordinate=True)
    if v <= 0:
        raise DivergentIntegral(f"absolute moment of order {p} is not positive")
    return v ** (1.0 / p)


def log_moment(f: Density, p: float) -> float:
    """sigma_p^(L) = int f |log|x||^p dx (the integral itself, no 1/p root)."""
    if p < 0:
        raise InvalidParams("log_moment requires p >= 0")
    # |log|x|| vanishes non-smoothly at |x| = 1
    pts = set(_split_points(f)) | {s for s in (-1.0, 1.0) if f.support.contains(s)}
    return _expect(f, lambda lt, _: np.abs(lt) ** p, _Spec(s=p), tuple(sorted(pts)), coordinate=True)


def exp_moment(f: Density, p: float) -> float:
    """sigma_p^(E) = <e^{-p x}>^{1/p}."""
    if p == 0:
        raise InvalidParams("exp_moment requires p != 0")
    h = lambda lt, sign: np.exp(-p * sign * np.exp(lt))
    return _expect(f, h, _Spec(c=p), coordinate=True) ** (1.0 / p)


def renyi_power(f: Density, lam: float) -> float:
    """Rényi entropy power N_lambda = (int f^lambda)^{1/(1-lambda)}; N_1 = e^S."""
    if abs(lam - 1.0) < _SHANNON_WINDOW:
        return math.exp(shannon(f))
    return _expect(f, lambda lv: np.exp((lam - 1.0) * lv), _Spec(m=lam - 1.0)) ** (1.0 / (1.0 - lam))


def shannon(f: Density) -> float:
    """Shannon entropy S = -int f log f."""
    return _expect(f, lambda lv: -lv, _Spec(l=1.0))


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

    converges = _edge_rule(f, _Spec(m=p * (lam - 2.0), n=p))
    lv_fn, ld_fn = _log_pair(f)

    def integrand(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            lv = np.asarray(lv_fn(x), dtype=float)
            ld = np.asarray(ld_fn(x), dtype=float)
            out = np.exp(p * ((lam - 2.0) * lv + ld) + lv)
        # genuine zeros of f (log = -inf) contribute nothing
        return np.where(np.isneginf(lv), 0.0, out)

    return _integrate(f, integrand, f.support, _split_points(f), converges)


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
    neighbours of its best point.  The supremum may sit at an edge.  Where
    the density carries edge forms, they decide each edge and singular
    interior point first: h ~ t^{(lam-2) a + b} exp(-(lam-1) B t^-k) growing
    there raises Unbounded, and only a finite edge where h tends to a
    nonzero constant is probed, to read that value.  Without forms each
    finite edge is probed, and values growing without bound there raise
    Unbounded.  A probe is one call on 40 points approaching the edge
    geometrically.  Every evaluation is one array call, 1 + _ROUNDS + 2 at
    most."""
    if f.derivative is None:
        raise MissingDerivative("fisher_sup requires an analytic derivative")
    if abs(lam - 1.0) < _SHANNON_WINDOW:
        raise OutOfDomain("fisher_sup requires lambda != 1")
    probes, by_forms = _sup_probes(f, lam)
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
    for edge, inward in probes:
        seq = h(edge + inward * max(1.0, abs(edge)) * 2.0 ** -np.arange(8.0, 48.0))
        seq = seq[np.isfinite(seq)]
        grows = len(seq) >= 3 and seq[-1] > seq[-2] > seq[-3] and seq[-1] > 1e8 * max(1.0, best)
        if grows and not by_forms:
            raise Unbounded("fisher_sup grows without bound toward a support edge")
        if seq.size:
            best = max(best, seq.max())
    return float(best)


def _sup_probes(f: Density, lam: float) -> tuple:
    """([(edge, inward direction)] of the finite edges fisher_sup probes,
    whether the edge forms chose them).  The forms choose where f carries
    them at both edges, after raising Unbounded where h = |f^{lam-2} f'|
    grows toward an edge or a singular interior point."""
    lo, hi = f.support.lower, f.support.upper
    edges = [(x, d) for x, d in ((lo, 1.0), (hi, -1.0)) if math.isfinite(x)]
    forms = f.edge_forms
    if forms is None or sum(e.x0 in (lo, hi) for e in forms) != 2:
        return edges, False
    limits = set()
    for e in forms:
        if e.b is None:
            continue  # h vanishes identically next to e
        # h ~ t^E exp(-B t^-k)
        E, B = (lam - 2.0) * e.a + e.b, (lam - 1.0) * e.B
        if abs(B) <= _TIE * e.B:
            B = 0.0
        if abs(E) <= _TIE * (1.0 + abs(lam * e.a) + abs(e.b)):
            E = 0.0
        if B < 0 or (B == 0 and E < 0):
            tail = f" exp({-B:.12g} t^-{e.k:g})" if B else ""
            raise Unbounded(
                f"fisher_sup of {f.label!r} grows without bound toward x = {e.x0!r}: "
                f"|f^(lambda-2) f'| goes as t^{E:.12g}{tail}, from its edge forms"
            )
        if B == 0 and E == 0:
            limits.add(e.x0)
    return [(x, d) for x, d in edges if x in limits], True


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
    return _expect(f, lambda lv: np.abs(lv) ** p, _Spec(l=p), tuple(sorted(pts))) ** (1.0 / p)


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
