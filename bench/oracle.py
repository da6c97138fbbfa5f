"""Reference values for the benchmark items, computed without entroscope.

Every density is restated here in mpmath from its closed form, and every
reference comes either from an analytic formula or from mpmath quadrature
at 32 working digits.  Whether an integral converges is decided
analytically, from the power and exponential behaviour of the integrand
at each support edge (`EdgeForm`), never by watching a quadrature.

Measures of down/up images are computed by pullback to the source
coordinate x: both transforms preserve mass, D(s) ds = f(x) dx, so
  sigma_q(D)  = (int |s(x)|^q f dx)^(1/q),
  N_lam(D)    = (int D(x)^(lam-1) f dx)^(1/(1-lam)),
  phi_p,lam(D) = (int |D^(lam-2) dD/ds|^p f dx)^(1/(p lam)),
with D(x) = f^alpha/|f'| and s(x) = f^(2-alpha)/(alpha-2) (or -ln f) for
down, and U(x) = |(alpha-2) x|^(1/(2-alpha)) with u(x) the weighted
primitive for up.  No inversion is needed anywhere.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import mpmath as mp

DPS = 32
REL_QUAD_ERR = 1e-20  # a quadrature whose own error estimate exceeds this is "unsettled"
INF = mp.inf
mp.mp.dps = DPS  # every parameter and constant below carries DPS digits


class Unsettled(Exception):
    """The oracle cannot settle the item's outcome; the item is left out."""


# ---------------------------------------------------------------- densities


@dataclass(frozen=True)
class EdgeForm:
    """Behaviour at one support edge as t -> 0+, where t is the distance to
    a finite edge x0, or 1/|x| at an infinite edge:
        f ~ t^a exp(-B t^-k),  f' ~ t^b exp(..),  f'' ~ t^c exp(..).
    b is None when f' vanishes identically (then c is None too)."""

    x0: object  # mpf, +inf or -inf
    a: float
    b: Optional[float]
    c: Optional[float]
    B: float = 0.0
    k: float = 0.0
    f_limit_one: bool = False  # f -> 1 at this edge (|ln f| vanishes)

    @property
    def infinite(self) -> bool:
        return mp.isinf(self.x0)


@dataclass
class ODensity:
    """A density restated in mpmath: value, first and second derivative."""

    name: str
    lo: object
    hi: object
    f: Callable
    fp: Callable
    fpp: Callable
    edges: tuple  # (EdgeForm at lo, EdgeForm at hi)
    quantile: Optional[Callable] = None  # closed-form inverse CDF, builtins only
    kinks: tuple = field(default=())  # interior points where f' is not smooth
    # interior points checked like edges (from both sides): powers of |x|
    # and zeros of f' can make an integrand singular there
    interior: tuple = field(default=())


def _mpf(v) -> object:
    return mp.mpf(v)


def density(spec: dict) -> ODensity:
    """mpmath density for a base spec {"b": name, "kw": {...}} or
    {"rescale": kappa, "of": spec}."""
    return _density(json.dumps(spec, sort_keys=True))


@functools.lru_cache(maxsize=None)
def _density(key: str) -> ODensity:
    spec = json.loads(key)
    if "rescale" in spec:
        return _rescaled(density(spec["of"]), _mpf(spec["rescale"]))
    name, kw = spec["b"], spec.get("kw", {})
    return _BUILDERS[name](**kw)


def _exp(rate=1.0):
    r = _mpf(rate)
    return ODensity(
        f"exp(rate={rate})", _mpf(0), INF,
        lambda x: r * mp.exp(-r * x),
        lambda x: -r * r * mp.exp(-r * x),
        lambda x: r**3 * mp.exp(-r * x),
        (EdgeForm(_mpf(0), 0, 0, 0, f_limit_one=(r == 1)), EdgeForm(INF, 0, 0, 0, float(r), 1)),
        quantile=lambda q: -mp.log(1 - q) / r,
    )


def _halfgauss(sigma=1.0):
    s = _mpf(sigma)
    c0 = mp.sqrt(2 / mp.pi) / s
    f = lambda x: c0 * mp.exp(-(x**2) / (2 * s * s))
    B = float(1 / (2 * s * s))
    return ODensity(
        f"halfgauss(sigma={sigma})", _mpf(0), INF,
        f,
        lambda x: -x / (s * s) * f(x),
        lambda x: (x**2 / s**4 - 1 / s**2) * f(x),
        (EdgeForm(_mpf(0), 0, 1, 0), EdgeForm(INF, 0, -1, -2, B, 2)),
        quantile=lambda q: s * mp.sqrt(2) * mp.erfinv(q),
    )


def _gauss(sigma=1.0):
    s = _mpf(sigma)
    c0 = 1 / (s * mp.sqrt(2 * mp.pi))
    f = lambda x: c0 * mp.exp(-(x**2) / (2 * s * s))
    B = float(1 / (2 * s * s))
    tail = EdgeForm(INF, 0, -1, -2, B, 2)
    return ODensity(
        f"gauss(sigma={sigma})", -INF, INF,
        f,
        lambda x: -x / (s * s) * f(x),
        lambda x: (x**2 / s**4 - 1 / s**2) * f(x),
        (EdgeForm(-INF, 0, -1, -2, B, 2), tail),
        quantile=lambda q: s * mp.sqrt(2) * mp.erfinv(2 * q - 1),
        kinks=(_mpf(0),),
        interior=(EdgeForm(_mpf(0), 0, 1, 0),),
    )


def _pareto(eta=3.0, xmin=1.0):
    e, m = _mpf(eta), _mpf(xmin)
    c = (e - 1) * m ** (e - 1)
    return ODensity(
        f"pareto(eta={eta},xmin={xmin})", m, INF,
        lambda x: c * x ** (-e),
        lambda x: -c * e * x ** (-e - 1),
        lambda x: c * e * (e + 1) * x ** (-e - 2),
        (EdgeForm(m, 0, 0, 0, f_limit_one=(c / m**e == 1)), EdgeForm(INF, float(e), float(e) + 1, float(e) + 2)),
        quantile=lambda q: m * (1 - q) ** (-1 / (e - 1)),
    )


def _powerlaw(a=-0.5):
    aa = _mpf(a)
    c = aa + 1
    af = float(a)
    return ODensity(
        f"powerlaw(a={a})", _mpf(0), _mpf(1),
        lambda x: c * x**aa,
        lambda x: c * aa * x ** (aa - 1),
        lambda x: c * aa * (aa - 1) * x ** (aa - 2),
        (EdgeForm(_mpf(0), af, af - 1, af - 2), EdgeForm(_mpf(1), 0, 0, 0, f_limit_one=(c == 1))),
        quantile=lambda q: q ** (1 / c),
    )


def _uniform(a=0.0, b=1.0):
    lo, hi = _mpf(a), _mpf(b)
    h = 1 / (hi - lo)
    return ODensity(
        f"uniform({a},{b})", lo, hi,
        lambda x: h,
        lambda x: mp.mpf(0),
        lambda x: mp.mpf(0),
        (EdgeForm(lo, 0, None, None, f_limit_one=(h == 1)), EdgeForm(hi, 0, None, None, f_limit_one=(h == 1))),
        quantile=lambda q: lo + q * (hi - lo),
    )


def gg_base(p, lam):
    """(p*, edge, base(x), base'(x)/A-free, base''(x)) of the unnormalized
    g_{p,lambda} half-line profile, straight from its definition."""
    p, lam = _mpf(p), _mpf(lam)
    ps = p / (p - 1)
    if lam == 1:
        base = lambda x: mp.exp(-(x**ps))
        d1 = lambda x: -ps * x ** (ps - 1) * mp.exp(-(x**ps))
        d2 = lambda x: ps * x ** (ps - 2) * mp.exp(-(x**ps)) * (ps * x**ps - (ps - 1))
        return ps, INF, base, d1, d2
    lm1 = lam - 1
    m = (2 - lam) / lm1
    with mp.workdps(DPS + 80):
        edge = INF if lam < 1 else lm1 ** (-1 / ps)
    # next to a finite edge, rounding of x can push 1 - (lam-1) x^p* below 0;
    # such nodes carry no weight, so clamp to a positive floor
    floor = mp.mpf(10) ** (-DPS - 80)
    B = lambda x: max(1 - lm1 * x**ps, floor)
    base = lambda x: B(x) ** (1 / lm1)
    d1 = lambda x: -ps * x ** (ps - 1) * B(x) ** m
    d2 = lambda x: -ps * x ** (ps - 2) * B(x) ** (m - 1) * ((ps - 1) * B(x) - (2 - lam) * ps * x**ps)
    return ps, edge, base, d1, d2


def _gg(p=2.0, **kw):
    lam = kw.get("lambda", 1.0)
    ps, edge, base, d1, d2 = gg_base(p, lam)
    # unit mass on (0, edge): A = 1 / int base, computed here, not taken
    # from the library's Beta-function constant
    psf, lamf = float(ps), float(lam)
    if lamf < 1:
        hi_edge = EdgeForm(INF, psf / (1 - lamf), psf / (1 - lamf) + 1, psf / (1 - lamf) + 2)
    elif lamf == 1:
        hi_edge = EdgeForm(INF, 0, 1 - psf, 2 - 2 * psf, 1.0, psf)
    else:
        ea = 1 / (lamf - 1)
        hi_edge = EdgeForm(edge, ea, ea - 1, ea - 2)
    lo_edge = EdgeForm(_mpf(0), 0, psf - 1, psf - 2)
    profile = ODensity("gg-profile", _mpf(0), edge, base, d1, d2, (lo_edge, hi_edge))
    A = 1 / quad(base, profile, Integrand(m=1))
    return ODensity(
        f"gg(p={p},lambda={lam})", _mpf(0), edge,
        lambda x: A * base(x),
        lambda x: A * d1(x),
        lambda x: A * d2(x),
        (lo_edge, hi_edge),
    )


def _rescaled(d: ODensity, k) -> ODensity:
    """x -> k f(k x) on the support scaled by 1/k (k > 0)."""

    def edge(e: EdgeForm) -> EdgeForm:
        x0 = e.x0 if mp.isinf(e.x0) else e.x0 / k
        return EdgeForm(x0, e.a, e.b, e.c, e.B * float(k) ** e.k if e.k else e.B, e.k)

    q = d.quantile
    return ODensity(
        f"rescale({d.name},{k})",
        d.lo if mp.isinf(d.lo) else d.lo / k,
        d.hi if mp.isinf(d.hi) else d.hi / k,
        lambda x: k * d.f(k * x),
        lambda x: k * k * d.fp(k * x),
        lambda x: k**3 * d.fpp(k * x),
        (edge(d.edges[0]), edge(d.edges[1])),
        quantile=None if q is None else (lambda u: q(u) / k),
        kinks=tuple(x / k for x in d.kinks),
        interior=tuple(edge(e) for e in d.interior),
    )


_BUILDERS = {
    "exp": _exp,
    "halfgauss": _halfgauss,
    "gauss": _gauss,
    "pareto": _pareto,
    "powerlaw": _powerlaw,
    "uniform": _uniform,
    "gg": _gg,
}


# ---------------------------------------------------------------- convergence


@dataclass(frozen=True)
class Integrand:
    """Exponents of an integrand |x|^q f^m |f'|^n |alpha - f f''/f'^2|^r
    |ln f|^l |ln|x||^s exp(-c x) near a support edge."""

    q: float = 0.0
    m: float = 0.0
    n: float = 0.0
    r: float = 0.0
    l: float = 0.0
    s: float = 0.0
    c: float = 0.0


def edge_behaviour(e: EdgeForm, g: Integrand, tol: float = 1e-9):
    """(P, log power, exp sign) of the integrand at edge e as t -> 0+: it
    behaves like t^P |ln t|^logpow, times a dominant exponential that
    decays (+1), grows (-1) or is absent (0).  P includes the Jacobian
    dx = t^-2 dt of an infinite edge.  None when the integrand is 0."""
    if e.b is None and g.n > 0:
        return None  # f' vanishes identically
    P = 0.0
    logpow = 0.0
    # |x|^q and |ln|x||^s
    if e.infinite:
        P += -g.q - 2.0
        logpow += g.s
    elif e.x0 == 0:
        P += g.q
        logpow += g.s
    elif abs(e.x0) == 1:
        P += g.s
    # f^m |f'|^n
    P += g.m * e.a + g.n * (e.b or 0.0)
    # |alpha - R|^r, R = f f''/f'^2 ~ t^(a + c - 2b)
    if g.r and e.b is not None:
        rho = e.a + e.c - 2 * e.b
        if rho < 0:
            P += g.r * rho
    # |ln f|^l
    if g.l:
        if e.B:
            P += -e.k * g.l
        elif e.a:
            logpow += g.l
        elif e.f_limit_one:
            P += g.l * (e.b + 1.0 if e.b is not None else 1.0)
    # exponential factors: f's own and exp(-c x) at an infinite edge
    exps = {}
    if e.B:
        exps[e.k] = exps.get(e.k, 0.0) + (g.m + g.n) * e.B
    if g.c and e.infinite:
        sign = 1.0 if e.x0 > 0 else -1.0
        exps[1.0] = exps.get(1.0, 0.0) + sign * g.c
    live = {k: v for k, v in exps.items() if abs(v) > tol}
    expsign = 0 if not live else (1 if live[max(live)] > 0 else -1)
    return P, logpow, expsign


def edge_converges(e: EdgeForm, g: Integrand, tol: float = 1e-9) -> bool:
    """Whether the integrand is integrable at the edge e."""
    beh = edge_behaviour(e, g, tol)
    if beh is None:
        return True
    P, logpow, expsign = beh
    if expsign:
        return expsign > 0
    if abs(P + 1.0) <= tol:
        return logpow < -1.0
    return P > -1.0


def converges(d: ODensity, g: Integrand) -> bool:
    return all(edge_converges(e, g) for e in d.edges + d.interior)


# ---------------------------------------------------------------- quadrature


def quad(g: Callable, d: ODensity, spec: Integrand, lo=None, hi=None, splits=()) -> object:
    """int g over (lo, hi) (default: d's support) at DPS digits.

    Each piece ending at a singular edge of d (integrand ~ t^P, P < 0) is
    substituted x = x0 +- v^m so the rule sees a smooth v^(m(P+1)-1);
    algebraic infinite tails use x = e^y.  Raises Unsettled when
    mpmath's own error estimate is poor."""
    lo = d.lo if lo is None else lo
    hi = d.hi if hi is None else hi
    forms = {}
    for e in d.edges + d.interior:
        if not e.infinite:
            forms[e.x0] = e
    with mp.workdps(DPS):
        pts = [lo] + sorted(mp.mpf(s) for s in set(splits) if lo < s < hi) + [hi]
        if mp.isinf(pts[0]) and mp.isinf(pts[-1]) and len(pts) == 2:
            pts = [pts[0], mp.mpf(0), pts[1]]
        total = mp.mpf(0)
        err = mp.mpf(0)
        for a, b in zip(pts[:-1], pts[1:]):
            if mp.isinf(a) or mp.isinf(b):
                inner, edge_x = (b, a) if mp.isinf(a) else (a, b)
                sgn = 1 if edge_x > 0 else -1
                c = inner + sgn if sgn * inner >= 1 else mp.mpf(sgn)
                pieces = _finite_piece(g, *sorted([inner, c]), forms, spec)
                beh = edge_behaviour(d.edges[1] if sgn > 0 else d.edges[0], spec)
                if beh is not None and beh[2] > 0:  # exponential decay: direct
                    pieces.append((g, sorted([c, edge_x]), DPS))
                else:
                    pieces.append((lambda y: g(sgn * mp.exp(y)) * mp.exp(y), [mp.log(abs(c)), INF], DPS))
            else:
                pieces = _finite_piece(g, a, b, forms, spec)
            for fn, iv, dps in pieces:
                with mp.workdps(dps):
                    v, e = mp.quad(fn, iv, error=True)
                total += v
                err += e
        if not mp.isfinite(total) or err > REL_QUAD_ERR * max(1, abs(total)):
            raise Unsettled(f"quadrature error {mp.nstr(err, 3)} on value {mp.nstr(total, 10)}")
        return +total


def _finite_piece(g, a, b, forms: dict, spec: Integrand) -> list:
    """Quadrature pieces for finite (a, b): split at the midpoint, with an
    endpoint substitution on each half whose end is singular."""
    mid = (a + b) / 2
    out = []
    for x0, x1, sgn in ((a, mid, 1), (b, mid, -1)):
        e = forms.get(x0)
        beh = edge_behaviour(e, spec) if e is not None else None
        m = 1
        if beh is not None and not beh[2] and beh[0] < 0:
            m = min(int(math.ceil(2.0 / (beh[0] + 1.0))), 24)
        if m == 1:
            out.append((g, sorted([x0, x1]), DPS))
            continue
        h = abs(x1 - x0) ** (mp.mpf(1) / m)
        # x0 + v^m loses v^m against x0 != 0 at working precision: carry
        # enough extra digits to resolve the singular end
        extra = 0 if x0 == 0 else 60
        fn = (lambda v, x0=x0, sgn=sgn, m=m: g(x0 + sgn * v**m) * m * v ** (m - 1))
        out.append((fn, [mp.mpf(0), h], DPS + extra))
    return out


def _sign_changes(h: Callable, d: ODensity, n: int = 240) -> list:
    """Interior roots of h on d's support, by sampling then bisection."""
    lo, hi = d.lo, d.hi
    ts = [mp.mpf(i) / (n + 1) for i in range(1, n + 1)]
    if not mp.isinf(lo) and not mp.isinf(hi):
        xs = [lo + (hi - lo) * t for t in ts]
    elif not mp.isinf(lo):
        xs = [lo + t / (1 - t) * 8 for t in ts]
    else:
        xs = [mp.tan(mp.pi * (t - mp.mpf(1) / 2)) * 4 for t in ts]
    vals = [h(x) for x in xs]
    roots = []
    for (x0, v0), (x1, v1) in zip(zip(xs, vals), zip(xs[1:], vals[1:])):
        if v0 == 0:
            roots.append(x0)
        elif v0 * v1 < 0:
            roots.append(_bisect(h, x0, x1, v0))
    return roots


def _bisect(h: Callable, a, b, ha):
    """Sign change of h in (a, b) to working precision (a root, or a pole
    where h jumps sign -- callers only use it as a split or a candidate)."""
    for _ in range(4 * DPS):
        m = (a + b) / 2
        hm = h(m)
        if hm == 0:
            return m
        if (hm > 0) == (ha > 0):
            a, ha = m, hm
        else:
            b = m
    return (a + b) / 2


# ---------------------------------------------------------------- measures


@dataclass
class Expect:
    """An item's expected outcome: a finite value (scalar or list) or an
    exception class name."""

    value: object = None
    raises: Optional[str] = None

    def to_json(self) -> dict:
        if self.raises is not None:
            return {"raises": self.raises}
        if isinstance(self.value, list):
            return {"value": [float(v) for v in self.value]}
        return {"value": float(self.value)}


DIVERGENT = Expect(raises="DivergentIntegral")


def builtin_measure(d: ODensity, mid: str, params: dict) -> Expect:
    """Reference for evaluate_measure(mid, f, **params) on a base density."""
    f = d.f
    splits = list(d.kinks)
    if d.lo < 0 < d.hi:
        splits.append(mp.mpf(0))

    def run(g, spec: Integrand, extra=()):
        if not converges(d, spec):
            return None
        return quad(g, d, spec, splits=splits + list(extra))

    if mid == "sigma":
        q = mp.mpf(params["p"])
        v = run(lambda x: abs(x) ** q * f(x), Integrand(q=float(q), m=1))
        return DIVERGENT if v is None else Expect(v ** (1 / q))
    if mid == "sigmaL":
        q = mp.mpf(params["p"])
        extra = [s for s in (mp.mpf(-1), mp.mpf(1)) if d.lo < s < d.hi]
        v = run(lambda x: f(x) * abs(mp.log(abs(x))) ** q, Integrand(m=1, s=float(q)), extra)
        return DIVERGENT if v is None else Expect(v)
    if mid == "sigmaE":
        q = mp.mpf(params["p"])
        v = run(lambda x: mp.exp(-q * x) * f(x), Integrand(m=1, c=float(q)))
        return DIVERGENT if v is None else Expect(v ** (1 / q))
    if mid in ("renyiN", "tsallis"):
        lam = mp.mpf(params["lam"])
        if lam == 1:
            S = builtin_measure(d, "shannon", {})
            return S if S.raises else Expect(mp.exp(S.value) if mid == "renyiN" else S.value)
        v = run(lambda x: f(x) ** lam, Integrand(m=float(lam)))
        if v is None:
            return DIVERGENT
        return Expect(v ** (1 / (1 - lam)) if mid == "renyiN" else (v - 1) / (1 - lam))
    if mid == "shannon":
        v = run(lambda x: -f(x) * mp.log(f(x)), Integrand(m=1, l=1), _level_one(d))
        return DIVERGENT if v is None else Expect(v)
    if mid == "fisher":
        p, lam = mp.mpf(params["p"]), mp.mpf(params["lam"])
        spec = Integrand(m=float((lam - 2) * p + 1), n=float(p))
        v = run(lambda x: _fisher_term(f(x), d.fp(x), p, lam), spec)
        return DIVERGENT if v is None else Expect(v ** (1 / (p * lam)))
    if mid == "fisherZero":
        q = mp.mpf(params["q"])
        spec = Integrand(m=float(1 - 2 * q), n=float(q))
        v = run(lambda x: _pow0(abs(d.fp(x)), q) * f(x) ** (1 - 2 * q), spec)
        return DIVERGENT if v is None else Expect(v)
    if mid == "Sbar":
        q = mp.mpf(params["p"])
        v = run(lambda x: f(x) * abs(mp.log(f(x))) ** q, Integrand(m=1, l=float(q)), _level_one(d))
        return DIVERGENT if v is None else Expect(v ** (1 / q))
    raise ValueError(f"no reference for measure {mid!r}")


def _pow0(v, e):
    return mp.mpf(0) if v == 0 else v**e


def _fisher_term(fv, fpv, p, lam):
    return _pow0(abs(fv ** (lam - 2) * fpv), p) * fv


def _level_one(d: ODensity) -> list:
    """Points where f = 1 (|ln f| has a kink there)."""
    return _sign_changes(lambda x: d.f(x) - 1, d)


def quantiles(d: ODensity, qs) -> Expect:
    with mp.workdps(DPS):
        return Expect([d.quantile(mp.mpf(q)) for q in qs])


def fisher_sup(d: ODensity, lam) -> Expect:
    """sup_x |f^(lam-2) f'|: Unbounded when it grows without bound at an
    edge, otherwise the larger of the edge limits and the interior maximum."""
    lam = mp.mpf(lam)
    with mp.workdps(DPS):
        h = lambda x: abs(d.f(x) ** (lam - 2) * d.fp(x))
        for e in d.edges:
            if e.b is None:
                continue
            # h ~ t^((lam-2) a + b) exp(-(lam-1) B t^-k)
            expo = (lam - 1) * e.B
            if e.B and expo < 0:
                return Expect(raises="Unbounded")
            if not (e.B and expo > 0) and (float(lam) - 2) * e.a + e.b < 0:
                return Expect(raises="Unbounded")
        if all(e.b is None for e in d.edges):
            return Expect(mp.mpf(0))
        cands = []
        for e in d.edges:
            if not e.infinite:
                inward = 1 if e is d.edges[0] else -1
                cands.append(h(e.x0 + inward * mp.mpf(10) ** -30))
        dlog = lambda x: mp.diff(lambda y: mp.log(h(y)), x)
        for x in _sign_changes(dlog, d, n=120):
            cands.append(h(x))
        return Expect(max(cands))


# ---------------------------------------------------------------- images


def _down_maps(d: ODensity, alpha):
    """(s(x), D(x), dD/ds(x)) of the down image, in the source coordinate."""
    a = mp.mpf(alpha)
    f, fp, fpp = d.f, d.fp, d.fpp
    if a == 2:
        s = lambda x: -mp.log(f(x))
    else:
        s = lambda x: f(x) ** (2 - a) / (a - 2)
    D = lambda x: f(x) ** a / abs(fp(x))
    Dp = lambda x: f(x) ** (2 * a - 2) / fp(x) * (a - f(x) * fpp(x) / fp(x) ** 2)
    return s, D, Dp


def up_weight(alpha):
    a = mp.mpf(alpha)
    if a == 2:
        return lambda x: mp.exp(x), Integrand(c=-1.0, m=1)
    e = 1 / (a - 2)
    return (lambda x: abs((a - 2) * x) ** e), Integrand(q=float(e), m=1)


def up_anchor(d: ODensity, alpha) -> str:
    """Edge at which the up primitive is anchored: the upper edge when the
    weighted mass above converges there, else the lower edge."""
    _, spec = up_weight(alpha)
    if edge_converges(d.edges[1], spec):
        return "upper"
    if edge_converges(d.edges[0], spec):
        return "lower"
    raise Unsettled("up primitive diverges at both edges (median anchor)")


def up_coordinates(d: ODensity, alpha, xs) -> list:
    """u(x) for sorted source points xs: the signed weighted primitive from
    the anchor, accumulated between neighbouring points."""
    w, spec = up_weight(alpha)
    wf = lambda x: w(x) * d.f(x)
    anchor = up_anchor(d, alpha)
    xs = [mp.mpf(x) for x in xs]
    with mp.workdps(DPS):
        out = [None] * len(xs)
        order = sorted(range(len(xs)), key=lambda i: xs[i], reverse=(anchor == "upper"))
        prev = d.hi if anchor == "upper" else d.lo
        acc = mp.mpf(0)
        for i in order:
            x = xs[i]
            if anchor == "upper":
                acc += quad(wf, d, spec, lo=x, hi=prev)
                out[i] = acc
            else:
                acc += quad(wf, d, spec, lo=prev, hi=x)
                out[i] = -acc
            prev = x
        return out


def up_value(alpha, x):
    a = mp.mpf(alpha)
    if a == 2:
        return mp.exp(-x)
    return abs((a - 2) * x) ** (1 / (2 - a))


def down_coordinate(d: ODensity, alpha, x):
    s, D, _ = _down_maps(d, alpha)
    with mp.workdps(DPS):
        return s(x), D(x)


def image_measure(d: ODensity, direction: str, alpha, fn: str, args: list) -> Expect:
    """Reference for measures.<fn>(image, *args) by pullback to x."""
    a = mp.mpf(alpha)
    f = d.f
    splits = list(d.kinks)
    if direction == "down":
        s, D, Dp = _down_maps(d, a)
        if fn == "typical_deviation":
            q = mp.mpf(args[0])
            if a == 2:
                spec = Integrand(m=1, l=float(q))
                splits += _level_one(d)  # s = -ln f changes sign where f = 1
            else:
                spec = Integrand(m=1 + float((2 - a) * q))
            if not converges(d, spec):
                return DIVERGENT
            return Expect(quad(lambda x: abs(s(x)) ** q * f(x), d, spec, splits=splits) ** (1 / q))
        if fn == "renyi_power":
            lam = mp.mpf(args[0])
            if lam == 1:
                spec = Integrand(m=1, l=1)  # ln D ~ combination of ln f, ln|f'|
                if not converges(d, spec):
                    return DIVERGENT
                S = -quad(lambda x: mp.log(D(x)) * f(x), d, spec, splits=splits)
                return Expect(mp.exp(S))
            spec = Integrand(m=float(a * (lam - 1) + 1), n=float(1 - lam))
            if not converges(d, spec):
                return DIVERGENT
            return Expect(quad(lambda x: D(x) ** (lam - 1) * f(x), d, spec, splits=splits) ** (1 / (1 - lam)))
        if fn == "fisher":
            p, lam = mp.mpf(args[0]), mp.mpf(args[1])
            spec = Integrand(m=float(p * (a * lam - 2) + 1), n=float(-p * (lam - 1)), r=float(p))
            if not converges(d, spec):
                return DIVERGENT
            zeros = _sign_changes(lambda x: a - f(x) * d.fpp(x) / d.fp(x) ** 2, d)
            g = lambda x: _pow0(abs(D(x) ** (lam - 2) * Dp(x)), p) * f(x)
            return Expect(quad(g, d, spec, splits=splits + zeros) ** (1 / (p * lam)))
    else:
        w, wspec = up_weight(a)
        if fn == "typical_deviation":
            q = mp.mpf(args[0])
            u, power = _up_primitive(d, a)
            spec = Integrand(q=float(power * q), m=1)
            if not converges(d, spec):
                return DIVERGENT
            return Expect(quad(lambda x: abs(u(x)) ** q * f(x), d, spec, splits=splits) ** (1 / q))
        if fn == "renyi_power":
            lam = mp.mpf(args[0])
            # U^(lam-1) f = w^(1-lam) f
            spec = Integrand(q=wspec.q * float(1 - lam), m=1, c=wspec.c * float(1 - lam))
            if not converges(d, spec):
                return DIVERGENT
            return Expect(quad(lambda x: w(x) ** (1 - lam) * f(x), d, spec, splits=splits) ** (1 / (1 - lam)))
        if fn == "fisher":
            p, lam = mp.mpf(args[0]), mp.mpf(args[1])
            if a == 2:
                raise Unsettled("up fisher reference implemented for alpha != 2 only")
            # |U^(lam-2) dU/du| = |(a-2)x|^((lam-2+a)/(2-a)) / f
            e = (lam - 2 + a) / (2 - a)
            spec = Integrand(q=float(p * e), m=float(1 - p))
            if not converges(d, spec):
                return DIVERGENT
            g = lambda x: abs((a - 2) * x) ** (p * e) * f(x) ** (1 - p)
            return Expect(quad(g, d, spec, splits=splits) ** (1 / (p * lam)))
    raise ValueError(f"no image reference for {fn}")


def _up_primitive(d: ODensity, a):
    """Closed-form up primitive u(x) for a Pareto source (the only up image
    whose measures the sweep checks): int_x^inf |(a-2) t|^(1/(a-2)) c t^-eta dt."""
    if not d.name.startswith("pareto") or a == 2:
        raise Unsettled("up-image moments are referenced for Pareto sources only")
    eta = d.edges[1].a
    e = 1 / (a - 2)
    k = abs(a - 2) ** e
    c = d.f(d.lo) * d.lo**eta  # f(x) = c x^-eta
    power = e - eta + 1
    if not power < 0:
        raise Unsettled("up primitive diverges at the upper edge")
    return (lambda x: k * c * x**power / (-power)), power
