"""Benchmark items: what each workload asks of entroscope, and what the
oracle says it should get.

An item is a JSON-able dict.  `generate` builds the list from a workload
name and a seed (the seed jitters density parameters and picks evaluation
points and quantile fractions); `resolve` attaches each item's expected
outcome and, for image values, the float coordinate to evaluate at.
Neither imports entroscope.

Item ops (executed in order by the worker, once per pass):
  measure  evaluate_measure(mid, dens, **params)
  call     measures.<fn>(dens, *args), or core.quantiles(dens, *args)
  build    down/up(dens, alpha), or special.down_of_gg/up_of_gg(p, lam, alpha),
           stored under `key` for the rest of the pass
  value    <built image>.value(x)
Density specs: {"b": name, "kw": {...}} for builtins, {"rescale": k, "of": spec}.
Image specs:   {"down"|"up": alpha, "of": spec} or {"cf": "down_of_gg"|"up_of_gg",
               "p": p, "lam": lam, "alpha": alpha}.
"""

from __future__ import annotations

import json
import math
import random

import mpmath as mp

from . import oracle

WORKLOADS = ("builtin_measures", "image_values", "inequality_sweep")

ALPHAS = (1.5, 2.0, 3.0)
N_POINTS = 16
QUANTILE_FRACTIONS = 10
GATE_EQUAL_TOL = 1e-8
GATE_GE_TOL = 1e-6


def _jit(rng: random.Random, x: float, rel: float = 0.03) -> float:
    return round(x * (1.0 + rng.uniform(-rel, rel)), 6)


def _b(name: str, **kw) -> dict:
    return {"b": name, "kw": kw}


def label(spec: dict) -> str:
    """Short readable name of a density or image spec, used in item ids."""
    if "rescale" in spec:
        return f"rescale({label(spec['of'])},{spec['rescale']:g})"
    if "down" in spec or "up" in spec:
        d = "down" if "down" in spec else "up"
        return f"{d}({label(spec['of'])},{spec[d]:g})"
    if "cf" in spec:
        return f"{spec['cf']}({spec['p']:g},{spec['lam']:g},{spec['alpha']:g})"
    kw = ",".join(f"{k}={v:g}" for k, v in spec["kw"].items())
    return f"{spec['b']}({kw})"


# jitter centres of the builtin densities' parameters
BUILTIN_CENTRES = {
    "exp.rate": 1.5, "halfgauss.sigma": 1.0, "gauss.sigma": 1.0, "pareto.eta": 3.5,
    "pareto.xmin": 1.0, "powerlaw-.a": -0.5, "powerlaw+.a": 2.0, "uniform.b": 2.0,
}


def _builtins(rng: random.Random, fixed: dict = None) -> list:
    """The builtin densities, each parameter jittered around its centre
    unless `fixed` pins it.  Workloads pin a parameter where entroscope's
    outcome on some item flips with it (found by comparing seeds), so that
    the failure count does not depend on the seed, and where an item sits
    exactly on a convergence threshold on purpose."""
    fixed = fixed or {}
    v = {k: fixed.get(k, _jit(rng, c)) for k, c in BUILTIN_CENTRES.items()}
    return [
        _b("exp", rate=v["exp.rate"]),
        _b("halfgauss", sigma=v["halfgauss.sigma"]),
        _b("gauss", sigma=v["gauss.sigma"]),
        _b("pareto", eta=v["pareto.eta"], xmin=v["pareto.xmin"]),
        _b("powerlaw", a=v["powerlaw-.a"]),
        _b("powerlaw", a=v["powerlaw+.a"]),
        _b("uniform", a=0.0, b=v["uniform.b"]),
    ]


def _gg(p: float, lam: float) -> dict:
    return {"b": "gg", "kw": {"p": p, "lambda": lam}}


# ---------------------------------------------------------------- workloads

# (measure id, parameter dicts); several orders diverge on some densities
BUILTIN_MEASURE_ORDERS = (
    ("sigma", [{"p": -0.7}, {"p": 2.0}, {"p": 4.0}]),
    ("sigmaL", [{"p": 1.5}]),
    ("sigmaE", [{"p": 1.0}, {"p": -2.0}]),
    ("renyiN", [{"lam": 0.25}, {"lam": 0.6}, {"lam": 2.5}]),
    ("shannon", [{}]),
    ("tsallis", [{"lam": 0.5}, {"lam": 3.0}]),
    ("fisher", [{"p": 2.0, "lam": 1.0}, {"p": 3.0, "lam": 0.7}]),
    ("fisherZero", [{"q": 0.5}, {"q": 1.0}]),
    ("Sbar", [{"p": 1.0}, {"p": 2.0}]),
)


def _builtin_measures(rng: random.Random) -> list:
    dens = _builtins(rng)
    # g members sit on a fixed (p, lambda) grid: whether fisherZero(q=1) and
    # fisher(3, 0.7) of g_{2,lambda} raise the right class flips with lambda
    dens += [_gg(2.0, 0.7), _gg(4.0, 0.85), _gg(3.0, 1.0), _gg(2.0, 1.5), _gg(1.5, 3.0)]
    items = []
    for spec in dens:
        for mid, orders in BUILTIN_MEASURE_ORDERS:
            for params in orders:
                ps = ",".join(f"{k}={v:g}" for k, v in params.items())
                items.append({
                    "id": f"bm/{label(spec)}/{mid}({ps})",
                    "op": "measure", "dens": spec, "mid": mid, "params": params,
                })
    return items


def _points(rng: random.Random, lo: float, hi: float) -> list:
    """N_POINTS stratified source coordinates in the bulk of (lo, hi)."""
    ts = [(i + rng.uniform(0.1, 0.9)) / N_POINTS for i in range(N_POINTS)]
    if math.isfinite(hi):
        return [lo + (hi - lo) * (0.04 + 0.92 * t) for t in ts]
    return [lo + (0.04 + 0.81 * t) / (1.0 - (0.04 + 0.81 * t)) for t in ts]


def _image_items(rng: random.Random, image: dict, src: dict, tag: str, key: str) -> list:
    """Build item plus the image's values at N_POINTS points.  A down image
    (numeric or closed form) is evaluated in one vectorized call: its value
    is explicit after one level inversion.  An up image point costs a
    monotone inversion over nested integrals, so each point is an item;
    this keeps the workload's item-time median inside the up-value cost the
    workload exists to measure, rather than between the two clusters."""
    od = oracle.density(src)
    lo, hi = float(od.lo), float(od.hi)
    out = [{"id": f"{tag}/{label(image)}/build", "op": "build", "key": key, "dens": image}]
    xs = _points(rng, lo, hi)
    if "down" in image or image.get("cf") == "down_of_gg":
        groups = [(f"values[{N_POINTS}]", xs)]
    else:
        groups = [(f"value[{i}]", x) for i, x in enumerate(xs)]
    for name, x in groups:
        out.append({"id": f"{tag}/{label(image)}/{name}", "op": "value", "key": key,
                    "image": image, "src": src, "x_src": x})
    return out


def _image_values(rng: random.Random) -> list:
    members = [(2.0, 0.7), (3.0, 1.0), (2.0, 1.5)]
    # exp keeps the library's default rate 1: whether up(exp(rate=r), 2)
    # builds at all flips with r around 1.5
    sources = [s for s in _builtins(rng, {"exp.rate": 1.0}) if s["b"] not in ("gauss", "uniform")]
    sources += [_gg(p, lam) for p, lam in members]
    items = []
    n = 0
    for src in sources:
        for a in ALPHAS:
            for d in ("down", "up"):
                items += _image_items(rng, {d: a, "of": src}, src, "iv", f"img{n}")
                n += 1
    for p, lam in members:
        for a in ALPHAS:
            for cf in ("down_of_gg", "up_of_gg"):
                d = "down" if cf == "down_of_gg" else "up"
                image = {"cf": cf, "p": p, "lam": lam, "alpha": a}
                # evaluated at the numeric image's coordinates: same gauge
                sub = _image_items(rng, image, _gg(p, lam), "iv", f"img{n}")
                for it in sub[1:]:
                    it["twin"] = {d: a, "of": _gg(p, lam)}
                items += sub
                n += 1
    fractions = sorted(round(rng.uniform(0.02, 0.98), 6) for _ in range(QUANTILE_FRACTIONS))
    for spec in _builtins(rng):
        items.append({"id": f"iv/{label(spec)}/quantiles", "op": "call", "fn": "quantiles",
                      "dens": spec, "args": [fractions]})
        lam = _jit(rng, 2.0)
        items.append({"id": f"iv/{label(spec)}/fisher_sup({lam:g})", "op": "call", "fn": "fisher_sup",
                      "dens": spec, "args": [lam]})
    return items


# (p, lambda) grid of the inequality sweep; (2, 2) also carries up(pareto:eta=3, 3)
SWEEP_GRID = ((3.0, 0.7), (2.0, 1.0), (2.0, 2.0), (1.5, 1.5))


def _inequality_sweep(rng: random.Random) -> list:
    items = []
    n = 0
    for p, lam in SWEEP_GRID:
        pstar = p / (p - 1.0)
        point = f"p={p:g},lam={lam:g}"
        g = _gg(p, lam)
        # fixed: pareto(eta=3) and powerlaw(a=-0.5) put sigma_2 and N_2 exactly
        # on their (log-divergent) thresholds; the convergence of entroscope's
        # measures of down(halfgauss) and down(rescaled g) flips with the scale
        fixed = {"halfgauss.sigma": 1.0, "pareto.eta": 3.0, "powerlaw-.a": -0.5, "powerlaw+.a": 2.0}
        bases = [g, {"rescale": 1.7, "of": g}] + _builtins(rng, fixed)
        densities = [(spec, spec) for spec in bases]
        for spec in bases:
            if spec.get("b") in ("gauss", "uniform"):
                continue
            for a in ALPHAS:
                image = {"down": a, "of": spec}
                key = f"img{n}"
                n += 1
                items.append({"id": f"ineq/{point}/{label(image)}/build", "op": "build",
                              "key": key, "dens": image})
                densities.append((image, {"ref": key}))
        if (p, lam) == (2.0, 2.0):
            image = {"up": 3.0, "of": _b("pareto", eta=3.0)}
            items.append({"id": f"ineq/{point}/{label(image)}/build", "op": "build",
                          "key": "up_pareto", "dens": image})
            densities.append((image, {"ref": "up_pareto"}))
        for spec, handle in densities:
            gate = "equal" if spec is g or spec.get("of") is g and "rescale" in spec else "ge"
            for role, fn, args in (("phi", "fisher", [p, lam]), ("N", "renyi_power", [lam]),
                                   ("sigma", "typical_deviation", [pstar])):
                items.append({
                    "id": f"ineq/{point}/{label(spec)}/{fn}", "op": "call", "fn": fn,
                    "dens": handle, "spec": spec, "args": args,
                    "group": f"{point}/{label(spec)}", "role": role, "gate": gate,
                })
    return items


def generate(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    items = {"builtin_measures": _builtin_measures, "image_values": _image_values,
             "inequality_sweep": _inequality_sweep}[workload](rng)
    ids = [it["id"] for it in items]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate item ids in {workload}")
    return items


# ---------------------------------------------------------------- references


def _image_refs(items: list) -> None:
    """Coordinates and references for all value items, image by image."""
    by_image: dict = {}
    for it in items:
        if it["op"] == "value":
            by_image.setdefault(json.dumps(it.get("twin", it["image"]), sort_keys=True), []).append(it)
    for key, group in by_image.items():
        image = json.loads(key)
        d = "down" if "down" in image else "up"
        a = image[d]
        od = oracle.density(group[0]["src"])
        with mp.workdps(oracle.DPS):
            pts = [(it, j, mp.mpf(x)) for it in group
                   for j, x in enumerate(it["x_src"] if isinstance(it["x_src"], list) else [it["x_src"]])]
            if d == "down":
                coords = [oracle.down_coordinate(od, a, x) for _, _, x in pts]
            else:
                us = oracle.up_coordinates(od, a, [x for _, _, x in pts])
                coords = [(u, oracle.up_value(a, x)) for (_, _, x), u in zip(pts, us)]
        for it in group:
            mine = [c for (owner, _, _), c in zip(pts, coords) if owner is it]
            if isinstance(it["x_src"], list):
                it["x"] = [float(c[0]) for c in mine]
                it["expect"] = oracle.Expect([c[1] for c in mine]).to_json()
            else:
                it["x"] = float(mine[0][0])
                it["expect"] = oracle.Expect(mine[0][1]).to_json()


def resolve(items: list) -> dict:
    """Attach expectations; returns {"items", "left_out", "gates"}."""
    left_out = []
    try:
        _image_refs(items)
    except oracle.Unsettled as exc:  # pragma: no cover - guarded by the tests
        raise RuntimeError(f"image references unsettled: {exc}") from exc
    kept = []
    for it in items:
        try:
            if it["op"] == "build":
                it["expect"] = {"ok": True}
            elif it["op"] == "measure":
                od = oracle.density(it["dens"])
                it["expect"] = oracle.builtin_measure(od, it["mid"], it["params"]).to_json()
            elif it["op"] == "call" and it["fn"] == "quantiles":
                it["expect"] = oracle.quantiles(oracle.density(it["dens"]), it["args"][0]).to_json()
            elif it["op"] == "call" and it["fn"] == "fisher_sup":
                it["expect"] = oracle.fisher_sup(oracle.density(it["dens"]), it["args"][0]).to_json()
            elif it["op"] == "call":
                it["expect"] = _sweep_ref(it).to_json()
        except oracle.Unsettled as exc:
            left_out.append({"id": it["id"], "reason": str(exc)})
            continue
        kept.append(it)
    return {"items": kept, "left_out": left_out, "gates": _gate_constants(kept)}


_ROLE_MEASURE = {"fisher": "fisher", "renyi_power": "renyiN", "typical_deviation": "sigma"}


def _sweep_ref(it: dict) -> oracle.Expect:
    spec = it["spec"]
    if "down" in spec or "up" in spec:
        d = "down" if "down" in spec else "up"
        return oracle.image_measure(oracle.density(spec["of"]), d, spec[d], it["fn"], it["args"])
    mid = _ROLE_MEASURE[it["fn"]]
    names = {"fisher": ("p", "lam"), "renyi_power": ("lam",), "typical_deviation": ("p",)}[it["fn"]]
    return oracle.builtin_measure(oracle.density(spec), mid, dict(zip(names, it["args"])))


def _gate_constants(items: list) -> dict:
    """Per grid point: phi*N and sigma/N of g_{p,lambda} from the oracle, and
    the oracle's own ratios for every density whose three measures are finite
    (the inequality is gated only where the oracle shows it holds)."""
    groups: dict = {}
    for it in items:
        if "group" in it:
            groups.setdefault(it["group"], {})[it["role"]] = it
    out = {}
    for p, lam in SWEEP_GRID:
        point = f"p={p:g},lam={lam:g}"
        g = groups.get(f"{point}/{label(_gg(p, lam))}")
        if g is None or any("value" not in g[r]["expect"] for r in ("phi", "N", "sigma")):
            continue
        v = {r: g[r]["expect"]["value"] for r in ("phi", "N", "sigma")}
        out[point] = {"stam": v["phi"] * v["N"], "moment_entropy": v["sigma"] / v["N"]}
    for name, g in groups.items():
        point = name.split("/", 1)[0]
        if point not in out or any(r not in g or "value" not in g[r]["expect"] for r in ("phi", "N", "sigma")):
            continue
        v = {r: g[r]["expect"]["value"] for r in ("phi", "N", "sigma")}
        out.setdefault("oracle_ratios", {})[name] = {
            "stam": v["phi"] * v["N"] / out[point]["stam"],
            "moment_entropy": v["sigma"] / v["N"] / out[point]["moment_entropy"],
        }
    return out
