"""Workload process: runs the items against entroscope in a closed loop.

Started fresh for every measurement by run.py, single-threaded, with
    python -m bench.worker INPUT OUTPUT --seconds S --spawn T [--trace] [--setup-only]
INPUT holds the items (without their expectations); OUTPUT receives
per-item outcomes, values and times.  One caller: each item starts after
the previous one returns.  Passes over the items repeat until the next one
would end past S seconds; see `_passes` for which items each pass runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import time
import warnings

import numpy as np


def _build_base(spec: dict):
    from entroscope import builtin, rescale

    if "rescale" in spec:
        return rescale(_build_base(spec["of"]), spec["rescale"])
    return builtin(spec["b"], spec["kw"])


class Runner:
    """Executes items; `bases` are the inputs built during set-up."""

    def __init__(self, items: list, tracer=None):
        from entroscope import core, measures, special, transforms

        self.items = items
        self.tracer = tracer
        self.core, self.measures, self.special, self.transforms = core, measures, special, transforms
        self.bases = {}
        for it in items:
            spec = it.get("dens", {})
            if "b" in spec or "rescale" in spec:
                self.bases.setdefault(json.dumps(spec, sort_keys=True), _build_base(spec))
            of = spec.get("of")
            if of is not None and "ref" not in spec:
                self.bases.setdefault(json.dumps(of, sort_keys=True), _build_base(of))

    def _base(self, spec: dict):
        return self.bases[json.dumps(spec, sort_keys=True)]

    def _density(self, spec: dict, ctx: dict):
        if "ref" in spec:
            obj = ctx[spec["ref"]]
            if isinstance(obj, Exception):
                raise obj
            return obj
        return self._base(spec)

    def _execute(self, it: dict, ctx: dict):
        op = it["op"]
        if op == "measure":
            f = self._base(it["dens"])
            return self.measures.evaluate_measure(it["mid"], f, **it["params"])["value"]
        if op == "call":
            f = self._density(it["dens"], ctx)
            fn = self.core.quantiles if it["fn"] == "quantiles" else getattr(self.measures, it["fn"])
            return fn(f, *it["args"])
        if op == "build":
            spec = it["dens"]
            try:
                if "cf" in spec:
                    ctx[it["key"]] = getattr(self.special, spec["cf"])(spec["p"], spec["lam"], spec["alpha"])
                else:
                    d = "down" if "down" in spec else "up"
                    ctx[it["key"]] = getattr(self.transforms, d)(self._base(spec["of"]), spec[d])
            except Exception as exc:
                ctx[it["key"]] = exc
                raise
            return None
        if op == "value":
            img = ctx[it["key"]]
            if isinstance(img, Exception):
                raise img
            x = np.asarray(it["x"], dtype=float) if isinstance(it["x"], list) else it["x"]
            tr = self.tracer
            if tr is None:
                return img.value(x)
            layer = "transforms" if isinstance(img, self.transforms.TransformedDensity) else "special"
            idx = tr.begin(f"{layer}.value")
            tr.spans[idx][6] = np.size(x)
            try:
                return img.value(x)
            finally:
                tr.end(idx)
        raise ValueError(f"unknown op {op!r}")

    def run_pass(self, skip: frozenset = frozenset()) -> tuple:
        """One pass over the items not in `skip`: (outcomes, values, seconds
        per item), with None for skipped items."""
        ctx: dict = {}
        n = len(self.items)
        outcomes, values, times = [None] * n, [None] * n, [None] * n
        clock = time.perf_counter
        for i, it in enumerate(self.items):
            if i in skip:
                continue
            if self.tracer is not None:
                self.tracer.item = i
            t0 = clock()
            try:
                v = self._execute(it, ctx)
                outcome = "ok"
            except Exception as exc:  # every failure is recorded and the run goes on
                v, outcome = None, type(exc).__name__
            times[i] = clock() - t0
            outcomes[i] = outcome
            values[i] = _plain(v)
        return outcomes, values, times


def _plain(v):
    """JSON-able copy of a result: float, list of floats, or None."""
    if v is None:
        return None
    if np.ndim(v) > 0:
        return [float(x) for x in v]
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def _passes(runner: Runner, seconds: float) -> dict:
    """Timed passes.  The first pass runs every item.  An item that took
    more than a tenth of the run in it is long and runs in the first pass
    only; later passes run the rest, for as long as the next one is
    expected to end within `seconds`.  So every item is timed at least once,
    and short items are timed over several passes spread across the run,
    even when a few long items fill most of one pass."""
    tracer = runner.tracer
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        passes = []  # (seconds, complete)
        first = None
        unstable = set()
        long_items: frozenset = frozenset()
        item_times: list = [[] for _ in runner.items]
        while True:
            gc.collect()  # start every pass from the same heap state
            t0 = time.perf_counter()
            outcomes, values, times = runner.run_pass(long_items)
            passes.append((time.perf_counter() - t0, not long_items))
            if first is None:
                first = (outcomes, values)
                long_items = frozenset(i for i, t in enumerate(times) if t > seconds / 10)
            else:
                unstable |= {i for i, oc in enumerate(outcomes) if oc is not None and oc != first[0][i]}
            for i, t in enumerate(times):
                if t is not None:
                    item_times[i].append(t)
            next_pass = sum(ts[-1] for i, ts in enumerate(item_times) if i not in long_items)
            if time.perf_counter() - start + next_pass > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"outcomes": first[0], "values": first[1], "passes": passes,
            "item_s": item_times, "unstable": sorted(unstable)}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("input")
    ap.add_argument("output")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spawn", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # numpy RuntimeWarnings would otherwise be printed inside timed items
    warnings.simplefilter("ignore", RuntimeWarning)
    import entroscope  # noqa: F401  (import is part of set-up)

    with open(args.input) as fh:
        items = json.load(fh)
    tracer = None
    if args.trace:
        from bench.tracing import Tracer

        tracer = Tracer()
    runner = Runner(items, tracer)
    setup_s = time.monotonic() - args.spawn
    out = {"setup_s": setup_s}
    if not args.setup_only:
        res = _passes(runner, args.seconds)
        out.update(res)
        if tracer is not None:
            out["layers"] = tracer.layer_metrics([len(ts) for ts in res["item_s"]])
            tracer.write(args.output + ".spans.tsv")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.output, "w") as fh:
        json.dump(out, fh, allow_nan=True)


if __name__ == "__main__":
    main()
