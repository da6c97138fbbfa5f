"""Span and count recorders wrapped around entroscope's public functions.

Only the benchmark installs these; the library is unchanged.  A wrapper
replaces a function under every name bound to it in any entroscope module
(`from .core import integrate` binds `integrate` separately in measures,
transforms and special), and `uninstall` restores every replaced
attribute.

A span is [name, start, end, parent, item, raised, count]; `item` is the
index of the benchmark item that caused it, and `count` holds the
integrand evaluations of an integrate span, the target-function calls of
an invert_monotone span, or the points of a value span.  Spans stay in memory and are
written out when the run ends.  A span's self time is its duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

CORE = ("integrate", "invert_monotone", "quantiles")
TRANSFORMS = ("down", "up")
# measures and special: every public function is wrapped


def _public_functions(module) -> list:
    return [n for n in module.__all__ if inspect.isfunction(getattr(module, n, None))]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.item = -1
        self._patched: list = []

    # -- spans -------------------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item, False, 0])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        spans = self.spans

        if name == "core.invert_monotone":

            @functools.wraps(fn)
            def wrapper(g, *args, **kwargs):
                idx = self.begin(name)
                span = spans[idx]

                def counted(x):
                    span[6] += 1
                    return g(x)

                try:
                    return fn(counted, *args, **kwargs)
                except Exception:
                    span[5] = True
                    raise
                finally:
                    self.end(idx)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                r = fn(*args, **kwargs)
            except Exception:
                spans[idx][5] = True
                raise
            finally:
                self.end(idx)
            if name == "core.integrate":
                spans[idx][6] = r.evaluations
            return r

        return wrapper

    def install(self) -> None:
        from entroscope import core, measures, special, transforms

        targets = [(core, n, f"core.{n}") for n in CORE]
        targets += [(transforms, n, f"transforms.{n}") for n in TRANSFORMS]
        targets += [(measures, n, f"measures.{n}") for n in _public_functions(measures)]
        targets += [(special, n, f"special.{n}") for n in _public_functions(special)]
        modules = [m for k, m in sorted(sys.modules.items()) if k == "entroscope" or k.startswith("entroscope.")]
        for module, attr, name in targets:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------
    def layer_metrics(self, executions: list) -> dict:
        """Per-layer numbers for one pass over every item.  `executions[i]`
        is how often item i ran; each span counts 1/executions of its item,
        so items timed over several passes and items run once weigh alike."""
        spans = self.spans
        n = len(spans)
        child_time = [0.0] * n
        depth = [0] * n  # integrate spans on the chain ending at each span
        outer = [True] * n  # no ancestor in the same layer
        layer = [s[0].split(".")[0] for s in spans]
        for i, (name, t0, t1, parent, _, _, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += t1 - t0
                depth[i] = depth[parent]
                p = parent
                while p >= 0 and layer[p] != layer[i]:
                    p = spans[p][3]
                outer[i] = p < 0
            if name == "core.integrate":
                depth[i] += 1
        calls: dict = defaultdict(float)
        self_ms: dict = defaultdict(float)
        count: dict = defaultdict(float)
        raised: dict = defaultdict(float)
        outer_calls: dict = defaultdict(float)
        outer_ms: dict = defaultdict(float)
        nested = 0.0
        for i, (name, t0, t1, _, item, err, cnt) in enumerate(spans):
            w = 1.0 / executions[item] if item >= 0 else 1.0
            calls[name] += w
            self_ms[name] += w * 1e3 * (t1 - t0 - child_time[i])
            count[name] += w * cnt
            if outer[i]:
                outer_calls[name] += w
                outer_ms[name] += w * 1e3 * (t1 - t0)
                if err:
                    raised[layer[i]] += w
            if name == "core.integrate":
                nested += w * (depth[i] > 1)
                raised[name] += w * err

        def frac(num: float, den: float) -> float:
            return num / den if den else 0.0

        def layer_sum(table: dict, prefix: str) -> float:
            return sum(v for k, v in table.items() if k.startswith(prefix))

        def per_call(name: str) -> float:
            return frac(outer_ms[name], outer_calls[name])

        n_int = calls["core.integrate"]
        value_ms = outer_ms["transforms.value"]
        return {
            "core.integrate.calls": n_int,
            "core.integrate.nested_frac": frac(nested, n_int),
            "core.integrate.max_depth": max((d for s, d in zip(spans, depth) if s[0] == "core.integrate"), default=0),
            "core.integrate.evals": count["core.integrate"],
            "core.integrate.evals_per_call": frac(count["core.integrate"], n_int),
            "core.integrate.self_ms": self_ms["core.integrate"],
            "core.integrate.fail_frac": frac(raised["core.integrate"], n_int),
            "core.invert_monotone.calls": calls["core.invert_monotone"],
            "core.invert_monotone.g_evals": count["core.invert_monotone"],
            "core.invert_monotone.self_ms": self_ms["core.invert_monotone"],
            "core.quantiles.self_ms": self_ms["core.quantiles"],
            "measures.self_ms": layer_sum(self_ms, "measures."),
            "measures.fail_frac": frac(raised["measures"], layer_sum(outer_calls, "measures.")),
            "transforms.down.ms_per_call": per_call("transforms.down"),
            "transforms.up.ms_per_call": per_call("transforms.up"),
            "transforms.value.us_per_point": frac(1e3 * value_ms, count["transforms.value"]),
            "special.self_ms": layer_sum(self_ms, "special."),
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("idx\tparent\titem\tname\tstart_us\tend_us\traised\tcount\n")
            base = self.spans[0][1] if self.spans else 0.0
            for i, (name, t0, t1, parent, item, raised, cnt) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{item}\t{name}\t{1e6 * (t0 - base):.1f}\t"
                         f"{1e6 * (t1 - base):.1f}\t{int(raised)}\t{cnt}\n")
