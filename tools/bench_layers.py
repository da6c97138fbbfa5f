"""Per-layer counts and pass times of one pass over each benchmark workload.

    python3 tools/bench_layers.py --seed 101 --out BENCH.json [--passes 3]

For each workload of `bench/run.py` it builds the inputs from
`bench.items.generate` (value items take their image coordinates from the
cached references in `.bench_cache/`, computed once by the oracle, as
`bench/run.py` does), runs one counted pass through `bench.worker.Runner`,
then times uninstrumented passes.  It writes, per workload:

- L1 quadrature: scalar quadratures (`core._tanh_sinh` runs), their
  integrand calls and evaluations, all of them and (`*_ok`) those of the
  quadratures that returned a value.  A quadrature's first integrand call
  holds the midpoint and the live nodes of levels 0-4 (195 points unless
  the interval's half-width underflows some), and each further level
  makes one call;
- pieces: the intervals given to the 7-15 Gauss-Kronrod pair
  (`core._gk_pieces`), those it certifies and those it hands back to
  tanh-sinh, in all and in `x_of_u` solves;
- tables: segment tables (`core._segment_masses`; the closed up forms of
  `special` build one each) and, over their rows between knots, those the
  pair certifies on its first call, those it certifies after halving,
  and those handed back to `_w_mass`; the halving calls to the pair and
  the pieces they hold.  A table that raises (`tables_raised`) counts no
  rows as certified after halving;
- L2 inversion: `_Cumulative.x_of_u` solves, and the scalar quadratures,
  certified and handed-back pieces, and calls to the coordinate's weight
  on 15 nodes (one pair piece each) and on one point (Newton steps and
  the march) each one makes; the solves seeded from a table row's
  Kronrod interpolant, and the seeds that stand at their first check;
- edge rule (`edge_rule`): the calls of `measures._edge_rule`, one per
  measure integral, by the verdict its density's edge forms gave:
  `divergent` raised DivergentIntegral with no quadrature, `converges` and
  `unknown` went on to the quadrature;
- L1 rule overhead (`rule_us_per_quadrature`): the mean wall time of a
  scalar quadrature less the time spent in its integrand calls, in µs (an
  integrand's nested quadratures count as their own), the least over
  `--passes` passes of its own, each after one uninstrumented pass;
- pass time: the median wall time of `--passes` uninstrumented passes, in
  ms, after one untimed warm-up pass.

Counts do not depend on the machine; pass times and the rule overhead do.
The counters and timers wrap module attributes for their own pass only and
restore them after it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from bench import run as bench_run  # noqa: E402
from bench.items import WORKLOADS  # noqa: E402
from bench.worker import Runner  # noqa: E402
from entroscope import core, measures, special, transforms  # noqa: E402
from entroscope.errors import DivergentIntegral  # noqa: E402

PIECES = ("pieces_certified", "pieces_handed_back")
W_CALLS = ("w_calls_15_node", "w_calls_scalar")
TABLE = ("tables", "tables_raised", "rows", "rows_certified_at_once", "rows_certified_after_halving",
         "rows_handed_back", "halving_calls", "halving_pieces")
VERDICTS = ("divergent", "converges", "unknown")


class Counters:
    """Counting wrappers around the quadrature and inversion entry points."""

    def __init__(self):
        self.n = dict.fromkeys(
            ("quadratures", "integrand_calls", "evaluations", "quadratures_ok", "integrand_calls_ok",
             "evaluations_ok", "x_of_u", "x_of_u_quadratures", *PIECES, *(f"x_of_u_{k}" for k in PIECES),
             *(f"x_of_u_{k}" for k in W_CALLS), "seeded_x_of_u", "seeds_accepted_at_first_check", *TABLE,
             *VERDICTS), 0)
        self._saved = []
        self._tables = []  # per table being built: [calls to the pair, rows, rows certified at once, handed back]

    @staticmethod
    def _counted(g, tally: list):
        def wrapped(x):
            tally[0] += 1
            tally[1] += int(np.size(x))
            return g(x)

        return wrapped

    def install(self) -> None:
        n = self.n
        tanh_sinh, x_of_u, invert_monotone = core._tanh_sinh, core._Cumulative.x_of_u, core.invert_monotone
        edge_rule = measures._edge_rule
        gk_pieces, segment_masses, w_mass = core._gk_pieces, core._segment_masses, core._w_mass
        # a table's own calls come from `_segment_masses` and its `seg` (the
        # weight may run pair pieces and quadratures of its own)
        table_code = segment_masses.__code__
        seg_code = next(c for c in table_code.co_consts if getattr(c, "co_name", "") == "seg")

        def add(tally, calls, evals):
            n[calls] += tally[0]
            n[evals] += tally[1]

        def counted_tanh_sinh(g, *args):
            # a tally per quadrature: an integrand may run quadratures of its own
            n["quadratures"] += 1
            tally = [0, 0]
            try:
                out = tanh_sinh(self._counted(g, tally), *args)
            finally:
                add(tally, "integrand_calls", "evaluations")
            n["quadratures_ok"] += 1
            add(tally, "integrand_calls_ok", "evaluations_ok")
            return out

        def counted_x_of_u(coords, u):
            n["x_of_u"] += 1
            before = [n[k] for k in ("quadratures", *PIECES)]
            w = coords.w

            def counted_w(x):
                size = np.size(x)
                if size in (1, 15):
                    n[f"x_of_u_{W_CALLS[size == 1]}"] += 1
                return w(x)

            coords.w = counted_w
            try:
                return x_of_u(coords, u)
            finally:
                coords.w = w
                for k, b in zip(("quadratures", *PIECES), before):
                    n[f"x_of_u_{k}"] += n[k] - b

        def counted_invert_monotone(g, target, bracket, *args, x0=math.nan, **kwargs):
            x = invert_monotone(g, target, bracket, *args, x0=x0, **kwargs)
            if min(bracket) < x0 < max(bracket):
                n["seeded_x_of_u"] += 1
                n["seeds_accepted_at_first_check"] += int(x == x0)
            return x

        def counted_gk_pieces(g, *args):
            out = gk_pieces(g, *args)
            certified = int(np.count_nonzero(out[2]))
            for k, c in zip(PIECES, (certified, len(out[2]) - certified)):
                n[k] += c
            if sys._getframe(1).f_code is table_code:
                table = self._tables[-1]
                if table[0] == 0:
                    table[1:3] = len(out[2]), certified
                else:
                    n["halving_pieces"] += len(out[2])
                table[0] += 1
            return out

        def counted_w_mass(*args, **kwargs):
            caller = sys._getframe(1)
            if caller.f_code is seg_code and not caller.f_locals["open_ended"]:
                self._tables[-1][3] += 1
            return w_mass(*args, **kwargs)

        def counted_segment_masses(*args):
            self._tables.append([0, 0, 0, 0])
            raised = True
            try:
                out = segment_masses(*args)
                raised = False
                return out
            finally:
                calls, rows, at_once, back = self._tables.pop()
                n["tables"] += 1
                n["tables_raised"] += raised
                n["rows"] += rows
                n["rows_certified_at_once"] += at_once
                n["rows_handed_back"] += back
                n["halving_calls"] += max(0, calls - 1)
                if not raised:
                    n["rows_certified_after_halving"] += rows - at_once - back

        def counted_edge_rule(*args):
            try:
                verdict = edge_rule(*args)
            except DivergentIntegral:
                n["divergent"] += 1
                raise
            n["converges" if verdict else "unknown"] += 1
            return verdict

        # the helpers are bound by name in the modules that import them
        for owners, name, fn in (((core,), "_tanh_sinh", counted_tanh_sinh),
                                 ((core._Cumulative,), "x_of_u", counted_x_of_u),
                                 ((core,), "invert_monotone", counted_invert_monotone),
                                 ((core,), "_gk_pieces", counted_gk_pieces),
                                 ((core,), "_w_mass", counted_w_mass),
                                 ((core, special, transforms), "_segment_masses", counted_segment_masses),
                                 ((measures,), "_edge_rule", counted_edge_rule)):
            for owner in owners:
                self._saved.append((owner, name, getattr(owner, name)))
                setattr(owner, name, fn)

    def uninstall(self) -> None:
        while self._saved:
            setattr(*self._saved.pop())


class RuleTimer:
    """Wraps `core._tanh_sinh` to time each scalar quadrature and, apart,
    its integrand calls: the rule's own time is the difference."""

    def __init__(self):
        self.quadratures, self.rule_s = 0, 0.0
        self._saved = None

    def install(self) -> None:
        tanh_sinh, clock = core._tanh_sinh, time.perf_counter

        def timed_tanh_sinh(g, *args):
            inner = [0.0]

            def timed_g(x):
                t0 = clock()
                try:
                    return g(x)
                finally:
                    inner[0] += clock() - t0

            self.quadratures += 1
            t0 = clock()
            try:
                return tanh_sinh(timed_g, *args)
            finally:
                self.rule_s += clock() - t0 - inner[0]

        self._saved = tanh_sinh
        core._tanh_sinh = timed_tanh_sinh

    def uninstall(self) -> None:
        core._tanh_sinh = self._saved


def measure(workload: str, seed: int, passes: int) -> dict:
    cache = ROOT / ".bench_cache"
    cache.mkdir(exist_ok=True)
    refs = bench_run._references(workload, seed, cache)
    items = [{k: v for k, v in it.items() if k != "expect"} for it in refs["items"]]
    runner = Runner(items)
    counters = Counters()
    counters.install()
    try:
        outcomes, _, _ = runner.run_pass()
    finally:
        counters.uninstall()
    runner.run_pass()  # warm-up: lazy tables and caches, as in the benchmark's later passes
    times, rule_us = [], []
    for _ in range(passes):
        gc.collect()
        t0 = time.perf_counter()
        runner.run_pass()
        times.append(1e3 * (time.perf_counter() - t0))
        timer = RuleTimer()
        timer.install()
        try:
            runner.run_pass()
        finally:
            timer.uninstall()
        if timer.quadratures:
            rule_us.append(1e6 * timer.rule_s / timer.quadratures)
    n = counters.n
    per_solve = lambda count: count / n["x_of_u"] if n["x_of_u"] else None
    return {
        "items": len(items),
        "failed_items": sum(oc != "ok" for oc in outcomes),
        "L1": {
            "quadratures": n["quadratures"],
            "integrand_calls": n["integrand_calls"],
            "evaluations": n["evaluations"],
            "quadratures_ok": n["quadratures_ok"],
            "integrand_calls_ok": n["integrand_calls_ok"],
            "evaluations_ok": n["evaluations_ok"],
            "rule_us_per_quadrature": min(rule_us) if rule_us else None,
        },
        "edge_rule": {k: n[k] for k in VERDICTS},
        "pieces": {
            **{k: n[k] for k in PIECES},
            **{f"x_of_u_{k}": n[f"x_of_u_{k}"] for k in PIECES},
        },
        "tables": {k: n[k] for k in TABLE},
        "L2": {
            "x_of_u": n["x_of_u"],
            "quadratures_per_x_of_u": per_solve(n["x_of_u_quadratures"]),
            **{f"{k}_per_x_of_u": per_solve(n[f"x_of_u_{k}"]) for k in (*PIECES, *W_CALLS)},
            "seeded_x_of_u": n["seeded_x_of_u"],
            "seeds_accepted_at_first_check": n["seeds_accepted_at_first_check"],
        },
        "pass_ms": statistics.median(times),
        "pass_ms_all": times,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore", RuntimeWarning)  # as in the benchmark's worker
    result = {"seed": args.seed, "workloads": {w: measure(w, args.seed, args.passes) for w in WORKLOADS}}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for w, r in result["workloads"].items():
        print(w, json.dumps({k: r[k] for k in ("L1", "edge_rule", "pieces", "tables", "L2", "pass_ms")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
