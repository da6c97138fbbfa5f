"""Benchmark of entroscope end to end, with an optional traced per-layer run.

    python3 bench/run.py [--workload NAME] --seed N --seconds S --trace 0|1

Without --workload (or with --workload all) every workload runs in turn and
the last line maps each workload to its result object.

Workloads (see bench/README.md for why each was chosen):
  builtin_measures  every measure id but fisherSup on builtin densities and g_{p,lambda}
  image_values      numeric and closed-form down/up images evaluated pointwise,
                    quantiles and fisher_sup of the builtins
  inequality_sweep  phi_{p,lambda}, N_lambda and sigma_{p*} over a (p, lambda) grid,
                    on g_{p,lambda}, builtins and their down images, with the
                    Stam and moment-entropy inequality gates

The seed jitters parameters and picks evaluation points.  References come
from bench/oracle.py (mpmath, no entroscope) and are cached per seed in
.bench_cache/.  Each measurement runs in a fresh single-threaded process
(bench/worker.py), one caller in a closed loop.  With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run and the tracing
overhead.  Per-item outcomes go to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import items as items_mod  # noqa: E402

REL_TOL = 1e-8
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------- processes


def _worker(input_path: Path, output_path: Path, seconds: float, trace: bool = False,
            setup_only: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # the same dict layout in every workload process
    cmd = [sys.executable, "-m", "bench.worker", str(input_path), str(output_path),
           "--seconds", repr(seconds)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawn", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("workload process timed out")
    if proc.returncode != 0:
        raise BenchError(f"workload process failed ({proc.returncode}):\n{err[-2000:]}")
    with open(output_path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- references


def _code_version() -> str:
    """Hash of the item generator and oracle: cached references are reused
    only by the code that made them."""
    h = hashlib.sha1()
    for name in ("items.py", "oracle.py"):
        h.update((ROOT / "bench" / name).read_bytes())
    return h.hexdigest()[:12]


def _references(workload: str, seed: int, cache: Path) -> dict:
    path = cache / f"{workload}-seed{seed}-{_code_version()}.json"
    if path.exists():
        with open(path) as fh:
            return json.load(fh)
    resolved = items_mod.resolve(items_mod.generate(workload, seed))
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump(resolved, fh)
    os.replace(tmp, path)
    return resolved


# ---------------------------------------------------------------- judging


def _rel_err(value, ref) -> float:
    if isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            return math.inf
        return max((_rel_err(v, r) for v, r in zip(value, ref)), default=0.0)
    if value is None or isinstance(value, list) or not math.isfinite(value):
        return math.inf
    return abs(value - ref) / max(1.0, abs(ref))


def judge(expect: dict, outcome: str, value) -> tuple:
    """(wrong, relative error) of one item's outcome against its expectation."""
    if "ok" in expect:
        return outcome != "ok", None
    if "raises" in expect:
        return outcome != expect["raises"], None
    if outcome != "ok":
        return True, None
    err = _rel_err(value, expect["value"])
    return not err <= REL_TOL, err


def _gates(items: list, values: list, wrong: list, gates: dict) -> tuple:
    """Apply the inequality gates; returns (group -> verdict, not-applicable groups)."""
    groups: dict = {}
    for i, it in enumerate(items):
        if "group" in it:
            groups.setdefault(it["group"], {})[it["role"]] = i
    verdicts = {}
    not_applicable = {}
    oracle_ratios = gates.get("oracle_ratios", {})
    for name, roles in groups.items():
        point = name.split("/", 1)[0]
        if point not in gates or set(roles) != {"phi", "N", "sigma"}:
            continue
        phi, n, sigma = (values[roles[r]] for r in ("phi", "N", "sigma"))
        if any(wrong[i] for i in roles.values()) or None in (phi, n, sigma):
            continue  # gated: densities whose three measures pass with finite values
        ratios = {"stam": phi * n / gates[point]["stam"],
                  "moment_entropy": sigma / n / gates[point]["moment_entropy"]}
        kind = items[roles["phi"]]["gate"]
        ok = True
        for which, r in ratios.items():
            if kind == "equal":
                ok &= abs(r - 1.0) <= items_mod.GATE_EQUAL_TOL
            else:
                ref = oracle_ratios.get(name, {}).get(which)
                if ref is not None and ref < 1.0 - items_mod.GATE_GE_TOL:
                    not_applicable[f"{name}:{which}"] = ref
                    continue
                ok &= r >= 1.0 - items_mod.GATE_GE_TOL
        verdicts[name] = (ok, ratios)
        if not ok:
            for i in roles.values():
                wrong[i] = True
    return verdicts, not_applicable


# ---------------------------------------------------------------- metrics


def _percentile(xs: list, q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1) of xs."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _items_per_s(n: int, res: dict) -> float:
    """Items per second over the passes that ran every item (the first pass
    always does): their items over their total time."""
    complete = [t for t, whole in res["passes"] if whole]
    return n * len(complete) / sum(complete)


def _evaluate(workload: str, refs: dict, res: dict, out_path: Path) -> dict:
    items = refs["items"]
    outcomes, values = res["outcomes"], res["values"]
    wrong, errs = [], []
    for it, oc, v in zip(items, outcomes, values):
        w, e = judge(it["expect"], oc, v)
        wrong.append(w)
        errs.append(e)
    for i in res["unstable"]:
        wrong[i] = True
    verdicts, not_applicable = ({}, {})
    if workload == "inequality_sweep":
        verdicts, not_applicable = _gates(items, values, wrong, refs["gates"])
    # an item's time is its mean over the passes that ran it: the host
    # switches between speed regimes about 1.7x apart that last seconds to
    # minutes, and a per-item median jumps between the two modes
    item_ms = [1e3 * statistics.fmean(ts) for ts in res["item_s"]]
    out_path.parent.mkdir(exist_ok=True)
    with open(out_path, "w") as fh:
        for i, it in enumerate(items):
            fh.write(json.dumps({
                "id": it["id"], "outcome": outcomes[i], "expected": it["expect"],
                "value": values[i], "rel_err": errs[i], "mean_ms": item_ms[i],
                "median_ms": 1e3 * statistics.median(res["item_s"][i]),
                "failed": wrong[i],
                **({"gate": verdicts[it["group"]][0]} if it.get("group") in verdicts else {}),
            }) + "\n")
    n = len(items)
    return {
        "n": n, "failed": sum(wrong), "item_ms": item_ms, "wrong": wrong,
        "items_per_s": _items_per_s(n, res),
        "passes": len(res["passes"]),
        "not_applicable": not_applicable, "outcomes": outcomes, "unstable": res["unstable"],
    }


def _summary(workload: str, seed: int, refs: dict, ev: dict, shown: dict) -> None:
    items = refs["items"]
    counts: dict = {}
    for it, oc, w in zip(items, ev["outcomes"], ev["wrong"]):
        if w:
            counts[oc] = counts.get(oc, 0) + 1
    print(f"workload {workload} seed {seed}: {ev['n']} items, {ev['passes']} pass(es), "
          f"{len(refs['left_out'])} left out by the oracle")
    for lo in refs["left_out"]:
        print(f"  left out: {lo['id']} ({lo['reason']})")
    for key, ratio in sorted(ev["not_applicable"].items()):
        print(f"  inequality not applicable (oracle ratio {ratio:.6g}): {key}")
    print(f"  failed items by outcome: {json.dumps(counts, sort_keys=True)}")
    for name, (value, unit) in shown.items():
        print(f"  {name:32s} {value:14.6g} {unit}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload, print its summary lines, return the result object."""
    cache = ROOT / ".bench_cache"
    outdir = ROOT / ".bench_out"
    cache.mkdir(exist_ok=True)
    outdir.mkdir(exist_ok=True)
    refs = _references(workload, seed, cache)
    tag = f"{workload}-seed{seed}"
    input_path = cache / f"{tag}-input.json"
    with open(input_path, "w") as fh:
        json.dump([{k: v for k, v in it.items() if k != "expect"} for it in refs["items"]], fh)
    worker_out = outdir / f"{tag}-worker.json"
    setups = [_worker(input_path, worker_out, 0, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    agree = True
    if not trace:
        res = _worker(input_path, worker_out, seconds)
        setups.append(res["setup_s"])
        ev = _evaluate(workload, refs, res, outdir / f"{tag}-items.jsonl")
        metrics = {
            "items_per_s": (ev["items_per_s"], "items/s"),
            "item_ms_p50": (_percentile(ev["item_ms"], 0.5), "ms"),
            "item_ms_p90": (_percentile(ev["item_ms"], 0.9), "ms"),
            "pass_frac": (1.0 - ev["failed"] / ev["n"], "ratio"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        shown = {**metrics, "fail_frac": (ev["failed"] / ev["n"], "ratio")}
    else:
        plain = _worker(input_path, worker_out, seconds / 2.0)
        traced = _worker(input_path, worker_out, seconds / 2.0, trace=True)
        ev = _evaluate(workload, refs, traced, outdir / f"{tag}-items-traced.jsonl")
        agree = plain["outcomes"] == traced["outcomes"] and plain["values"] == traced["values"]
        if not agree:
            print("traced and untraced runs disagree on item outcomes or values", file=sys.stderr)
        metrics = {k: (v, _LAYER_UNITS[k]) for k, v in traced["layers"].items()}
        metrics["tracing.overhead"] = (ev["items_per_s"] / _items_per_s(ev["n"], plain), "ratio")
        os.replace(worker_out.with_name(worker_out.name + ".spans.tsv"), outdir / f"{tag}-spans.tsv")
        shown = metrics
    _summary(workload, seed, refs, ev, shown)
    # correct: every item was judged against its reference and gave the same
    # outcome in every pass (and traced == untraced); wrong outcomes, the
    # known defects included, are counted in `failed`
    return {
        "correct": not ev["unstable"] and agree,
        "attempted": ev["n"],
        "failed": ev["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=items_mod.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "entroscope" / "__init__.py").is_file():
        print("entroscope sources not found under src/; nothing to benchmark", file=sys.stderr)
        return 2
    workloads = items_mod.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


_LAYER_UNITS = {
    "core.integrate.calls": "count",
    "core.integrate.nested_frac": "ratio",
    "core.integrate.max_depth": "count",
    "core.integrate.evals": "count",
    "core.integrate.evals_per_call": "count",
    "core.integrate.self_ms": "ms",
    "core.integrate.fail_frac": "ratio",
    "core.invert_monotone.calls": "count",
    "core.invert_monotone.g_evals": "count",
    "core.invert_monotone.self_ms": "ms",
    "core.quantiles.self_ms": "ms",
    "measures.self_ms": "ms",
    "measures.fail_frac": "ratio",
    "transforms.down.ms_per_call": "ms",
    "transforms.up.ms_per_call": "ms",
    "transforms.value.us_per_point": "us",
    "special.self_ms": "ms",
}


if __name__ == "__main__":
    sys.exit(main())
