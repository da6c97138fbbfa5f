"""Start-up cost of importing entroscope and its submodules.

    python3 tools/import_cost.py [--runs 9] [--src src] [MODULE ...]

For each module (by default numpy, entroscope, entroscope.core,
entroscope.measures, entroscope.transforms and entroscope.special) it
starts `--runs` fresh interpreters, one at a time, that each import the
module and nothing else.  It prints per module:

- the median wall time of the import statement, in ms (measured inside the
  process, so interpreter start-up is left out);
- the median peak resident set size of the process after it, in MB
  (`ru_maxrss`, so the interpreter's own memory is included);
- the third-party top-level packages the process has loaded, i.e. the
  names in `sys.modules` outside the standard library, entroscope and the
  interpreter's start-up.

A MODULE argument of the form `entroscope.special:inc_gamma_upper(1.5, 2.0)`
imports the module and then evaluates the expression in its namespace, so
the cost of what a first call loads shows too.  `--src` is put first on
PYTHONPATH (default: the `src` directory next to this file's parent).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

DEFAULT = [
    "numpy",
    "entroscope",
    "entroscope.core",
    "entroscope.measures",
    "entroscope.transforms",
    "entroscope.special",
]

# runs in the child: import (and optionally call), then report time, peak RSS
# and the top-level names of the third-party modules loaded
_CHILD = """
import json, resource, sys, time
before = set(sys.modules)
module, _, call = sys.argv[1].partition(":")
t0 = time.perf_counter()
ns = __import__(module, fromlist=["_"]).__dict__
if call:
    eval(call, ns)
seconds = time.perf_counter() - t0
tops = {name.split(".")[0] for name in set(sys.modules) - before}
third = sorted(t for t in tops if t not in sys.stdlib_module_names and t != "entroscope" and not t.startswith("_"))
print(json.dumps({"s": seconds, "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "loaded": third}))
"""


def measure(target: str, runs: int, env: dict) -> dict:
    rows = []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, "-c", _CHILD, target], env=env, capture_output=True, text=True, check=True
        )
        rows.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return {
        "import_ms": statistics.median(r["s"] for r in rows) * 1e3,
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in rows) / 1024.0,
        "loaded": sorted({name for r in rows for name in r["loaded"]}),
    }


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("modules", nargs="*", default=DEFAULT)
    parser.add_argument("--runs", type=int, default=9)
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = parser.parse_args(argv[1:])
    path = [args.src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    width = max(len(m) for m in args.modules)
    print(f"{'module':<{width}}  {'import_ms':>9}  {'peak_rss_mb':>11}  third-party packages loaded")
    for target in args.modules:
        r = measure(target, args.runs, env)
        print(f"{target:<{width}}  {r['import_ms']:9.1f}  {r['peak_rss_mb']:11.1f}  {' '.join(r['loaded']) or '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
