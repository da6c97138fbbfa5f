"""Diff the per-item outcomes of two benchmark runs.

    python3 tools/diff_items.py OLD.jsonl NEW.jsonl

Both files are `.bench_out/<workload>-seed<seed>-items.jsonl`, as
`bench/run.py` writes them, of the same workload and seed.  It prints:

- the items whose outcome class (or failed flag) changed, and the items
  found in one file only;
- per item-id prefix (the id with its arguments and indices dropped, so
  `iv/down_of_gg(2,0.7,1.5)/values[16]` is `iv/down_of_gg/values`), the
  number of items with values in both runs, how many moved, and the largest
  relative move |new - old| / |old| of a value, with its item;
- the items whose relative error against the oracle got worse.

The exit status is 1 when an outcome class changed or an item is missing
from one file, else 0.
"""

from __future__ import annotations

import json
import re
import sys


def load(path: str) -> dict:
    with open(path) as fh:
        return {row["id"]: row for row in map(json.loads, fh)}


def prefix(item_id: str) -> str:
    """The id without its parenthesized arguments, indices and parameter values."""
    out = re.sub(r"\[\d+\]", "", item_id)
    while True:
        shorter = re.sub(r"\([^()]*\)", "", out)
        if shorter == out:
            break
        out = shorter
    return re.sub(r"=[^,/]*", "", out)


def flat(v) -> list:
    return [] if v is None else [float(x) for x in (v if isinstance(v, list) else [v])]


def move(old, new) -> float:
    """Largest relative move between two values (lists compared entrywise);
    nan when their shapes differ."""
    a, b = flat(old), flat(new)
    if len(a) != len(b):
        return float("nan")
    worst = 0.0
    for x, y in zip(a, b):
        if x == y:
            continue
        worst = max(worst, abs(y - x) / abs(x) if x != 0.0 else float("inf"))
    return worst


def worst_err(e) -> float:
    return max(flat(e), default=0.0)


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = load(argv[1]), load(argv[2])

    print("outcome class changes:")
    changed = 0
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            print(f"  {key}: only in {'NEW' if key in new else 'OLD'}")
            changed += 1
            continue
        o, n = old[key], new[key]
        if o["outcome"] != n["outcome"] or o["failed"] != n["failed"]:
            print(f"  {key}: {o['outcome']} (failed {o['failed']}) -> {n['outcome']} (failed {n['failed']})")
            changed += 1
    print(f"  {changed} of {len(old.keys() | new.keys())} items" if changed else "  none")

    groups: dict = {}
    for key in sorted(old.keys() & new.keys()):
        o, n = old[key], new[key]
        if o["value"] is None or n["value"] is None:
            continue
        m = move(o["value"], n["value"])
        g = groups.setdefault(prefix(key), [0, 0, 0.0, ""])
        g[0] += 1
        g[1] += m != 0.0
        if not m <= g[2]:  # nan, a change of shape, always shows
            g[2], g[3] = m, key
    print("largest relative move of values, per item-id prefix:")
    for p, (count, moved, worst, key) in sorted(groups.items()):
        where = f"  at {key}" if moved else ""
        print(f"  {p}: {moved} of {count} moved, largest {worst:.3g}{where}")

    print("relative error against the oracle, worse:")
    worse = 0
    for key in sorted(old.keys() & new.keys()):
        eo, en = old[key]["rel_err"], new[key]["rel_err"]
        if eo is not None and en is not None and worst_err(en) > worst_err(eo):
            print(f"  {key}: {worst_err(eo):.3g} -> {worst_err(en):.3g}")
            worse += 1
    print(f"  {worse} items" if worse else "  none")
    return int(changed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
