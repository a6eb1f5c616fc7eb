"""Compare two benchmark files written by ``run.py --workload all --bench-out``.

    python3 perfbench/compare.py parent.json change.json

For each workload and end-to-end metric of BENCHMARK.json it prints the
parent's and the change's median and quartiles, how many seed-matched
pairs the change wins (ties count for neither side), the metric's bound
and a verdict:

- ``unresolved``: the parent's own spread (quartile distance over the
  median) exceeds the bound, and not every change run beats every parent
  run, so no claim either way can be made;
- ``regression``: the change's median is worse than the parent's by more
  than the bound;
- ``improved``: the change wins at least nine tenths of the pairs and
  the medians differ by more than the parent's quartile distance;
- ``within bound``: none of the above.

Exits with 1 when any pairing is a regression.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    """workload -> metric -> seed -> value, over the untraced runs."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    out: dict = {}
    for run in data["runs"]:
        if run["trace"]:
            continue
        for name, m in run["result"]["metrics"].items():
            out.setdefault(run["workload"], {}).setdefault(name, {})[run["seed"]] = m["value"]
    return out


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def verdict(parent: dict, change: dict, better: str, bound: float) -> dict:
    p, c = list(parent.values()), list(change.values())
    pq, cq = quartiles(p), quartiles(c)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (cq[1] - pq[1]) / pq[1]
    spread = (pq[2] - pq[0]) / pq[1]
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) < 0)
    losses = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    all_better = max(c) < min(p) if better == "lower" else min(c) > max(p)
    if spread > bound and not all_better:
        word = "unresolved"
    elif worse > bound:
        word = "regression"
    elif seeds and wins >= 0.9 * len(seeds) and abs(cq[1] - pq[1]) > pq[2] - pq[0] and worse < 0:
        word = "improved"
    else:
        word = "within bound"
    return {"parent": pq, "change": cq, "worse": worse, "spread": spread,
            "pairs": len(seeds), "wins": wins, "losses": losses, "verdict": word}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    regression = False
    print(f"{'workload':18s} {'metric':12s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'worse':>7s} {'wins':>7s} {'bound':>6s}  verdict")
    for workload in sorted(set(parent) | set(change)):
        for m in metrics:
            name = m["name"]
            pv = parent.get(workload, {}).get(name)
            cv = change.get(workload, {}).get(name)
            if not pv or not cv:
                print(f"{workload:18s} {name:12s} missing on one side")
                continue
            v = verdict(pv, cv, m["better"], m["bound"])
            regression |= v["verdict"] == "regression"
            pq, cq = v["parent"], v["change"]
            print(f"{workload:18s} {name:12s} "
                  f"{pq[1]:11.5g} [{pq[0]:9.5g}, {pq[2]:9.5g}] "
                  f"{cq[1]:11.5g} [{cq[0]:9.5g}, {cq[2]:9.5g}] "
                  f"{v['worse']:+7.1%} {v['wins']:3d}/{v['pairs']:<3d} "
                  f"{m['bound']:6.0%}  {v['verdict']} ({m['unit']}, parent spread "
                  f"{v['spread']:.1%}, n={len(pv)}/{len(cv)})")
    return 1 if regression else 0


if __name__ == "__main__":
    sys.exit(main())
