"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py --parent DIR_OR_FILE... --change DIR_OR_FILE...

Inputs are the result files run.py writes to .perfbench/results/ (a
directory means every *.json in it); only untraced runs are compared.
Runs of the two sides are paired by seed. For each workload and end-to-end
metric it prints both sides' medians and quartiles, how many pairs the
change won, and a verdict:

  worse       the change's median is worse than the parent's by more than
              the bound in BENCHMARK.json
  improved    the change won at least 9 in 10 of at least 10 pairs, and the
              medians differ by more than the parent's interquartile range
  unresolved  neither of the above, the spread of either side (IQR / median)
              is wider than the metric's bound, and not every change run
              beats every parent run
  no worse    otherwise

Both sides must hold the same seeds, one untraced run per seed and workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths) -> list:
    runs = []
    for raw in paths:
        path = Path(raw)
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for f in files:
            rec = json.loads(f.read_text())
            if rec.get("trace") == 0:
                runs.append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class SeedMismatch(Exception):
    pass


def pairs(parent: list, change: list) -> list:
    """(parent run, change run) pairs with the same seed."""
    sides = []
    for name, runs in (("parent", parent), ("change", change)):
        seeds = [r["seed"] for r in runs]
        dup = sorted({s for s in seeds if seeds.count(s) > 1})
        if dup:
            raise SeedMismatch(f"{name} has more than one run of seed(s) {dup}")
        sides.append({r["seed"]: r for r in runs})
    by_p, by_c = sides
    if set(by_p) != set(by_c):
        raise SeedMismatch(f"seeds only in parent: {sorted(set(by_p) - set(by_c))}, "
                           f"only in change: {sorted(set(by_c) - set(by_p))}")
    return [(by_p[s], by_c[s]) for s in sorted(by_p)]


def verdict(par, chg, pair_vals, bound, better) -> tuple[str, int]:
    sign = 1.0 if better == "lower" else -1.0  # sign * (parent - change) > 0: change better
    pm, cm = statistics.median(par), statistics.median(chg)
    wins = sum(1 for p, c in pair_vals if sign * (p - c) > 0)
    q1, q3 = quartiles(par)
    cq1, cq3 = quartiles(chg)
    spread = max((q3 - q1) / pm, (cq3 - cq1) / cm)
    if sign * (cm - pm) / pm > bound:
        return "worse", wins
    if len(pair_vals) >= 10 and wins >= 0.9 * len(pair_vals) and sign * (pm - cm) > q3 - q1:
        return "improved", wins
    if spread > bound and not all(sign * (p - c) > 0 for p in par for c in chg):
        return "unresolved", wins
    return "no worse", wins


def compare(parent: list, change: list, spec: dict) -> list:
    rows = []
    for workload in sorted({r["workload"] for r in parent} & {r["workload"] for r in change}):
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        matched = pairs(p_runs, c_runs)
        for m in spec["end_to_end"]:
            name = m["name"]
            par = [r["metrics"][name] for r in p_runs]
            chg = [r["metrics"][name] for r in c_runs]
            pv = [(a["metrics"][name], b["metrics"][name]) for a, b in matched]
            v, wins = verdict(par, chg, pv, m["bound"], m["better"])
            rows.append({"workload": workload, "metric": name, "unit": m["unit"],
                         "parent": (statistics.median(par), *quartiles(par)),
                         "change": (statistics.median(chg), *quartiles(chg)),
                         "wins": wins, "pairs": len(pv), "verdict": v})
        rows.append({"workload": workload, "metric": "failed/attempted", "unit": "ops",
                     "parent": [sum(r[k] for r in p_runs) for k in ("failed", "attempted")],
                     "change": [sum(r[k] for r in c_runs) for k in ("failed", "attempted")],
                     "wrong": sum(r["wrong_answers"] for r in c_runs)})
    return rows


def _fmt(med_q):
    med, q1, q3 = med_q
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        rows = compare(load(args.parent), load(args.change), spec)
    except SeedMismatch as exc:
        print(f"cannot pair the runs: {exc}", file=sys.stderr)
        return 2
    print(f"{'workload':16} {'metric':18} {'parent median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'wins':>7}  verdict")
    for r in rows:
        if "verdict" in r:
            print(f"{r['workload']:16} {r['metric']:18} {_fmt(r['parent']):34} "
                  f"{_fmt(r['change']):34} {r['wins']:>3}/{r['pairs']:<3}  {r['verdict']}")
        else:
            print(f"{r['workload']:16} {r['metric']:18} {'%d/%d' % tuple(r['parent']):34} "
                  f"{'%d/%d' % tuple(r['change']):34} {'':7}  wrong answers {r['wrong']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
