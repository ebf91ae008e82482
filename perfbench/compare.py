#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records appended by perfbench/run.py (.perfbench_out/results.jsonl);
only untraced runs count. Refuses (exit 2) when the runs come from different machines
or builds: every record must agree on nproc, CPU model and build type. For each
workload and end-to-end metric it prints both medians, the base's spread (quartile
distance over median), and the change in the metric's worse direction, and flags a
regression when that change exceeds the metric's bound in BENCHMARK.json, or
"unresolved" when the base's own spread is wider than the bound. Exits 1 on any
regression.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("nproc", "cpu_model", "build_type")


def load(path):
    recs = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec.get("trace") == 0:
                recs.append(rec)
    return recs


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    machines = {tuple(r["fingerprint"].get(k) for k in MACHINE_KEYS) for r in base + new}
    if len(machines) != 1:
        print("refusing to compare runs from different machines or builds:", file=sys.stderr)
        for m in sorted(machines, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(MACHINE_KEYS, m)),
                  file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressions = 0
    print(f"{'workload':10} {'metric':16} {'base':>12} {'new':>12} {'worse by':>9} "
          f"{'bound':>6} {'base spread':>11}  verdict")
    for w in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [r["result"]["metrics"][name]["value"] for r in base
                 if r["workload"] == w and name in r["result"]["metrics"]]
            n = [r["result"]["metrics"][name]["value"] for r in new
                 if r["workload"] == w and name in r["result"]["metrics"]]
            if not b or not n:
                print(f"{w:10} {name:16} missing from one side")
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            worse = (nm - bm) / bm if m["better"] == "lower" else (bm - nm) / bm
            s = spread(b)
            if worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif s > m["bound"]:
                verdict = "unresolved (base spread above bound)"
            else:
                verdict = "ok"
            print(f"{w:10} {name:16} {bm:12.6g} {nm:12.6g} {worse:9.3f} {m['bound']:6.2f} "
                  f"{s:11.3f}  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
