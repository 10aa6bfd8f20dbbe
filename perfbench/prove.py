#!/usr/bin/env python3
"""Steadiness check of the benchmark: runs perfbench/run.py on every
workload of BENCHMARK.json over several seeds, at its run_seconds with
--trace 0, interleaving the workloads (seed-major, so no workload runs as
a block), and reports for every end-to-end metric the median and the
spread -- the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median -- against
the metric's bound from BENCHMARK.json.

    python3 perfbench/prove.py --seeds 1-10 [--markdown OUT]

Run from the repository root.  A metric passes when its spread stays
below a third of its bound; the exit code is 1 when any run fails or any
spread does not.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--markdown", help="write the summary table here")
    args = ap.parse_args()

    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {} for w in workloads}
    units = {}
    host = ""
    failed = False
    for seed in seed_list(args.seeds):
        for w in workloads:
            t0 = time.time()
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            wall = time.time() - t0
            try:
                res = json.loads(out.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                sys.stdout.write(out.stdout)
                sys.exit("run failed: %s seed %d" % (w, seed))
            ok = res["correct"] and res["failed"] == 0
            failed = failed or not ok
            print("%-9s seed %-3d %5.1f s%s" % (w, seed, wall,
                                                 "" if ok else "  FAILED"),
                  flush=True)
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            host = host or next((line[2:] for line in out.stdout.splitlines()
                                 if line.startswith("# host ")), "")

    worst = 0.0
    rows = []
    for w in workloads:
        print("\n%s" % w)
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds[name]
            worst = max(worst, spread / bound)
            print("  %-16s median %-14.6g spread %.4f  bound %.3f  %s" %
                  (name, med, spread, bound,
                   "ok" if spread < bound / 3 else "TOO WIDE"))
            rows.append("| %s | %s | %.6g %s | %.6g | %.6g | %.4f | %.2f |" %
                        (w, name, med, units[name], q[0], q[2], spread, bound))
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write("Seeds %s, %d s per run, trace 0, workloads interleaved "
                    "seed-major.\n%s\n\n" % (args.seeds, seconds, host))
            f.write("| workload | metric | median | q1 | q3 | spread | "
                    "bound |\n|---|---|---|---|---|---|---|\n")
            f.write("\n".join(rows) + "\n")
    print("\nworst spread / bound = %.3f (must stay below 0.333)" % worst)
    sys.exit(1 if failed or worst >= 1 / 3 else 0)


if __name__ == "__main__":
    main()
