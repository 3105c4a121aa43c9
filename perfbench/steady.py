#!/usr/bin/env python3
"""Steadiness check: run one workload in two interleaved sets of runs and
say, for every end-to-end metric, whether the sets agree within the
metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --workload kway [--runs 5] [--seed 1] [--fresh-seeds]

Set A runs seeds seed .. seed+runs-1; set B the same seeds (or, with
--fresh-seeds, the next runs seeds), in the order A1 B1 A2 B2 ...  For
each metric it prints each set's quartiles, the spread (q3 - q1) / median
of all runs together, and the verdict:

  spread ok    the spread is below a third of the bound (setup_s exempt)
  medians ok   set B's median is not worse than set A's by more than the
               bound

It also checks that every run was correct, that the share of failed
operations is the same in every run, and, when both sets use the same
seeds, that cut_total is identical at each seed.  Exit code 1 if any
check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--fresh-seeds", action="store_true")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    seeds_a = [args.seed + i for i in range(args.runs)]
    seeds_b = [s + args.runs for s in seeds_a] if args.fresh_seeds else seeds_a
    sets = ([], [])
    for sa, sb in zip(seeds_a, seeds_b):
        for results, seed in ((sets[0], sa), (sets[1], sb)):
            r = run(args.workload, seed, seconds)
            results.append((seed, r))
            print(f"seed {seed}: correct {r['correct']} attempted {r['attempted']} "
                  f"failed {r['failed']} " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                  file=sys.stderr, flush=True)
    ok = True
    everything = sets[0] + sets[1]
    if not all(r["correct"] for _, r in everything):
        print("FAIL: a run was not correct")
        ok = False
    shares = {r["failed"] / r["attempted"] for _, r in everything}
    print(f"failed share per run: {sorted(shares)}")
    ok &= len(shares) == 1
    if seeds_a == seeds_b:
        same = all(a["metrics"]["cut_total"]["value"] == b["metrics"]["cut_total"]["value"]
                   for (_, a), (_, b) in zip(*sets))
        print(f"cut_total identical at each seed: {same}")
        ok &= same
    print(f"{'metric':<12} {'bound':>6} | {'A q1':>10} {'A med':>10} {'A q3':>10} | "
          f"{'B q1':>10} {'B med':>10} {'B q3':>10} | {'spread':>7} {'B vs A':>7}  verdict")
    for m in bench["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        a = [r["metrics"][name]["value"] for _, r in sets[0]]
        b = [r["metrics"][name]["value"] for _, r in sets[1]]
        qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
        q1, q2, q3 = statistics.quantiles(a + b, n=4)
        spread = (q3 - q1) / q2
        worse = (qb[1] - qa[1]) / qa[1] if lower else (qa[1] - qb[1]) / qa[1]
        spread_ok = name == "setup_s" or spread < bound / 3
        median_ok = worse <= bound
        ok &= spread_ok and median_ok
        print(f"{name:<12} {bound:>6.3f} | {qa[0]:>10.4g} {qa[1]:>10.4g} {qa[2]:>10.4g} | "
              f"{qb[0]:>10.4g} {qb[1]:>10.4g} {qb[2]:>10.4g} | {spread:>7.4f} {worse:>+7.4f}  "
              f"spread {'ok' if spread_ok else 'WIDE'}, medians {'ok' if median_ok else 'APART'}")
    print("steady" if ok else "NOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
