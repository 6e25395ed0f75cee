#!/usr/bin/env python3
"""Compare two result sets written by bench/e2e/run.py.

    compare.py A.json B.json           A = parent, B = change: no regression?
    compare.py --agree A.json B.json   the same code twice: do the sets agree?
    compare.py --pairs A.json B.json [--claim WORKLOAD:METRIC]
                                       gain claim over alternating pairs

Per (end-to-end metric, workload) it prints each side's median and
quartiles and checks the bound from BENCHMARK.json. A row is "unresolved"
when either side's spread (interquartile range over the median) is wider
than the bound, unless every run of B beats every run of A. Rows from runs
with more busy threads than the host has CPUs (oversubscribed) are skipped.
When both sets used the same seed, the deterministic outputs (state and
report digests, campaign dollars and makespan) must also match.

--pairs pairs run i of A with run i of B per workload (record them
alternately, e.g. `run.py --rounds 1 --append --out A.json` then the same
for B, ten times). A gain needs at least ten pairs, B winning at least nine
tenths of them (ties count for neither), and the medians differing by more
than A's interquartile range.

Exit code: 0 when every row passes (or the claim holds), 1 on a regression,
disagreement or failed claim, 2 when the only problem is unresolved rows.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Differences below these absolute amounts are never a regression: a 25 %
# change of a 15 ms set-up is scheduling noise, not work.
FLOORS = {"setup_s": 0.005}
# Outputs compared for equality when both sets used the same seed; numbers
# within 1e-6 relative.
OUTPUTS = ("state_digest", "csv_digest", "history_digest", "campaign_usd",
           "makespan_s")


def load(path):
    with open(path) as f:
        results = json.load(f)
    runs = [r for r in results["runs"] if r["trace"] == 0]
    skipped = [r for r in runs if r.get("oversubscribed")]
    return [r for r in runs if not r.get("oversubscribed")], skipped, results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def values_of(runs, workload, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and metric in r["metrics"]]


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative = better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def beats(x, y, better):
    return x < y if better == "lower" else x > y


def compare_outputs(runs_a, runs_b, results_a, results_b):
    problems = []
    if results_a.get("seed") != results_b.get("seed"):
        return problems
    for workload in sorted({r["workload"] for r in runs_a}):
        for key in OUTPUTS:
            va = {r["outputs"].get(key) for r in runs_a
                  if r["workload"] == workload} - {None}
            vb = {r["outputs"].get(key) for r in runs_b
                  if r["workload"] == workload} - {None}
            if not va or not vb:
                continue
            if key in ("campaign_usd", "makespan_s"):
                x, y = float(next(iter(va))), float(next(iter(vb)))
                same = len(va) == len(vb) == 1 and abs(x - y) <= 1e-6 * abs(x)
            else:
                same = va == vb
            if not same:
                problems.append(f"{workload} {key}: {sorted(va)} vs "
                                f"{sorted(vb)}")
    return problems


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("a")
    parser.add_argument("b")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--agree", action="store_true")
    mode.add_argument("--pairs", action="store_true")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the gain is for")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    runs_a, skipped_a, results_a = load(args.a)
    runs_b, skipped_b, results_b = load(args.b)
    for r in skipped_a + skipped_b:
        print(f"skipped oversubscribed run: {r['workload']} round "
              f"{r.get('round')} ({r['threads']} threads)")

    workloads = sorted({r["workload"] for r in runs_a} &
                       {r["workload"] for r in runs_b})
    failed = unresolved = False
    claim_holds = None
    print(f"{'workload':16s} {'metric':12s} {'A median [q1, q3]':36s} "
          f"{'B median [q1, q3]':36s} {'change':>8s} {'bound':>6s}  verdict")
    for workload in workloads:
        for m in metrics:
            name, better, bound = m["name"], m["better"], m["bound"]
            a = values_of(runs_a, workload, name)
            b = values_of(runs_b, workload, name)
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            qa, qb = quartiles(a), quartiles(b)
            spread_a = (qa[1] - qa[0]) / med_a
            spread_b = (qb[1] - qb[0]) / med_b
            change = worse_by(med_a, med_b, better)
            within = (change <= bound or
                      abs(med_b - med_a) < FLOORS.get(name, 0.0))
            noisy = max(spread_a, spread_b) > bound
            all_better = all(beats(y, x, better) for x in a for y in b)

            if args.pairs:
                pairs = list(zip(a, b))
                wins = sum(beats(y, x, better) for x, y in pairs)
                gain = (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and
                        abs(med_b - med_a) > qa[1] - qa[0])
                verdict = (f"{wins}/{len(pairs)} wins: "
                           + ("GAIN" if gain else "no gain"))
                if args.claim == f"{workload}:{name}":
                    claim_holds = gain
            elif args.agree:
                if noisy:
                    verdict, unresolved = "unresolved (spread > bound)", True
                elif abs(med_b - med_a) / med_a <= bound or \
                        abs(med_b - med_a) < FLOORS.get(name, 0.0):
                    verdict = "agree"
                else:
                    verdict, failed = "DISAGREE", True
            else:
                if noisy and not all_better:
                    verdict, unresolved = "unresolved (spread > bound)", True
                elif within or all_better:
                    verdict = "ok"
                else:
                    verdict, failed = "REGRESSED", True
            print(f"{workload:16s} {name:12s} "
                  f"{med_a:<12.6g} [{qa[0]:.6g}, {qa[1]:.6g}]".ljust(66)
                  + f" {med_b:<12.6g} [{qb[0]:.6g}, {qb[1]:.6g}]".ljust(37)
                  + f" {(med_b - med_a) / med_a:+8.3f} "
                  f"{bound:6.2f}  {verdict}")

    if not args.pairs:
        for problem in compare_outputs(runs_a, runs_b, results_a, results_b):
            print(f"outputs differ: {problem}")
            failed = True
    if args.claim:
        if claim_holds is None:
            print(f"claim {args.claim}: no such (workload, metric) rows")
            return 1
        print(f"claim {args.claim}: {'holds' if claim_holds else 'not met'}")
        return 0 if claim_holds else 1
    if failed:
        return 1
    return 2 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
