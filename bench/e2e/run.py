#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of HemoCloud's two product loops.

Builds the benchmark program hemo_e2e (bench/e2e/CMakeLists.txt, into
build-e2e/) and runs it.

One run (the last stdout line is JSON with `correct`, `attempted`, `failed`
and `metrics`):

    python3 bench/e2e/run.py --workload cyl-small-r4 --seed 1 --seconds 20 --trace 0

The suite: R rounds of every workload, each run in a fresh process, with the
workload order rotated per round so host drift hits every workload. Prints
every metric as median, min, max and n, checks the outputs, and writes
build-e2e/out/results.json (or --out). --trace adds one traced round and
merges its spans into build-e2e/out/trace.json.

    python3 bench/e2e/run.py [--rounds 3] [--seed 1] [--seconds 20] [--trace]
    python3 bench/e2e/run.py --smoke       # tiny inputs, every path and check
    python3 bench/e2e/run.py --self-test   # every check fails on its perturbation

Exit code 0 when every output check passed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-e2e"
OUT = BUILD / "out"
BINARY = BUILD / "hemo_e2e"
RUN_TIMEOUT_S = 170

# Outputs that are a pure function of (workload, seed): equal across rounds.
DETERMINISTIC_OUTPUTS = ("state_digest", "digest_step", "csv_digest",
                         "history_digest", "campaign_usd", "makespan_s")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_benchmark_file():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def load_benchmark():
    bench = load_benchmark_file()
    return ([w["name"] for w in bench["workloads"]],
            {m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def build():
    """Configures and builds hemo_e2e; exits 1 on failure. Configuring a
    configured tree takes well under a second, and always doing it recovers
    from a first configure that failed half-way."""
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "hemo_e2e",
              "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("run.py: build failed:", " ".join(cmd))
            sys.exit(1)
    OUT.mkdir(parents=True, exist_ok=True)


def run_program(workload, seed, seconds, trace, smoke=False):
    """One fresh hemo_e2e process; returns its full JSON record."""
    # hemo_e2e runs in the repository root and writes under a relative
    # --out, so the paths it reports are relative to the root.
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", str(OUT.relative_to(ROOT))]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
        sys.exit(1)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"run.py: {workload}: hemo_e2e exited {proc.returncode} "
            "without a result")
        sys.exit(1)
    return record


def complete_metrics(record, expected):
    """Checks the run's metrics against the BENCHMARK.json catalogue and
    fills the layers this workload does not call with 0 (like cache hits on
    a workload that bypasses the cache). Returns a list of problems."""
    problems = []
    metrics = record["metrics"]
    for name, m in metrics.items():
        if name not in expected:
            problems.append(f"metric {name} is not in BENCHMARK.json")
        elif m["unit"] != expected[name]:
            problems.append(f"metric {name} has unit {m['unit']}, "
                            f"BENCHMARK.json says {expected[name]}")
    for name, unit in expected.items():
        if name not in metrics:
            metrics[name] = {"value": 0, "unit": unit}
    return problems


def print_record(record):
    status = "correct" if record["correct"] else "INCORRECT"
    over = ", oversubscribed" if record.get("oversubscribed") else ""
    print(f"{record['workload']} seed {record['seed']} trace "
          f"{record['trace']}: {status}, {record['attempted']} attempted, "
          f"{record['failed']} failed, {record['threads']} threads{over}")
    samples = record.get("samples", {})
    for name, m in sorted(record["metrics"].items()):
        line = f"  {name:32s} {m['value']:<22.10g} {m['unit']}"
        if name in samples:
            s = samples[name]
            line += (f"   within run: median {s['median']:.6g}, min "
                     f"{s['min']:.6g}, max {s['max']:.6g}, n {s['n']}")
        print(line)
    for line in record.get("layer_sums", []):
        print(f"  layers: {line}")
    for c in record.get("checks", []):
        print(f"  check {c['name']}: {'pass' if c['passed'] else 'FAIL'}"
              + (f" ({c['detail']})" if c["detail"] else ""))


def contract_line(record):
    return json.dumps({k: record[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


def one_run(args):
    workloads, e2e, layers = load_benchmark()
    if args.workload not in workloads:
        log(f"run.py: unknown workload {args.workload}; one of {workloads}")
        return 2
    build()
    record = run_program(args.workload, args.seed, args.seconds,
                        args.trace == 1)
    problems = complete_metrics(record, layers if args.trace == 1 else e2e)
    for p in problems:
        log("run.py:", p)
    if problems:
        record["correct"] = False
    print_record(record)
    print(contract_line(record))
    return 0 if record["correct"] else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(runs):
    """Per workload and metric: median, min, max, n and quartiles."""
    summary = {}
    for run in runs:
        for name, m in run["metrics"].items():
            summary.setdefault(run["workload"], {}).setdefault(
                name, {"unit": m["unit"], "values": []})["values"].append(
                    m["value"])
    for per_metric in summary.values():
        for entry in per_metric.values():
            v = entry.pop("values")
            q1, q3 = quartiles(v)
            entry.update(median=statistics.median(v), min=min(v), max=max(v),
                         n=len(v), q1=q1, q3=q3)
    return summary


def cross_round_checks(runs):
    """Deterministic outputs must repeat across rounds for one seed."""
    checks = []
    by_key = {}
    for run in runs:
        by_key.setdefault((run["workload"], run["seed"]), []).append(run)
    for (workload, seed), group in sorted(by_key.items()):
        for key in DETERMINISTIC_OUTPUTS:
            values = {r["outputs"][key] for r in group if key in r["outputs"]}
            if values:
                checks.append({
                    "name": f"{workload} {key} identical across rounds",
                    "passed": len(values) == 1,
                    "detail": f"{len(group)} runs, values {sorted(values)}"})
    return checks


def merge_traces(records, path):
    events = []
    for pid, record in enumerate(records, start=1):
        trace_file = record.get("outputs", {}).get("trace_file")
        if not trace_file or not (ROOT / trace_file).exists():
            continue
        with open(ROOT / trace_file) as f:
            spans = json.load(f)["traceEvents"]
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": record["workload"]}})
        for e in spans:
            e["pid"] = pid
            events.append(e)
    with open(path, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events}, f)


def suite(args):
    workloads, e2e, layers = load_benchmark()
    build()
    started = time.time()
    runs = []
    out = Path(args.out) if args.out else OUT / "results.json"
    first_round = 0
    if args.append and out.exists():
        with open(out) as f:
            runs = json.load(f)["runs"]
        first_round = 1 + max((r["round"] for r in runs), default=-1)
    problems = []
    plan = []
    for r in range(args.rounds):
        shift = (first_round + r) % len(workloads)
        plan += [(first_round + r, w, False)
                 for w in workloads[shift:] + workloads[:shift]]
    if args.trace:
        plan += [(first_round + args.rounds, w, True) for w in workloads]
    for round_no, workload, traced in plan:
        log(f"run.py: round {round_no} {workload}"
            f"{' (traced)' if traced else ''}")
        record = run_program(workload, args.seed, args.seconds, traced)
        problems += complete_metrics(record, layers if traced else e2e)
        record["round"] = round_no
        host = record.pop("host")
        runs.append(record)

    checks = [{"name": f"{r['workload']} round {r['round']} correct",
               "passed": r["correct"], "detail": ""} for r in runs]
    checks += cross_round_checks(runs)
    checks += [{"name": p, "passed": False, "detail": ""} for p in problems]
    summary = summarize([r for r in runs if r["trace"] == 0])
    layer_summary = summarize([r for r in runs if r["trace"] == 1])
    results = {"schema": "hemo-bench-e2e/1", "host": host,
               "seed": args.seed, "seconds": args.seconds,
               "runs": runs, "summary": summary,
               "layer_summary": layer_summary, "checks": checks}
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(results, f, indent=1)
    if args.trace:
        merge_traces([r for r in runs if r["trace"] == 1], OUT / "trace.json")

    for title, table in (("end-to-end", summary), ("per-layer", layer_summary)):
        if not table:
            continue
        print(f"\n{title} metrics (median, min, max over n runs):")
        for workload, per_metric in table.items():
            print(f"  {workload}")
            for name, s in sorted(per_metric.items()):
                print(f"    {name:32s} {s['median']:<14.6g} {s['unit']:10s} "
                      f"min {s['min']:<12.6g} max {s['max']:<12.6g} "
                      f"n {s['n']}")
    for r in runs:
        if r["trace"] == 1:
            for line in r.get("layer_sums", []):
                print(f"  {r['workload']} layers: {line}")
    failed = [c for c in checks if not c["passed"]]
    for c in failed:
        print(f"FAILED check: {c['name']} {c['detail']}")
    print(f"\n{len(runs)} runs, {len(checks) - len(failed)}/{len(checks)} "
          f"checks passed, {time.time() - started:.0f} s; wrote {out}")
    return 0 if not failed else 1


def smoke(args):
    workloads, e2e, layers = load_benchmark()
    build()
    started = time.time()
    ok = True
    for workload in workloads:
        for traced in (False, True):
            record = run_program(workload, args.seed, 0.3, traced, smoke=True)
            problems = complete_metrics(record, layers if traced else e2e)
            for p in problems:
                print("problem:", p)
            ok = ok and record["correct"] and not problems
            print_record(record)
    elapsed = time.time() - started
    print(f"smoke: {'all checks passed' if ok else 'FAILURES'} "
          f"in {elapsed:.1f} s")
    return 0 if ok else 1


def self_test(args):
    build()
    proc = subprocess.run([str(BINARY), "--self-test"],
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = proc.returncode == 0
    for c in record["checks"]:
        print(f"  {'pass' if c['passed'] else 'FAIL'}  {c['name']}"
              + (f" ({c['detail']})" if c["detail"] else ""))

    # The cross-round check of run.py itself: clean records pass, one
    # changed digest fails.
    clean = [{"workload": "w", "seed": 1, "outputs": {"state_digest": "a"}}
             for _ in range(3)]
    perturbed = [dict(r, outputs=dict(r["outputs"])) for r in clean]
    perturbed[1]["outputs"]["state_digest"] = "b"
    for name, runs, expect in (("cross-round digest passes a repeat", clean,
                                True),
                               ("cross-round digest fails on one change",
                                perturbed, False)):
        passed = all(c["passed"] for c in cross_round_checks(runs))
        ok = ok and passed == expect
        print(f"  {'pass' if passed == expect else 'FAIL'}  {name}")
    print(f"self-test: {'every check fails on its perturbation' if ok else 'FAILURES'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=load_benchmark_file()["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--out", help="suite results file")
    parser.add_argument("--append", action="store_true",
                        help="add the suite's runs to an existing --out file")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seconds <= 0 or args.rounds < 1:
        parser.error("--seconds and --rounds must be positive")
    if args.self_test:
        return self_test(args)
    if args.smoke:
        return smoke(args)
    if args.workload:
        return one_run(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
