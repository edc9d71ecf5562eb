#!/usr/bin/env python3
"""Steadiness check: runs one workload of the benchmark N times, each run
with its own seed, and prints for every metric its median, its quartiles and
its relative spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json. Quartiles are statistics.quantiles(values, n=4).

Run from the repository root:

    python3 perfbench/steady.py --workload ckpt-unique --runs 10
    python3 perfbench/steady.py --workload ckpt-unique --runs 5 --trace 1

--save FILE writes the medians as JSON; --against FILE prints each median's
change against medians saved earlier (a second set of runs, or untraced
runs when this set is traced: the tracing overhead). Exits 1 when a run
fails, when the share of failed operations differs between runs, when an
end-to-end metric's spread exceeds its bound, or when its median is worse
than the saved one by more than its bound. With --trace 1 these bounds
apply to the traced run's end-to-end figures.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(args, seed):
    cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        sys.exit("run with seed %d exited %d" % (seed, p.returncode))
    result = json.loads(lines[-1])
    prefix = "end-to-end under tracing: "
    traced_e2e = {}
    for line in lines[:-1]:
        if line.startswith(prefix):
            traced_e2e = json.loads(line[len(prefix):])
    return result, traced_e2e


def table(title, runs, bounds, better, against):
    print("\n" + title)
    print("%-42s %-6s %12s %12s %12s %8s %6s %6s %8s" % (
        "metric", "unit", "median", "q1", "q3", "spread", "bound", "bound/3", "vs saved"))
    medians, worst = {}, 0.0
    ok = True
    for name in sorted(runs[0]):
        values = [r[name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        medians[name] = med
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag, ok = " SPREAD", False
        change = ""
        if name in against and against[name]:
            rel = (med - against[name]) / against[name]
            change = "%+7.1f%%" % (100 * rel)
            worse = rel if better.get(name) == "lower" else -rel
            if bound is not None and worse > bound:
                flag, ok = flag + " WORSE", False
        print("%-42s %-6s %12.4f %12.4f %12.4f %7.1f%% %6s %6s %8s%s" % (
            name, runs[0][name]["unit"], med, q1, q3, 100 * spread,
            "" if bound is None else "%.2f" % bound,
            "" if bound is None else "%.3f" % (bound / 3), change, flag))
        if bound is not None:
            worst = max(worst, spread / bound)
    if bounds:
        print("largest spread / bound: %.2f" % worst)
    return medians, ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    against = {}
    if args.against:
        with open(args.against) as f:
            against = json.load(f)

    results, traced = [], []
    for i in range(args.runs):
        seed = args.first_seed + i
        result, traced_e2e = run_once(args, seed)
        results.append(result)
        traced.append(traced_e2e)
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            " ".join("%s=%.4g" % (k, v["value"]) for k, v in sorted(result["metrics"].items()))),
            file=sys.stderr)

    ok = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    print("workload %s, %d runs of %d s, failed share %s" % (
        args.workload, args.runs, args.seconds, sorted(shares)))
    if len(shares) != 1:
        ok = False
    metrics = [r["metrics"] for r in results]
    if args.trace:
        medians, _ = table("per-layer metrics", metrics, {}, better, against)
        e2e, bounds_ok = table("end-to-end metrics under tracing", traced, bounds, better, against)
        medians.update(e2e)
    else:
        medians, bounds_ok = table("end-to-end metrics", metrics, bounds, better, against)
    ok = ok and bounds_ok
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1, sort_keys=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
