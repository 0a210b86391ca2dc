#!/usr/bin/env python3
"""Steadiness check for the flow benchmark.

Runs two sets of runs of every workload of BENCHMARK.json, each run with
another seed (seeds 1 to --runs in the first set, the next --runs seeds
in the second), every run BENCHMARK.json's run_seconds long. For every
end-to-end metric it prints, per set, the median, the quartiles and the
spread (interquartile range over the median) next to the bound
BENCHMARK.json gives it, then how much worse the second set's median is
than the first's. It also prints the failed/attempted counts of every
run. Run it from the repository root:

    python3 flowbench/steady.py            # two sets of ten runs
    python3 flowbench/steady.py --runs 5   # a quicker look

A spread above a third of the bound, or a median shift above the bound,
is flagged. Exits non-zero if a run fails, reports incorrect outputs, or
prints a malformed result line.
"""

import argparse
import json
import statistics
import subprocess
import sys

SETS = 2


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{workload} seed {seed}: unexpected keys {sorted(result)}")
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect outputs")
    return result


def run_set(bench, metrics, workload, seeds):
    """Runs `workload` once per seed; returns each metric's values and
    the (failed, attempted) pairs seen."""
    values = {name: [] for name in metrics}
    shares = set()
    for seed in seeds:
        result = run_once(bench["command"], workload, seed, bench["run_seconds"])
        if set(result["metrics"]) != set(metrics):
            raise SystemExit(
                f"{workload} seed {seed}: metrics differ from BENCHMARK.json: "
                f"{sorted(set(result['metrics']) ^ set(metrics))}")
        for name, m in result["metrics"].items():
            if m["unit"] != metrics[name]["unit"]:
                raise SystemExit(f"{workload}: {name} in {m['unit']}, not {metrics[name]['unit']}")
            values[name].append(m["value"])
        shares.add((result["failed"], result["attempted"]))
        shown = " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items())
        print(f"{workload} seed {seed}: attempted {result['attempted']} "
              f"failed {result['failed']} {shown}", file=sys.stderr, flush=True)
    return values, shares


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    opts = parser.parse_args()
    if opts.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]

    # Set by set, so that the two sets of one workload are apart in time
    # as they are when two commits are compared.
    sets = {w: [] for w in workloads}
    for k in range(SETS):
        for workload in workloads:
            seeds = range(k * opts.runs + 1, (k + 1) * opts.runs + 1)
            sets[workload].append(run_set(bench, metrics, workload, seeds))

    for workload in workloads:
        print(f"\n{workload}: {SETS} sets of {opts.runs} runs of {bench['run_seconds']} s")
        for k, (_, shares) in enumerate(sets[workload], 1):
            print(f"  set {k} failed/attempted {sorted(shares)}")
        print(f"  {'metric':<18} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name, metric in metrics.items():
            bound = metric["bound"]
            medians = []
            for k, (values, _) in enumerate(sets[workload], 1):
                vals = values[name]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                flag = "  spread above a third of the bound" if spread > bound / 3 else ""
                print(f"  {name:<18} {k:>3} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                      f"{spread:>7.3f} {bound:>6.2f}{flag}")
                medians.append(med)
            first, second = medians
            worse = (second - first) / first if first else 0.0
            if metric["better"] == "higher":
                worse = -worse
            flag = "  worse than the bound" if worse > bound else ""
            print(f"  {name:<18} set 2 vs set 1: {100 * worse:+.1f}% worse{flag}")


if __name__ == "__main__":
    main()
