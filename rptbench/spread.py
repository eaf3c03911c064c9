#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and reports, for every
end-to-end metric, the median of the runs and their spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median. Run from the root of a checkout:

    python3 rptbench/spread.py --seeds 1-10 [--workloads serve-mixed,...]
        [--json summary.json]

A spread above a metric's bound in BENCHMARK.json is flagged. --json writes
the medians, spreads and each run's named figures (the report's "detail").
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--json", default="")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")

    summary = {}
    steady = True
    for workload in workloads:
        values = {}
        details = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d failed:\n%s" % (workload, seed, proc.stderr[-2000:]))
                sys.exit(1)
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            record = os.path.join(build_root, "runs", "%s-seed%d-trace0.json" % (workload, seed))
            with open(record) as f:
                report = json.load(f)
            details.append({"seed": seed, "detail": report["detail"],
                            "samples": report["samples"], "env": report["env"]})
        print(workload)
        detail_medians = {
            name: {"median": statistics.median(run["detail"][name]["value"] for run in details),
                   "unit": details[0]["detail"][name]["unit"]}
            for name in details[0]["detail"]}
        for name, entry in sorted(detail_medians.items()):
            print("  %-22s median %14.4f %s" % (name, entry["median"], entry["unit"]))
        summary[workload] = {"metrics": {}, "detail_medians": detail_medians, "runs": details}
        for name, vals in values.items():
            median = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / median
            flag = ""
            if name != "setup_s" and spread > bounds[name]:
                flag, steady = "  ABOVE BOUND", False
            elif name != "setup_s" and spread > bounds[name] / 3:
                flag = "  above a third of the bound"
            print("  %-14s median %14.4f  spread %.3f (bound %.2f)%s"
                  % (name, median, spread, bounds[name], flag))
            summary[workload]["metrics"][name] = {"median": median, "spread": spread,
                                                  "values": vals}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
