#!/usr/bin/env python3
"""rptbench: the end-to-end and per-layer benchmark of librpt.

Run from the root of a checkout:

    python3 rptbench/run.py --workload serve-mixed|shard-solve|paper-solve \
        --seed N --seconds S --trace 0|1

Builds the benchmark (rptbench/CMakeLists.txt, which builds librpt from the
checkout's src/) into $CARGO_TARGET_DIR or .bench_build, runs one workload,
prints every metric by name with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
metrics (0 for a layer the workload does not run). Exits non-zero when a
correctness gate fails or the run cannot complete.

--scale tiny and --corrupt GATE exist for the benchmark's own tests
(test_rptbench.py).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("serve-mixed", "shard-solve", "paper-solve")
RUN_TIMEOUT_S = 170


def fail(message):
    print("rptbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    compile_cmd = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "rptbench")


def run_binary(command):
    """Runs the benchmark binary in its own process group, so a timeout also
    stops any shard worker it started. On a normal exit the binary has
    already waited for every worker."""
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt", default="")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("no BENCHMARK.json at " + ROOT)
    with open(spec_path) as f:
        spec = json.load(f)
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        fail("no rpt source tree (CMakeLists.txt and src/) at " + ROOT)
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.seed < 0 or seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)  # an absolute value stays as is
    binary = build(os.path.join(build_root, "rptbench"))
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work_dir = os.path.join(build_root, "work", "%s-%d" % (tag, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace),
               "--scale", args.scale, "--work-dir", work_dir]
    if args.corrupt:
        command += ["--corrupt", args.corrupt]
    try:
        code, stdout = run_binary(command)
        # Spans of a traced run are kept next to the run records.
        for name in os.listdir(work_dir) if os.path.isdir(work_dir) else []:
            if name.startswith("spans-"):
                os.makedirs(os.path.join(build_root, "traces"), exist_ok=True)
                shutil.move(os.path.join(work_dir, name),
                            os.path.join(build_root, "traces", "%s.tsv" % tag))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if code not in (0, 1) or not lines:
        fail("workload %s exited with code %d" % (args.workload, code))
    try:
        report = json.loads(lines[-1])
    except ValueError:
        fail("workload %s printed no report" % args.workload)

    os.makedirs(os.path.join(build_root, "runs"), exist_ok=True)
    with open(os.path.join(build_root, "runs", tag + ".json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    for key in sorted(report["env"]):
        print("env %s = %s" % (key, report["env"][key]))
    for key in sorted(report["samples"]):
        print("samples %s = %d" % (key, report["samples"][key]))
    for group in ("e2e", "detail", "layer"):
        for name in sorted(report[group]):
            metric = report[group][name]
            print("%s %s = %.6g %s" % (group, name, metric["value"], metric["unit"]))
    for gate in report["gate_failures"]:
        print("GATE FAILED: " + gate)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    # A traced run also carries the workload's named end-to-end figures
    # (query_qps, solve_s, nod_dp_ms, ...) from its untraced half.
    source = dict(report["detail"], **report["layer"]) if args.trace else report["e2e"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name in source:
            if source[name]["unit"] != entry["unit"]:
                fail("metric %s has unit %s, BENCHMARK.json says %s"
                     % (name, source[name]["unit"], entry["unit"]))
            metrics[name] = {"value": source[name]["value"], "unit": entry["unit"]}
        elif args.trace:
            # A per-layer metric of a layer this workload does not run.
            metrics[name] = {"value": 0.0, "unit": entry["unit"]}
        else:
            fail("workload %s did not report end-to-end metric %s" % (args.workload, name))
    correct = bool(report["correct"]) and code == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
