#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload outlier_gauss2d --seed 1 \
        --seconds 20 --trace 0 [--smoke]

The driver binary is built with CMake into $CARGO_TARGET_DIR (default
.bench_build) on first use. Workload parameters come from
perfbench/workloads.json; the metric names printed are the end-to-end
(--trace 0) or per-layer (--trace 1) lists of BENCHMARK.json. The last line
of stdout is the JSON result. Build output and diagnostics go to stderr.
Exits non-zero, without a result line, when the library sources are
missing, the build fails, or the driver misbehaves.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def source_revision():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    tops = ["CMakeLists.txt", "src", "perfbench"]
    for top in tops:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as error:
            log("build step failed: %s" % error)
            return None
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found under %s/src" % ROOT)
        return 2
    with open(os.path.join(HERE, "workloads.json")) as handle:
        config = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    if args.workload not in config["workloads"]:
        log("unknown workload %r; known: %s"
            % (args.workload, ", ".join(config["workloads"])))
        return 2
    seed = config["default_seed"] if args.seed is None else args.seed

    params = dict(config["workloads"][args.workload])
    if args.smoke:
        params.update(config["smoke"][args.workload])
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    driver = build(build_dir)
    if driver is None:
        return 3
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    command = [driver, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--revision", source_revision(),
               "--metrics", ",".join(m["name"] for m in wanted)]
    for key, value in params.items():
        command += ["--" + key, str(value)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver exceeded %d s" % DRIVER_TIMEOUT_S)
        return 4
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        log("driver exited with %d" % done.returncode)
        return 4
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("driver printed no result line")
        return 4
    got = result.get("metrics", {})
    for metric in wanted:
        entry = got.get(metric["name"])
        if entry is None or entry.get("unit") != metric["unit"]:
            log("metric %s missing or not in %s" % (metric["name"],
                                                     metric["unit"]))
            return 5
    if set(got) != {m["name"] for m in wanted}:
        log("unexpected metrics: %s" % sorted(set(got) - {m["name"] for m in wanted}))
        return 5
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
