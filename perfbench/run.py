#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/ (and the engine sources under src/) in .bench_build/perfbench;
later calls rebuild incrementally. The table the benchmark prints goes to
standard output, and the last line is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer ones.
The exit status is 0 only when every guest result matched the reference
interpreter. --seconds defaults to run_seconds of BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources not found: run from the root of a checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD, target)


def spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found: run from the root of a checkout")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measurement time (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        tests = build("perfbench_tests")
        sys.exit(subprocess.run([tests], cwd=BUILD, check=False).returncode)
    if not args.workload:
        fail("--workload is required")
    declared = spec()
    seconds = args.seconds if args.seconds is not None \
        else declared["run_seconds"]

    binary = build("perfbench")
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    done = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(seconds), "--trace", str(args.trace),
         "--work-dir", work],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
        check=False)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        fail("the benchmark printed no result (exit %d)" % done.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    metrics = {}
    for metric in declared["per_layer" if args.trace else "end_to_end"]:
        name = metric["name"]
        measured = result["metrics"].get(name)
        if measured is None:
            fail("metric %s was not measured" % name)
        if measured["unit"] != metric["unit"]:
            fail("metric %s measured in %s, declared in %s"
                 % (name, measured["unit"], metric["unit"]))
        metrics[name] = {"value": measured["value"], "unit": measured["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if done.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
