#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
the simulator library and the perfbench binary (Release) into the
directory named by CARGO_TARGET_DIR, or .bench_build; later calls only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the binary's JSON result. The result's metric names are
checked against BENCHMARK.json before it is printed.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources (src/CMakeLists.txt) next to perfbench/")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                          "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "none"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    args = sys.argv[1:]
    binary = build()
    if "--selftest" in args:
        sys.exit(subprocess.run([binary] + args).returncode)

    cmd = [binary] + args + [
        "--digests", os.path.join(HERE, "digests.txt"),
        "--git-sha", git_sha()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode == 2:  # usage error: nothing was measured
        sys.exit(2)
    if proc.returncode != 0 or not lines:
        # A panic aborts the binary mid-run: report it as a failed run.
        print("\n".join(lines))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        sys.exit(1)
    result = json.loads(lines[-1])
    trace = args[args.index("--trace") + 1] == "1"
    if sorted(result["metrics"]) != sorted(expected_metrics(trace)):
        fail("metric names differ from BENCHMARK.json")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
