#!/usr/bin/env python3
"""Build and run one workload of the FLARE performance benchmark.

    python3 perfbench/run.py --workload mobile_cell --seed 1 --seconds 20 --trace 0

Run from the root of a source tree. The first run configures and builds
perfbench/ (which builds the program from src/) under $CARGO_TARGET_DIR
(default .bench_build); later runs rebuild only what changed. Build output
goes to stderr. Stdout carries a provenance line, one line per metric and,
last, the JSON result. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mobile_cell", "multicell_churn", "oneapid_fanout")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources not found at src/ next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "flare_perfbench", "perfbench_selftest"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def source_digest():
    """sha256 over the program and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def check_against_spec(result, trace):
    """The result's metric names and units match BENCHMARK.json."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if wanted != got:
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(wanted) - set(got)), sorted(set(got) - set(wanted)))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    bdir = build_dir()
    build(bdir)
    selftest = subprocess.run([os.path.join(bdir, "perfbench_selftest")],
                              stdout=sys.stderr)
    if selftest.returncode != 0:
        fail("self-tests failed")

    print("provenance: " + json.dumps({
        "nproc": os.cpu_count(),
        "host": platform.node(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }, sort_keys=True))
    sys.stdout.flush()

    try:
        run = subprocess.run(
            [os.path.join(bdir, "flare_perfbench"), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", args.trace, "--scratch", bdir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print(run.stdout, end="")
        fail("no result (exit code %d)" % run.returncode)
    mismatch = check_against_spec(result, args.trace == "1")
    if mismatch:
        print("\n".join(lines[:-1]))
        fail(mismatch)
    print(run.stdout, end="")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
