#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload inproc-lvq|net-open|churn-filtered \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest      # the benchmark's own unit tests

The first call configures and compiles the blink library and the benchmark
(Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset; later calls only rebuild what changed. The benchmark
then runs one workload; its last stdout line is the JSON result. Build
output goes to stderr so stdout stays the benchmark's own. Exit status is
the benchmark's (0 = every output checked out), or 2 when the build or the
run itself failed, in which case no result line is printed.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir(name):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, name)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def checkout_env():
    """The environment for the build and the run, with temporary files
    (compiler intermediates) kept inside the checkout."""
    env = dict(os.environ)
    tmp = build_dir("tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def build(bdir, target, extra=()):
    """Configures (once) and builds `target`; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log("perfbench: no blink source tree next to perfbench/; nothing to build")
        return None
    ninja = shutil.which("ninja")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release", *extra]
        if ninja:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=checkout_env()).returncode != 0:
            log("perfbench: cmake configure failed")
            return None
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", bdir, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      env=checkout_env()).returncode != 0:
        log("perfbench: build failed")
        return None
    return os.path.join(bdir, target)


def source_digest():
    """sha256 over the library sources and the benchmark, for checkouts
    without git metadata."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE, os.path.join(ROOT, "CMakeLists.txt")]
    files = []
    for r in roots:
        if os.path.isfile(r):
            files.append(r)
            continue
        for dirpath, dirnames, filenames in os.walk(r):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            files += [os.path.join(dirpath, f) for f in filenames]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none (not a git checkout)"
    r = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    if args.selftest:
        binary = build(
            build_dir("perfbench-test"), "perfbench_test", ["-DPERFBENCH_BUILD_TESTS=ON"]
        )
        if binary is None:
            return 2
        return subprocess.run([binary], cwd=ROOT).returncode

    if not args.workload:
        p.error("--workload is required")
    binary = build(build_dir("perfbench"), "blink_perfbench")
    if binary is None:
        return 2
    env = checkout_env()
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out-dir", os.path.join(ROOT, ".bench_out"),
    ]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s and was killed" % RUN_TIMEOUT_S)
        return 2
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
