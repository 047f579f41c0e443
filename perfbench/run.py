#!/usr/bin/env python3
"""Build and run the specsyn benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload medical_sweep --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the specsyn library from src/) as an
optimized CMake build under .bench_build/, then runs one workload. Build
output goes to stderr; the benchmark's stdout passes through unchanged, so
its last line is the JSON result. See perfbench/README.md for the workloads
and metrics.
"""

import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when available, else a digest of src/ (the checkout
    the benchmark runs in need not be a git repository)."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [] if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")) \
        else [configure]
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("specsyn sources (src/) not found next to perfbench/")
    if "SPECSYN_EXEC_TIER" in os.environ:
        fail("SPECSYN_EXEC_TIER is set; unset it so the library's default "
             "exec tier is measured")
    binary = build()
    cmd = [binary] + sys.argv[1:] + ["--commit", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
