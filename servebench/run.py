#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
servebench/ (which builds the library from ../src with the root
CMakeLists) into $CARGO_TARGET_DIR/servebench, or .bench_build/servebench
when the variable is unset; later calls only check that the build is
current. The benchmark's output is passed through, including its own
`manifest {...}` line (what only the built program knows), followed by
a second `manifest {...}` line describing the host and build, and the
result object as the last line. The exit status is the benchmark's:
nonzero on a build failure or any correctness failure.

Extra flags (--smoke, --corrupt-oracle) go to the benchmark unchanged;
see servebench.cc.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
ISA_FLAGS = ("popcnt", "bmi2", "avx", "avx2", "fma", "avx512f", "avx512bw",
             "avx512vl", "avx512_vpopcntdq", "avx512_bitalg", "avx512vbmi")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(bdir):
    """Configure (once) and build the benchmark; output goes to stderr."""
    os.makedirs(bdir, exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.exists(os.path.join(bdir, "build.ninja")) and \
            not os.path.exists(os.path.join(bdir, "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir, *gen])
    steps.append(["cmake", "--build", bdir, "--target", "servebench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        left = deadline - time.monotonic()
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=max(left, 1))


def cpu_info():
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = val.strip()
                elif key == "flags" and not flags:
                    flags = set(val.split())
    except OSError:
        pass
    return model, {flag: flag in flags for flag in ISA_FLAGS}


def cpu_times():
    """(all, stolen) host CPU ticks from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return sum(fields), fields[7] if len(fields) > 7 else 0


def cmake_cache(bdir):
    opts, build_type, compiler = {}, "", ""
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"([A-Za-z0-9_]+):[A-Z]+=(.*)", line.strip())
                if not m:
                    continue
                key, val = m.groups()
                if key.startswith("PADE_"):
                    opts[key] = val
                elif key == "CMAKE_BUILD_TYPE":
                    build_type = val
                elif key == "CMAKE_CXX_COMPILER":
                    compiler = val
    except OSError:
        pass
    return opts, build_type, compiler


def source_identity():
    """Git SHA when available, plus a digest of src/ (the checkout the
    benchmark runs in need not be a git repository)."""
    sha = "unknown"
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip() or sha
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def main(argv):
    for required in ("--workload", "--seed", "--seconds", "--trace"):
        if required not in argv:
            log(f"missing {required}")
            return 2
    bdir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
        "servebench")
    try:
        build(bdir)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 1

    model, isa = cpu_info()
    opts, build_type, compiler = cmake_cache(bdir)
    sha, src_digest = source_identity()
    try:
        with open("/proc/loadavg") as f:
            loadavg = [float(x) for x in f.read().split()[:3]]
    except (OSError, ValueError):
        loadavg = []
    before = cpu_times()
    cmd = [os.path.join(bdir, "servebench"), *argv, "--tmpdir", bdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    after = cpu_times()

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, IndexError):
        ok = False
    if not ok:
        sys.stdout.write(proc.stdout)
        log(f"benchmark printed no result (exit {proc.returncode})")
        return proc.returncode or 1

    manifest = {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "isa": isa,
        "compiler": compiler,
        "build_type": build_type,
        "git_sha": sha,
        "src_digest": src_digest,
        "cmake_options": opts,
        "loadavg_at_start": loadavg,
    }
    if before and after and after[0] > before[0]:
        manifest["cpu_steal_frac"] = round(
            (after[1] - before[1]) / (after[0] - before[0]), 4)
    print("\n".join(lines[:-1]))
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
