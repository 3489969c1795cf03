#!/usr/bin/env python3
"""Self-tests of the serving benchmark.

    python3 servebench/selftest.py

Run from the repository root; takes about a minute after the build.
Checks, on tiny traces (--smoke) unless noted:
  1. every workload, traced and untraced, passes its correctness gate
     and prints exactly the metrics BENCHMARK.json lists, each as a
     `metric NAME VALUE UNIT n=SAMPLES` line with the listed unit, and
     a manifest of the host and build;
  2. a deliberately wrong expected checksum (--corrupt-oracle) is
     reported as a failure: correct=false, failed >= 1, nonzero exit;
  3. a full-size traced run passes its attribution gate (the replay's
     layer self-times plus scheduling sum to the batcher wall within
     10%);
  4. in a directory holding only BENCHMARK.json and the benchmark's
     own files, run.py exits nonzero without printing a result.
Exits nonzero if any check fails.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
# Fields the `manifest {...}` lines (the program's and run.py's) must
# hold between them.
MANIFEST_KEYS = {"nproc", "cpu_model", "isa", "compiler", "build_type",
                 "git_sha", "cmake_options", "qk_kernel",
                 "loadavg_at_start"}


def run(args, cwd=ROOT, env=None):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    return proc.returncode, proc.stdout.rstrip("\n").split("\n")


def result_of(lines):
    try:
        return json.loads(lines[-1])
    except (ValueError, IndexError):
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for w in bench["workloads"]:
        for trace in (0, 1):
            base = ["--workload", w["name"], "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--smoke"]
            tag = f"{w['name']} trace={trace}"
            code, lines = run(base)
            res = result_of(lines)
            check(code == 0 and res is not None and res["correct"] and
                  res["failed"] == 0 and res["attempted"] >= 1,
                  f"{tag}: smoke run passes its correctness gate")
            got = {k: v["unit"] for k, v in (res or {}).get("metrics",
                                                           {}).items()}
            check(got == expected[trace],
                  f"{tag}: result has exactly the listed metrics and units")
            printed = {}
            for line in lines:
                m = re.match(r"metric (\S+)\s+(\S+) (\S+)\s+n=(\d+)", line)
                if m:
                    printed[m.group(1)] = m.group(3)
            check(all(printed.get(k) == u
                      for k, u in expected[trace].items()),
                  f"{tag}: every metric printed by name, unit and count")
            manifest = {}
            for line in lines:
                if line.startswith("manifest {"):
                    manifest.update(json.loads(line.split(" ", 1)[1]))
            check(MANIFEST_KEYS <= set(manifest) and
                  "avx512_vpopcntdq" in manifest.get("isa", {}),
                  f"{tag}: manifest printed with every listed field")

            code, lines = run(base + ["--corrupt-oracle"])
            res = result_of(lines)
            check(code != 0 and res is not None and not res["correct"] and
                  res["failed"] >= 1,
                  f"{tag}: wrong expected checksum reported as a failure")

    # The attribution gate runs on full-size traces only; one such
    # traced run must pass it.
    code, lines = run(["--workload", "stream_window", "--seed", "7",
                       "--seconds", "2", "--trace", "1"])
    res = result_of(lines)
    check(code == 0 and res is not None and res["correct"] and
          any("attribution ok" in line for line in lines),
          "stream_window trace=1 full size: attribution within 10%")

    # A directory holding only BENCHMARK.json and servebench/ (no
    # library sources) must fail without printing a result.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "servebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "stream_window",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300)
    check(proc.returncode != 0 and
          result_of(proc.stdout.rstrip("\n").split("\n")) is None,
          "bare directory: nonzero exit, no result printed")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
