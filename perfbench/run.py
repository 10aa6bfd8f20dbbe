#!/usr/bin/env python3
"""End-to-end benchmark of sldb: one command for the compile, debug,
service and campaign workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the sldb libraries, sldbd and the
harness from source into $CARGO_TARGET_DIR (default .bench_build) on first
use, runs one workload, and prints human-readable '#' lines followed by
one JSON object as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run (BENCHMARK.json lists both).  Besides the
harness's own checks, this script guards the deterministic counts
across runs: every COUNT line is compared with the previous run of the
same sources (and seed), and a mismatch fails the run.  See
perfbench/README.md.
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
WORKLOADS = ("compile", "debug", "service", "campaign")
# A run takes --seconds plus its set-up and checks (a few seconds); the
# harness is killed when it overruns that by this margin.
RUN_MARGIN_S = 60


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_fingerprint():
    """sha256 over the sources the benchmark builds (stands in for a git
    revision: the checkout the benchmark runs in need not be a git
    repository)."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "tools", "sldbd.cpp")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".cpp", ".h", ".txt"))]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def host_line():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return "host %s, %s, %d cpus, %s" % (platform.node(), cpu,
                                         os.cpu_count() or 0,
                                         platform.platform())


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)


def check_counts(counts, key, fingerprint, state_dir):
    """Compares this run's deterministic counts with the last run of the
    same sources.  Seed-independent quality counts are compared across
    every workload and seed; the rest per workload, seed and trace mode.
    Returns the list of mismatches."""
    path = os.path.join(state_dir, "counts-%s.json" % fingerprint)
    try:
        with open(path) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    mismatches = []
    for name, value in sorted(counts.items()):
        slot = "quality" if name.startswith("quality.") else key
        old = seen.setdefault(slot, {}).get(name)
        if old is not None and old != value:
            mismatches.append("%s: %s here, %s in an earlier run of the same "
                              "sources (%s)" % (name, value, old, slot))
        seen[slot][name] = value
    os.makedirs(state_dir, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return mismatches


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    build(build_dir)
    fingerprint = source_fingerprint()

    trace_file = os.path.join(build_dir, "trace-%s-%d.json" %
                              (args.workload, args.seed))
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--sldbd", os.path.join(build_dir, "sldbd")]
    if args.trace:
        cmd += ["--trace-file", trace_file]
    timeout = args.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %g s" % (args.workload, timeout))
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stdout.write(proc.stdout)
        fail("no result from the harness (exit %d)" % proc.returncode)

    counts = {}
    for line in lines[:-1]:
        if line.startswith("COUNT "):
            _, name, value = line.split()
            counts[name] = int(value)
        else:
            print(line)
    print("# %s, sources %s" % (host_line(), fingerprint))

    problems = check_counts(counts, "%s/seed%d/trace%d" %
                            (args.workload, args.seed, args.trace),
                            fingerprint, os.path.join(build_dir, "counts"))
    if args.trace:
        try:
            with open(trace_file) as f:
                doc = json.load(f)
            print("# trace: %d events in %s" %
                  (len(doc["traceEvents"]), os.path.relpath(trace_file)))
        except (OSError, ValueError, KeyError, TypeError) as e:
            problems.append("trace file %s does not parse: %s" %
                            (trace_file, e))
    for p in problems:
        print("# FAIL determinism guard: " + p)
    if problems:
        result["correct"] = False
        result["failed"] += len(problems)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
