#!/usr/bin/env python3
"""Repository benchmark: simulator speed end to end, and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out FILE]
    python3 perfbench/run.py --self-test

Builds the simulator library from ../src in the default configuration
(RelWithDebInfo, FIFOMS_AUDIT=ON) into .bench_build/, runs one workload
for S host seconds and prints, as its last line, one JSON object with
the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics; --trace 1 runs the traced variant and reports the
per-layer ledger.  Every argument and the --out path are checked before
anything is built or run.  METRICS.md describes every metric.

Exit status: 0 when every correctness check passed; 1 when one failed
or the build broke; 2 on a usage error.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(BUILD_DIR, "fifoms_perfbench")
SELFTEST = os.path.join(BUILD_DIR, "perfbench_selftest")
SELFTEST_STAMP = os.path.join(BUILD, "selftest.stamp")

WORKLOADS = ("paper16-sweep", "radix256", "soak16-storm", "clos64")
# Seed whose digests and simulated results are recorded in expected.json
# (kRecordedSeed in src/workloads.hpp).
RECORDED_SEED = 1
RUN_TIMEOUT_S = 170


class UsageError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", help="also write the full result here")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args(argv)
    if args.self_test:
        return args
    if args.workload not in WORKLOADS:
        raise UsageError("--workload must be one of: " + ", ".join(WORKLOADS))
    if args.seed is None or not args.seed.isdigit() or int(args.seed) >= 2**63:
        raise UsageError("--seed must be a non-negative integer")
    try:
        seconds = float(args.seconds)
    except (TypeError, ValueError):
        raise UsageError("--seconds must be a number") from None
    if not 0 < seconds <= 120:
        raise UsageError("--seconds must be in (0, 120]")
    args.seconds = seconds
    if args.trace not in ("0", "1"):
        raise UsageError("--trace must be 0 or 1")
    if args.out is not None:
        out = os.path.abspath(args.out)
        parent = os.path.dirname(out)
        if not os.path.isdir(parent) or not os.access(parent, os.W_OK) \
                or os.path.isdir(out):
            raise UsageError("cannot write --out " + args.out)
    return args


def check_sources():
    for needed in ("src/CMakeLists.txt", "bench/soak_scenarios.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise UsageError("the benchmark builds the simulator from source; "
                             + needed + " is missing beside perfbench/")


def usable_cpus():
    return max(1, len(os.sched_getaffinity(0)))


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DFIFOMS_AUDIT=ON"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(usable_cpus())],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def binary_stamp():
    stat = os.stat(SELFTEST)
    return "%d %d" % (stat.st_mtime_ns, stat.st_size)


def run_self_test(force):
    """Runs the self-tests once per build (or always, when forced)."""
    stamp = binary_stamp()
    if not force and os.path.exists(SELFTEST_STAMP):
        with open(SELFTEST_STAMP) as f:
            if f.read() == stamp:
                return True
    done = subprocess.run([SELFTEST, os.path.join(BUILD, "work", "selftest")],
                          stdout=sys.stderr, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        return False
    with open(SELFTEST_STAMP, "w") as f:
        f.write(stamp)
    return True


def source_hash():
    """Content hash of everything the benchmark is built from."""
    digest = hashlib.sha256()
    paths = []
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, n) for n in sorted(filenames)]
    paths += [os.path.join(ROOT, "bench", n)
              for n in ("soak_scenarios.cpp", "soak_scenarios.hpp")]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def expected_check(workload, summary):
    """The default seed's digests and simulated results (of its first
    instance) must equal the values recorded in expected.json (which has
    no digest for the sweep).  Returns a failure or None."""
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)[workload]
    for key, value in sorted(expected.items()):
        if summary[key] != value:
            return "%s at seed %d is %r, recorded %r" % (
                key, RECORDED_SEED, summary[key], value)
    return None


def main(argv):
    # A terminated run must not leave the build or the benchmark running:
    # SystemExit unwinds subprocess.run, which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        args = parse_args(argv)
        check_sources()
    except UsageError as e:
        log("run.py: %s" % e)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("run.py: build failed: %s" % e)
        return 1
    if args.self_test:
        return 0 if run_self_test(force=True) else 1

    failures = []
    attempted = 1
    if not run_self_test(force=False):
        failures.append("benchmark self-test failed")

    work_dir = os.path.join(BUILD, "work", "%s-%d" % (args.workload,
                                                      os.getpid()))
    cmd = [BINARY, "--workload", args.workload, "--seed", args.seed,
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    if args.trace == "1":
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, args.workload + ".csv")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: %s did not finish within %d s" % (args.workload,
                                                       RUN_TIMEOUT_S))
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(done.stderr)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log("run.py: the benchmark printed no result (exit %d)"
            % done.returncode)
        return 1

    attempted += result["attempted"] + 1
    failures += result["failures"]
    # Every run, whatever its seed, checks the recorded values.
    mismatch = expected_check(args.workload, result["recorded"])
    if mismatch:
        failures.append(mismatch)

    manifest = {
        "git_sha": git_sha(),
        "source_hash": source_hash(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "build": result["build"],
        "workload": args.workload,
        "seed": int(args.seed),
        "seconds": args.seconds,
        "trace": int(args.trace),
        "samples": {k: v["value"] for k, v in result["samples"].items()},
    }
    metrics = result["per_layer"] if args.trace == "1" else \
        result["end_to_end"]
    failed = len(failures)
    print("manifest: " + json.dumps(manifest, sort_keys=True))
    for failure in failures:
        print("FAILED: " + failure)
    summary = result["summary"]
    print("digest %s  fingerprint %s  sim_delay_slots %r  sim_throughput %r"
          % (summary["digest"] or "none", summary["fingerprint"],
             summary["sim_delay_slots"], summary["sim_throughput"]))
    print("failed_frac %.6g (%d of %d operations)"
          % (failed / attempted, failed, attempted))
    for name, metric in metrics.items():
        print("  %-28s %18.6f %s" % (name, metric["value"], metric["unit"]))
    if args.trace == "1":
        print("layers only some workloads run:")
        for name, metric in result["layer_detail"].items():
            print("  %-28s %18.6f %s" % (name, metric["value"],
                                         metric["unit"]))
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    if args.out:
        full = dict(line, manifest=manifest, failures=failures,
                    end_to_end=result["end_to_end"],
                    per_layer=result["per_layer"],
                    layer_detail=result["layer_detail"], summary=summary)
        with open(args.out, "w") as f:
            json.dump(full, f, indent=1, sort_keys=True)
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
