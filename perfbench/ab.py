#!/usr/bin/env python3
"""Same-host A/B comparison of two checkouts' benchmarks (stdlib only).

Usage:

    python3 perfbench/ab.py A_DIR B_DIR [--pairs 10] [--seconds 10]
                            [--workloads radix256,clos64] [--seed-base 100]
                            [--json FILE]

A_DIR and B_DIR are repository checkouts that each hold perfbench/run.py
(pass the same directory twice to see how well a tree agrees with
itself).  For every workload the script runs PAIRS pairs, one run of
each side per pair with the same seed, and alternates which side runs
first so that slow drifts of the host hit both sides alike.  Each run
builds its own checkout's benchmark the first time.

For every metric it prints each side's median and quartiles, B's median
as a share of A's, the share of pairs B won (ties count for neither),
and A's own spread (interquartile range over median).  The verdict:

  gain         B won at least 90% of the pairs and the medians differ by
               more than A's interquartile range
  loss         the same with A and B swapped
  within       B's median is not worse than A's by more than the bound
               BENCHMARK.json fixes for the metric
  worse        B's median is worse than A's by more than the bound
  unresolved   A's own spread exceeds the bound, so neither of the two
               above can be told apart from noise

Exit status: 0 when every run passed its correctness checks, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_side(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, "no result (exit %d): %s" % (done.returncode,
                                                  done.stderr[-500:])
    if not result.get("correct"):
        return None, "correctness check failed:\n" + done.stdout[-2000:]
    return {k: v["value"] for k, v in result["metrics"].items()}, None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, better, bound):
    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    sign = 1 if better == "higher" else -1
    b_wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    a_wins = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
    pairs = len(a)
    a_iqr = a_q3 - a_q1
    if b_wins >= 0.9 * pairs and abs(b_med - a_med) > a_iqr:
        return "gain", b_wins / pairs
    if a_wins >= 0.9 * pairs and abs(b_med - a_med) > a_iqr:
        return "loss", b_wins / pairs
    spread = a_iqr / a_med if a_med else float("inf")
    if spread > bound:
        return "unresolved", b_wins / pairs
    worse_by = sign * (a_med - b_med) / a_med if a_med else 0.0
    if worse_by > bound:
        return "worse", b_wins / pairs
    return "within", b_wins / pairs


def main(argv):
    parser = argparse.ArgumentParser(
        description="same-host interleaved A/B of two benchmark checkouts")
    parser.add_argument("a_dir")
    parser.add_argument("b_dir")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all)")
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--json", help="write every measured value here")
    args = parser.parse_args(argv)

    for checkout in (args.a_dir, args.b_dir):
        if not os.path.exists(os.path.join(checkout, "perfbench", "run.py")):
            parser.error("%s holds no perfbench/run.py" % checkout)
    with open(os.path.join(args.a_dir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metric_specs = spec["end_to_end"]
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    ok = True
    raw = {}
    for workload in workloads:
        values = {"A": [], "B": []}
        for pair in range(args.pairs):
            seed = args.seed_base + pair
            order = ("A", "B") if pair % 2 == 0 else ("B", "A")
            got = {}
            for side in order:
                checkout = args.a_dir if side == "A" else args.b_dir
                metrics, error = run_side(checkout, workload, seed, seconds)
                if error:
                    ok = False
                    print("%s %s seed %d: %s" % (workload, side, seed, error),
                          file=sys.stderr)
                got[side] = metrics
            if got["A"] is None or got["B"] is None:
                continue
            for side in ("A", "B"):
                values[side].append(got[side])
            print("%s pair %d/%d done (%s first)" % (
                workload, pair + 1, args.pairs, order[0]), file=sys.stderr)
        raw[workload] = values
        if not values["A"]:
            continue
        print("\n== %s: %d pairs, %g s runs ==" % (workload,
                                                   len(values["A"]), seconds))
        print("%-26s %-34s %-34s %7s %6s %7s  %s" % (
            "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A",
            "B wins", "A sprd", "verdict"))
        for m in metric_specs:
            name = m["name"]
            a = [v[name] for v in values["A"]]
            b = [v[name] for v in values["B"]]
            aq, bq = quartiles(a), quartiles(b)
            call, wins = verdict(a, b, m["better"], m["bound"])
            ratio = bq[1] / aq[1] if aq[1] else float("nan")
            spread = (aq[2] - aq[0]) / aq[1] if aq[1] else float("nan")
            print("%-26s %-34s %-34s %7.3f %5.0f%% %6.1f%%  %s" % (
                name,
                "%.5g [%.5g, %.5g]" % (aq[1], aq[0], aq[2]),
                "%.5g [%.5g, %.5g]" % (bq[1], bq[0], bq[2]),
                ratio, 100 * wins, 100 * spread, call))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
