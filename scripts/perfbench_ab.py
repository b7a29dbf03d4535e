#!/usr/bin/env python3
"""Parent-vs-change A/B of two perfbench binaries, in alternating pairs.

Runs the two binaries on one workload and seed, one pair at a time, and
flips which side runs first on every pair, so a drift of the host (thermal,
a neighbour's load) lands on both sides alike. Each run's last stdout line
is perfbench's JSON result; every run is logged as a `side pair {json}`
line, the format the verify skill's shell loop writes, so a log can be
re-read later with `--from`. Each run lasts BENCHMARK.json's
`run_seconds`, the length the benchmark itself runs.

Per metric it prints:

* each side's median with its quartiles;
* the pairs the change won (strictly better, in the metric's direction);
* the Hodges-Lehmann shift of the paired differences (`change - parent`:
  the median of their Walsh averages), with a seeded bootstrap 95%
  interval over resampled pairs.

A metric's change is called resolved only when that interval excludes
zero; otherwise it is unresolved, whatever the medians say. Directions
(lower or higher is better) come from BENCHMARK.json's metric lists. The
script only reads perfbench's output: it reports evidence, and
BENCHMARK.json's bounds still decide.

Usage:
    perfbench_ab.py --parent BIN --change BIN --workload W --seed N \\
        --pairs P [--log FILE]
    perfbench_ab.py --from FILE
    perfbench_ab.py --self-test

Standard library only.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 20240611


def quartiles(xs):
    """(q1, median, q3) of a non-empty list, by linear interpolation."""
    s = sorted(xs)
    if len(s) == 1:
        return s[0], s[0], s[0]
    q = statistics.quantiles(s, n=4, method="inclusive")
    return q[0], statistics.median(s), q[2]


def hodges_lehmann(diffs):
    """Median of the Walsh averages `(d_i + d_j) / 2`, `i <= j`."""
    walsh = [
        (diffs[i] + diffs[j]) / 2.0
        for i in range(len(diffs))
        for j in range(i, len(diffs))
    ]
    return statistics.median(walsh)


def bootstrap_interval(diffs, seed=BOOTSTRAP_SEED, resamples=BOOTSTRAP_RESAMPLES):
    """Percentile 95% interval of the Hodges-Lehmann shift over pairs
    resampled with replacement, from a seeded generator."""
    rng = random.Random(seed)
    n = len(diffs)
    shifts = sorted(
        hodges_lehmann([diffs[rng.randrange(n)] for _ in range(n)])
        for _ in range(resamples)
    )
    lo = shifts[int(0.025 * (resamples - 1))]
    hi = shifts[int(round(0.975 * (resamples - 1)))]
    return lo, hi


def compare(parent, change, better="lower"):
    """Summary of one metric over paired runs (equal-length lists)."""
    diffs = [c - p for p, c in zip(parent, change)]
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for d in diffs if sign * d > 0)
    shift = hodges_lehmann(diffs)
    lo, hi = bootstrap_interval(diffs)
    if lo > 0 or hi < 0:
        verdict = "better" if sign * shift > 0 else "worse"
        verdict = f"resolved {verdict}"
    else:
        verdict = "unresolved"
    return {
        "parent": quartiles(parent),
        "change": quartiles(change),
        "wins": wins,
        "pairs": len(diffs),
        "shift": shift,
        "interval": (lo, hi),
        "verdict": verdict,
    }


def load_benchmark():
    """The repository's BENCHMARK.json (an empty dict if it is missing)."""
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.path.join(here, os.pardir, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def metric_directions(bench):
    """Metric name -> "lower"/"higher" from the benchmark's metric lists."""
    out = {}
    for key in ("end_to_end", "per_layer"):
        for m in bench.get(key, []):
            out[m["name"]] = m.get("better", "lower")
    return out


def parse_log(lines):
    """`side pair {json}` lines -> {pair: {side: result}}."""
    runs = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        side, pair, payload = line.split(" ", 2)
        if side not in SIDES:
            raise ValueError(f"unknown side {side!r} in log line")
        runs.setdefault(int(pair), {})[side] = json.loads(payload)
    return runs


def run_once(binary, workload, seed, seconds):
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    out = subprocess.run(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True
    ).stdout
    last = [l for l in out.splitlines() if l.strip()][-1]
    return json.loads(last)


def run_pairs(args, seconds):
    runs = {}
    log = open(args.log, "a") if args.log else None
    try:
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 == 1 else SIDES[::-1]
            for side in order:
                binary = args.parent if side == "parent" else args.change
                result = run_once(binary, args.workload, args.seed, seconds)
                runs.setdefault(pair, {})[side] = result
                line = f"{side} {pair} {json.dumps(result)}"
                if log:
                    log.write(line + "\n")
                    log.flush()
                print(f"pair {pair} {side}: done", file=sys.stderr)
    finally:
        if log:
            log.close()
    return runs


def report(runs, directions):
    pairs = sorted(p for p, r in runs.items() if all(s in r for s in SIDES))
    if not pairs:
        print("no complete pairs")
        return 1
    for side in SIDES:
        correct = sum(1 for p in pairs if runs[p][side].get("correct"))
        failed = sum(int(runs[p][side].get("failed", 0)) for p in pairs)
        print(f"{side}: {correct}/{len(pairs)} runs correct, {failed} failed operations")
    names = list(runs[pairs[0]]["parent"].get("metrics", {}))
    rows = [("metric", "parent median [q1, q3]", "change median [q1, q3]",
             "wins", "HL shift (of parent median)", "95% interval", "verdict")]
    for name in names:
        try:
            parent = [runs[p]["parent"]["metrics"][name]["value"] for p in pairs]
            change = [runs[p]["change"]["metrics"][name]["value"] for p in pairs]
        except KeyError:
            continue
        better = directions.get(name, "lower")
        c = compare(parent, change, better)
        lo, hi = c["interval"]
        base = c["parent"][1]
        rel = f" ({100 * c['shift'] / base:+.1f}%)" if base else ""
        known = "" if name in directions else " (direction assumed lower)"
        rows.append((
            name,
            "{1:.4g} [{0:.4g}, {2:.4g}]".format(*c["parent"]),
            "{1:.4g} [{0:.4g}, {2:.4g}]".format(*c["change"]),
            f"{c['wins']}/{c['pairs']}",
            f"{c['shift']:+.4g}{rel}",
            f"[{lo:+.4g}, {hi:+.4g}]",
            c["verdict"] + known,
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return 0


def self_test():
    """A synthetic 20% shift must resolve, and A/A samples must not (bar
    the interval's own 5% false rate), over several generator seeds."""
    shift_resolved = 0
    aa_resolved = 0
    seeds = range(20)
    for seed in seeds:
        rng = random.Random(seed)
        # Ten pairs with a shared per-pair host drift and run noise of a
        # few percent, like perfbench's p50 on a calm host.
        drift = [rng.gauss(1.0, 0.03) for _ in range(10)]
        parent = [d * rng.gauss(1.25, 0.04) for d in drift]
        same = [d * rng.gauss(1.25, 0.04) for d in drift]
        faster = [d * rng.gauss(1.0, 0.04) for d in drift]
        shifted = compare(parent, faster, "lower")
        if shifted["verdict"] == "resolved better" and shifted["wins"] >= 9:
            shift_resolved += 1
        if compare(parent, same, "lower")["verdict"] != "unresolved":
            aa_resolved += 1
    ok = shift_resolved == len(seeds) and aa_resolved <= 2
    print(
        f"self-test: 20% shift resolved on {shift_resolved}/{len(seeds)} seeds, "
        f"A/A resolved on {aa_resolved}/{len(seeds)} (allowed 2): "
        f"{'ok' if ok else 'FAILED'}"
    )
    # The log parser reads what the runner writes.
    line = 'change 3 {"correct": true, "failed": 0, "metrics": {}}'
    parsed = parse_log([line])
    ok = ok and parsed == {3: {"change": {"correct": True, "failed": 0, "metrics": {}}}}
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="parent perfbench binary")
    ap.add_argument("--change", help="change perfbench binary")
    ap.add_argument("--workload", help="perfbench workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--log", help="append every run as a `side pair {json}` line")
    ap.add_argument("--from", dest="from_file", help="summarize an existing log")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    bench = load_benchmark()
    if args.from_file:
        with open(args.from_file) as f:
            runs = parse_log(f)
    else:
        if not (args.parent and args.change and args.workload):
            ap.error("--parent, --change and --workload are required to run pairs")
        if "run_seconds" not in bench:
            ap.error("BENCHMARK.json with a run_seconds entry is required to run pairs")
        runs = run_pairs(args, bench["run_seconds"])
    return report(runs, metric_directions(bench))


if __name__ == "__main__":
    sys.exit(main())
