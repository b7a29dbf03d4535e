#!/usr/bin/env python3
"""Bench-regression gate for the CI bench smokes.

Diffs a freshly generated BENCH_*.ci.json against a checked-in baseline and
fails on per-kernel (or per-training-run) slowdowns. CI runners differ in
absolute speed from the host that recorded the baseline and are individually
noisy, so raw wall-clock is never compared directly; instead:

1. every row is keyed (kernel+shape for backend reports, phase+engine+workers
   for training reports) and its wall-clock ratio current/baseline computed;
2. the *median* ratio across all shared rows is taken as the run calibration
   — it absorbs the runner being uniformly faster/slower than the baseline
   host and most shared noise;
3. a row fails only when BOTH its calibrated slowdown (relative to the
   other kernels of the same run) AND its raw current/baseline slowdown
   exceed the threshold (default 25%).

Requiring both guards against the two spurious-failure modes of
cross-machine diffs: a uniformly slower runner inflates every raw ratio
but leaves calibrated slowdowns near zero, while a runner whose core count
differs from the baseline host's shifts the median through the
parallelizable rows — there the non-parallel rows look calibrated-slow but
their raw ratio stays near 1.0. A real regression recorded on comparable
hardware trips both.

Most rows are times, so larger is worse. The zoo's accuracy, pruning,
memory-reduction, speedup and agreement rows are larger-is-better; their
ratio is taken as baseline/current so that it too reads as a slowdown, and
such a row fails outright when its current value is no longer positive.

Rows present in the baseline but missing from the current report fail too
(a silent coverage regression); new rows are reported but allowed.

Usage:
    check_bench_regression.py BASELINE CURRENT [--threshold 0.25]

Exit status: 0 = gate passed, 1 = regression or coverage loss, 2 = bad input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


# Zoo metrics where a larger value is the better outcome. Every other row
# (wall-clock times, the direct-use attack accuracy) is lower-is-better.
HIGHER_IS_BETTER_ZOO = frozenset(
    {
        "victim_acc",
        "tbnet_acc",
        "acc_delta",
        "prune_param_ratio",
        "tee_mem_reduction",
        "fused_speedup",
        "int8_top1_agreement",
    }
)


def higher_is_better(key: str) -> bool:
    """Whether a larger value of row `key` is an improvement."""
    return key.startswith("zoo|") and key.rsplit("|", 1)[-1] in HIGHER_IS_BETTER_ZOO


def load_rows(path: str) -> dict[str, float]:
    """Maps a stable row key to the row's wall-clock measurement."""
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    rows: dict[str, float] = {}
    for row in report.get("results", []):
        if "kernel" in row:
            # backend-comparison report: gate the Parallel backend's time.
            key = f'{row["kernel"]}|{row.get("shape", "")}'
            rows[key] = float(row["parallel_ms"])
        elif "engine" in row:
            # training-engine report: gate every phase/engine/worker cell.
            key = f'{row.get("phase", "train")}|{row["engine"]}|W{row["workers"]}'
            rows[key] = float(row["seconds"])
        elif "path" in row:
            # inference report: gate every execution path/shape cell.
            key = f'infer|{row["path"]}|{row.get("shape", "")}'
            rows[key] = float(row["ms"])
        elif "scenario" in row:
            # serving-runtime report: gate each scenario's latency percentiles.
            key = f'serve|{row["scenario"]}|{row["metric"]}'
            rows[key] = float(row["value_ms"])
        elif "arch" in row:
            # model-zoo report: gate every architecture/metric cell. Accuracy,
            # attack, prune-ratio and memory rows are seed-deterministic
            # (single-worker training); latency rows ride the same median
            # calibration as every other wall-clock metric. The metrics in
            # HIGHER_IS_BETTER_ZOO are gated in the opposite direction.
            key = f'zoo|{row["arch"]}|{row["metric"]}'
            rows[key] = float(row["value"])
    if not rows:
        print(f"error: {path} contains no gateable results", file=sys.stderr)
        sys.exit(2)
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="checked-in baseline report (ci/bench-baselines/...)")
    ap.add_argument("current", help="freshly generated BENCH_*.ci.json")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="maximum calibrated per-row slowdown (default 0.25 = 25%%)",
    )
    ap.add_argument(
        "--min-agreement",
        type=float,
        default=None,
        help="fail unless the current report's int8_top1_agreement "
        "reaches this floor (accuracy-delta gate for inference reports)",
    )
    ap.add_argument(
        "--min-fused-speedup",
        type=float,
        default=None,
        help="fail unless the current report's fused_speedup reaches this floor",
    )
    ap.add_argument(
        "--min-int8-speedup",
        type=float,
        default=None,
        help="fail unless the current report's int8_mr_speedup reaches this floor",
    )
    ap.add_argument(
        "--max-shed-rate",
        type=float,
        default=None,
        help="fail if the serving report's healthy_shed_rate exceeds this "
        "ceiling (a healthy engine at bench load should shed almost nothing)",
    )
    ap.add_argument(
        "--max-faulted-shed-rate",
        type=float,
        default=None,
        help="fail if the serving report's faulted_shed_rate exceeds this ceiling",
    )
    args = ap.parse_args()

    base = load_rows(args.baseline)
    cur = load_rows(args.current)

    missing = sorted(set(base) - set(cur))
    added = sorted(set(cur) - set(base))
    shared = sorted(set(base) & set(cur))
    if not shared:
        print("error: baseline and current reports share no rows", file=sys.stderr)
        return 2

    # Each ratio reads as a slowdown: above 1.0 is worse, whichever way the
    # row points. A higher-is-better row that is no longer positive cannot
    # be inverted and fails outright.
    ratios = {}
    collapsed = []
    for k in shared:
        if base[k] <= 0.0:
            continue
        if not higher_is_better(k):
            ratios[k] = cur[k] / base[k]
        elif cur[k] > 0.0:
            ratios[k] = base[k] / cur[k]
        else:
            collapsed.append(k)
    calibration = statistics.median(ratios.values())
    print(
        f"gate: {len(shared)} shared rows, run calibration ×{calibration:.3f} "
        f"(median current/baseline), threshold +{args.threshold:.0%}"
    )

    failures = []
    for key in collapsed:
        failures.append(key)
        print(f"  {key:45} base {base[key]:10.3f}  cur {cur[key]:10.3f}  <-- REGRESSION")
    for key in ratios:
        raw = ratios[key] - 1.0
        calibrated = ratios[key] / calibration - 1.0
        marker = ""
        if calibrated > args.threshold and raw > args.threshold:
            failures.append(key)
            marker = "  <-- REGRESSION"
        elif calibrated > args.threshold or raw > args.threshold:
            marker = "  (one-sided, tolerated)"
        print(
            f"  {key:45} base {base[key]:10.3f}  cur {cur[key]:10.3f}  "
            f"raw {raw:+7.1%}  calibrated {calibrated:+7.1%}{marker}"
        )

    for key in added:
        print(f"  {key:45} (new row, not gated)")
    for key in missing:
        print(f"  {key:45} MISSING from current report")

    # Quality-floor gates on the current report's top-level summary fields
    # (wall-clock *ratios* measured within one run are machine-calibrated by
    # construction, so unlike raw times they can be gated absolutely).
    floor_failures = []
    floors = [
        ("int8_top1_agreement", args.min_agreement),
        ("fused_speedup", args.min_fused_speedup),
        ("int8_mr_speedup", args.min_int8_speedup),
    ]
    ceilings = [
        ("healthy_shed_rate", args.max_shed_rate),
        ("faulted_shed_rate", args.max_faulted_shed_rate),
    ]
    if any(limit is not None for _, limit in floors + ceilings):
        with open(args.current, encoding="utf-8") as fh:
            current_report = json.load(fh)
        for field, floor in floors:
            if floor is None:
                continue
            value = current_report.get(field)
            if value is None:
                floor_failures.append(f"{field} missing from {args.current}")
                continue
            status = "ok" if float(value) >= floor else "BELOW FLOOR"
            print(f"  {field:45} floor {floor:10.3f}  cur {float(value):10.3f}  {status}")
            if float(value) < floor:
                floor_failures.append(f"{field} {float(value):.4f} < floor {floor:.4f}")
        for field, ceiling in ceilings:
            if ceiling is None:
                continue
            value = current_report.get(field)
            if value is None:
                floor_failures.append(f"{field} missing from {args.current}")
                continue
            status = "ok" if float(value) <= ceiling else "ABOVE CEILING"
            print(f"  {field:45} ceil  {ceiling:10.3f}  cur {float(value):10.3f}  {status}")
            if float(value) > ceiling:
                floor_failures.append(f"{field} {float(value):.4f} > ceiling {ceiling:.4f}")

    if missing:
        print(f"FAIL: {len(missing)} baseline row(s) missing — bench coverage regressed")
    if failures:
        print(
            f"FAIL: {len(failures)} row(s) worse than {args.threshold:.0%} "
            "both raw and calibrated"
        )
    for reason in floor_failures:
        print(f"FAIL: {reason}")
    if missing or failures or floor_failures:
        return 1
    print("PASS: no per-kernel regression beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
