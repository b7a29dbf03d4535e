#!/usr/bin/env python3
"""Tests for check_bench_regression.py's row directions on zoo reports.

Each case writes a baseline and a current zoo report that differ in one row,
runs the gate on them and checks its exit status. Every other row is equal,
so the run calibration (the median ratio) stays at 1.0.

Usage:
    python3 scripts/test_check_bench_regression.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_bench_regression.py")

BASELINE = {
    "victim_acc": 0.79,
    "tbnet_acc": 0.85,
    "acc_delta": 0.06,
    "direct_use_attack_acc": 0.43,
    "prune_param_ratio": 0.32,
    "tee_mem_reduction": 1.27,
    "unfused_ms": 1.10,
    "fused_ms": 0.98,
    "int8_ms": 0.92,
    "fused_speedup": 1.39,
    "int8_top1_agreement": 1.0,
}


def zoo_report(metrics: dict[str, float]) -> dict:
    return {
        "report": "zoo",
        "results": [{"arch": "mobile", "metric": m, "value": v} for m, v in metrics.items()],
    }


class ZooDirectionTest(unittest.TestCase):
    def gate_exit_status(self, metric: str, factor: float) -> int:
        current = dict(BASELINE)
        current[metric] *= factor
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, metrics in (("base.json", BASELINE), ("cur.json", current)):
                path = os.path.join(tmp, name)
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(zoo_report(metrics), fh)
                paths.append(path)
            run = subprocess.run(
                [sys.executable, GATE, *paths], capture_output=True, text=True, check=False
            )
        return run.returncode

    def test_faster_fused_path_passes(self):
        self.assertEqual(self.gate_exit_status("fused_speedup", 1.4), 0)

    def test_accuracy_drop_fails(self):
        self.assertEqual(self.gate_exit_status("tbnet_acc", 0.7), 1)

    def test_slower_fused_path_fails(self):
        self.assertEqual(self.gate_exit_status("fused_ms", 1.3), 1)

    def test_accuracy_delta_turning_negative_fails(self):
        self.assertEqual(self.gate_exit_status("acc_delta", -1.0), 1)


if __name__ == "__main__":
    unittest.main()
