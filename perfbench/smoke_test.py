#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Runs every workload of BENCHMARK.json at tiny size, untraced and traced,
and checks that the result line has exactly the contract's keys, that
every end-to-end (untraced) or per-layer (traced) metric appears with its
declared unit, that the correctness checks pass, and that the traced run
wrote its span file.

Usage: python3 perfbench/smoke_test.py   (from the checkout root)
"""

import json
import math
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(spec, workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT, timeout=600, check=False)
    errors = []
    if proc.returncode != 0:
        errors.append(f"exit status {proc.returncode}")
    lines = proc.stdout.splitlines()
    if not lines:
        return errors + ["no output"]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("correctness checks failed")
    if not result.get("attempted", 0) >= 1:
        errors.append("attempted < 1")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        errors.append(f"metric names differ: {sorted(metrics)}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')}")
        v = got.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{m['name']}: value {v}")
    if trace:
        base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR")
                            or ".bench_build")
        if not base.is_absolute():
            base = ROOT / base
        spans = base / "perfbench" / "traces" / f"{workload}-seed1.jsonl"
        if not spans.is_file():
            errors.append(f"no span file {spans}")
        else:
            rows = [json.loads(l) for l in spans.read_text().splitlines()]
            if "self_time_s" not in rows[-1] or len(rows) < 3:
                errors.append("span file lacks spans or self times")
    return errors


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors = check_run(spec, w["name"], trace)
            status = "PASS" if not errors else "FAIL " + "; ".join(errors)
            print(f"{w['name']:12s} trace={trace}  {status}", flush=True)
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
