#!/usr/bin/env python3
"""Schema check for BENCH_*.json benchmark documents.

Every bench that supports --json writes

    {"bench": "<name>", "metrics": {"<key>": <number|null>, ...}}

and ccredf_sweep writes a richer {"report": "ccredf-sweep", ...}
document.  CI and scripts/check.sh run this validator after each bench so
a silently truncated or malformed write fails the pipeline instead of
poisoning the performance-trajectory archive.  It checks document shape
only: the three benches record timings, bench_hypercycle exits 1 when
E23b's speed-up gate fails, and the correctness claims are ctest cases
(`ctest -L claims`).

Usage: validate_bench_json.py FILE [FILE...]
Exit codes: 0 all valid, 1 validation failure, 2 usage error.
"""
import json
import numbers
import sys


def fail(path, message):
    print(f"validate_bench_json: {path}: {message}", file=sys.stderr)
    return False


def validate_metrics(path, metrics):
    if not isinstance(metrics, dict) or not metrics:
        return fail(path, "`metrics` must be a non-empty object")
    for key, value in metrics.items():
        if not isinstance(key, str) or not key:
            return fail(path, "metric keys must be non-empty strings")
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, numbers.Real)
        ):
            return fail(path, f"metric `{key}` is not a number or null")
    # A speedup number is meaningless without the host's core count: a
    # 1.0x on a single-core container is expected, not a regression.  Any
    # document reporting one must say what hardware produced it.
    if any("speedup" in key for key in metrics) and not isinstance(
        metrics.get("hardware_threads"), numbers.Real
    ):
        return fail(
            path,
            "reports a speedup metric without numeric `hardware_threads`",
        )
    return True


def validate_sweep_report(path, doc):
    for key, kind in (
        ("grid", dict),
        ("shards", int),
        ("failed_shards", int),
        ("points", list),
    ):
        if not isinstance(doc.get(key), kind):
            return fail(path, f"sweep report needs {kind.__name__} `{key}`")
    if doc["failed_shards"] != 0:
        return fail(path, f"sweep ran with {doc['failed_shards']} failed shards")
    if not doc["points"]:
        return fail(path, "sweep report has no points")
    for i, point in enumerate(doc["points"]):
        if not isinstance(point, dict) or "metrics" not in point:
            return fail(path, f"point {i} malformed")
        for name, stat in point["metrics"].items():
            expected = {"count", "mean", "stddev", "min", "max"}
            if not isinstance(stat, dict) or set(stat) != expected:
                return fail(path, f"point {i} metric `{name}` malformed")
        # Recovery-gap quantiles are exact nearest-rank sample values, so
        # p50 <= p99 must hold per point, not just on average.
        gaps = point["metrics"]
        p50 = gaps.get("recovery_gap_p50_us")
        p99 = gaps.get("recovery_gap_p99_us")
        if p50 is not None and p99 is not None:
            for field in ("mean", "min", "max"):
                if p50[field] > p99[field]:
                    return fail(
                        path,
                        f"point {i}: recovery_gap p50 {field} "
                        f"({p50[field]}) exceeds p99 ({p99[field]})",
                    )
    return True


def validate(path):
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        return fail(path, f"cannot read: {exc}")
    except json.JSONDecodeError as exc:
        return fail(path, f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        return fail(path, "top level must be an object")
    if doc.get("report") == "ccredf-sweep":
        return validate_sweep_report(path, doc)
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        return fail(path, "missing non-empty string `bench`")
    return validate_metrics(path, doc.get("metrics"))


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    ok = True
    for path in argv[1:]:
        if validate(path):
            print(f"validate_bench_json: {path}: ok")
        else:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
