#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the perfbench driver (and the ccredf libraries it links) from the
source checkout, runs one workload and prints, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are the per-layer metrics, and the
trace spans are written as JSONL under the build directory.

Usage:
  python3 perfbench/run.py --workload <tcma32|planned32|sweep-mixed>
      --seed <n> --seconds <s> --trace <0|1> [--tiny]

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/
perfbench at the checkout root).  Exit status: 0 when every correctness,
regime and digest check passed; 1 when a check failed (the result line is
still printed); 2 when the benchmark could not build or run (no result
line).
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tcma32", "planned32", "sweep-mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    """Could not build or run: no result line, exit status 2."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures once, then builds incrementally; logs only on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no ccredf sources next to perfbench/ (run from a full "
             "checkout)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, check=False)
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            fail("build failed")
    return out / "perfbench"


def recorded_digest(workload, seed):
    with open(HERE / "digests.json", encoding="utf-8") as f:
        return json.load(f)["digests"].get(workload, {}).get(str(seed))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (no recorded digest applies)")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited with status {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])

    checks = report["checks"]
    attempted = report["attempted"]
    failed = report["failed"]
    if not args.tiny:
        expected = recorded_digest(args.workload, args.seed)
        if expected is not None:
            ok = expected == report["digest"]
            checks.append({"name": "digest.recorded", "ok": ok,
                           "detail": f"{report['digest']} vs {expected}"})
            attempted += 1
            failed += 0 if ok else 1
    fingerprint = report["fingerprint"]
    if not fingerprint["timing_meaningful"]:
        print("perfbench: instrumented build -- timings are meaningless",
              file=sys.stderr)
    for c in checks:
        if not c["ok"]:
            print(f"perfbench: FAILED {c['name']} {c['detail']}",
                  file=sys.stderr)
    print(json.dumps({"fingerprint": fingerprint,
                      "profile": report["profile"],
                      "digest": report["digest"],
                      "checks_passed": sum(c["ok"] for c in checks),
                      "checks": len(checks)}))
    correct = failed == 0 and all(c["ok"] for c in checks)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": report["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
