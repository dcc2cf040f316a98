#!/usr/bin/env python3
"""paratick-sim benchmark: one paper grid, host cost and paper fidelity.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fig5_parsec|table1_ticks|fig6_io \
        --seed 1234 --seconds 20 --trace 0|1

Builds perfbench/ (the simulator library, the harness and the three paper
drivers) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs the workload's paper driver once for its --sweep-json reference, then
the harness for --seconds of grid passes. Prints every metric by name and
unit, the host stamp and the correctness checks, and as the last line one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. Exits 1 when the build fails or any correctness check fails.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = {
    "fig5_parsec": "bench_fig5_multithreaded",
    "table1_ticks": "bench_table1",
    "fig6_io": "bench_fig6_io",
}
# Checks run here rather than in the harness; --corrupt accepts these too.
DRIVER_CHECK = "export_matches_driver"
TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what, timeout):
    """Run cmd with its output sent to stderr; fail on a non-zero exit."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{what} timed out")
    except OSError as e:
        fail(f"{what}: {e}")
    if proc.returncode != 0:
        fail(f"{what} failed with exit code {proc.returncode}")


def build(root, build_dir, jobs):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("simulator sources (src/) not found; run from the repository root")
    if not (build_dir / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"], "cmake configure", 300)
    run_quiet(["cmake", "--build", str(build_dir), "-j", str(jobs)], "build", 880)


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", default="",
                    help="make the named check's expected value wrong (self-test)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found; run from the repository root")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    threads = max(1, min(4, os.cpu_count() or 1))
    build(root, build_dir, threads)

    out_dir = build_dir / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    ref_json = out_dir / f"{tag}.driver.json"
    harness_json = out_dir / f"{tag}.harness.json"

    # The paper driver's own export at this seed: the harness must match it.
    run_quiet([str(build_dir / WORKLOADS[args.workload]), f"-j{threads}", "--quiet",
               "--seed", str(args.seed), "--sweep-json", str(ref_json)],
              "paper driver", TIMEOUT_S)

    cmd = [str(build_dir / "perfbench_harness"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--threads", str(threads), "--trace", str(args.trace),
           "--export", str(harness_json), "--git-sha", git_sha(root)]
    if args.trace:
        cmd += ["--trace-out", str(out_dir / f"{tag}.chrome_trace.json")]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"harness exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    reference = ref_json.read_bytes()
    if args.corrupt == DRIVER_CHECK:
        reference += b"\n"
    same = harness_json.is_file() and harness_json.read_bytes() == reference
    result["checks"].append({
        "name": DRIVER_CHECK, "ok": same,
        "detail": "" if same else f"harness export differs from {WORKLOADS[args.workload]} --sweep-json"})
    print(f"  check {DRIVER_CHECK:<28} {'ok' if same else 'FAILED'}")

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"harness did not report {m['name']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = all(c["ok"] for c in result["checks"])
    (out_dir / f"{tag}.result.json").write_text(json.dumps(result, indent=1) + "\n")

    stamp = result["stamp"]
    print(f"host: {stamp['cpu_model']}, nproc {stamp['nproc']}, {stamp['threads']} sweep threads; "
          f"build {stamp['build_type']}, {stamp['compiler']}; commit {stamp['git_sha']}")
    for c in result["checks"]:
        if not c["ok"]:
            print(f"perfbench: check {c['name']} failed: {c['detail']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
