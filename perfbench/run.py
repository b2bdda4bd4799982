#!/usr/bin/env python3
"""Builds and runs the join engine's benchmark (see perfbench/README.md).

From the root of a checkout:

    python3 perfbench/run.py --workload selective_l3 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload dense_l3 --trace 1       # per-layer run
    python3 perfbench/run.py --selfcheck                         # exact-count checks
    python3 perfbench/run.py --steadiness 10 --workload all      # spread report

Every invocation first builds perfbench/ (and the engine's src/ with it)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; a
no-op when the build is current. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: the engine's sources (src/) are not next to perfbench/")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / "perfbench"


def run_once(binary, workload, seed, seconds, trace, capture=False):
    out = build_dir()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--data-dir", str(out / "data" / workload),
           "--trace-out", str(out / "traces" / f"{workload}-seed{seed}.jsonl")]
    (out / "traces").mkdir(parents=True, exist_ok=True)
    return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                          stdout=subprocess.PIPE if capture else None)


def bounds():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}, []
    return ({m["name"]: m.get("bound") for m in spec.get("end_to_end", [])},
            [w["name"] for w in spec.get("workloads", [])])


def steadiness(binary, workloads, runs, seed, seconds):
    """Runs each workload `runs` times on seeds seed..seed+runs-1 and prints
    each end-to-end metric's median, quartiles and (q3-q1)/median."""
    bound_of, _ = bounds()
    ok = True
    for workload in workloads:
        values = {}
        for i in range(runs):
            proc = run_once(binary, workload, seed + i, seconds, 0, capture=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"metrics": {}}
            if proc.returncode != 0 or not result.get("correct") or result.get("failed"):
                print(f"{workload} seed {seed + i}: FAILED run", flush=True)
                ok = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {runs} runs, seeds {seed}..{seed + runs - 1}, {seconds} s each")
        print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bound_of.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  above bound/3"
            print(f"  {name:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f}"
                  f" {bound if bound is not None else '-':>6}{flag}", flush=True)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="run the workload N times on consecutive seeds and "
                             "report each metric's spread ('all' runs every workload)")
    args = parser.parse_args()

    binary = build()
    if args.selfcheck:
        data = build_dir() / "data" / "selfcheck"
        return subprocess.run([str(binary), "--selfcheck", "--seed", str(args.seed),
                               "--data-dir", str(data)], timeout=600).returncode
    if not args.workload:
        parser.error("--workload is required")
    if args.steadiness:
        _, names = bounds()
        workloads = names if args.workload == "all" else [args.workload]
        return steadiness(binary, workloads, args.steadiness, args.seed, args.seconds)
    try:
        return run_once(binary, args.workload, args.seed, args.seconds, args.trace).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
