#!/usr/bin/env python3
"""Paired A/B runs of the benchmark: a parent revision against the working tree.

From the root of a checkout:

    python3 tools/perf_ab.py --parent HEAD~1 --workload selective_l3_k4
    python3 tools/perf_ab.py --parent main --pairs 10            # every workload
    python3 tools/perf_ab.py --workload selective_l3_k4 --trace 1  # per-layer

The parent revision is extracted with `git archive` into --work-dir; the
change is the working tree. Each side builds into its own CARGO_TARGET_DIR
through its own perfbench/run.py, on its first run. Pair i runs seed
first_seed + i on both sides, alternating which side goes first, for the
run length BENCHMARK.json sets (run_seconds) unless --seconds overrides it.

For each workload and metric the report gives each side's median and
quartiles, the change's median over the parent's, the change's wins out of
the pairs (ties count for neither side) and a verdict:

  identical    every pair tied exactly (counts that repeat per seed)
  better       the change wins at least 9/10 of the pairs and the medians
               differ, its way, by more than the parent's interquartile range
  worse        the change's median is worse than the parent's by more than
               the metric's bound in BENCHMARK.json
  unresolved   none of the above, and either side's spread (q3-q1)/median
               exceeds the bound, unless every change run beats every
               parent run
  within       otherwise: no gain, and no loss beyond the bound

Per-layer metrics (--trace 1) have no bound, so they read identical,
better, worse (the mirror image of the gain rule) or inconclusive.

Exits 1 when any run is incorrect (nonzero exit, "correct": false or a
failed query), 0 otherwise.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_FRACTION = 0.9


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def extract(rev, work_dir):
    """The tree of `rev` under work_dir, extracted once per commit."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    side = work_dir / f"parent-{sha[:12]}"
    tree = side / "tree"
    if not tree.is_dir():
        partial = side / "tree.partial"
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir(parents=True)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                                 check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", str(partial)], input=archive, check=True)
        partial.rename(tree)
    return sha, tree, side / "build"


def spec():
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in data.get("end_to_end", []) + data.get("per_layer", [])}
    return data, metrics


def run_side(tree, target_dir, workload, seed, seconds, trace):
    """One run of one side; returns (correct, {metric: value})."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    correct = (proc.returncode == 0 and result.get("correct") is True
               and not result.get("failed"))
    if not correct:
        print(f"  INCORRECT run: {' '.join(cmd)} (exit {proc.returncode})", flush=True)
        for line in proc.stderr.strip().splitlines()[-20:]:
            print(f"    {line}", flush=True)
    values = {name: m["value"] for name, m in result.get("metrics", {}).items()}
    return correct, values


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(parent, change, better, bound):
    """The change's wins over the pairs and its verdict (see module doc)."""
    def beats(c, p):
        return c < p if better == "lower" else c > p

    wins = sum(beats(c, p) for c, p in zip(change, parent))
    if all(c == p for c, p in zip(change, parent)):
        return wins, "identical"
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    clear = abs(cmed - pmed) > pq3 - pq1
    if wins >= WIN_FRACTION * len(parent) and beats(cmed, pmed) and clear:
        return wins, "better"
    if bound is None:
        losses = sum(beats(p, c) for c, p in zip(change, parent))
        if losses >= WIN_FRACTION * len(parent) and beats(pmed, cmed) and clear:
            return wins, "worse"
        return wins, "inconclusive"
    loss = (cmed - pmed) if better == "lower" else (pmed - cmed)
    if pmed and loss / abs(pmed) > bound:
        return wins, "worse"
    spread = max((q3 - q1) / abs(med) if med else 0.0
                 for q1, med, q3 in ((pq1, pmed, pq3), (cq1, cmed, cq3)))
    if spread > bound and not all(beats(c, p) for c in change for p in parent):
        return wins, "unresolved"
    return wins, "within"


def report(workload, runs, metrics, header):
    print(f"\n{workload}: {header}")
    print(f"  {'metric':<26} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
          f" {'chg/par':>8} {'wins':>6}  verdict")
    sides = [values for pair in runs for values in pair.values()]
    names = [n for n in dict.fromkeys(n for values in sides for n in values)
             if all(n in values for values in sides)]
    for name in names:
        parent = [pair["parent"][name] for pair in runs]
        change = [pair["change"][name] for pair in runs]
        info = metrics.get(name, {})
        wins, outcome = compare(parent, change, info.get("better", "lower"), info.get("bound"))
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        ratio = f"{cmed / pmed:.3f}" if pmed else "-"
        print(f"  {name:<26} {f'{pmed:.6g} [{pq1:.6g}, {pq3:.6g}]':>34}"
              f" {f'{cmed:.6g} [{cq1:.6g}, {cq3:.6g}]':>34} {ratio:>8}"
              f" {f'{wins}/{len(runs)}':>6}  {outcome}", flush=True)


def main():
    data, metrics = spec()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: every workload)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=data.get("run_seconds", 20))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, default=ROOT / ".perf_ab",
                        help="parent trees and both sides' build dirs")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    workloads = args.workload or [w["name"] for w in data["workloads"]]

    work_dir = args.work_dir.resolve()
    sha, parent_tree, parent_build = extract(args.parent, work_dir)
    sides = {"parent": (parent_tree, parent_build), "change": (ROOT, work_dir / "change" / "build")}
    last_seed = args.first_seed + args.pairs - 1
    header = (f"{args.pairs} pairs, seeds {args.first_seed}..{last_seed}, {args.seconds:g} s per run,"
              f" --trace {args.trace}, parent {sha[:12]} vs the working tree")

    all_correct = True
    for workload in workloads:
        runs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {}
            for side in order:
                tree, build = sides[side]
                correct, pair[side] = run_side(tree, build, workload, seed, args.seconds,
                                               args.trace)
                all_correct &= correct
            print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} first) done",
                  flush=True)
            runs.append(pair)
        report(workload, runs, metrics, header)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
