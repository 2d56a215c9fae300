#!/usr/bin/env python3
"""Run the end-to-end benchmark on two checkouts and write a BENCH file.

    python3 tools/bench_compare.py PARENT CHANGE --out BENCH_11.json [--pairs 10] [--seed 1101]

PARENT and CHANGE are the roots of two checkouts, each with its own
`perfbench/` and `src/`.  For every workload of CHANGE/BENCHMARK.json, pair
k runs `perfbench/run.py --seed SEED+k --seconds S --trace 0`, with S the
`run_seconds` of BENCHMARK.json, once in each checkout, one after the
other; the parent runs first in even pairs and the change in odd ones.
Every run gets PYTHONDONTWRITEBYTECODE=1, so that no run imports byte
code that an earlier one left behind (a stray `__pycache__` lowers
`setup_s` on the side that has it).

The output holds every run (seed, order, correct, attempted, failed and
the five end-to-end metrics), `wc -l src/semikernel/*.py` of both sides,
and per workload and metric: each side's median and quartiles, the pairs
the change wins (ties count for neither) and a verdict.  The verdict is

* `better` when the change wins at least 9/10 of the pairs and the
  medians differ by more than the parent's interquartile range, or when
  every change run reads better than every parent run;
* otherwise `unresolved` when the parent's interquartile range is wider
  than the metric's bound (relative to its median);
* otherwise `worse` when the change's median is worse than the parent's by
  more than the bound;
* otherwise `flat`.

The file is rewritten after every run, with "complete": false until the
last pair has finished.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
TIMEOUT = 900  # seconds before one run counts as failed


def src_lines(root):
    """`wc -l src/semikernel/*.py`: newline counts per file, and the total."""
    counts = {}
    for path in sorted((Path(root) / "src" / "semikernel").glob("*.py")):
        counts[path.name] = path.read_bytes().count(b"\n")
    return {"files": counts, "total": sum(counts.values())}


def run_once(root, workload, seed, seconds):
    """One run of perfbench/run.py in a checkout; its result line, or a record of the failure."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"correct": False, "error": f"timed out after {TIMEOUT} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def summarize(runs, metric):
    """The comparison of one metric of one workload over its finished pairs."""
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in runs if "metrics" in p and "metrics" in c]
    if len(pairs) < 2:
        return None
    sign = 1 if better == "higher" else -1
    parent = quartiles([p for p, _ in pairs])
    change = quartiles([c for _, c in pairs])
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    gap = sign * (change["median"] - parent["median"])  # > 0: the change reads better
    iqr = parent["q3"] - parent["q1"]
    all_better = min(sign * c for _, c in pairs) > max(sign * p for p, _ in pairs)
    if (wins >= 0.9 * len(pairs) and gap > iqr) or all_better:
        verdict = "better"
    elif iqr > bound * abs(parent["median"]):
        verdict = "unresolved"
    elif -gap > bound * abs(parent["median"]):
        verdict = "worse"
    else:
        verdict = "flat"
    return {
        "better": better,
        "bound": bound,
        "pairs": len(pairs),
        "parent": parent,
        "change": change,
        "relative_change": change["median"] / parent["median"] - 1 if parent["median"] else None,
        "change_wins": wins,
        "verdict": verdict,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1101)
    args = ap.parse_args(argv)

    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    bench = json.loads((Path(roots["change"]) / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {w: [] for w in workloads}  # per workload: [(parent run, change run)] by pair
    out = {
        "command": f"perfbench/run.py --seconds {seconds:g} --trace 0",
        "env": {"PYTHONDONTWRITEBYTECODE": "1"},
        "pairs": args.pairs,
        "seeds": [args.seed + k for k in range(args.pairs)],
        "src_lines": {side: src_lines(roots[side]) for side in SIDES},
        "complete": False,
    }

    def write():
        out["workloads"] = {}
        for w in workloads:
            pairs = runs[w]
            out["workloads"][w] = {
                "runs": [
                    {"seed": args.seed + k, "first": SIDES[k % 2], "parent": p, "change": c}
                    for k, (p, c) in enumerate(pairs)
                ],
                "correct": {side: [r[i]["correct"] for r in pairs] for i, side in enumerate(SIDES)},
                "failed": {side: [r[i].get("failed") for r in pairs] for i, side in enumerate(SIDES)},
                "metrics": {m["name"]: summarize(pairs, m) for m in bench["end_to_end"]},
            }
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")

    for k in range(args.pairs):
        seed = args.seed + k
        for w in workloads:
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            result = {}
            for side in order:
                t0 = time.time()
                result[side] = run_once(roots[side], w, seed, seconds)
                print(f"pair {k + 1}/{args.pairs} {w} {side} seed {seed}: "
                      f"correct={result[side]['correct']} ({time.time() - t0:.0f} s)", flush=True)
            runs[w].append((result["parent"], result["change"]))
            write()
    out["complete"] = True
    write()
    return 0 if all(r["correct"] for w in workloads for pair in runs[w] for r in pair) else 1


if __name__ == "__main__":
    sys.exit(main())
