#!/usr/bin/env python3
"""Run every workload once and print all their metrics by name, with units.

    python3 perfbench/run_all.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own process through run.py, one after another.
The exit status is 1 if any workload failed a query or did not finish.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    status = 0
    for workload in bench["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) if proc.returncode == 0 else proc.stderr, flush=True)
        if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
