#!/usr/bin/env python3
"""Run the semikernel CLI with the benchmark's spans installed.

    python3 perfbench/launch.py SPANS_FILE SPAWN_TIME CLI_ARGS...

SPAWN_TIME is the parent's ``time.time()`` just before it started this
process.  The launcher imports ``semikernel.cli`` as ``python -m
semikernel.cli`` does, and the time from spawn to that point is recorded as
the CLI's start-up.  Only then are the wrappers installed: in the modules
loaded so far, and in each module the CLI imports later as that import runs.
The spans, the start-up and the work the ``--budget`` budget recorded are
saved to SPANS_FILE when the CLI returns or raises; the exit status is the
CLI's.
"""
import sys
import time

import semikernel.cli as cli

started = time.time()

import spans  # noqa: E402  (after the start-up is read)


def main():
    out_path, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = spans.Tracer()
    tracer.bump("cli.startup_s", started - spawned)
    budgets = []
    make_budget = cli.Budget

    def recorded_budget(*args, **kwargs):
        budget = make_budget(*args, **kwargs)
        budgets.append(budget)
        return budget

    cli.Budget = recorded_budget
    spans.install_lazily(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.bump("presentations.budget_units", sum(b.used for b in budgets))
        tracer.save(out_path)


if __name__ == "__main__":
    sys.exit(main())
