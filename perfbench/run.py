#!/usr/bin/env python3
"""The semikernel benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload hom-search --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.  The
timed phase is a closed loop with one client that runs whole rounds of
seeded queries until about ``--seconds`` have passed; every answer is
checked after it.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run of one round (see README.md).
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import spans
from speed import REFERENCE_S, Probe
from stats import median, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = {
    "tensor-saturate": "tensor_saturate",
    "hom-search": "hom_search",
    "cli-report": "cli_report",
}
SETUP_PROBES = 2  # fresh set-up processes before and again after the timed phase
MAX_ROUNDS = 64
PROBE = Probe()  # the machine's speed, sampled through the whole run
SAMPLES_BETWEEN = 2  # speed samples before each query


def load_semikernel():
    """Import semikernel from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    mods = spans.package_modules()
    where = Path(mods["__init__"].__file__).resolve().parent
    if where != SRC / "semikernel":
        raise SystemExit(f"semikernel imported from {where}, not from {SRC}")
    return SimpleNamespace(**{("package" if k == "__init__" else k): v for k, v in mods.items()}), mods


def pin_to_one_cpu():
    """Run this process and the children it starts on one CPU.

    The VM's two CPUs run at different speeds under the host's load, so a
    speed sample only tells the speed of the CPU it ran on.  Pinned, every
    sample, query and CLI child shares one CPU.  The closed loop runs one
    thing at a time, so the second CPU would do nothing for it anyway.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not on Linux, or not allowed: run unpinned
        pass


def cpu_seconds():
    """CPU time of this process and of its children that have ended.

    Every timing is CPU time.  The benchmark runs on a shared virtual
    machine whose host at times takes the CPU away for half the wall time,
    and CPU time leaves that out; the program neither sleeps nor waits for
    anything but its own work, so on an idle machine the two agree.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Timer:
    """CPU seconds of a stretch of work, scaled to the reference speed.

    ``raw`` leaves out the speed samples taken inside the stretch;
    ``seconds`` is ``raw`` scaled by the samples in and around it (see
    speed.py), so read it only after the samples that follow the stretch.
    """

    def __init__(self):
        self.wall0, self.cpu0 = time.perf_counter(), cpu_seconds()

    def stop(self):
        self.wall1, cpu1 = time.perf_counter(), cpu_seconds()
        self.raw = cpu1 - self.cpu0 - PROBE.sample_seconds(self.wall0, self.wall1)
        return self

    @property
    def seconds(self):
        return self.raw * PROBE.scale(self.wall0, self.wall1)


def round_rng(workload, seed, r):
    return random.Random(f"{workload}:{seed}:{r}")


def setup(name, seed, sample_during_queries):
    """Import, inputs and warm-up: everything before the first timed query.

    Returns the workload, its context and state, and the set-up's Timer.
    """
    wl = importlib.import_module(WORKLOADS[name])
    if sample_during_queries and getattr(wl, "IN_PROCESS", True):
        PROBE.start_timer()
    PROBE.sample()
    timer = Timer()
    ctx = SimpleNamespace(root=ROOT, src=SRC, work=Path(tempfile.mkdtemp(dir=WORK)), sk=None, modules=None)
    if getattr(wl, "IN_PROCESS", True):
        ctx.sk, ctx.modules = load_semikernel()
    state = wl.setup(ctx)
    # the same warm-up inputs on every seed, so that set-up does the same work
    warm = wl.build_round(state, random.Random(f"{name}:warm-up"))
    kinds = set()
    for q in warm:
        kind = q.name.split()[0]
        if not q.heavy and kind not in kinds:
            kinds.add(kind)
            q.run()
            PROBE.sample()  # a CLI parent samples only between its children
    timer.stop()
    for _ in range(3):
        PROBE.sample()
    return wl, ctx, state, timer


def setup_probe_times(name, seed):
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=170, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_round(queries, tracer=None, first_id=0):
    """Run queries back to back, with speed samples before each.

    With a tracer, the queries' spans get query ids from ``first_id`` on.

    Returns [(query, scaled CPU seconds, answer, error)], the round's scaled
    CPU seconds (the sum over its queries), its unscaled CPU seconds and its
    wall seconds.
    """
    gc.collect()
    timed = []
    wall0 = time.perf_counter()
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.query_id = first_id + i
        for _ in range(SAMPLES_BETWEEN):
            PROBE.sample()
        timer = Timer()
        try:
            answer, error = q.run(), None
        except Exception as e:  # a crash is a failed query, not a failed run
            answer, error = None, f"{type(e).__name__}: {e}"
        timed.append((q, timer.stop(), answer, error))
        if tracer is not None and q.budgets:
            tracer.bump("presentations.budget_units", sum(b.used for b in q.budgets))
    for _ in range(3):
        PROBE.sample()
    records = [(q, timer.seconds, answer, error) for q, timer, answer, error in timed]
    raw = sum(timer.raw for _, timer, _, _ in timed)
    return records, sum(r[1] for r in records), raw, time.perf_counter() - wall0


def timed_phase(wl, state, name, seed, seconds):
    """Whole rounds, at least the workload's MIN_ROUNDS (2 by default), and
    then stopping at the round count whose wall time comes closest to
    `seconds`.

    Returns each round's records and scaled CPU seconds, and the wall seconds.
    """
    rounds, elapsed = [], 0.0
    for r in range(MAX_ROUNDS):
        queries = wl.build_round(state, round_rng(name, seed, r))
        recs, cpu, _, wall = run_round(queries)
        rounds.append((recs, cpu))
        elapsed += wall
        if len(rounds) >= getattr(wl, "MIN_ROUNDS", 2) and elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            break
    return rounds, elapsed


def failures(records):
    """(query name, reason) for every query whose answer is wrong."""
    out = []
    for q, _, answer, error in records:
        reason = error
        if reason is None:
            try:
                reason = q.check(answer)
            except Exception as e:  # an answer of an unexpected shape is a wrong answer
                reason = f"answer {answer!r} could not be checked: {type(e).__name__}: {e}"
        if reason is not None:
            out.append((q.name, reason))
    return out


def peak_rss_mib(wl):
    # a CLI workload's program runs in its children
    who = resource.RUSAGE_SELF if getattr(wl, "IN_PROCESS", True) else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(rounds, setup_times, peak_rss):
    """Timings of each round, then the best round for each timing.

    Every timing is CPU time scaled to the reference speed (speed.py).
    Every round has the same mix of at least 100 queries, so each round's
    percentiles stand on their own.  The scaling under-corrects when the
    host is heavily loaded, so what is left of the load only slows a round
    down, and the best of the rounds is the steadiest estimate of the
    program's own speed.
    """
    def latency(recs, p):
        return percentile([lat * 1000 for _, lat, _, _ in recs], p)

    return {
        "throughput_qps": (max(len(recs) / cpu for recs, cpu in rounds), "queries/s"),
        "verdict_p50_ms": (min(latency(recs, 50) for recs, _ in rounds), "ms"),
        "verdict_p90_ms": (min(latency(recs, 90) for recs, _ in rounds), "ms"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mib": (peak_rss, "MiB"),
    }


def traced_run(wl, ctx, state, name, seed):
    """Round 0 twice from the seed, with fresh inputs each time: each query
    runs untraced, and then its twin runs traced.

    trace.overhead_ratio is the traced CPU time of the paired queries over
    their untraced CPU time, minus 1.  Running each pair back to back lets
    a drift in the machine's speed touch both sides alike; untraced and
    traced rounds run one after the other gave ratios from -0.14 to +0.49
    on the 2-core VM.  It is unscaled CPU time: a traced run samples the
    speed between queries only, too seldom to scale a query of seconds.  A
    CLI round of 105 cold starts is long, so only its first half is paired
    and the rest runs traced only.
    """
    tracer = spans.Tracer()
    if ctx.modules is not None:
        undo = []

        def trace(on):
            if on:
                undo[:] = spans.install(tracer, ctx.modules)
            else:
                spans.uninstall(undo)
    else:
        def trace(on):
            # CLI children run under the launcher and save their own spans
            state.trace_dir = ctx.work if on else None

    plain_round = wl.build_round(state, round_rng(name, seed, 0))
    # built with the wrappers in place, so that a query that binds a
    # function when it is built binds the wrapper
    trace(True)
    traced_round = wl.build_round(state, round_rng(name, seed, 0))
    trace(False)
    paired = len(traced_round) if ctx.modules is not None else len(traced_round) // 2
    plain, traced, cpu_plain, cpu_traced = [], [], 0.0, 0.0
    for i in range(paired):
        recs, _, cpu, _ = run_round(plain_round[i:i + 1])
        plain += recs
        cpu_plain += cpu
        trace(True)
        recs, _, cpu, _ = run_round(traced_round[i:i + 1], tracer, first_id=i)
        trace(False)
        traced += recs
        cpu_traced += cpu
    trace(True)
    traced += run_round(traced_round[paired:], tracer, first_id=paired)[0]
    if hasattr(wl, "traced_extras"):
        traced += run_round(wl.traced_extras(state), tracer, first_id=len(traced_round))[0]
    trace(False)
    if hasattr(wl, "merge_spans"):
        wl.merge_spans(state, tracer)
    tracer.save(WORK / f"spans-{name}-{seed}.bin")
    metrics = spans.layer_metrics(tracer, spans.src_lines(SRC / "semikernel"), cpu_traced / cpu_plain - 1)
    return plain + traced, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "semikernel" / "__init__.py").is_file():
        print(f"no semikernel sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    pin_to_one_cpu()
    # the traced run samples between queries only, so that no sample lands
    # inside a span
    wl, ctx, state, setup_timer = setup(args.workload, args.seed, sample_during_queries=not args.trace)
    own_setup = setup_timer.seconds
    try:
        if args.setup_probe:
            print(own_setup)
            return 0
        if args.trace:
            records, metrics = traced_run(wl, ctx, state, args.workload, args.seed)
            rounds_note = "round 0 untraced and traced"
        else:
            # set-up samples from both ends of the run see the machine at two times
            setup_times = setup_probe_times(args.workload, args.seed) + [own_setup]
            rounds, elapsed = timed_phase(wl, state, args.workload, args.seed, args.seconds)
            PROBE.stop_timer()
            records = [rec for recs, _ in rounds for rec in recs]
            peak_rss = peak_rss_mib(wl)
            setup_times += setup_probe_times(args.workload, args.seed)
            metrics = end_to_end(rounds, setup_times, peak_rss)
            setup_note = ", ".join(f"{t:.4f}" for t in setup_times)
            cpu = sum(c for _, c in rounds)
            rounds_note = (
                f"{len(rounds)} round(s), {elapsed:.1f} s wall, {cpu:.1f} s CPU at reference speed, "
                f"speed samples took {median(PROBE.took) * 1000:.3f} ms (reference {REFERENCE_S * 1000:.3f} ms)"
            )
        failed = failures(records)
        print(f"{args.workload} seed {args.seed}: {len(records)} queries ({rounds_note}), {len(failed)} failed")
        for qname, reason in failed:
            print(f"FAILED {qname}: {reason}")
        print(f"failed_ratio {len(failed) / len(records):.4f} ratio")
        for metric, (value, unit) in metrics.items():
            print(f"{metric} {value:.6g} {unit}")
        if not args.trace:
            print(f"set-up samples (probes before, own, probes after): {setup_note} s")
        if not args.trace and hasattr(wl, "defect_probe"):
            for line in wl.defect_probe(state):
                print(line)
        print(json.dumps({
            "correct": not failed,
            "attempted": len(records),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        PROBE.stop_timer()
        shutil.rmtree(ctx.work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
