"""Closed-loop benchmark for causalcalc.

    python3 bench/run.py --workload counterfactual --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One client in one process and one thread sends each operation of
the workload's seeded mix only after the previous one completed, round after
round, until ``--seconds`` have passed. Consecutive rounds form windows of at
least MIN_OPS operations; each end-to-end timing is the interquartile mean
of the windows' figures. Dropping the top and bottom quarter keeps short
stalls of the shared machine out; averaging the middle half, where a median
would pick one window, keeps the 90th percentile from jumping between the
latencies of neighbouring operations. The set-up (import, compile,
serialise, first load) is timed SETUP_REPEATS times, spread over the run, and
reported as a median.
Operations go through ``causalcalc.cli.main`` in process with stdout
captured, except corrupted calculators, which only exist in memory.

Before timing, one untimed round checks every operation's output against an
independent reference; timed rounds must then reproduce the checked output
exactly. Any mismatch, exception or non-zero exit code is a failed operation,
and a run with failures exits 1.

With ``--trace 0`` the last line carries the end-to-end metrics. With
``--trace 1`` it carries the per-layer metrics: rounds run in turn untraced,
with spans on the two acceptance functions only (for their cost per node), and
with spans on every traced function (see ``tracer.py``).

Results go to stdout; the last line is one JSON object. Scratch files live in
``.bench_work/`` under the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import workloads

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("core", "interventions", "machines", "compilers", "reference", "equivalence",
           "formats", "cli", "errors")
SETUP_REPEATS = 11
MIN_OPS = 110  # per window: leaves at least ten samples above the 90th percentile
END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def load_package():
    """Import causalcalc afresh from src/ and return its modules by name."""
    for name in [m for m in sys.modules if m == "causalcalc" or m.startswith("causalcalc.")]:
        del sys.modules[name]
    importlib.import_module("causalcalc")
    return SimpleNamespace(**{m: importlib.import_module(f"causalcalc.{m}") for m in MODULES})


def setup(workload, seed, work):
    """Import, compile, serialise and load once; returns (seconds, pkg, ops)."""
    start = time.perf_counter()
    pkg = load_package()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = workloads.WORKLOADS[workload](pkg, random.Random(seed), work)
    return time.perf_counter() - start, pkg, ops


def execute(pkg, op):
    """Run one operation; returns (exit code, output text)."""
    if op.call is not None:
        return 0, op.call()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = pkg.cli.main(op.argv)
    return code, out.getvalue()


def verify(pkg, ops):
    """Untimed round: each output checked against its reference, or None."""
    verified = []
    for op in ops:
        try:
            code, out = execute(pkg, op)
            good = code == 0 and op.check(out)
        except Exception:
            traceback.print_exc()
            good = False
        if not good:
            print(f"reference mismatch: {op.kind} {op.argv or ''}", file=sys.stderr)
        verified.append(out if good else None)
    return verified


def closed_loop(pkg, ops, verified, seconds, tracer=None):
    """Whole rounds, at least one, until ``seconds`` passed.

    Returns one (latencies, failed, wall) triple per round.
    """
    rounds = []
    clock = time.perf_counter
    begun = clock()
    while True:
        latencies, failed, round_begun = [], 0, clock()
        for op, want in zip(ops, verified):
            start = clock()
            try:
                code, out = execute(pkg, op)
                good = code == 0 and want is not None and out == want
            except Exception:
                good = False
            latencies.append(clock() - start)
            failed += not good
            if tracer is not None:
                tracer.end_op()
        rounds.append((latencies, failed, clock() - round_begun))
        if clock() - begun >= seconds:
            return rounds


def inputs_digest(ops, work):
    """Digest of the generated files and operation arguments, paths left out."""
    digest = hashlib.sha256()
    for path in sorted(work.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    prefix = f"{work}{os.sep}"
    for op in ops:
        digest.update(json.dumps([a.replace(prefix, "") for a in op.argv or [op.kind]]).encode())
    return digest.hexdigest()


def git_sha():
    """HEAD's commit id read from .git, or "unknown" outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def windows(rounds, ops_per_round):
    """Consecutive rounds grouped into windows of at least MIN_OPS operations.

    Rounds left over at the end join the last window. Returns one
    (latencies, failed, wall) triple per window.
    """
    size = -(-MIN_OPS // ops_per_round)
    starts = range(0, max(len(rounds) - size, 0) + 1, size)
    groups = [rounds[a:b] for a, b in zip(starts, [*starts[1:], len(rounds)])]
    return [([x for r in g for x in r[0]], sum(r[1] for r in g), sum(r[2] for r in g))
            for g in groups]


def midmean(values):
    """Mean of the middle half of the values (the interquartile mean)."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def end_to_end(rounds, ops_per_round, setup_times):
    """Timings are midmeans over windows; ok_frac counts every operation."""
    per_window = []
    for latencies, failed, wall in windows(rounds, ops_per_round):
        ms = sorted(1000 * x for x in latencies)
        per_window.append(((len(ms) - failed) / wall, statistics.median(ms),
                           statistics.quantiles(ms, n=10)[8]))
    attempted = sum(len(r[0]) for r in rounds)
    failed = sum(r[1] for r in rounds)
    rate, p50, p90 = (midmean(column) for column in zip(*per_window))
    return {
        "ops_per_s": rate,
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }, len(per_window)


def per_layer(pkg, ops, verified, seconds):
    """Untraced, per-node and fully traced rounds in turn; the per-layer metrics.

    Alternating the rounds keeps the machine's drift out of the overhead ratio.
    """
    import tracer as tr

    light, full = tr.Tracer(pkg, tr.PER_NODE, make=False), tr.Tracer(pkg)
    tallies = {"untraced": [0, 0, 0.0], "light": [0, 0, 0.0], "full": [0, 0, 0.0]}
    rounds = 0
    begun = time.perf_counter()
    while rounds == 0 or time.perf_counter() - begun < seconds:
        for name, tracer in (("untraced", None), ("light", light), ("full", full)):
            if tracer is not None:
                tracer.install()
            try:
                (latencies, failed, wall), = closed_loop(pkg, ops, verified, 0, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            tally = tallies[name]
            tally[0] += len(latencies)
            tally[1] += failed
            tally[2] += wall
        rounds += 1

    def rate(name):
        attempted, failed, wall = tallies[name]
        return (attempted - failed) / wall

    metrics = full.layer_metrics(rounds)
    machine_us = light.per_node_us("machines.run_machine")
    calc_us = light.per_node_us("compilers.calc_accepts")
    metrics.update({
        "machines.run_machine.us_per_node": machine_us,
        "compilers.calc_accepts.us_per_node": calc_us,
        "compilers.calc_over_machine": calc_us / machine_us if machine_us else 0.0,
        "trace.ops_per_s": rate("full"),
        "trace.untraced_ops_per_s": rate("untraced"),
        "trace.overhead": rate("untraced") / rate("full") if rate("full") else 0.0,
    })
    print("spans " + json.dumps(full.span_table(rounds), sort_keys=True))
    units = {name: unit for name, (unit, _) in tr.LAYER_METRICS.items()}
    return metrics, units, sum(t[0] for t in tallies.values()), sum(t[1] for t in tallies.values())


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "causalcalc" / "__init__.py").is_file():
        print(f"error: no causalcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        took, pkg, ops = setup(args.workload, args.seed, work)
        setup_times = [took]
        verified = verify(pkg, ops)
        print("meta " + json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "ops_per_round": len(ops),
            "mix": dict(sorted(Counter(op.kind for op in ops).items())),
            "inputs_sha256": inputs_digest(ops, work),
        }, sort_keys=True))
        if args.trace:
            metrics, units, attempted, failed = per_layer(pkg, ops, verified, args.seconds)
        else:
            # The set-ups are spread over the run, one before each slice of
            # rounds, so that setup_s averages the machine's drift as the
            # rounds do. Each slice runs on the modules and files of the
            # set-up just before it, whose outputs must still match.
            rounds = []
            begun = time.perf_counter()
            for i in range(SETUP_REPEATS):
                if i:
                    took, pkg, ops = setup(args.workload, args.seed, work)
                    setup_times.append(took)
                gc.collect()
                left = begun + (i + 1) * args.seconds / SETUP_REPEATS - time.perf_counter()
                rounds += closed_loop(pkg, ops, verified, left)
            metrics, count = end_to_end(rounds, len(ops), setup_times)
            units = END_TO_END
            attempted = sum(len(r[0]) for r in rounds)
            failed = sum(r[1] for r in rounds)
            print(f"samples {attempted} ops in {len(rounds)} rounds and {count} windows, "
                  f"{sum(r[2] for r in rounds):.2f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    for name, value in metrics.items():
        print(f"{name}\t{value:.6g}\t{units[name]}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
