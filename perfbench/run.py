"""alexinv benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload order-poly --seed 0 --seconds 30 --trace 0

A run is a closed loop of rounds, started while one more round of median
length still ends within ``--seconds``.  A round sets up a few times (fresh
import of ``alexinv`` from ``src`` plus input generation; the median over
the run is ``setup_s``), then makes one pass over the workload's case
ladder, each case calling the public ``alexinv`` functions in-process and
checked against a known answer.  Each set-up and case is timed right after
a fixed reference loop, and the end-to-end times are given in seconds at
reference host speed (``workloads.reference_seconds``).  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics, after one ``case {...}``
line per case with its time and sizes.  The last line of stdout is the JSON result.  Exit code 0 means every
case was right; 1 means a wrong answer, an exception or a traced layer that
saw no call; 2 means no ``alexinv`` sources to run.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer

# set-ups per round; setup_s is their median over the run
SETUP_REPEATS = 3

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def metric_units(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def one_pass(cases, on_case=None):
    gc.collect()
    return workloads.run_pass(cases, on_case)


def another_round(start, rounds, seconds):
    """Start another round only if one more of median length still ends
    within ``seconds``; the first round always runs."""
    if not rounds:
        return True
    return (time.perf_counter() - start + statistics.median(rounds)
            <= seconds)


def untraced_run(workload, seed, seconds):
    """Each round sets up afresh ``SETUP_REPEATS`` times, so that set-up is
    sampled across the whole run like the passes, then runs one pass on
    the inputs of the last set-up.  Every set-up and case time is divided
    by the reference loop timed right before it, so both metrics are in
    seconds at reference host speed."""
    setup_ratios, passes, rounds = [], [], []
    start = time.perf_counter()
    while another_round(start, rounds, seconds):
        t0 = time.perf_counter()
        for _ in range(SETUP_REPEATS):
            ref = workloads.reference_seconds()
            elapsed, cases = workloads.setup(workload, seed)
            setup_ratios.append(elapsed / ref)
        passes.append(one_pass(cases))
        rounds.append(time.perf_counter() - t0)
        if passes[-1].failures:
            break
    # per case, the median over passes; a pass is the sum over its cases
    pass_ratio = sum(
        statistics.median(p.case_seconds[i] / p.ref_seconds[i]
                          for p in passes)
        for i in range(len(passes[0].case_seconds)))
    metrics = {"pass_s": workloads.REF_SECONDS * pass_ratio,
               "setup_s": (workloads.REF_SECONDS
                           * statistics.median(setup_ratios)),
               "peak_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return passes, metrics, []


def traced_run(workload, seed, seconds):
    """Alternate untraced and traced passes; the traced ones give self
    times (median over passes) and counts (last pass), the untraced ones
    the per-case times and the tracing overhead."""
    _, cases = workloads.setup(workload, seed)
    tracer = Tracer()
    plain, traced, layer_metrics = [], [], []
    missing = []
    rounds = []
    start = time.perf_counter()
    while another_round(start, rounds, seconds):
        t0 = time.perf_counter()
        plain.append(one_pass(cases))
        if plain[-1].failures:
            break
        tracer.begin_pass()
        with tracer.installed():
            traced.append(one_pass(cases, tracer.begin_case))
        layer_metrics.append(tracer.pass_metrics())
        missing = tracer.missing_layers(workload)
        if traced[-1].failures or missing:
            break
        rounds.append(time.perf_counter() - t0)

    metrics = dict(layer_metrics[-1]) if layer_metrics else {}
    for name in metrics:
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(m[name] for m in layer_metrics)
    case_seconds = [statistics.median(p.case_seconds[i] for p in plain)
                    for i in range(len(cases))]
    if workload == "verify-suites":
        for case, seconds_ in zip(cases, case_seconds):
            metrics["verify.%s.total_s" % case.name] = seconds_
            # the case check pins the report tally, so this is its size
            metrics["verify.%s.cases" % case.name] = sum(
                workloads.SUITE_STATUSES[case.name].values())
    if traced:
        metrics["trace.overhead"] = (
            statistics.median(p.seconds for p in traced)
            / statistics.median(p.seconds for p in plain))
        for i, case in enumerate(cases):
            record = {"case": case.name, "seconds": case_seconds[i],
                      "traced_seconds": traced[-1].case_seconds[i]}
            record.update(case.sizes)
            record.update(tracer.case_notes[i])
            print("case " + json.dumps(record, sort_keys=True))
    problems = ["traced layer %s made no call on %s" % (name, workload)
                for name in missing]
    return plain + traced, metrics, problems


def main(argv=None):
    args = parse_args(argv)
    run = traced_run if args.trace else untraced_run
    try:
        passes, metrics, problems = run(args.workload, args.seed,
                                        args.seconds)
    except (workloads.SourceMissing, ImportError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    units = metric_units(args.trace)
    failures = [f for p in passes for f in p.failures]
    for name, problem in failures:
        print("FAILED case %s: %s" % (name, problem), file=sys.stderr)
    for problem in problems:
        print("FAILED %s" % problem, file=sys.stderr)
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(p.case_seconds) for p in passes),
        "failed": len(failures),
        # a layer that made no call this run reads 0
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
