"""Run every workload of BENCHMARK.json over ten seeds and summarize the
spread.

    python3 perfbench/spread.py --out perfbench/baseline.json

Each run is ``run.py`` in its own process, one at a time.  For each
end-to-end metric the summary gives the median of the runs and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median.  A traced run at the first seed adds the per-layer
metrics and the per-case lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import WORKLOAD_LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(10))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d trace %d failed (exit %d):\n%s"
                         % (workload, seed, trace, proc.returncode,
                            proc.stderr))
    result = json.loads(lines[-1])
    cases = [json.loads(line[len("case "):]) for line in lines[:-1]
             if line.startswith("case ")]
    return result, cases


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"python": platform.python_version(), "cpus": os.cpu_count(),
               "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {}
        for seed in SEEDS:
            result, _ = run_once(workload, seed, spec["run_seconds"], 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in result["metrics"].items()},
                  flush=True)
        end_to_end = {name: summarize(v) for name, v in values.items()}
        for name, s in end_to_end.items():
            print("%-14s %-12s median %.4f spread %.3f (bound %.2f)"
                  % (workload, name, s["median"], s["spread"], bounds[name]),
                  flush=True)
        traced, cases = run_once(workload, SEEDS[0], spec["run_seconds"], 1)
        summary["workloads"][workload] = {
            "layers": list(WORKLOAD_LAYERS[workload]),
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"]
                          for name, m in traced["metrics"].items()},
            "cases": cases,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
