"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/prove.py --seeds 1-10 [--workloads group-search,continuum]
                           [--out bench/out/prove.json]

For every workload it runs bench/run.py untraced once per seed, one process
at a time, with BENCHMARK.json's run_seconds. For each metric it reports the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread, the
distance between the quartiles as a share of the median, next to the metric's
bound. A spread at or below a third of the bound is marked steady.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:  # 1: some answer was wrong
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread <= bound / 3, "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": seconds, "workloads": {}}
    for workload in names:
        results, records = [], []
        for seed in parse_seeds(args.seeds):
            result, record = run_once(workload, seed, seconds)
            results.append(result)
            records.append(record)
            print(workload, seed, json.dumps({k: round(v["value"], 4)
                                              for k, v in result["metrics"].items()}),
                  "correct" if result["correct"] else "INCORRECT", flush=True)
        metrics = {}
        for key in results[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in results]
            metrics[key] = summarize(values, bounds[key])
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": metrics, "records": records,
        }
        for key, s in metrics.items():
            flag = "steady" if s["steady"] else "NOT STEADY"
            print(f"  {workload:13s} {key:24s} median {s['median']:.5g}  spread "
                  f"{s['spread']:.3f}  bound {s['bound']}  {flag}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
