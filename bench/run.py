"""Closed-loop benchmark of steintile: one client thread, one request at a time.

    python3 bench/run.py --workload group-search --seed 1 --seconds 24 --trace 0

Run it from the root of a source checkout; it imports the package from
./src and nothing else. Each request waits for the previous answer (steintile
is a batch tool, not a server, so there is no arrival rate to sweep). CLI
requests go through steintile.cli.run and render, so argument parsing and JSON
output are counted; oracle requests are library calls.

Requests come in rounds of fixed composition (workloads.py). The run is
shared by WORKERS fresh processes, started one after another, so that no
single process's memory layout decides the figures. Worker j takes rounds j,
j + WORKERS, ... and stops at the round boundary nearest to its share of
--seconds of busy time, once it has its share of MIN_ANSWERS answers. Busy
time is the sum of request latencies, each from the call to the rendered
output.

Every answer is checked after the timed window by check.py, which never calls
the program. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is {"record": ...}
with the Python version, git rev, CPU count, seed, answer count, failed ratio
and output digests. The record (and, with --trace 1, the spans) is also
written under bench/out/.

--trace 0 reports the end-to-end metrics, and setup_s from cold CLI processes.
--trace 1 wraps every public layer function (spans.py), reports per-layer self
times and work counters, then replays the same requests untraced to report
trace.overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import check
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKERS = 2                # fresh processes sharing one run
MIN_ANSWERS = 100          # per run, so that ten latency samples lie beyond p90
SETUP_SPAWNS = 3           # cold CLI processes timed before, between and after workers
WORKER_TIMEOUT_S = 150
SETUP_ARGV = ["pp1d", "bound", "--alpha", "2/3"]
SETUP_EXPECT = '"lower_bound":"4/3"'


def require_program():
    if not os.path.isfile(os.path.join(SRC, "steintile", "cli.py")):
        raise SystemExit(f"steintile sources not found under {SRC}")


class Program:
    """The steintile modules the benchmark calls, looked up at call time so
    that the tracer's rebinding takes effect."""

    def __init__(self):
        require_program()
        sys.path.insert(0, SRC)
        self.cli = importlib.import_module("steintile.cli")
        self.abelian = importlib.import_module("steintile.abelian")
        self.group_tiling = importlib.import_module("steintile.group_tiling")
        if not os.path.abspath(self.cli.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"imported steintile from {self.cli.__file__}, not {SRC}")

    def send(self, req):
        """Issue one request; returns what render() needs."""
        if "argv" in req:
            return self.cli.render(self.cli.run(req["argv"]))
        spec = req["oracle"]
        ab, gt = self.abelian, self.group_tiling
        G = ab.make_group(spec["orders"])
        G1 = ab.subgroup_from_generators(G, [tuple(g) for g in spec["g1"]])
        G2 = ab.subgroup_from_generators(G, [tuple(g) for g in spec["g2"]])
        return gt.min_support_bruteforce(G, G1, G2), gt.min_support(G, G1, G2)


def render(answer):
    """Text of an answer: CLI answers are already rendered; oracle answers
    are rendered here, outside the timed window."""
    if isinstance(answer, str):
        return answer
    bf, fp = answer
    return json.dumps({"S": fp.S, "S_bruteforce": bf.S, "witness": fp.witness.to_json(),
                       "witness_bruteforce": bf.witness.to_json()},
                      sort_keys=True, separators=(",", ":"))


def digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------- worker

def run_window(program, rounds, seconds, min_answers, tracer=None):
    """Closed loop over whole rounds. It stops at the round boundary nearest
    to `seconds` of busy time (within half a mean round) once it has
    min_answers answers. Each round's answers are checked after the round,
    outside the timed window, and only their digests are kept."""
    w = {"latencies": [], "ops": [], "round_sha256": {}, "failed": {}, "text_sha256": []}
    busy = 0.0
    for done, (r, rnd) in enumerate(rounds, start=1):
        # collect the last round's garbage, then keep what the harness holds
        # out of later collections, as if each round ran in a fresh process
        gc.collect()
        gc.freeze()
        answers = []
        for req in rnd:
            i = len(w["latencies"]) + len(answers)
            call = (lambda req=req: program.send(req))
            t0 = time.perf_counter()
            try:
                answer = tracer.request_span(i, call) if tracer else call()
            except Exception as exc:  # a raised request is a failed answer
                answer = exc
            dt = time.perf_counter() - t0
            answers.append(answer)
            w["latencies"].append(dt)
            w["ops"].append(req["op"])
            busy += dt
        texts, failed = check_all(rnd, answers)
        base = len(w["latencies"]) - len(rnd)
        w["failed"].update({str(base + i): why for i, why in failed.items()})
        w["round_sha256"][r] = digest(texts)
        if tracer:
            w["text_sha256"] += [digest([t]) for t in texts]
            w.setdefault("requests", []).extend(rnd)
        if busy >= seconds - busy / done / 2 and len(w["latencies"]) >= min_answers:
            break
    w["busy_s"] = busy
    return w


def check_all(requests, answers):
    """(texts, {index: reason}); a request fails when it raised, exited
    nonzero or gave a wrong answer."""
    texts, failed = [], {}
    for i, (req, answer) in enumerate(zip(requests, answers)):
        if isinstance(answer, Exception):
            texts.append(f"raised {answer!r}")
            failed[i] = f"{req['op']}: raised {answer!r}"
            continue
        text = render(answer)
        texts.append(text)
        try:
            check.check(req, text)
        except Exception as exc:  # whatever a malformed answer raises, it failed
            failed[i] = f"{req['op']} {json.dumps(req['spec'])[:200]}: {exc!r}"
    return texts, failed


def worker(args):
    """One share of the run; prints a JSON summary as its last line."""
    program = Program()
    rounds = workloads.rounds(args.workload, args.seed, start=args.worker, step=WORKERS)
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        out = run_window(program, rounds, args.seconds / WORKERS,
                         -(-MIN_ANSWERS // WORKERS), tracer)
    finally:
        if tracer:
            tracer.uninstall()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        replay_busy = 0.0
        for i, req in enumerate(out.pop("requests")):
            t0 = time.perf_counter()
            try:
                answer = program.send(req)
            except Exception as exc:
                answer = exc
            replay_busy += time.perf_counter() - t0
            if isinstance(answer, Exception) or digest([render(answer)]) != out["text_sha256"][i]:
                out["failed"].setdefault(str(i), f"{req['op']}: untraced replay differs")
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}",
                                  f"worker{args.worker}"))
        out.update(counters=dict(tracer.counters), layer_self_s=dict(tracer.layer_self_s()),
                   spans=len(tracer.name), replay_busy_s=replay_busy)
    del out["text_sha256"]
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------- parent

def measure_setup(spawns, times, failures):
    """Append the wall times of cold `python -m steintile.cli pp1d bound`
    processes to times."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-m", "steintile.cli"] + SETUP_ARGV
    for _ in range(spawns):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60, check=False)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or SETUP_EXPECT not in proc.stdout:
            failures.append(f"setup process: exit {proc.returncode}, {proc.stderr[-200:]!r}")


def run_workers(args, setup_times, failures):
    """Run the workers one after another. Untraced runs time cold CLI
    processes before, between and after them, so that set-up is sampled
    across the whole run."""
    results = []
    if not args.trace:
        measure_setup(1, [], failures)  # the first spawn also writes bytecode caches
    for j in range(WORKERS + 1):
        if not args.trace:
            measure_setup(SETUP_SPAWNS, setup_times, failures)
        if j == WORKERS:
            break
        argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--worker", str(j)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"worker {j} exited {proc.returncode}: {proc.stderr[-2000:]}")
        results.append(json.loads(lines[-1]))
    return results


def git_rev():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def op_breakdown(results):
    """{op: [requests, busy seconds, slowest seconds]} over all workers."""
    out = {}
    for res in results:
        for op, dt in zip(res["ops"], res["latencies"]):
            row = out.setdefault(op, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dt
            row[2] = max(row[2], dt)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker is not None:
        return worker(args)

    require_program()
    wall0 = time.perf_counter()
    setup_times, failures = [], []
    results = run_workers(args, setup_times, failures)

    lat = [dt for res in results for dt in res["latencies"]]
    busy = sum(res["busy_s"] for res in results)
    attempted = len(lat)
    failed = sum(len(res["failed"]) for res in results)
    failures += [f"worker {j} #{i} {why}" for j, res in enumerate(results)
                 for i, why in res["failed"].items()]
    rounds = {int(r): h for res in results for r, h in res["round_sha256"].items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "git_rev": git_rev(),
        "nproc": os.cpu_count(), "workers": WORKERS, "rounds": len(rounds),
        "answers": attempted - failed, "latency_samples": attempted,
        "failed_ratio": failed / attempted, "busy_s": busy,
        "round_sha256": rounds[0],
        "outputs_sha256": digest(rounds[r] for r in sorted(rounds)),
        "setup_samples_s": setup_times, "ops": op_breakdown(results),
        "peak_rss_mb": [res["peak_rss_mb"] for res in results],
    }
    if args.trace:
        counters, selfs = Counter(), Counter()
        for res in results:
            counters.update(res["counters"])
            selfs.update(res["layer_self_s"])
        metrics = {k: metric(v, u) for k, (v, u) in spans.layer_metrics(counters, selfs).items()}
        replay = sum(res["replay_busy_s"] for res in results)
        metrics["trace.overhead"] = metric(replay / busy, "ratio")
        record.update(spans=sum(res["spans"] for res in results), replay_busy_s=replay)
    else:
        metrics = {
            "answers_per_s": metric((attempted - failed) / busy, "1/s"),
            "latency_p50_ms": metric(statistics.median(lat) * 1000, "ms"),
            "latency_p90_ms": metric(statistics.quantiles(lat, n=10)[8] * 1000, "ms"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(max(record["peak_rss_mb"]), "MB"),
        }
    record.update(failures=failures[:10], wall_s=time.perf_counter() - wall0)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"record-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for f in failures[:10]:
        print(f, file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
