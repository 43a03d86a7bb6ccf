"""Self-tests for the benchmark's generator, checker and tracer.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from spans import ROOT_SPAN, Tracer, layer_metrics  # noqa: E402
from steintile import cli  # noqa: E402


def first_round(workload, seed):
    return json.dumps(next(workloads.rounds(workload, seed))[1], sort_keys=True)


def answer(argv):
    return cli.render(cli.run(argv))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                a = first_round(workload, 7)
                self.assertEqual(a, first_round(workload, 7))
                self.assertNotEqual(a, first_round(workload, 8))

    def test_rounds_keep_their_composition(self):
        for workload in workloads.WORKLOADS:
            gen = workloads.rounds(workload, 3)
            ops = [sorted(req["op"] for req in next(gen)[1]) for _ in range(2)]
            self.assertEqual(ops[0], ops[1], workload)


class Checker(unittest.TestCase):
    def assertRejected(self, request, text):
        with self.assertRaises(check.CheckFailed):
            check.check(request, text)

    def test_copula_corrupted_witness_and_wrong_s(self):
        req = workloads.cli("copula min-support", {"m": 4, "n": 6},
                            ["copula", "min-support", "-m", 4, "-n", 6])
        text = answer(req["argv"])
        self.assertIsNone(check.check(req, text))
        doc = json.loads(text)
        entries = doc["result"]["witness"]["entries"]
        i, j = next((i, j) for i, row in enumerate(entries)
                    for j, v in enumerate(row) if v != "0")
        entries[i][j] = str(int(entries[i][j]) + 1)
        self.assertRejected(req, json.dumps(doc))
        for delta in (1, -1):
            doc = json.loads(text)
            doc["result"]["S"] += delta
            self.assertRejected(req, json.dumps(doc))

    def test_group_min_support_off_by_one(self):
        spec = {"orders": [6, 4], "g1": [[2, 0]], "g2": [[0, 1], [3, 2]]}
        req = workloads._group_request("group min-support", spec["orders"],
                                       spec["g1"], spec["g2"])
        text = answer(req["argv"])
        self.assertIsNone(check.check(req, text))
        doc = json.loads(text)
        doc["result"]["S"] -= 1
        self.assertRejected(req, json.dumps(doc))
        doc = json.loads(text)
        doc["result"]["witness"]["values"][0]["v"] = "1/3"
        self.assertRejected(req, json.dumps(doc))

    def test_flipped_tile_check_verdict(self):
        for tiles in (True, False):
            rng = random.Random(5)
            orders, gens = workloads._tile_shape(rng, 2000, 2)
            req = workloads._tile_check(rng, orders, gens, tiles)
            text = answer(req["argv"])
            self.assertIsNone(check.check(req, text))
            doc = json.loads(text)
            self.assertIs(doc["result"]["tiles"], tiles)
            doc["result"]["tiles"] = not tiles
            self.assertRejected(req, json.dumps(doc))

    def test_nonzero_exit_is_rejected(self):
        req = workloads.cli("copula min-support", {"m": 9, "n": 9},
                            ["copula", "min-support", "-m", 9, "-n", 9])
        self.assertRejected(req, answer(req["argv"]))


class Tracing(unittest.TestCase):
    def test_imported_bindings_are_wrapped_and_restored(self):
        from steintile import abelian, group_tiling, lattice
        original = group_tiling.quotient
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(group_tiling.quotient, original)
            self.assertIs(group_tiling.quotient, abelian.quotient)
            self.assertIs(lattice.cyclic_subgroups, abelian.cyclic_subgroups)
        finally:
            tracer.uninstall()
        self.assertIs(group_tiling.quotient, original)

    def test_self_times_fit_in_request_wall_time(self):
        requests = [
            workloads._group_request("group min-support", [6, 4], [[2, 0]], [[0, 1], [3, 2]]),
            workloads.cli("lattice many-relations", {},
                          ["lattice", "many-relations", "-p", 5, "-d", 3,
                           "--verify-samples", 2]),
            workloads.cli("pp1d conv-tile", {}, ["pp1d", "conv-tile", "--lambdas", "1,2/3,3/2"]),
        ]
        tracer = Tracer()
        tracer.install()
        try:
            walls = []
            for i, req in enumerate(requests):
                t0 = time.perf_counter()
                tracer.request_span(i, lambda req=req: answer(req["argv"]))
                walls.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        dur, selft = tracer.self_times()
        self.assertTrue(all(s >= 0 for s in selft))
        for i, wall in enumerate(walls):
            layers = tracer.layer_self_s(request_id=i)
            root = next(k for k in range(len(tracer.name))
                        if tracer.request[k] == i and tracer.names[tracer.name[k]] == ROOT_SPAN)
            inside = sum(v for layer, v in layers.items() if layer != "bench")
            self.assertGreater(inside, 0)
            self.assertLessEqual(inside, dur[root])
            self.assertLessEqual(dur[root], wall)
        m = layer_metrics(tracer.counters, tracer.layer_self_s())
        self.assertGreater(m["lattice.lattices_out"][0], 0)
        self.assertGreater(m["abelian.elements"][0], 0)
        self.assertEqual(m["exactlp.calls"][0], 0)


class Contract(unittest.TestCase):
    def test_fails_without_the_program(self):
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "bench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "lp-oracle", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
