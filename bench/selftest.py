"""The benchmark's own tests.

    python3 bench/selftest.py

Runs every workload at smoke size, shows that each oracle rejects an
answer with one index dropped, that self times in a trace never exceed
their span, and that BENCHMARK.json lists exactly the metrics run.py prints.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import _load_library, per_layer_units  # noqa: E402

SMOKE_SCAN_LIMIT = "60"


def _worker(workload, *extra):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "303", "--seconds", "0"]
    cmd += ["--t0", repr(time.monotonic()), *extra]
    if workload == "decide-scan":
        cmd += ["--scan-limit", SMOKE_SCAN_LIMIT]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _drop_first_index(result: dict, bound: int) -> dict:
    """The same decide result with its smallest described index removed."""
    out = copy.deepcopy(result)
    first = workloads.described_indices(result, bound)[0]
    out["exceptional"] = [n for n in out["exceptional"] if n != first]
    for prog in out["progressions"]:
        if prog["start"] * prog["modulus"] + prog["offset"] == first:
            prog["start"] += 1
    return out


class SmokeRuns(unittest.TestCase):
    def test_every_workload_runs_and_is_correct(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = _worker(workload)
                self.assertTrue(result["correct"], result["errors"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertGreater(result["ops_per_s"], 0)


class OraclesRejectTamperedAnswers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.lib = _load_library()

    def _assert_rejected(self, workload, op, answer, ref=None, expected=None, index=0):
        with self.assertRaises(workloads.OracleMismatch):
            workloads.check(workload, op, answer, ref, expected, index)

    def _decide(self, workload, ops, label, bound, expected=None):
        index = next(i for i, op in enumerate(ops) if op.label == label)
        op = ops[index]
        ref = workloads.reference(workload, op, self.lib, expected, index)
        _, text = workloads.cli_call(self.lib.cli, op.argv)
        workloads.check(workload, op, text, ref, expected, index)
        report = json.loads(text)
        report["result"] = _drop_first_index(report["result"], bound)
        self._assert_rejected(workload, op, json.dumps(report), ref, expected, index)

    def test_decide_scan(self):
        ops = workloads.decide_scan(303, scan_limit=int(SMOKE_SCAN_LIMIT))
        for label in ("graph-r1", "g1-hit"):  # a progression, then an exceptional index
            with self.subTest(label=label):
                self._decide("decide-scan", ops, label, int(SMOKE_SCAN_LIMIT))

    def test_decide_deep(self):
        self._decide("decide-deep", workloads.decide_deep(303), "graph-r1", workloads.DEEP_LIMIT)

    def test_divisor_chain(self):
        expected = workloads.load_expected()
        op = workloads.divisor_chain(303)[0]
        text = workloads.execute("divisor-chain", op, self.lib)
        workloads.check("divisor-chain", op, text, None, expected, 0)
        report = json.loads(text)
        del report["result"]["levels"][3]
        self._assert_rejected("divisor-chain", op, json.dumps(report), None, expected, 0)
        report = json.loads(text)
        report["result"]["levels"][2]["squarefree"] = False
        self._assert_rejected("divisor-chain", op, json.dumps(report), None, expected, 0)

    def test_prime_density(self):
        op = workloads.prime_density(303)[0]
        density = workloads.execute("prime-density", op, self.lib)
        workloads.check("prime-density", op, density, None, None, 0)
        hits = dict(density.hits)
        del hits[max(hits)]
        self._assert_rejected("prime-density", op, dataclasses.replace(density, hits=hits))
        flipped = dict(density.hits)
        sample = workloads.random.Random(op.oracle["sample_seed"]).sample(sorted(flipped), workloads.DENSITY_SAMPLE)
        flipped[sample[0]] = not flipped[sample[0]]
        self._assert_rejected("prime-density", op, dataclasses.replace(density, hits=flipped))


class Tracing(unittest.TestCase):
    def test_self_time_never_exceeds_span(self):
        (BENCH / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
            path = Path(tmp) / "spans.tsv"
            result = _worker("decide-scan", "--trace", "1", "--spans", str(path))
            rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
        self.assertGreater(len(rows), 100)
        duration = {int(r[0]): float(r[4]) - float(r[3]) for r in rows}
        children = {i: 0.0 for i in duration}
        for r in rows:
            if int(r[1]) in children:
                children[int(r[1])] += duration[int(r[0])]
        for i, d in duration.items():
            self.assertGreaterEqual(d, 0.0)
            self.assertLessEqual(children[i], d + 1e-9, i)
        layers = result["layers"]
        self.assertGreater(layers["share.scan_in_decide"], 0.0)
        self.assertLessEqual(layers["share.scan_in_decide"], 1.0)

    def test_recorder_self_times(self):
        rec = spans.Recorder()

        def leaf():
            time.sleep(0.002)

        traced_leaf = rec.wrap("leaf", leaf)
        traced_inner = rec.wrap("inner", lambda: [traced_leaf(), traced_leaf()])
        rec.enabled = True
        traced_inner()
        self_s = rec.self_times()
        total = rec.end[0] - rec.start[0]
        self.assertLessEqual(self_s["inner"], total)
        self.assertGreaterEqual(self_s["inner"], 0.0)
        self.assertAlmostEqual(self_s["inner"] + self_s["leaf"], total, places=9)
        inside, outer = rec.covered(lambda n: n == "leaf", "inner")
        self.assertAlmostEqual(inside, self_s["leaf"], places=9)
        self.assertAlmostEqual(outer, total, places=9)


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match_the_runner(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["paths"], ["bench"])
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, per_layer_units())


if __name__ == "__main__":
    unittest.main()
