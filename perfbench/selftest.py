#!/usr/bin/env python3
"""Self-test of the benchmark harness; run from the root of a checkout:

    python3 perfbench/selftest.py

Each workload runs for a fraction of a second, untraced and traced. The test
checks that every metric BENCHMARK.json names is printed with its unit and
that the outputs pass their checks. A k + 1 planted in a sweep record or in
a `compute` answer must count as a failed operation. Without src/powres,
run.py must exit non-zero and print no result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import unittest
from unittest import mock

import run
import workloads

BENCHMARK: dict = {}
POWRES = None


def setUpModule():
    global POWRES
    BENCHMARK.update(json.loads((run.ROOT / "BENCHMARK.json").read_text()))
    POWRES = run.load_powres()


def run_quietly(name: str, trace: bool, seconds: float = 0.3) -> dict:
    tiny = dataclasses.replace(workloads.WORKLOADS[name], trace_ops=2)
    with mock.patch.dict(workloads.WORKLOADS, {name: tiny}), \
            contextlib.redirect_stdout(io.StringIO()):
        return run.run_one(POWRES, name, run.DEFAULT_SEED, seconds, trace)


class HarnessTest(unittest.TestCase):

    def assert_metrics(self, result: dict, declared: list[dict]) -> None:
        self.assertEqual({m["name"]: m["unit"] for m in declared},
                         {k: v["unit"] for k, v in result["metrics"].items()})
        for value in result["metrics"].values():
            self.assertIsInstance(value["value"], (int, float))

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(workloads.WORKLOADS))

    def test_every_workload_prints_every_metric(self):
        for name in workloads.WORKLOADS:
            for trace, declared in ((False, BENCHMARK["end_to_end"]),
                                    (True, BENCHMARK["per_layer"])):
                with self.subTest(workload=name, trace=trace):
                    result = run_quietly(name, trace)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assert_metrics(result, declared)

    def test_tampered_sweep_record_fails(self):
        real = POWRES.run_sweep

        def bumped(config):
            records = real(config)
            records[0] = dataclasses.replace(records[0], k=records[0].k + 1)
            return records

        with mock.patch.object(POWRES, "run_sweep", bumped):
            result = run_quietly("sweep_k", trace=False)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_tampered_compute_answer_fails(self):
        real = POWRES.cli.compute_k

        def bumped(ctx, n, **kwargs):
            result = real(ctx, n, **kwargs)
            return dataclasses.replace(result, k=result.k + 1)

        with mock.patch.object(POWRES.cli, "compute_k", bumped):
            result = run_quietly("queries", trace=False)
        self.assertGreater(result["failed"], 0)

    def test_refuses_to_run_without_the_package(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload",
             "sweep_k", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
