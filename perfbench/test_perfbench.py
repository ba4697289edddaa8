#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Builds the harness first, as perfbench/run.py does.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

WORKLOADS = [w["name"] for w in bench.load_spec()["workloads"]]
SCRATCH = bench.BUILD_DIR / "selftest"

SINGLE_RUN_SPANS = {"platform.parse", "platform.build", "sim.run",
                    "core.digest"}
RIG_SPANS = {"layer.sim_fifo", "layer.sim_sleep", "layer.stbus", "layer.ahb",
             "layer.axi", "layer.bridge", "layer.lmi_read", "layer.lmi_write",
             "layer.noc"}


def harness(*args):
    proc = subprocess.run([str(bench.HARNESS), *args], capture_output=True,
                          text=True, check=True)
    return proc.stdout


def harness_result(*args):
    return json.loads(harness(*args).strip().splitlines()[-1])


def setUpModule():
    if not bench.build():
        raise RuntimeError("cannot build the harness")
    SCRATCH.mkdir(parents=True, exist_ok=True)


class ScenarioGeneration(unittest.TestCase):
    def test_same_seed_gives_byte_identical_text(self):
        for w in WORKLOADS:
            first = harness("--workload", w, "--seed", "7", "--emit-scenario")
            again = harness("--workload", w, "--seed", "7", "--emit-scenario")
            other = harness("--workload", w, "--seed", "8", "--emit-scenario")
            self.assertEqual(first, again, w)
            self.assertNotEqual(first, other, w)

    def test_different_seed_changes_digest(self):
        for w in WORKLOADS:
            one = harness("--workload", w, "--seed", "1", "--probe")
            two = harness("--workload", w, "--seed", "2", "--probe")
            self.assertTrue(one.startswith("digest "), one)
            self.assertNotEqual(one, two, w)


class Results(unittest.TestCase):
    def run_bench(self, workload, trace):
        log = SCRATCH / "results.jsonl"
        proc = subprocess.run(
            [sys.executable, str(bench.HERE / "run.py"), "--workload",
             workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
             "--log", str(log)],
            capture_output=True, text=True, check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_printed_metric_is_declared(self):
        spec = bench.load_spec()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = self.run_bench("noc-playback-lmi", trace)
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]),
                             {m["name"] for m in spec[section]})

    def test_planted_wrong_golden_counts_as_failure(self):
        golden = SCRATCH / "golden"
        shutil.rmtree(golden, ignore_errors=True)
        shutil.copytree("tests/golden", golden)
        planted = golden / "fig3_full_stbus.json"
        doc = json.loads(planted.read_text())
        doc["digest"] = "0123456789abcdef"
        planted.write_text(json.dumps(doc))
        result = harness_result("--workload", "noc-playback-lmi", "--seed",
                                "1", "--seconds", "1", "--golden-dir",
                                str(golden))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn("golden fig3_full_stbus", result["errors"][0])
        ok_ratio = result["metrics"]["ok_ratio"]["value"]
        self.assertLess(ok_ratio, 1.0)

    def traced_spans(self, workload):
        out = SCRATCH / f"trace-{workload}.json"
        result = harness_result("--workload", workload, "--seed", "1",
                                "--seconds", "1", "--trace", "1",
                                "--trace-out", str(out))
        self.assertTrue(result["correct"], result["errors"])
        return json.loads(out.read_text())["spans"]

    def test_traced_run_spans_every_layer(self):
        for workload in ("stbus-playback", "sweep-grid"):
            spans = self.traced_spans(workload)
            names = {s["name"] for s in spans}
            required = SINGLE_RUN_SPANS | RIG_SPANS | {
                workload, "core.sweep", "core.sweep.point"}
            if workload != "sweep-grid":
                required.add("layer.core_sweep")
            self.assertLessEqual(required, names, workload)
            for s in spans:
                if s["name"] in SINGLE_RUN_SPANS:
                    self.assertEqual(spans[s["parent"]]["name"], workload)
                if s["name"] == "core.sweep.point":
                    self.assertIn("queue_wait_ms", s)
                    self.assertEqual(spans[s["parent"]]["name"], "core.sweep")
                self.assertLessEqual(s["start_ms"], s["end_ms"])


class Comparison(unittest.TestCase):
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]

    def test_clear_gain_is_improved(self):
        faster = [x * 0.8 for x in self.base]
        self.assertTrue(bench.verdict(self.base, faster, "lower", 0.1)
                        .startswith("improved"))

    def test_noise_is_unchanged(self):
        shuffled = self.base[5:] + self.base[:5]
        self.assertEqual(bench.verdict(self.base, shuffled, "lower", 0.1),
                         "unchanged within bound")

    def test_regression_is_worse(self):
        slower = [x * 1.3 for x in self.base]
        self.assertTrue(bench.verdict(self.base, slower, "lower", 0.1)
                        .startswith("worse"))

    def test_too_few_pairs_is_unresolved(self):
        self.assertTrue(bench.verdict(self.base[:5], self.base[:5], "lower",
                                      0.1).startswith("unresolved"))


if __name__ == "__main__":
    unittest.main()
