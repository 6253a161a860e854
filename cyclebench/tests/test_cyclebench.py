#!/usr/bin/env python3
"""Tests of the cycle benchmark itself.

    python3 -m unittest discover -s cyclebench/tests     # from the repo root

Short runs of every workload check metric names, units and clocks against
BENCHMARK.json, in both the end-to-end and the traced mode; a deliberately
corrupted read-back must count as a failed op and fail the run.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "cyclebench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# The clock each end-to-end metric is measured on.
CLOCKS = {"sim_s": "sim", "stored_mib": "count", "peak_rss_mib": "count"}


def run(workload, trace=0, seconds=1, extra=()):
    p = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", "7",
                        "--seconds", str(seconds), "--trace", str(trace), *extra],
                       cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = [l for l in lines if l.startswith("detail ")]
    return p, result, json.loads(detail[-1][len("detail "):]) if detail else None


class Metrics(unittest.TestCase):
    def check(self, trace):
        want = SPEC["per_layer" if trace else "end_to_end"]
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                p, result, detail = run(w["name"], trace)
                self.assertEqual(p.returncode, 0, p.stderr[-3000:])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(list(result["metrics"]), [m["name"] for m in want])
                for m in want:
                    got = result["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    clock = detail["metrics"][m["name"]]["clock"]
                    self.assertIn(clock, ("wall", "sim", "count"), m["name"])
                    if not trace:
                        self.assertEqual(clock, CLOCKS.get(m["name"], "wall"), m["name"])
                        self.assertNotEqual(got["value"], 0, m["name"])

    def test_end_to_end(self):
        self.check(0)

    def test_traced(self):
        self.check(1)


class Failures(unittest.TestCase):
    def test_corrupted_readback_is_a_failed_op(self):
        p, result, _ = run("cycle", extra=("--corrupt-readback",))
        self.assertNotEqual(p.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("read-back matches host model", p.stderr)

    def test_configuration_override_is_scrubbed(self):
        env = dict(os.environ, CHECL_SHM_RING_BYTES="1048576")
        p = subprocess.run([sys.executable, RUN, "--workload", "cycle", "--seed", "7",
                            "--seconds", "1", "--trace", "0"],
                           cwd=ROOT, capture_output=True, text=True, timeout=900, env=env)
        self.assertEqual(p.returncode, 0, p.stderr[-3000:])
        self.assertIn("CHECL_SHM_RING_BYTES", p.stderr)
        self.assertIn('"shm_ring_bytes": 67108864', p.stdout)


if __name__ == "__main__":
    unittest.main()
