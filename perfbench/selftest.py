"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that the output checks accept the real outputs and reject every
corrupted one, that the traced run's work counts repeat exactly, and that
pacer.py stops, times and reaps its children.
Takes about a minute; run it from the root of a solvgraph source tree.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import checks
import pacer
import run
import tracer

SWAPS = {"true": "false", "false": "true", "yes": "no", "PASS": "FAIL", "n/a": "true"}
TOKEN = re.compile(r"\d+|true|false|yes|PASS|n/a")


def corruptions(out: str):
    """Variants of stdout that each change one value, or drop the last line."""
    lines = out.rstrip("\n").split("\n")
    yield "last line dropped", "\n".join(lines[:-1]) + "\n"
    for i, line in enumerate(lines):
        tokens = list(TOKEN.finditer(line))
        if not tokens:
            continue
        t = tokens[-1]
        new = str(int(t.group()) + 1) if t.group().isdigit() else SWAPS[t.group()]
        bad = lines[:i] + [line[:t.start()] + new + line[t.end():]] + lines[i + 1:]
        yield f"line {i + 1} value {t.group()} -> {new}", "\n".join(bad) + "\n"


class ClosedForms(unittest.TestCase):
    def test_conjecture_sums_checked_by_hand(self):
        self.assertEqual(checks.conjecture_total("gl2", 5), 90625)
        self.assertEqual(checks.conjecture_total("sl2", 11), 174361)

    def test_sol_sizes(self):
        self.assertEqual(checks.sol_size("sl2", 13), 1)
        self.assertEqual(checks.sol_size("gl2", 7), 7)


class BenchmarkJson(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
                         tracer.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))


class OutputChecks(unittest.TestCase):
    """Every check passes on the real output and fails on each corruption."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(run.SRC))
        from solvgraph import cli
        cls.cli = cli
        cls.tmp = Path(tempfile.mkdtemp(dir=run.ROOT, prefix=".perfbench_selftest-"))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def run_cli(self, cmd):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(list(cmd.argv))
        return rc, buf.getvalue()

    def test_workloads(self):
        for name in run.WORKLOADS:
            for cmd in run.workload_commands(name, random.Random(7), self.tmp):
                with self.subTest(cmd=" ".join(cmd.argv)):
                    self.check_command(cmd)

    def check_command(self, cmd):
        rc, out = self.run_cli(cmd)
        self.assertIsNone(checks.check(cmd.argv, rc, out, cmd.files))
        self.assertIsNotNone(checks.check(cmd.argv, 1, out, cmd.files), "exit code 1")
        for what, bad in corruptions(out):
            self.assertIsNotNone(checks.check(cmd.argv, rc, bad, cmd.files), what)
        for kind, path in cmd.files.items():
            good = path.read_bytes()
            flipped = bytearray(good)
            flipped[len(good) // 2] ^= 1
            path.write_bytes(bytes(flipped))
            self.assertIsNotNone(checks.check(cmd.argv, rc, out, cmd.files), f"{kind} byte")
            path.unlink()
            self.assertIsNotNone(checks.check(cmd.argv, rc, out, cmd.files), f"{kind} gone")
            path.write_bytes(good)


class Pacer(unittest.TestCase):
    def test_child_is_stopped_for_references_and_reaped(self):
        busy = "x = 0\nfor i in range(15_000_000): x += i"
        run = pacer.run_paced([sys.executable, "-c", busy], timeout=60)
        self.assertEqual(os.waitstatus_to_exitcode(run.status), 0)
        self.assertFalse(run.timed_out)
        self.assertGreater(len(run.slices), 1)
        # Stopped time and steal time are left out, so the busy child's wall
        # time is its CPU time.
        cpu = run.usage.ru_utime + run.usage.ru_stime
        self.assertAlmostEqual(run.wall_s, cpu, delta=0.1 * cpu)
        self.assertGreater(run.scale, 0)
        self.assertAlmostEqual(run.scaled_cpu_s, run.scaled_wall_s, delta=0.1 * cpu * run.scale)

    def test_timeout_kills_the_child(self):
        run = pacer.run_paced([sys.executable, "-c", "while True: pass"], timeout=1.2)
        self.assertTrue(run.timed_out)
        self.assertTrue(os.WIFSIGNALED(run.status))
        with self.assertRaises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TracedCounts(unittest.TestCase):
    """Work counts from two traced runs with the same seed are identical."""

    COUNTS = ("ffalg.rref_calls", "solv.pair_calls", "solv.planes", "liealg.closure_calls",
              "liealg.derived_calls", "solv.solvabilizer_calls", "solv.memo_entries",
              "graph.line_pairs", "graph.row_bytes", "graph.export_bytes")

    def traced(self, workload):
        done = subprocess.run(
            [sys.executable, str(Path(run.__file__)), "--workload", workload,
             "--seed", "11", "--trace", "1"],
            cwd=run.ROOT, capture_output=True, text=True, check=True, timeout=180)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertTrue(result["correct"])
        return {k: result["metrics"][k]["value"] for k in self.COUNTS}

    def test_counts_repeat(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.traced(workload)
                self.assertGreater(first["solv.pair_calls"], 0)
                self.assertEqual(first, self.traced(workload))


if __name__ == "__main__":
    unittest.main()
