#!/usr/bin/env python3
"""Tests of the native benchmark, on its smoke mode (seconds, tiny inputs).

    python3 perfbench/test_perfbench.py

Checks that BENCHMARK.json keeps the contract's shape, that the smoke mode
passes (every workload, untraced and traced), that exact counts repeat
across seeds, and that a run without the library sources fails without
printing a result.
"""

import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark runner)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
EXACT = ("graph.", "la.sptrsv_level_span", "solvers.iterations.",
         "tuning.block.")


def smoke(workload, trace, seed=1):
    run.build()
    code, result = run.run_captured(
        run.bench_cmd(workload, seed, 0.5, trace, smoke=True))
    return code, result


class SpecShape(unittest.TestCase):
    def test_benchmark_json(self):
        spec = run.load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in spec["end_to_end"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(max(m["bound"] for m in spec["end_to_end"]),
                         setup[0]["bound"])


class Smoke(unittest.TestCase):
    def test_every_workload_untraced_and_traced(self):
        self.assertEqual(run.smoke_failures(0.5), [])

    def test_exact_counts_repeat(self):
        for w in ("lanczos-fem", "lobpcg-nuclear"):
            _, a = smoke(w, 1, seed=1)
            _, b = smoke(w, 1, seed=2)
            for name, m in a["metrics"].items():
                if name.startswith(EXACT):
                    self.assertEqual(m["value"], b["metrics"][name]["value"],
                                     name)


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        scratch = ROOT / run.WORK_DIR
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "lanczos-fem", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
