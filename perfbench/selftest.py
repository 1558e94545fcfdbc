"""Self-tests of the benchmark itself (not of cutstack).

Run from the repository root:

    python3 perfbench/selftest.py

Every check uses short runs (`--seconds 0`: each workload does only its
fixed traced-run op count), so the whole file takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out" / "selftest"
COUNT_SUFFIXES = ("calls_per_op", "attempts_per_op", "distinct_frac",
                  "machine_resolved_frac", "mean_intervals")


def bench(workload, seed, trace, cwd=ROOT, script=None):
    """Run the command; returns (exit code, last JSON line or None,
    results record or None)."""
    script = script or HERE / "run.py"
    out_dir = OUT / f"{workload}-{seed}-{trace}"
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", "0", "--trace", str(trace), "--out-dir",
         str(out_dir)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines else None
    path = out_dir / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(path.read_text()) if path.exists() else None
    return proc.returncode, last, record


class TinyRuns(unittest.TestCase):
    runs = {}

    @classmethod
    def run_for(cls, workload, seed, trace):
        key = (workload, seed, trace)
        if key not in cls.runs:
            cls.runs[key] = bench(workload, seed, trace)
        return cls.runs[key]

    def test_every_metric_with_its_unit(self):
        declared = {0: {m["name"]: m["unit"] for m in END_TO_END},
                    1: {m["name"]: m["unit"] for m in PER_LAYER}}
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    code, last, _ = self.run_for(w, 3, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(last), {"correct", "attempted",
                                                 "failed", "metrics"})
                    self.assertTrue(last["correct"])
                    self.assertGreaterEqual(last["attempted"], 1)
                    self.assertEqual(last["failed"], 0)
                    got = {n: m["unit"] for n, m in last["metrics"].items()}
                    self.assertEqual(got, declared[trace])

    def test_traced_counts_and_digests_repeat(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, a, ra = self.run_for(w, 3, 1)
                _, b, rb = bench(w, 3, 1)
                counts = [n for n in a["metrics"]
                          if n.endswith(COUNT_SUFFIXES)]
                self.assertTrue(counts)
                for n in counts:
                    self.assertEqual(a["metrics"][n], b["metrics"][n], n)
                self.assertEqual(ra["child"]["digest"], rb["child"]["digest"])
                # tracing must not change what the program computes
                _, _, plain = self.run_for(w, 3, 0)
                self.assertEqual(plain["child"]["digest"],
                                 ra["child"]["digest"])

    def test_other_seed_other_digest(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, _, r3 = self.run_for(w, 3, 0)
                _, _, r4 = self.run_for(w, 4, 0)
                self.assertNotEqual(r3["child"]["digest"],
                                    r4["child"]["digest"])

    def test_prediction_table_cells(self):
        """Cells marked zero read zero; count metrics on the workloads a
        row names read non-zero."""
        for w in WORKLOADS:
            _, last, _ = self.run_for(w, 3, 1)
            for row in PER_LAYER:
                value = last["metrics"][row["name"]]["value"]
                with self.subTest(workload=w, metric=row["name"]):
                    if w in row["zero_on"]:
                        self.assertEqual(value, 0)
                    if (w in row["on"]
                            and row["name"].endswith(COUNT_SUFFIXES)):
                        self.assertGreater(value, 0)


class Bare(unittest.TestCase):
    def test_fails_without_sources(self):
        """In a directory holding only BENCHMARK.json and perfbench/, the
        command exits non-zero and prints no result."""
        bare = OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, last, _ = bench("even_roundtrip", 3, 0, cwd=bare,
                              script=bare / "perfbench" / "run.py")
        self.assertNotEqual(code, 0)
        self.assertIsNone(last)


if __name__ == "__main__":
    unittest.main()
