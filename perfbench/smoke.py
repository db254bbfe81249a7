"""Smoke test of the benchmark itself: every workload at a tiny size, with
no timing gates, plus proof that the output checks catch a corrupted output.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

from workloads import WORKLOADS, EvalSeeds, TreebankTranslit

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCALE = 0.05


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def run_round(workload, rdir: Path):
    """Generate one round and run its commands through the CLI in-process."""
    sys.path.insert(0, str(ROOT / "src"))
    from unseenlang import cli

    rnd = workload.generate(random.Random("smoke"), rdir, "smoke")
    with contextlib.redirect_stderr(io.StringIO()):
        codes = [cli.run(argv) for argv in rnd.cmds]
    assert codes == [0] * len(codes), codes
    return rnd


class Smoke(unittest.TestCase):
    def setUp(self):
        self.work = BENCH / "_work" / "smoke"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def test_every_workload_runs_and_checks(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(WORKLOADS))
        names = {"0": {m["name"] for m in spec["end_to_end"]},
                 "1": {m["name"] for m in spec["per_layer"]}}
        for name in WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=name, trace=trace):
                    proc = bench("--workload", name, "--seed", "3", "--seconds", "0.01",
                                 "--trace", trace, "--scale", str(SCALE))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(set(result["metrics"]), names[trace])

    def test_changed_form_fails_the_check(self):
        workload = TreebankTranslit(ROOT, SCALE)
        rnd = run_round(workload, self.work)
        self.assertEqual(workload.check(rnd), (0, []))
        _, fmt, _, out = rnd.facts["files"][0]
        path = Path(out)
        lines = path.read_text(encoding="utf-8").split("\n")
        i = next(i for i, line in enumerate(lines) if line[:1].isdigit())
        cols = lines[i].split("\t")
        cols[1] += "x"
        lines[i] = "\t".join(cols)
        path.write_text("\n".join(lines), encoding="utf-8")
        _, problems = workload.check(rnd)
        self.assertTrue(problems)

    def test_changed_score_fails_the_check(self):
        workload = EvalSeeds(ROOT, SCALE)
        rnd = run_round(workload, self.work)
        self.assertEqual(workload.check(rnd), (0, []))
        path = Path(rnd.facts["outs"]["dep"])
        records = [json.loads(line) for line in path.read_text().splitlines()]
        # one hundredth, the CLI's precision: less than one token on most sets
        records[0]["value"] = round(records[0]["value"] + 0.01, 2)
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        _, problems = workload.check(rnd)
        self.assertTrue(problems)

    def test_refuses_to_run_without_the_sources(self):
        bare = self.work / "bare"
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "_out"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "raw-prep", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
